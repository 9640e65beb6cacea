/**
 * @file
 * Relocation-engine unit tests on hand-built functions: RA-map pair
 * recording, veneers for out-of-range returns to original space,
 * fall-through repair under block reordering, jump-table clone
 * contents, and aarch64 entry widening.
 */

#include <gtest/gtest.h>

#include "analysis/builder.hh"
#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "rewrite/engine.hh"

using namespace icp;

namespace
{

/** Decode the instruction stream of an engine result. */
std::vector<Instruction>
decodeAll(const ArchInfo &arch, const std::vector<std::uint8_t> &bytes,
          Addr base)
{
    std::vector<Instruction> out;
    Addr at = base;
    while (at < base + bytes.size()) {
        Instruction in;
        if (!arch.codec->decode(bytes.data() + (at - base),
                                bytes.size() - (at - base), at, in))
            break;
        out.push_back(in);
        at += in.length;
    }
    return out;
}

unsigned
countOp(const std::vector<Instruction> &insns, Opcode op)
{
    unsigned n = 0;
    for (const auto &in : insns)
        n += in.op == op;
    return n;
}

EngineConfig
baseConfig(const BinaryImage &img)
{
    EngineConfig config;
    config.mode = RewriteMode::jt;
    config.instrBase = img.highWaterMark(4096);
    config.newRodataBase = config.instrBase + 0x400000;
    return config;
}

std::set<Addr>
allFunctions(const CfgModule &cfg)
{
    std::set<Addr> all;
    for (const auto &[entry, func] : cfg.functions) {
        if (func.instrumentable())
            all.insert(entry);
    }
    return all;
}

} // namespace

TEST(Engine, RaPairsCoverCallsAndThrows)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, false));
    const CfgModule cfg = buildCfg(img, AnalysisOptions{});
    const EngineResult result = relocateFunctions(
        cfg, allFunctions(cfg), baseConfig(img));

    // Count call sites + throw sites in the CFG; every one must
    // have an RA pair, keyed at a relocated address and mapping to
    // an original address inside the owning function.
    unsigned expected = 0;
    for (const auto &[entry, func] : cfg.functions) {
        for (const auto &[start, block] : func.blocks) {
            for (const auto &in : block.insns) {
                expected += isCall(in.op) || in.op == Opcode::Throw;
            }
        }
    }
    EXPECT_EQ(result.raPairs.size(), expected);
    for (const auto &[reloc, orig] : result.raPairs) {
        EXPECT_GE(reloc, baseConfig(img).instrBase);
        EXPECT_NE(img.functionContaining(orig), nullptr);
    }
}

TEST(Engine, CallEmulationEmitsNoRaPairs)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, false));
    const CfgModule cfg = buildCfg(img, AnalysisOptions{});
    EngineConfig config = baseConfig(img);
    config.callEmulation = true;
    const EngineResult result =
        relocateFunctions(cfg, allFunctions(cfg), config);
    EXPECT_TRUE(result.raPairs.empty());

    // Emulated calls materialize return addresses pc-relatively:
    // Lea + Push replace the Call on x64.
    const auto insns = decodeAll(ArchInfo::get(Arch::x64),
                                 result.instrBytes,
                                 config.instrBase);
    EXPECT_EQ(countOp(insns, Opcode::Call), 0u);
    EXPECT_GT(countOp(insns, Opcode::Push), 0u);
    EXPECT_GT(countOp(insns, Opcode::ThrowRa), 0u);
    EXPECT_EQ(countOp(insns, Opcode::Throw), 0u);
}

TEST(Engine, VeneersForFarReturnsToOriginalSpace)
{
    // ppc64le with a 40 MB rodata blob: calls from .instr back to
    // non-relocated functions exceed ±32 MB and need r13 veneers.
    const auto suite = specCpuSuite(Arch::ppc64le, false);
    const BinaryImage img = compileProgram(suite[1]); // big gcc
    AnalysisOptions aopts;
    const CfgModule cfg = buildCfg(img, aopts);

    // Relocate only half the functions so cross-space calls exist.
    std::set<Addr> half;
    for (const auto &[entry, func] : cfg.functions) {
        if (func.instrumentable() && half.size() < 30)
            half.insert(entry);
    }
    const EngineResult result =
        relocateFunctions(cfg, half, baseConfig(img));
    const auto insns = decodeAll(ArchInfo::get(Arch::ppc64le),
                                 result.instrBytes,
                                 baseConfig(img).instrBase);
    // Veneer signature: AddisToc r13 followed by CallInd/JmpInd r13.
    bool veneer = false;
    for (std::size_t i = 0; i + 2 < insns.size(); ++i) {
        if (insns[i].op == Opcode::AddisToc &&
            insns[i].rd == Reg::r13 &&
            insns[i + 1].op == Opcode::AddImm &&
            (insns[i + 2].op == Opcode::CallInd ||
             insns[i + 2].op == Opcode::JmpInd) &&
            insns[i + 2].rs1 == Reg::r13) {
            veneer = true;
            break;
        }
    }
    EXPECT_TRUE(veneer);
}

TEST(Engine, BlockReorderRepairsFallthrough)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, false));
    const CfgModule cfg = buildCfg(img, AnalysisOptions{});
    EngineConfig config = baseConfig(img);
    config.blockOrder = OrderPolicy::reversed;
    const EngineResult reversed =
        relocateFunctions(cfg, allFunctions(cfg), config);
    const EngineResult normal = relocateFunctions(
        cfg, allFunctions(cfg), baseConfig(img));

    // Reversal forces explicit jumps where layout fall-through died.
    const auto &arch = ArchInfo::get(Arch::x64);
    const unsigned jumps_reversed = countOp(
        decodeAll(arch, reversed.instrBytes, config.instrBase),
        Opcode::Jmp);
    const unsigned jumps_normal = countOp(
        decodeAll(arch, normal.instrBytes, config.instrBase),
        Opcode::Jmp);
    EXPECT_GT(jumps_reversed, jumps_normal);

    // Entry blocks stay first so callers land correctly.
    for (const auto &[entry, func] : cfg.functions) {
        const std::optional<Addr> at = reversed.blockMap.lookup(entry);
        ASSERT_TRUE(at.has_value());
        for (const auto &[start, block] : func.blocks) {
            EXPECT_GE(reversed.blockMap.lookup(start).value(), *at);
        }
    }
}

TEST(Engine, CloneEntriesResolveToRelocatedBlocks)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, false));
    const CfgModule cfg = buildCfg(img, AnalysisOptions{});
    EngineConfig config = baseConfig(img);
    const EngineResult result =
        relocateFunctions(cfg, allFunctions(cfg), config);
    ASSERT_FALSE(result.clones.empty());

    for (const auto &clone : result.clones) {
        const JumpTable &jt = clone.table;
        for (unsigned i = 0; i < jt.entryCount; ++i) {
            const Offset off = clone.cloneAddr -
                               config.newRodataBase +
                               std::uint64_t{i} * clone.entrySize;
            std::int64_t value = 0;
            for (unsigned b = clone.entrySize; b-- > 0;) {
                value = (value << 8) |
                        result.newRodataBytes[off + b];
            }
            if (clone.entrySize == 4)
                value = static_cast<std::int32_t>(value);
            const Addr target = jt.base
                ? static_cast<Addr>(
                      static_cast<std::int64_t>(clone.cloneAddr) +
                      (value << jt.shift))
                : static_cast<Addr>(value);
            // Every real entry lands on a relocated block start.
            bool found = false;
            for (const auto &[orig, reloc] : result.blockMap.pairs())
                found |= reloc == target;
            EXPECT_TRUE(found) << "entry " << i;
        }
    }
}

TEST(Engine, A64SubWordTablesWidenAndStaySigned)
{
    auto spec = microProfile(Arch::aarch64, false);
    spec.funcs[1].switches[0].entrySize = 1;
    spec.funcs[1].switches[0].cases = 4;
    const BinaryImage img = compileProgram(spec);
    const CfgModule cfg = buildCfg(img, AnalysisOptions{});
    EngineConfig config = baseConfig(img);
    const EngineResult result =
        relocateFunctions(cfg, allFunctions(cfg), config);
    ASSERT_EQ(result.clones.size(), 1u);
    EXPECT_TRUE(result.clones[0].widened);
    EXPECT_EQ(result.clones[0].entrySize, 4u);

    // The relocated table-entry load reads 4 signed bytes now.
    const auto insns = decodeAll(ArchInfo::get(Arch::aarch64),
                                 result.instrBytes,
                                 config.instrBase);
    bool widened_load = false;
    for (const auto &in : insns) {
        if (in.op == Opcode::LoadIdx && in.memSize == 4 &&
            in.signedLoad)
            widened_load = true;
    }
    EXPECT_TRUE(widened_load);
}

TEST(Engine, InsnMapCoversEveryRelocatedInstruction)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::ppc64le, false));
    const CfgModule cfg = buildCfg(img, AnalysisOptions{});
    const EngineResult result = relocateFunctions(
        cfg, allFunctions(cfg), baseConfig(img));
    for (const auto &[entry, func] : cfg.functions) {
        for (const auto &[start, block] : func.blocks) {
            for (const auto &in : block.insns) {
                ASSERT_TRUE(result.insnMap.lookup(in.addr))
                    << std::hex << in.addr;
            }
            ASSERT_TRUE(result.blockMap.lookup(start));
            // The block's first instruction relocates at or after
            // the block map entry (snippets come first).
            EXPECT_GE(*result.insnMap.lookup(block.insns[0].addr),
                      *result.blockMap.lookup(start));
        }
    }
}

class EnginePerArch : public ::testing::TestWithParam<Arch>
{
};

TEST_P(EnginePerArch, IncrementalLayoutMatchesMonolithicRun)
{
    // The sharded driver's protocol — plan, layout, emit per function
    // in address order — over a whole CFG reproduces the monolithic
    // run's maps, counters and bytes exactly.
    const BinaryImage img = compileProgram(microProfile(GetParam(), true));
    const CfgModule cfg = buildCfg(img, AnalysisOptions{});
    const std::set<Addr> all = allFunctions(cfg);
    EngineConfig config = baseConfig(img);
    config.instrumentation.countBlocks = true;
    const EngineResult mono = relocateFunctions(cfg, all, config);

    IncrementalEngine inc(img, config);
    for (Addr e : all)
        inc.planFunction(cfg.functions.at(e));
    std::vector<FuncSpan> spans;
    for (Addr e : all)
        spans.push_back(inc.layoutFunction(cfg.functions.at(e)));
    const EngineResult &r = inc.result();
    EXPECT_FALSE(r.blockMap.empty());
    EXPECT_EQ(r.blockMap.pairs(), mono.blockMap.pairs());
    EXPECT_EQ(r.insnMap.pairs(), mono.insnMap.pairs());
    EXPECT_EQ(r.raPairs, mono.raPairs);
    EXPECT_EQ(r.blockCounters, mono.blockCounters);
    EXPECT_EQ(inc.cloneBytes(), mono.newRodataBytes);

    std::vector<std::uint8_t> bytes;
    for (const FuncSpan &span : spans) {
        const auto pad =
            inc.paddingBytes(config.instrBase + bytes.size(), span.base);
        bytes.insert(bytes.end(), pad.begin(), pad.end());
        const auto code =
            inc.emitFunction(cfg.functions.at(span.entry), span.base);
        bytes.insert(bytes.end(), code.begin(), code.end());
    }
    EXPECT_EQ(bytes, mono.instrBytes);
}

INSTANTIATE_TEST_SUITE_P(
    AllArches, EnginePerArch,
    ::testing::Values(Arch::x64, Arch::ppc64le, Arch::aarch64),
    [](const ::testing::TestParamInfo<Arch> &info) {
        switch (info.param) {
          case Arch::x64: return "x64";
          case Arch::ppc64le: return "ppc64le";
          case Arch::aarch64: return "aarch64";
        }
        return "unknown";
    });
