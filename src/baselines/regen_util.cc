#include "baselines/regen_util.hh"

#include <algorithm>

#include "analysis/funcptr.hh"
#include "isa/bytes.hh"
#include "support/logging.hh"

namespace icp
{

std::uint64_t
rewriteRegeneratedFuncPtrs(BinaryImage &out, Section &new_text,
                           const CfgModule &cfg,
                           const EngineResult &engine)
{
    const ArchInfo &arch = out.archInfo();
    const FuncPtrAnalysisResult fps = analyzeFuncPtrs(cfg);
    std::uint64_t rewritten = 0;

    for (const auto &def : fps.defs) {
        const std::optional<Addr> relocated =
            def.delta == 0
                ? engine.blockMap.lookup(def.funcEntry)
                : engine.insnMap.lookup(def.funcEntry +
                                        static_cast<Addr>(def.delta));
        if (!relocated)
            continue;
        const Addr new_value = *relocated - static_cast<Addr>(def.delta);

        if (def.kind == FuncPtrDef::Kind::dataCell) {
            for (auto &rel : out.relocs) {
                if (rel.site == def.site)
                    rel.addend = static_cast<std::int64_t>(new_value);
            }
            std::vector<std::uint8_t> raw;
            for (unsigned b = 0; b < 8; ++b)
                raw.push_back(
                    static_cast<std::uint8_t>(new_value >> (8 * b)));
            out.writeBytes(def.site, raw);
            ++rewritten;
            continue;
        }

        // Code definitions: patch the regenerated instructions.
        bool patched = false;
        for (Addr orig : def.defAddrs) {
            const std::optional<Addr> relocated_def =
                engine.insnMap.lookup(orig);
            if (!relocated_def)
                continue;
            const Addr at = *relocated_def;
            const Offset off = at - new_text.addr;
            if (off >= new_text.bytes.size())
                continue;
            Instruction in;
            if (!arch.codec->decode(new_text.bytes.data() + off,
                                    new_text.bytes.size() - off, at,
                                    in)) {
                continue;
            }
            switch (in.op) {
              case Opcode::MovImm:
                in.imm = arch.fixedLength
                    ? static_cast<std::int64_t>(
                          (new_value >> in.movShift) & 0xffff)
                    : static_cast<std::int64_t>(new_value);
                break;
              case Opcode::Lea:
              case Opcode::AdrPage:
                in.target = new_value;
                break;
              case Opcode::AddisToc: {
                const std::int64_t o =
                    static_cast<std::int64_t>(new_value) -
                    static_cast<std::int64_t>(out.tocBase);
                in.imm = (o + 0x8000) >> 16;
                break;
              }
              case Opcode::AddImm: {
                if (arch.hasToc) {
                    const std::int64_t o =
                        static_cast<std::int64_t>(new_value) -
                        static_cast<std::int64_t>(out.tocBase);
                    in.imm = signExtend(
                        static_cast<std::uint64_t>(o), 16);
                } else {
                    const Addr page =
                        ((new_value + 0x8000) >> 16) << 16;
                    in.imm = static_cast<std::int64_t>(new_value) -
                             static_cast<std::int64_t>(page);
                }
                break;
              }
              default:
                break;
            }
            std::vector<std::uint8_t> enc;
            const unsigned old_len = in.length;
            if (arch.codec->encode(in, at, enc) &&
                enc.size() == old_len) {
                std::copy(enc.begin(), enc.end(),
                          new_text.bytes.begin() +
                              static_cast<std::ptrdiff_t>(off));
                patched = true;
            }
        }
        if (patched)
            ++rewritten;
    }
    return rewritten;
}

} // namespace icp
