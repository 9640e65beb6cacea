#include "rewrite/rewriter.hh"

#include <algorithm>
#include <cstdio>
#include <functional>

#include <unistd.h>

#include "analysis/cache.hh"
#include "analysis/funcptr.hh"
#include "analysis/liveness.hh"
#include "isa/bytes.hh"
#include "binfmt/addr_map.hh"
#include "binfmt/stream_writer.hh"
#include "rewrite/engine.hh"
#include "rewrite/shard.hh"
#include "rewrite/trampoline.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/thread_pool.hh"

namespace icp
{

const char *
rewriteModeName(RewriteMode mode)
{
    switch (mode) {
      case RewriteMode::dir: return "dir";
      case RewriteMode::jt: return "jt";
      case RewriteMode::funcPtr: return "func-ptr";
    }
    return "?";
}

const char *
injectDefectName(InjectDefect defect)
{
    switch (defect) {
      case InjectDefect::none: return "none";
      case InjectDefect::trampTarget: return "tramp-target";
      case InjectDefect::trampRange: return "tramp-range";
      case InjectDefect::trampChain: return "tramp-chain";
      case InjectDefect::liveScratch: return "live-scratch";
      case InjectDefect::tocScratch: return "toc-scratch";
      case InjectDefect::staleCloneEntry: return "stale-clone-entry";
      case InjectDefect::cloneBounds: return "clone-bounds";
      case InjectDefect::doublePatch: return "double-patch";
      case InjectDefect::raMapEntry: return "ra-map-entry";
      case InjectDefect::dropFde: return "drop-fde";
      case InjectDefect::funcPtrStale: return "func-ptr-stale";
      case InjectDefect::depMissing: return "dep-missing";
      case InjectDefect::depStale: return "dep-stale";
      case InjectDefect::depOverbroad: return "dep-overbroad";
    }
    return "?";
}

std::optional<InjectDefect>
parseInjectDefect(const std::string &name)
{
    for (unsigned v = 0;
         v <= static_cast<unsigned>(InjectDefect::depOverbroad); ++v) {
        const auto defect = static_cast<InjectDefect>(v);
        if (name == injectDefectName(defect))
            return defect;
    }
    return std::nullopt;
}

namespace
{

Addr
alignUp(Addr v, Addr align)
{
    return (v + align - 1) & ~(align - 1);
}

/** Mutable working copy of the output image under construction. */
class Rewriter
{
  public:
    Rewriter(const BinaryImage &input, const RewriteOptions &opts,
             const RewritePass &pass)
        : input_(input), opts_(opts), pass_(pass),
          arch_(input.archInfo())
    {
    }

    RewriteResult run();
    RewriteResult runSharded(SbfSink &sink);

  private:
    bool optionsConflict();
    EngineConfig engineConfig();
    std::shared_ptr<const LivenessResult>
    livenessFor(const Function &func) const;
    /** A .instr patch that must wait for the emission pass (the
     *  streaming path patches function bytes in flight instead of a
     *  materialized section). */
    struct InstrPatch
    {
        Addr at = 0;
        Addr newTarget = 0;
    };

    std::set<Addr> chooseInstrumented();
    std::set<Addr> cflBlocks(const Function &func) const;
    std::set<Addr> blocksReachingInstrumentation(
        const Function &func) const;
    void donateScratch(ScratchPool &pool);
    void recordDonation(Addr addr, std::uint64_t len);
    Addr funcEntryOf(Addr a) const;
    bool injectSiteAllowed(Addr func_entry) const;
    void fillManifest(EngineResult &engine);
    void injectByteDefect();
    void installTrampolines(const EngineResult &engine);
    void trampolineBegin();
    void trampolineFunc(const Function &func,
                        const std::set<Addr> &cfl,
                        const LivenessResult *live,
                        const AddrPairMap &block_map);
    void trampolineFinish();
    void accountTrampoline(const TrampolineRequest &req,
                           Addr func_entry,
                           const TrampolineOut &installed);
    void rewriteFuncPtrs(const AddrPairMap &block_map,
                         const AddrPairMap &insn_map,
                         std::vector<InstrPatch> *deferred);
    void patchCodeDef(const FuncPtrDef &def, Addr new_target,
                      const AddrPairMap &insn_map,
                      std::vector<InstrPatch> *deferred);
    static void applyFuncPtrMutation(const BinaryImage &input,
                                     Instruction &in, Addr new_target);
    bool patchInstructionAt(std::vector<std::uint8_t> &bytes,
                            Addr section_base, Addr at,
                            const std::function<void(Instruction &)>
                                &mutate);
    void clobberOriginal(
        const std::vector<std::pair<Addr, Addr>> &func_ranges);
    void addCodeSections(std::vector<std::uint8_t> instr_bytes,
                         std::uint64_t instr_size,
                         std::vector<std::uint8_t> rodata);
    void buildSections(std::uint64_t instr_size,
                       std::uint64_t rodata_size,
                       const std::vector<std::pair<Addr, Addr>>
                           &ra_pairs);

    const BinaryImage &input_;
    const RewriteOptions &opts_;
    const RewritePass &pass_;
    const ArchInfo &arch_;

    /** Built here, or borrowed from pass_.cfg (session reuse). In
     *  the sharded run it points at the current shard's CFG. */
    CfgModule ownCfg_;
    const CfgModule *cfg_ = nullptr;
    FuncPtrAnalysisResult funcPtrs_;
    std::set<Addr> instrumented_;

    RewriteResult result_;
    BinaryImage out_;

    Addr instrBase_ = 0;
    Addr newRodataBase_ = 0;

    std::vector<std::pair<Addr, Addr>> trapEntries_;

    /** Bytes a trampoline occupies (kept during clobbering). */
    std::vector<std::pair<Addr, Addr>> keepRanges_;

    // Trampoline-installation state, live between trampolineBegin()
    // and trampolineFinish() (the sharded coordinator interleaves
    // per-function installs with layout across shard boundaries).
    struct PendingTramp
    {
        TrampolineRequest req;
        Addr superEnd;
        Addr funcEntry;
    };
    std::unique_ptr<ScratchPool> pool_;
    std::unique_ptr<TrampolineWriter> writer_;
    std::vector<PendingTramp> pendingTramps_;
};

std::set<Addr>
Rewriter::chooseInstrumented()
{
    std::set<Addr> chosen;
    for (const auto &[entry, func] : cfg_->functions) {
        if (!func.instrumentable())
            continue;
        if (!opts_.onlyFunctions.empty() &&
            !opts_.onlyFunctions.count(func.name))
            continue;
        chosen.insert(entry);
    }
    return chosen;
}

std::set<Addr>
Rewriter::cflBlocks(const Function &func) const
{
    std::set<Addr> cfl;
    if (!opts_.trampolinePlacement) {
        // SRBI-style: every basic block gets a trampoline.
        for (const auto &[start, block] : func.blocks)
            cfl.insert(start);
        return cfl;
    }

    // Function entry blocks: always CFL — entries of instrumented
    // functions keep a trampoline so calls from uninstrumented code
    // (and unrewritten pointers) stay correct (§4.3).
    cfl.insert(func.entry);

    // Landing pads: the unwinder resumes at original addresses.
    for (Addr lp : func.landingPads) {
        if (func.blocks.count(lp))
            cfl.insert(lp);
    }

    // Jump-table targets: CFL only when tables are not cloned.
    if (opts_.mode == RewriteMode::dir) {
        for (Addr t : func.jumpTableTargets())
            cfl.insert(t);
    }

    // Call fall-through blocks: CFL under call emulation only;
    // runtime RA translation removes them (§6).
    if (!opts_.raTranslation) {
        for (const auto &[start, block] : func.blocks) {
            for (const auto &edge : block.succs) {
                if (edge.kind == EdgeKind::callFallthrough &&
                    func.blocks.count(edge.target)) {
                    cfl.insert(edge.target);
                }
            }
        }
    }

    // The §4.2 extension: drop trampolines at CFL blocks that
    // cannot reach any instrumented block — control flow landing
    // there may keep running original code (which is why this is
    // incompatible with clobbering).
    if (opts_.reachabilityPruning) {
        const std::set<Addr> keep =
            blocksReachingInstrumentation(func);
        for (auto it = cfl.begin(); it != cfl.end();) {
            if (keep.count(*it))
                ++it;
            else
                it = cfl.erase(it);
        }
    }
    return cfl;
}

std::set<Addr>
Rewriter::blocksReachingInstrumentation(const Function &func) const
{
    // Instrumentation sites in this function. Calls to other
    // instrumented functions are covered by the callees' own entry
    // trampolines, so local reachability suffices.
    std::set<Addr> inst;
    if (opts_.instrumentation.countFunctionEntries)
        inst.insert(func.entry);
    if (opts_.raTranslation && input_.features.isGo &&
        (func.name == "runtime.findfunc" ||
         func.name == "runtime.pcvalue")) {
        inst.insert(func.entry);
    }
    for (const auto &[start, block] : func.blocks) {
        if (opts_.instrumentation.instrumentsBlock(start))
            inst.insert(start);
    }

    // Backward reachability over intra-procedural edges.
    std::map<Addr, std::vector<Addr>> preds;
    for (const auto &[start, block] : func.blocks) {
        for (const auto &edge : block.succs)
            preds[edge.target].push_back(start);
    }
    std::set<Addr> keep = inst;
    std::vector<Addr> work(inst.begin(), inst.end());
    while (!work.empty()) {
        const Addr cur = work.back();
        work.pop_back();
        auto it = preds.find(cur);
        if (it == preds.end())
            continue;
        for (Addr p : it->second) {
            if (keep.insert(p).second)
                work.push_back(p);
        }
    }
    return keep;
}

void
Rewriter::recordDonation(Addr addr, std::uint64_t len)
{
    result_.manifest.scratchRanges.emplace_back(addr, len);
}

void
Rewriter::donateScratch(ScratchPool &pool)
{
    auto donate = [&](Addr addr, std::uint64_t len) {
        pool.donate(addr, len, arch_.instrAlign);
        recordDonation(addr, len);
    };

    // Source 1: inter-function nop padding in .text.
    const auto funcs = input_.functionSymbols();
    const Section *text = input_.findSection(SectionKind::text);
    if (text) {
        Addr cursor = text->addr;
        for (const Symbol *sym : funcs) {
            if (sym->addr > cursor)
                donate(cursor, sym->addr - cursor);
            cursor = std::max(cursor, sym->addr + sym->size);
        }
        if (text->end() > cursor)
            donate(cursor, text->end() - cursor);
    }

    // Source 3: the retired dynamic-linking sections (§3). (Source
    // 2, unused scratch-block bytes, is consumed in place through
    // trampoline superblock extension.)
    for (const auto kind : {SectionKind::dynsym, SectionKind::dynstr,
                            SectionKind::relaDyn}) {
        if (const Section *s = input_.findSection(kind))
            donate(s->addr, s->memSize);
    }
}

void
Rewriter::accountTrampoline(const TrampolineRequest &req,
                            Addr func_entry,
                            const TrampolineOut &installed)
{
    result_.stats.trampolines++;
    switch (installed.kind) {
      case TrampolineKind::direct:
        result_.stats.directTramps++;
        break;
      case TrampolineKind::longForm:
      case TrampolineKind::longFormSpill:
        result_.stats.longTramps++;
        break;
      case TrampolineKind::multiHop:
        result_.stats.multiHopTramps++;
        break;
      case TrampolineKind::trap:
        result_.stats.trapTramps++;
        break;
    }
    TrampolinePatch patch;
    patch.site = req.at;
    patch.funcEntry = func_entry;
    patch.target = req.target;
    patch.kind = installed.kind;
    patch.scratchReg = req.scratchReg;
    patch.space = req.space;
    for (const auto &write : installed.writes) {
        const bool ok = out_.writeBytes(write.at, write.bytes);
        icp_assert(ok, "trampoline write failed at 0x%llx",
                   static_cast<unsigned long long>(write.at));
        keepRanges_.emplace_back(write.at,
                                 write.at + write.bytes.size());
        patch.writes.emplace_back(write.at, write.bytes.size());
    }
    result_.manifest.trampolines.push_back(std::move(patch));
    for (const auto &entry2 : installed.trapEntries)
        trapEntries_.push_back(entry2);
}

void
Rewriter::trampolineBegin()
{
    pool_ = std::make_unique<ScratchPool>();
    donateScratch(*pool_);
    writer_ = std::make_unique<TrampolineWriter>(
        arch_, input_.tocBase, *pool_, opts_.multiHop);
}

void
Rewriter::installTrampolines(const EngineResult &engine)
{
    trampolineBegin();

    // Per-function trampoline inputs — CFL block sets and (on the
    // fixed ISAs) liveness — are independent across functions:
    // precompute them in parallel, with liveness memoized in the
    // analysis cache under the function's CFG key. The serial
    // install below then only does the order-sensitive pool work.
    struct FuncPre
    {
        const Function *func = nullptr;
        std::set<Addr> cfl;
        std::shared_ptr<const LivenessResult> live;
    };
    std::vector<const Function *> funcs;
    for (const auto &[entry, func] : cfg_->functions) {
        if (instrumented_.count(entry))
            funcs.push_back(&func);
    }
    std::vector<FuncPre> pre(funcs.size());
    {
        StageTimer timer(Stage::liveness);
        ThreadPool::shared().parallelFor(
            funcs.size(), effectiveThreads(opts_.threads),
            [&](std::size_t i) {
                const Function &func = *funcs[i];
                pre[i].func = &func;
                pre[i].cfl = cflBlocks(func);
                pre[i].live = livenessFor(func);
            });
    }

    StageTimer timer(Stage::trampoline);
    for (const FuncPre &p : pre)
        trampolineFunc(*p.func, p.cfl, p.live.get(), engine.blockMap);
    trampolineFinish();
}

/**
 * Liveness for @p func on the fixed-length ISAs (null elsewhere),
 * memoized in the analysis cache under the function's CFG key.
 */
std::shared_ptr<const LivenessResult>
Rewriter::livenessFor(const Function &func) const
{
    if (!arch_.fixedLength)
        return nullptr;
    const bool cached = opts_.useAnalysisCache && func.cacheKey != 0;
    if (cached) {
        if (auto hit = AnalysisCache::global().findLiveness(
                func.cacheKey, func.entry))
            return hit;
    }
    auto live = std::make_shared<const LivenessResult>(
        computeLiveness(func, arch_));
    if (cached) {
        AnalysisCache::global().storeLiveness(
            func.cacheKey, input_.arch, func.entry, *live);
    }
    return live;
}

/**
 * Phase 1 for one function: in-place installs; unused superblock
 * bytes (source 2 of §7's scratch space) are donated to the pool for
 * phase 2. @p block_map resolves an original block start to its
 * relocated address; @p live may be null on variable-length ISAs.
 */
void
Rewriter::trampolineFunc(const Function &func,
                         const std::set<Addr> &cfl,
                         const LivenessResult *live,
                         const AddrPairMap &block_map)
{
    result_.stats.cflBlocks += cfl.size();
    result_.stats.totalBlocks += func.blocks.size();

    // Repair demotion: every trampoline in this function becomes
    // a trap — the always-sound §4.3 fallback.
    const bool force_trap =
        opts_.forceTrapFunctions.count(func.name) > 0;

    // Embedded jump-table data must never be overwritten.
    std::vector<std::pair<Addr, Addr>> protect;
    for (const auto &jt : func.jumpTables) {
        if (jt.embeddedInCode) {
            protect.emplace_back(
                jt.tableAddr,
                jt.tableAddr +
                    std::uint64_t{jt.entryCount} * jt.entrySize);
            keepRanges_.emplace_back(protect.back());
            result_.manifest.protectedRanges.push_back(
                protect.back());
        }
    }

    for (Addr start : cfl) {
        auto bit = func.blocks.find(start);
        if (bit == func.blocks.end())
            continue;
        // Trampoline superblock: extend across address-adjacent
        // scratch (non-CFL) blocks (§4.1).
        Addr se = bit->second.end;
        if (opts_.trampolinePlacement) {
            auto next = std::next(bit);
            while (next != func.blocks.end() &&
                   next->first == se && !cfl.count(next->first)) {
                se = next->second.end;
                ++next;
            }
        }
        // Never extend over embedded table data.
        for (const auto &[lo, hi] : protect) {
            if (lo >= start && lo < se)
                se = lo;
        }

        TrampolineRequest req;
        req.at = start;
        req.space = se - start;
        const std::optional<Addr> target = block_map.lookup(start);
        icp_assert(target.has_value(),
                   "CFL block 0x%llx not relocated",
                   static_cast<unsigned long long>(start));
        req.target = *target;
        req.scratchReg = arch_.fixedLength
            ? live->deadRegAt(start)
            : Reg::none;

        if (force_trap) {
            const TrampolineOut trapped = writer_->installTrap(req);
            const std::uint64_t used =
                trapped.writes.empty()
                    ? 0
                    : trapped.writes[0].bytes.size();
            accountTrampoline(req, func.entry, trapped);
            if (opts_.trampolinePlacement && start + used < se) {
                pool_->donate(start + used, se - (start + used),
                              arch_.instrAlign);
                recordDonation(start + used, se - (start + used));
            }
            continue;
        }

        // Fault injection (register defects): force a long form
        // whose scratch register the verifier must reject. Only
        // the first applicable site is corrupted.
        std::optional<TrampolineOut> in_place;
        const bool want_reg_defect = opts_.lint &&
            (opts_.injectDefect == InjectDefect::liveScratch ||
             opts_.injectDefect == InjectDefect::tocScratch) &&
            result_.manifest.injectedRule.empty() &&
            (opts_.injectOnlyFunction.empty() ||
             func.name == opts_.injectOnlyFunction);
        if (want_reg_defect && arch_.fixedLength &&
            req.space >= writer_->longFormLen()) {
            Reg bad = Reg::none;
            if (opts_.injectDefect == InjectDefect::tocScratch) {
                if (arch_.hasToc)
                    bad = Reg::toc;
            } else {
                const RegSet live_set = live->liveAtBlockStart(start);
                for (unsigned r = 0; r < num_gp_regs; ++r) {
                    if (live_set.contains(static_cast<Reg>(r))) {
                        bad = static_cast<Reg>(r);
                        break;
                    }
                }
            }
            if (bad != Reg::none) {
                req.scratchReg = bad;
                in_place = writer_->installForcedLongForm(req);
                result_.manifest.injectedRule =
                    opts_.injectDefect == InjectDefect::tocScratch
                        ? "toc-preserved"
                        : "tramp-scratch-live";
            }
        }
        if (!in_place)
            in_place = writer_->installInPlace(req);

        if (in_place) {
            accountTrampoline(req, func.entry, *in_place);
            std::uint64_t used = 0;
            for (const auto &write : in_place->writes) {
                if (write.at == start)
                    used = write.bytes.size();
            }
            if (opts_.trampolinePlacement && start + used < se) {
                pool_->donate(start + used, se - (start + used),
                              arch_.instrAlign);
                recordDonation(start + used, se - (start + used));
            }
        } else {
            pendingTramps_.push_back({req, se, func.entry});
        }
    }
}

void
Rewriter::trampolineFinish()
{
    // Donate the tails of still-pending superblocks (the first-hop
    // branch needs only the head), then resolve them.
    const std::uint64_t head = arch_.fixedLength
        ? arch_.directJmpLen
        : arch_.shortJmpLen;
    if (opts_.trampolinePlacement) {
        for (const auto &p : pendingTramps_) {
            if (p.req.at + head < p.superEnd) {
                pool_->donate(p.req.at + head,
                              p.superEnd - (p.req.at + head),
                              arch_.instrAlign);
                recordDonation(p.req.at + head,
                               p.superEnd - (p.req.at + head));
            }
        }
    }
    for (const auto &p : pendingTramps_) {
        accountTrampoline(p.req, p.funcEntry,
                          writer_->installWithFallback(p.req));
    }
    pendingTramps_.clear();
    writer_.reset();
    pool_.reset();
}

bool
Rewriter::patchInstructionAt(std::vector<std::uint8_t> &bytes,
                             Addr section_base, Addr at,
                             const std::function<void(Instruction &)>
                                 &mutate)
{
    const Offset off = at - section_base;
    if (off >= bytes.size())
        return false;
    Instruction in;
    if (!arch_.codec->decode(bytes.data() + off, bytes.size() - off,
                             at, in)) {
        return false;
    }
    const unsigned old_len = in.length;
    mutate(in);
    std::vector<std::uint8_t> enc;
    if (!arch_.codec->encode(in, at, enc) || enc.size() != old_len)
        return false;
    std::copy(enc.begin(), enc.end(),
              bytes.begin() + static_cast<std::ptrdiff_t>(off));
    return true;
}

void
Rewriter::applyFuncPtrMutation(const BinaryImage &input,
                               Instruction &in, Addr new_target)
{
    const ArchInfo &arch = input.archInfo();
    switch (in.op) {
      case Opcode::MovImm:
        if (arch.fixedLength) {
            in.imm = static_cast<std::int64_t>(
                (new_target >> in.movShift) & 0xffff);
        } else {
            in.imm = static_cast<std::int64_t>(new_target);
        }
        break;
      case Opcode::Lea:
      case Opcode::AdrPage:
        in.target = new_target;
        break;
      case Opcode::AddisToc: {
        const std::int64_t off =
            static_cast<std::int64_t>(new_target) -
            static_cast<std::int64_t>(input.tocBase);
        in.imm = (off + 0x8000) >> 16;
        break;
      }
      case Opcode::AddImm: {
        std::int64_t lo;
        if (arch.hasToc) {
            const std::int64_t off =
                static_cast<std::int64_t>(new_target) -
                static_cast<std::int64_t>(input.tocBase);
            lo = signExtend(static_cast<std::uint64_t>(off), 16);
        } else {
            const Addr page = ((new_target + 0x8000) >> 16) << 16;
            lo = static_cast<std::int64_t>(new_target) -
                 static_cast<std::int64_t>(page);
        }
        in.imm = lo;
        break;
      }
      default:
        break;
    }
}

void
Rewriter::patchCodeDef(const FuncPtrDef &def, Addr new_target,
                       const AddrPairMap &insn_map,
                       std::vector<InstrPatch> *deferred)
{
    // Decide where the defining instructions live now: inside
    // relocated code (.instr) for instrumented functions, in the
    // original .text otherwise. With @p deferred set, .instr patches
    // are queued for the emission pass instead of applied to the
    // (not yet materialized) section payload.
    Section *instr = out_.findSection(SectionKind::instr);
    Section *text = out_.findSection(SectionKind::text);
    icp_assert(instr && text, "sections missing");

    for (Addr orig : def.defAddrs) {
        Addr at = orig;
        Section *sec = text;
        if (const std::optional<Addr> relocated = insn_map.lookup(orig)) {
            at = *relocated;
            sec = instr;
            if (deferred) {
                deferred->push_back({at, new_target});
                continue;
            }
        }
        const bool ok = patchInstructionAt(
            sec->bytes, sec->addr, at, [&](Instruction &in) {
                applyFuncPtrMutation(input_, in, new_target);
            });
        icp_assert(ok, "func-ptr code patch failed at 0x%llx",
                   static_cast<unsigned long long>(at));
    }
}

void
Rewriter::rewriteFuncPtrs(const AddrPairMap &block_map,
                          const AddrPairMap &insn_map,
                          std::vector<InstrPatch> *deferred)
{
    for (const auto &def : funcPtrs_.defs) {
        // Displaced pointers (Listing 1's entry+1) land inside the
        // entry trampoline and are therefore rewritten in every
        // mode; exact entry pointers only in func-ptr mode.
        if (opts_.mode != RewriteMode::funcPtr && def.delta == 0)
            continue;
        Addr new_value;
        if (def.delta == 0) {
            // Point at the relocated block start so entry
            // instrumentation still runs.
            const std::optional<Addr> relocated =
                block_map.lookup(def.funcEntry);
            if (!relocated)
                continue; // not relocated; pointer stays valid
            new_value = *relocated;
        } else {
            const Addr use_point = def.funcEntry +
                                   static_cast<Addr>(def.delta);
            const std::optional<Addr> relocated =
                insn_map.lookup(use_point);
            if (!relocated)
                continue;
            new_value = *relocated - static_cast<Addr>(def.delta);
        }

        FuncPtrPatch patch;
        patch.site = def.site;
        patch.funcEntry = def.funcEntry;
        patch.delta = def.delta;
        patch.newValue = new_value;

        if (def.kind == FuncPtrDef::Kind::dataCell) {
            // Update the relocation addend and the initialized
            // bytes.
            for (auto &rel : out_.relocs) {
                if (rel.site == def.site) {
                    rel.addend = static_cast<std::int64_t>(new_value);
                }
            }
            std::vector<std::uint8_t> raw;
            for (unsigned b = 0; b < 8; ++b)
                raw.push_back(
                    static_cast<std::uint8_t>(new_value >> (8 * b)));
            out_.writeBytes(def.site, raw);
            result_.stats.rewrittenFuncPtrs++;
            patch.kind = FuncPtrPatch::Kind::dataCell;
        } else {
            patchCodeDef(def, new_value, insn_map, deferred);
            result_.stats.rewrittenFuncPtrs++;
            patch.kind = FuncPtrPatch::Kind::codeDef;
        }
        result_.manifest.funcPtrs.push_back(patch);
    }
}

void
Rewriter::clobberOriginal(
    const std::vector<std::pair<Addr, Addr>> &func_ranges)
{
    Section *text = out_.findSection(SectionKind::text);
    icp_assert(text, "no .text");
    std::sort(keepRanges_.begin(), keepRanges_.end());

    auto isKept = [&](Addr a) {
        auto it = std::upper_bound(
            keepRanges_.begin(), keepRanges_.end(),
            std::make_pair(a, ~Addr{0}));
        if (it == keepRanges_.begin())
            return false;
        --it;
        return a >= it->first && a < it->second;
    };

    // Illegal filler: 0x00 never decodes.
    for (const auto &[entry, end] : func_ranges) {
        for (Addr a = entry; a < end; ++a) {
            if (isKept(a))
                continue;
            const Offset off = a - text->addr;
            if (off < text->bytes.size())
                text->bytes[off] = 0x00;
        }
    }
}

/** Add .instr (@p instr_bytes stays empty while the payload is
 *  streamed) and, when there are clones, .newrodata. */
void
Rewriter::addCodeSections(std::vector<std::uint8_t> instr_bytes,
                          std::uint64_t instr_size,
                          std::vector<std::uint8_t> rodata)
{
    Section instr;
    instr.name = ".instr";
    instr.kind = SectionKind::instr;
    instr.addr = instrBase_;
    instr.bytes = std::move(instr_bytes);
    instr.memSize = instr_size;
    instr.executable = true;
    out_.addSection(std::move(instr));

    if (!rodata.empty()) {
        Section ro;
        ro.name = ".newrodata";
        ro.kind = SectionKind::newRodata;
        ro.addr = newRodataBase_;
        ro.memSize = rodata.size();
        ro.bytes = std::move(rodata);
        out_.addSection(std::move(ro));
    }
}

void
Rewriter::buildSections(std::uint64_t instr_size,
                        std::uint64_t rodata_size,
                        const std::vector<std::pair<Addr, Addr>>
                            &ra_pairs)
{
    Addr cursor = alignUp(std::max(newRodataBase_ + rodata_size,
                                   instrBase_ + instr_size),
                          4096);

    // .ra_map
    if (opts_.raTranslation) {
        AddrPairMap ra_map(ra_pairs);
        Section s;
        s.name = ".ra_map";
        s.kind = SectionKind::raMap;
        s.addr = cursor;
        s.bytes = ra_map.serialize();
        s.memSize = s.bytes.size();
        cursor = alignUp(cursor + s.memSize, 4096);
        out_.addSection(std::move(s));
        result_.stats.raMapEntries = ra_map.size();
    }

    // .trap_map
    {
        AddrPairMap trap_map(trapEntries_);
        Section s;
        s.name = ".trap_map";
        s.kind = SectionKind::trapMap;
        s.addr = cursor;
        s.bytes = trap_map.serialize();
        s.memSize = s.bytes.size();
        cursor = alignUp(cursor + s.memSize, 4096);
        out_.addSection(std::move(s));
    }

    // Move the dynamic-linking sections; retire the old copies as
    // executable scratch (they already hold multi-hop trampolines).
    for (const auto kind : {SectionKind::dynsym, SectionKind::dynstr,
                            SectionKind::relaDyn}) {
        Section *old_sec = out_.findSection(kind);
        if (!old_sec)
            continue;
        Section moved = *old_sec;
        moved.addr = cursor;
        // Extra room for new dynamic symbols/strings/relocations —
        // what makes calls into external instrumentation libraries
        // linkable (§3).
        moved.memSize += 256;
        cursor = alignUp(cursor + moved.memSize, 16);
        old_sec->name += ".old";
        old_sec->kind = SectionKind::other;
        old_sec->executable = true;
        out_.addSection(std::move(moved));
    }
}

Addr
Rewriter::funcEntryOf(Addr a) const
{
    auto it = cfg_->functions.upper_bound(a);
    if (it == cfg_->functions.begin())
        return 0;
    --it;
    return (a >= it->second.entry && a < it->second.end) ? it->first
                                                         : 0;
}

bool
Rewriter::injectSiteAllowed(Addr func_entry) const
{
    if (opts_.injectOnlyFunction.empty())
        return true;
    auto it = cfg_->functions.find(func_entry);
    return it != cfg_->functions.end() &&
           it->second.name == opts_.injectOnlyFunction;
}

/** Record the rewrite in the manifest; takes @p engine's maps. */
void
Rewriter::fillManifest(EngineResult &engine)
{
    RewriteManifest &m = result_.manifest;
    m.populated = true;
    m.blockMap = std::move(engine.blockMap);
    m.insnMap = std::move(engine.insnMap);
    m.raPairs = std::move(engine.raPairs);
    m.funcSpans = std::move(engine.funcSpans);
    m.instrumented = instrumented_;
    for (const auto &[entry, func] : cfg_->functions)
        m.dataDeps[entry] = func.dataDeps;
    for (const auto &clone : engine.clones) {
        const JumpTable &jt = clone.table;
        JumpTableClonePatch p;
        p.jumpAddr = jt.jumpAddr;
        p.funcEntry = funcEntryOf(jt.jumpAddr);
        p.cloneAddr = clone.cloneAddr;
        p.entrySize = clone.entrySize;
        p.entryCount = jt.entryCount;
        p.shift = jt.shift;
        p.widened = clone.widened;
        p.origBase = jt.base;
        p.origTableAddr = jt.tableAddr;
        p.origTargets = jt.targets;
        m.clones.push_back(std::move(p));
    }
}

/**
 * Plant the post-emission defects of InjectDefect: each corrupts
 * exactly one emitted artifact after the rewrite completed, leaving
 * the manifest describing the *intended* output, so exactly one
 * verifier rule must fire. Register defects (liveScratch /
 * tocScratch) are planted during trampoline installation instead.
 */
void
Rewriter::injectByteDefect()
{
    RewriteManifest &m = result_.manifest;
    if (!m.injectedRule.empty())
        return; // a register defect was already planted

    switch (opts_.injectDefect) {
      case InjectDefect::trampTarget: {
        // Retarget a direct trampoline at an unmapped address that
        // the branch can still encode.
        const Addr bogus = out_.highWaterMark(4096) + 0x10000;
        for (const auto &p : m.trampolines) {
            if (p.kind != TrampolineKind::direct ||
                !injectSiteAllowed(p.funcEntry))
                continue;
            std::vector<std::uint8_t> enc;
            if (!arch_.codec->encode(makeJmp(bogus), p.site, enc))
                continue;
            if (p.writes.empty() || enc.size() != p.writes[0].second)
                continue;
            icp_assert(out_.writeBytes(p.site, enc),
                       "defect write failed");
            m.injectedRule = "tramp-target";
            return;
        }
        return;
      }

      case InjectDefect::trampRange: {
        // Encode a branch past the ISA's enforced reach. Only the
        // ppc-like ISA has headroom between the enforced ±32 MB and
        // the 26-bit displacement field (±128 MB in 4-byte words).
        if (!arch_.fixedLength)
            return;
        for (const auto &p : m.trampolines) {
            if (p.kind != TrampolineKind::direct ||
                !injectSiteAllowed(p.funcEntry))
                continue;
            const Addr far = p.site + 2 *
                static_cast<Addr>(arch_.directJmpRange);
            std::vector<std::uint8_t> enc;
            if (!arch_.codec->encodeUnchecked(makeJmp(far), p.site,
                                              enc)) {
                continue;
            }
            icp_assert(out_.writeBytes(p.site, enc),
                       "defect write failed");
            m.injectedRule = "tramp-range";
            return;
        }
        return;
      }

      case InjectDefect::trampChain: {
        // A trampoline branching to its own site: the chain walker
        // must detect the cycle.
        for (const auto &p : m.trampolines) {
            if (p.kind != TrampolineKind::direct ||
                !injectSiteAllowed(p.funcEntry))
                continue;
            std::vector<std::uint8_t> enc;
            if (!arch_.codec->encode(makeJmp(p.site), p.site, enc))
                continue;
            if (p.writes.empty() || enc.size() != p.writes[0].second)
                continue;
            icp_assert(out_.writeBytes(p.site, enc),
                       "defect write failed");
            m.injectedRule = "tramp-chain";
            return;
        }
        return;
      }

      case InjectDefect::staleCloneEntry: {
        // Zero one clone entry whose correct value is nonzero —
        // the "skipped fixup" of §5.1.
        for (const auto &c : m.clones) {
            if (!injectSiteAllowed(c.funcEntry))
                continue;
            for (unsigned i = 0; i < c.entryCount; ++i) {
                const Addr orig =
                    i < c.origTargets.size() ? c.origTargets[i] : 0;
                if (!m.blockMap.lookup(orig))
                    continue;
                const Addr at =
                    c.cloneAddr + std::uint64_t{i} * c.entrySize;
                const auto cur = out_.readValue(at, c.entrySize);
                if (!cur || *cur == 0)
                    continue;
                out_.writeBytes(
                    at, std::vector<std::uint8_t>(c.entrySize, 0));
                m.injectedRule = "jt-clone-target";
                return;
            }
        }
        return;
      }

      case InjectDefect::cloneBounds: {
        // Shrink .newrodata so a clone's last entry sticks out.
        Section *ro = out_.findSection(SectionKind::newRodata);
        if (!ro || m.clones.empty())
            return;
        const JumpTableClonePatch *last = nullptr;
        for (const auto &c : m.clones) {
            if (!last || c.cloneAddr > last->cloneAddr)
                last = &c;
        }
        const Addr end = last->cloneAddr +
            std::uint64_t{last->entryCount} * last->entrySize;
        if (end <= ro->addr + 1)
            return;
        ro->memSize = end - 1 - ro->addr;
        if (ro->bytes.size() > ro->memSize)
            ro->bytes.resize(ro->memSize);
        m.injectedRule = "jt-clone-bounds";
        return;
      }

      case InjectDefect::doublePatch: {
        // Duplicate one patch record: two installs claiming the
        // same byte extent.
        for (const auto &p : m.trampolines) {
            if (!injectSiteAllowed(p.funcEntry))
                continue;
            m.trampolines.push_back(p);
            m.injectedRule = "patch-overlap";
            return;
        }
        return;
      }

      case InjectDefect::raMapEntry: {
        Section *s = out_.findSection(SectionKind::raMap);
        if (!s || s->bytes.empty())
            return;
        AddrPairMap parsed = AddrPairMap::parse(s->bytes);
        if (parsed.empty())
            return;
        auto pairs = parsed.pairs();
        pairs[0].second += 4;
        s->bytes = AddrPairMap(pairs).serialize();
        s->memSize = s->bytes.size();
        m.injectedRule = "addr-map-round-trip";
        return;
      }

      case InjectDefect::dropFde: {
        auto fdes = out_.fdeRecords();
        for (auto it = fdes.begin(); it != fdes.end(); ++it) {
            if (!m.instrumented.count(it->start) ||
                !injectSiteAllowed(it->start))
                continue;
            fdes.erase(it);
            out_.setFdeRecords(fdes);
            m.injectedRule = "eh-frame-cover";
            return;
        }
        return;
      }

      case InjectDefect::funcPtrStale: {
        // Restore a rewritten pointer cell (bytes and relocation)
        // to its original value.
        for (const auto &p : m.funcPtrs) {
            if (p.kind != FuncPtrPatch::Kind::dataCell ||
                !injectSiteAllowed(p.funcEntry))
                continue;
            const auto orig = input_.readValue(p.site, 8);
            if (!orig)
                continue;
            std::vector<std::uint8_t> raw;
            for (unsigned b = 0; b < 8; ++b)
                raw.push_back(
                    static_cast<std::uint8_t>(*orig >> (8 * b)));
            out_.writeBytes(p.site, raw);
            for (const auto &in_rel : input_.relocs) {
                if (in_rel.site != p.site)
                    continue;
                for (auto &rel : out_.relocs) {
                    if (rel.site == p.site)
                        rel.addend = in_rel.addend;
                }
            }
            m.injectedRule = "func-ptr-target";
            return;
        }
        return;
      }

      case InjectDefect::depMissing: {
        // Drop one recorded read-set range: the audit's expected
        // recomputation finds bytes the owner reads but never
        // recorded.
        for (auto &[entry, deps] : m.dataDeps) {
            if (deps.empty() || !injectSiteAllowed(entry))
                continue;
            auto ranges = deps.ranges();
            ranges.pop_back();
            deps.setRanges(std::move(ranges));
            m.injectedRule = "datadep-missing";
            return;
        }
        return;
      }

      case InjectDefect::depStale: {
        // Flip one recorded range hash: the range no longer hashes
        // clean against the image it claims to describe.
        for (auto &[entry, deps] : m.dataDeps) {
            if (deps.empty() || !injectSiteAllowed(entry))
                continue;
            auto ranges = deps.ranges();
            ranges.back().hash ^= 1;
            deps.setRanges(std::move(ranges));
            m.injectedRule = "datadep-stale";
            return;
        }
        return;
      }

      case InjectDefect::depOverbroad: {
        // Append a large range the slice never reads, with a
        // *correct* content hash (re-finalized against the input),
        // so only the overbroad audit fires — not stale.
        const Section *blob = nullptr;
        for (const Section &sec : input_.sections) {
            if (!sec.loadable || sec.executable ||
                sec.bytes.empty())
                continue;
            if (!blob || sec.memSize > blob->memSize)
                blob = &sec;
        }
        if (!blob)
            return;
        for (auto &[entry, deps] : m.dataDeps) {
            if (deps.empty() || !injectSiteAllowed(entry))
                continue;
            const std::uint64_t before = deps.totalBytes();
            DataDeps widened;
            for (const DepRange &r : deps.ranges())
                widened.add(r.lo, r.hi);
            widened.add(blob->addr, blob->addr + blob->memSize);
            widened.finalize(input_);
            // Below the audit threshold the defect would go
            // unflagged; keep looking for a smaller owner.
            const std::uint64_t extra =
                widened.totalBytes() - before;
            if (extra <= std::max<std::uint64_t>(64, before))
                continue;
            deps = std::move(widened);
            m.injectedRule = "datadep-overbroad";
            return;
        }
        return;
      }

      case InjectDefect::none:
      case InjectDefect::liveScratch:
      case InjectDefect::tocScratch:
        return;
    }
}

/** Whether the options cannot combine at all (sets failReason). */
bool
Rewriter::optionsConflict()
{
    if (opts_.reachabilityPruning && opts_.clobberOriginal) {
        result_.failReason = "reachability pruning lets original "
                             "code execute; it cannot be combined "
                             "with clobbering";
        return true;
    }
    return false;
}

/**
 * Place .instr above the input's loaded image and .newrodata after
 * .instr's window, and configure the engine for the options.
 */
EngineConfig
Rewriter::engineConfig()
{
    instrBase_ = input_.highWaterMark(4096);
    // Estimate .instr extent to place .newrodata after it: snippets
    // and veneers expand code; 4x the original text is a safe bound.
    const Section *text = input_.findSection(SectionKind::text);
    icp_assert(text, "input has no .text");
    newRodataBase_ =
        alignUp(instrBase_ + text->memSize * 4 + 0x10000, 4096);

    EngineConfig config;
    config.mode = opts_.mode;
    config.callEmulation = !opts_.raTranslation;
    config.instrumentation = opts_.instrumentation;
    config.functionOrder = opts_.functionOrder;
    config.blockOrder = opts_.blockOrder;
    config.instrBase = instrBase_;
    config.newRodataBase = newRodataBase_;
    config.goRaTranslation =
        opts_.raTranslation && input_.features.isGo;
    config.threads = opts_.threads;
    return config;
}

RewriteResult
Rewriter::run()
{
    if (optionsConflict())
        return result_;
    if (pass_.cfg) {
        // Session reuse: the caller's analysis artifacts are
        // authoritative; skip CFG construction entirely.
        cfg_ = pass_.cfg;
    } else {
        AnalysisOptions analysis = opts_.analysis;
        analysis.threads = opts_.threads;
        analysis.useCache = opts_.useAnalysisCache;
        ownCfg_ = buildCfg(input_, analysis);
        cfg_ = &ownCfg_;
    }
    // Function-pointer analysis runs in every mode: even dir/jt
    // need the forward-sliced displaced pointers (§5.2).
    {
        StageTimer timer(Stage::funcPtr);
        funcPtrs_ = analyzeFuncPtrs(*cfg_);
    }

    instrumented_ = chooseInstrumented();
    result_.stats.totalFunctions = cfg_->totalFunctions();
    result_.stats.instrumentableFunctions =
        cfg_->instrumentableFunctions();
    result_.stats.instrumentedFunctions =
        static_cast<unsigned>(instrumented_.size());
    result_.stats.originalLoadedSize = input_.loadedSize();

    out_ = input_;
    EngineConfig config = engineConfig();

    // Selective re-rewrite: hand the engine the previous pass's
    // layout and bytes so only pass_.dirtyFunctions re-emit.
    if (pass_.previous && pass_.previous->ok &&
        pass_.previous->manifest.populated) {
        const Section *prev_instr =
            pass_.previous->image.findSection(SectionKind::instr);
        if (prev_instr) {
            config.reuse.manifest = &pass_.previous->manifest;
            config.reuse.instrBytes = &prev_instr->bytes;
            config.reuse.dirty = &pass_.dirtyFunctions;
        }
    }

    EngineResult engine =
        relocateFunctions(*cfg_, instrumented_, config);
    result_.stats.relocEmittedFunctions = engine.emittedFunctions;
    result_.stats.relocReusedFunctions = engine.reusedFunctions;
    icp_assert(instrBase_ + engine.instrBytes.size() <= newRodataBase_,
               ".instr overflowed its window");

    addCodeSections(engine.instrBytes, engine.instrBytes.size(),
                    engine.newRodataBytes);
    installTrampolines(engine);
    rewriteFuncPtrs(engine.blockMap, engine.insnMap, nullptr);
    if (opts_.clobberOriginal) {
        std::vector<std::pair<Addr, Addr>> ranges;
        for (const auto &[entry, func] : cfg_->functions) {
            if (instrumented_.count(entry))
                ranges.emplace_back(func.entry, func.end);
        }
        clobberOriginal(ranges);
    }

    {
        StageTimer timer(Stage::output);
        buildSections(engine.instrBytes.size(),
                      engine.newRodataBytes.size(), engine.raPairs);
    }
    if (opts_.lint) {
        fillManifest(engine);
        if (opts_.injectDefect != InjectDefect::none)
            injectByteDefect();
    } else {
        result_.manifest = RewriteManifest{};
    }
    result_.stats.clonedTables = engine.clones.size();
    result_.stats.rewrittenLoadedSize = out_.loadedSize();
    result_.blockCounters = engine.blockCounters;
    result_.entryCounters = engine.entryCounters;
    result_.image = std::move(out_);
    result_.ok = true;
    return result_;
}

/**
 * The sharded, streaming run (§4g of DESIGN.md). Three sequential
 * passes over the shard list — plan, layout+trampolines, emit — each
 * rebuilding one shard's CFG at a time from the (never mutated)
 * input, with the per-function relocation engine carrying only flat
 * address maps across shards. Processing functions in ascending
 * address order in every pass reproduces the monolithic pipeline's
 * bytes exactly; only peak memory differs.
 */
RewriteResult
Rewriter::runSharded(SbfSink &sink)
{
    if (optionsConflict())
        return result_;
    if (opts_.functionOrder != OrderPolicy::original ||
        opts_.blockOrder != OrderPolicy::original) {
        result_.failReason =
            "sharded rewriting requires original layout order";
        return result_;
    }
    if (opts_.injectDefect != InjectDefect::none) {
        result_.failReason =
            "sharded rewriting does not support fault injection";
        return result_;
    }
    if (pass_.cfg || pass_.previous) {
        result_.failReason =
            "sharded rewriting does not take a session pass";
        return result_;
    }

    // The analysis cache file is the coordination medium: workers
    // persist their shard's analysis there, and the coordinator maps
    // it once, after the last worker exits, and replays it one shard
    // at a time. Without a configured file, a private temporary one
    // serves for this run. The in-memory cache is dropped up front so
    // forked workers inherit an empty cache.
    std::string cache_path = opts_.cachePath;
    bool temp_cache = false;
    if (opts_.useAnalysisCache) {
        AnalysisCache::global().clear();
        if (cache_path.empty()) {
            cache_path = "/tmp/icp-shard-cache." +
                         std::to_string(::getpid()) + ".sbfc";
            std::remove(cache_path.c_str());
            temp_cache = true;
        }
    }

    const std::vector<ShardRange> ranges =
        planShards(input_, opts_.shards);
    result_.stats.shards.resize(ranges.size());
    if (opts_.useAnalysisCache) {
        runShardWorkers(input_, opts_, ranges, cache_path,
                        result_.stats.shards);
        StageTimer timer(Stage::cacheLoad);
        result_.cacheLoad =
            AnalysisCache::global().load(cache_path, input_.arch);
    }
    // One mapping serves all three passes: lookups decode from it
    // without keeping what they decode, so memory stays O(shard).
    // What the coordinator analyzes itself (a degraded worker's
    // range) is stored, and stored entries are kept, so each range
    // is analyzed cold at most once across the passes.
    struct DecodeWithoutKeeping
    {
        DecodeWithoutKeeping()
        {
            AnalysisCache::global().keepDecoded(false);
        }
        ~DecodeWithoutKeeping()
        {
            AnalysisCache::global().keepDecoded(true);
        }
    } decode_without_keeping;

    auto buildShard = [&](const ShardRange &r) {
        AnalysisOptions analysis = opts_.analysis;
        analysis.threads = opts_.threads;
        analysis.useCache = opts_.useAnalysisCache;
        analysis.rangeLo = r.lo;
        analysis.rangeHi = r.hi;
        return buildCfg(input_, analysis);
    };

    // Legacy-identical base state: mutate only the copy; every shard
    // CFG decodes the unmutated input.
    out_ = input_;
    EngineConfig config = engineConfig();
    config.threads = 1;
    IncrementalEngine engine(input_, config);
    FuncPtrScanner scanner(input_);

    // Pass 0 — plan: per-shard statistics, the function-pointer
    // scan, clone/counter planning, and the instrumented ranges.
    std::vector<std::pair<Addr, Addr>> instr_ranges;
    for (std::size_t k = 0; k < ranges.size(); ++k) {
        const CfgModule cfg = buildShard(ranges[k]);
        cfg_ = &cfg;
        const std::set<Addr> inst = chooseInstrumented();

        ShardCounters &sc = result_.stats.shards[k];
        sc.functions = cfg.totalFunctions();
        sc.instrumented = static_cast<unsigned>(inst.size());
        for (const auto &[entry, func] : cfg.functions) {
            (void)entry;
            sc.blocks += func.blocks.size();
            for (const auto &[start, block] : func.blocks) {
                (void)start;
                sc.insns += block.insns.size();
            }
        }
        result_.stats.totalFunctions += cfg.totalFunctions();
        result_.stats.instrumentableFunctions +=
            cfg.instrumentableFunctions();
        result_.stats.instrumentedFunctions +=
            static_cast<unsigned>(inst.size());

        {
            StageTimer timer(Stage::funcPtr);
            for (const auto &[entry, func] : cfg.functions) {
                (void)entry;
                scanner.scanFunction(func);
            }
        }
        for (Addr e : inst) {
            const Function &func = cfg.functions.at(e);
            engine.planFunction(func);
            instr_ranges.emplace_back(func.entry, func.end);
        }
        cfg_ = nullptr;
    }
    funcPtrs_ = scanner.take();
    result_.stats.originalLoadedSize = input_.loadedSize();
    // Passes A and B look every function up again; the plan pass's
    // lookups are the ones that describe the run.
    const AnalysisCache::Stats planned = AnalysisCache::global().stats();

    // Pass A — layout and trampolines, interleaved per function. The
    // scratch pool evolves in the same ascending function order as
    // the monolithic path, so every install decision matches; a
    // function's CFL targets are in the block map the moment its own
    // layout completes.
    trampolineBegin();
    std::vector<FuncSpan> spans;
    for (const ShardRange &r : ranges) {
        const CfgModule cfg = buildShard(r);
        cfg_ = &cfg;
        for (Addr e : chooseInstrumented()) {
            const Function &func = cfg.functions.at(e);
            {
                StageTimer timer(Stage::relocate);
                spans.push_back(engine.layoutFunction(func));
            }
            const std::set<Addr> cfl = cflBlocks(func);
            std::shared_ptr<const LivenessResult> live;
            {
                StageTimer timer(Stage::liveness);
                live = livenessFor(func);
            }
            StageTimer timer(Stage::trampoline);
            trampolineFunc(func, cfl, live.get(),
                           engine.result().blockMap);
        }
        cfg_ = nullptr;
    }
    {
        StageTimer timer(Stage::trampoline);
        trampolineFinish();
    }

    const std::uint64_t instr_size = engine.layoutEnd() - instrBase_;
    icp_assert(instrBase_ + instr_size <= newRodataBase_,
               ".instr overflowed its window");
    result_.stats.relocEmittedFunctions =
        static_cast<unsigned>(spans.size());

    // The section list must be final — and every non-streamed
    // payload fully patched — before any byte is streamed. The
    // .instr payload alone stays unmaterialized (empty bytes, full
    // memSize); func-ptr patches that land in it are deferred to the
    // emission pass.
    std::vector<std::uint8_t> rodata = engine.cloneBytes();
    const std::uint64_t rodata_size = rodata.size();
    addCodeSections({}, instr_size, std::move(rodata));

    std::vector<InstrPatch> deferred;
    rewriteFuncPtrs(engine.result().blockMap,
                    engine.result().insnMap, &deferred);
    if (opts_.clobberOriginal)
        clobberOriginal(instr_ranges);
    {
        StageTimer timer(Stage::output);
        buildSections(instr_size, rodata_size,
                      engine.result().raPairs);
    }
    result_.stats.clonedTables = engine.result().clones.size();
    result_.stats.rewrittenLoadedSize = out_.loadedSize();
    result_.blockCounters = engine.result().blockCounters;
    result_.entryCounters = engine.result().entryCounters;

    // Pass B — emit and stream. Emission is deterministic in (CFG,
    // base), so re-emitting at the recorded spans with the complete
    // block map yields the final bytes function by function.
    std::sort(deferred.begin(), deferred.end(),
              [](const InstrPatch &a, const InstrPatch &b) {
                  return a.at < b.at;
              });
    SbfStreamWriter writer(sink,
                           opts_.streamWindowBytes
                               ? opts_.streamWindowBytes
                               : SbfStreamWriter::default_window);
    writer.beginImage(out_);
    for (const Section &sec : out_.sections) {
        if (sec.kind != SectionKind::instr) {
            writer.writeSection(sec);
            continue;
        }
        writer.beginStreamedSection(sec, instr_size);
        auto patch_it = deferred.cbegin();
        std::size_t span_idx = 0;
        Addr cursor = instrBase_;
        for (const ShardRange &r : ranges) {
            const CfgModule cfg = buildShard(r);
            cfg_ = &cfg;
            for (Addr e : chooseInstrumented()) {
                const Function &func = cfg.functions.at(e);
                const FuncSpan &span = spans[span_idx++];
                icp_assert(span.entry == func.entry,
                           "span/function order diverged");
                std::vector<std::uint8_t> bytes;
                {
                    StageTimer timer(Stage::relocate);
                    bytes = engine.emitFunction(func, span.base);
                }
                icp_assert(bytes.size() == span.size,
                           "emission size diverged from layout");
                for (; patch_it != deferred.cend() &&
                       patch_it->at < span.base + bytes.size();
                     ++patch_it) {
                    icp_assert(patch_it->at >= span.base,
                               "func-ptr patch outside any span");
                    const bool ok = patchInstructionAt(
                        bytes, span.base, patch_it->at,
                        [&](Instruction &in) {
                            applyFuncPtrMutation(
                                input_, in, patch_it->newTarget);
                        });
                    icp_assert(ok,
                               "func-ptr code patch failed at 0x%llx",
                               static_cast<unsigned long long>(
                                   patch_it->at));
                }
                if (cursor < span.base) {
                    const std::vector<std::uint8_t> pad =
                        engine.paddingBytes(cursor, span.base);
                    writer.addChunk(cursor - instrBase_, pad.data(),
                                    pad.size());
                }
                writer.addChunk(span.base - instrBase_, bytes.data(),
                                bytes.size());
                cursor = span.base + bytes.size();
            }
            cfg_ = nullptr;
        }
        icp_assert(cursor == engine.layoutEnd(),
                   "streamed payload diverged from layout");
        icp_assert(patch_it == deferred.cend(),
                   "unapplied func-ptr patches");
        writer.endStreamedSection();
    }
    writer.finishImage(out_);

    if (opts_.useAnalysisCache) {
        result_.cacheStats = AnalysisCache::global().stats();
        result_.cacheStats.functionHits = planned.functionHits;
        result_.cacheStats.functionMisses = planned.functionMisses;
    }
    if (temp_cache) {
        std::remove(cache_path.c_str());
        std::remove((cache_path + ".lock").c_str());
    } else if (opts_.useAnalysisCache) {
        // At most one save: the file lacks only what the coordinator
        // stored itself (the only decoded entries), and a size cap
        // the workers' appends overran still has to compact it.
        const bool stored = AnalysisCache::global().decodedCount() > 0;
        const bool over_cap =
            opts_.cacheMaxBytes != 0 &&
            result_.cacheLoad.bytesMapped > opts_.cacheMaxBytes;
        if (stored || over_cap) {
            StageTimer timer(Stage::cacheSave);
            AnalysisCache::global().save(cache_path,
                                         opts_.cacheMaxBytes);
        }
    }

    // Manifests are a monolithic-path feature (the verifier wants
    // whole-image address maps); drop what accumulated.
    result_.manifest = RewriteManifest{};
    result_.ok = true;
    return result_;
}

/**
 * Cross-invocation persistence around @p rewrite: merge the on-disk
 * cache before analysis runs, write it back after a successful
 * rewrite. Both directions are best-effort — a corrupt or unwritable
 * file can only cost analysis reuse, never correctness.
 */
template <typename Rewrite>
RewriteResult
withDiskCache(const BinaryImage &input, const RewriteOptions &options,
              const Rewrite &rewrite)
{
    const bool persist =
        !options.cachePath.empty() && options.useAnalysisCache;
    CacheLoadReport cache_load;
    if (persist) {
        StageTimer timer(Stage::cacheLoad);
        cache_load = AnalysisCache::global().load(options.cachePath,
                                                  input.arch);
    }

    RewriteResult result = rewrite();
    result.cacheLoad = std::move(cache_load);

    if (persist && result.ok) {
        StageTimer timer(Stage::cacheSave);
        AnalysisCache::global().save(options.cachePath,
                                     options.cacheMaxBytes);
    }
    return result;
}

} // namespace

RewriteResult
rewriteBinary(const BinaryImage &input, const RewriteOptions &options)
{
    const RewritePass pass;
    return rewriteBinary(input, options, pass);
}

RewriteResult
rewriteBinary(const BinaryImage &input, const RewriteOptions &options,
              const RewritePass &pass)
{
    return withDiskCache(input, options, [&] {
        return Rewriter(input, options, pass).run();
    });
}

RewriteResult
rewriteBinarySharded(const BinaryImage &input,
                     const RewriteOptions &options, SbfSink &sink)
{
    // No withDiskCache: the coordinator loads the file once after
    // its workers have filled it, and saves it itself.
    const RewritePass pass;
    return Rewriter(input, options, pass).runSharded(sink);
}

} // namespace icp
