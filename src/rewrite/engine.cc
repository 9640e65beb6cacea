#include "rewrite/engine.hh"

#include <algorithm>
#include <memory>

#include "isa/assembler.hh"
#include "isa/bytes.hh"
#include "codegen/compiler.hh"
#include "sim/runtime_lib.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/thread_pool.hh"

namespace icp
{

namespace
{

/** How a relocated instruction's address operand is substituted. */
struct Subst
{
    enum class Role : std::uint8_t
    {
        whole,  ///< Lea/MovImm: replace the full target
        hi,     ///< AddisToc / AdrPage half of a pair
        lo,     ///< AddImm half of a pair
    };
    Role role = Role::whole;
    Addr newTarget = 0;
};

Addr
alignUpAddr(Addr v, Addr align)
{
    return (v + align - 1) & ~(align - 1);
}

/**
 * Whether a branch from relocated address @p at back into original
 * space at @p target needs an indirect veneer. Pure in (arch, at,
 * target) so the parallel pipeline can re-check a recorded decision
 * once the final layout is known.
 */
bool
veneerNeeded(const ArchInfo &arch, Addr at, Addr target)
{
    if (!arch.fixedLength)
        return false;
    const std::int64_t d = static_cast<std::int64_t>(target) -
                           static_cast<std::int64_t>(at);
    return d < -arch.directJmpRange + 64 ||
           d > arch.directJmpRange - 64;
}

class Engine
{
  public:
    Engine(const CfgModule &cfg, const std::set<Addr> &instrumented,
           const EngineConfig &config)
        : cfg_(cfg), image_(*cfg.image),
          arch_(cfg.image->archInfo()), instrumented_(instrumented),
          cfg_opts_(config), cloneCursor_(config.newRodataBase)
    {
    }

    EngineResult run();

    // The members below are logically private; they stay accessible
    // because IncrementalEngine's state (defined later in this file)
    // drives the per-function machinery directly.

    /**
     * One function's relocated code under construction. Each stream
     * has its own assembler, so streams build concurrently; every
     * recorded address is an offset from the stream start until the
     * layout pass assigns the final base.
     */
    struct FuncStream
    {
        const Function *func = nullptr;
        std::unique_ptr<Assembler> as;
        Addr base = 0;

        /** Labels of this function's own blocks (bound at emit). */
        std::map<Addr, Assembler::Label> ownLabels;

        /** Labels of other functions' blocks (bound after layout). */
        std::map<Addr, Assembler::Label> externalLabels;

        /** (original block start, stream offset), emission order. */
        std::vector<std::pair<Addr, Offset>> blockOffsets;

        /** (original insn address, stream offset), emission order. */
        std::vector<std::pair<Addr, Offset>> insnOffsets;

        /** (stream offset, original RA), emission order. */
        std::vector<std::pair<Offset, Addr>> raOffsets;

        /**
         * Address-dependent instruction selections made during
         * emission (veneer-or-direct, ADR-reaches-or-widen). When
         * every decision re-validates at the final base, the stream
         * is position-correct after a plain rebase; otherwise the
         * function re-emits at its exact base.
         */
        struct Decision
        {
            bool isVeneer = false; ///< else: Lea encode check
            Offset off = 0;
            Addr target = 0;
            Instruction in;
            bool taken = false;
        };
        std::vector<Decision> decisions;

        std::uint64_t size = 0;
        std::vector<std::uint8_t> bytes;
    };

    void planFunction(const Function &func);
    bool tryReuseRun(const std::vector<const Function *> &funcs);
    std::vector<const Block *>
    blockEmitOrder(const Function &func) const;
    void assignCountersFor(const Function &func);
    FuncStream emitFunctionStream(const Function &func, Addr base);
    bool decisionsHold(const FuncStream &fs, Addr base) const;
    void emitFunction(FuncStream &fs, const Function &func);
    void emitBlock(FuncStream &fs, const Function &func,
                   const Block &block, Addr fallthrough_next);
    void emitTranslated(FuncStream &fs, const Function &func,
                        const Instruction &in);
    std::vector<std::uint8_t> finalizeStream(FuncStream &fs) const;
    void appendPadding(std::vector<std::uint8_t> &out, Addr from,
                       Addr to) const;
    std::vector<std::uint8_t> cloneBytes() const;

    Assembler::Label
    labelFor(FuncStream &fs, Addr block_start)
    {
        auto own = fs.ownLabels.find(block_start);
        if (own != fs.ownLabels.end())
            return own->second;
        icp_assert(isRelocatedBlock(block_start),
                   "no label for block 0x%llx",
                   static_cast<unsigned long long>(block_start));
        auto [it, inserted] =
            fs.externalLabels.try_emplace(block_start, -1);
        if (inserted)
            it->second = fs.as->newLabel();
        return it->second;
    }

    bool
    isRelocatedBlock(Addr a) const
    {
        return std::binary_search(relocatedBlocks_.begin(),
                                  relocatedBlocks_.end(), a);
    }

    const CfgModule &cfg_;
    const BinaryImage &image_;
    const ArchInfo &arch_;
    const std::set<Addr> &instrumented_;
    EngineConfig cfg_opts_;

    EngineResult result_;
    /** Sorted block starts of every relocated function. A flat
     *  vector, not a set: at browser scale it is millions of
     *  entries, queried far more than it is built. */
    std::vector<Addr> relocatedBlocks_;
    Addr cloneCursor_ = 0;              ///< next .newrodata slot
    std::uint32_t counterNext_ = 0;     ///< next instrumentation id
    std::map<Addr, Subst> substs_;      ///< per base-def instruction
    std::set<Addr> widenLoads_;         ///< widened jt entry loads
};

/** Plan @p func: record its relocated blocks and place its
 *  jump-table clones. */
void
Engine::planFunction(const Function &func)
{
    for (const auto &[start, block] : func.blocks)
        relocatedBlocks_.push_back(start);
    if (cfg_opts_.mode == RewriteMode::dir)
        return;
    for (const auto &jt : func.jumpTables) {
        TableClone clone;
        clone.table = jt;
        clone.funcEntry = func.entry;
        // Anchor-relative sub-word entries must widen to 4 bytes
        // because relocated distances can exceed (and precede)
        // the original ones (§5.1).
        clone.widened = jt.entrySize < 4;
        clone.entrySize = clone.widened ? 4 : jt.entrySize;
        cloneCursor_ = (cloneCursor_ + 7) & ~Addr{7};
        clone.cloneAddr = cloneCursor_;
        cloneCursor_ +=
            std::uint64_t{jt.entryCount} * clone.entrySize;

        // Substitutions for the base-forming instructions.
        const auto &defs = jt.baseDefAddrs;
        if (defs.size() == 1) {
            substs_[defs[0]] = {Subst::Role::whole,
                                clone.cloneAddr};
        } else if (defs.size() >= 2) {
            substs_[defs[0]] = {Subst::Role::hi, clone.cloneAddr};
            substs_[defs[1]] = {Subst::Role::lo, clone.cloneAddr};
        }
        if (clone.widened)
            widenLoads_.insert(jt.loadAddr);

        result_.clones.push_back(std::move(clone));
    }
}

void
Engine::emitTranslated(FuncStream &fs, const Function &func,
                       const Instruction &in)
{
    Assembler &as = *fs.as;
    const Addr orig_next = in.addr + in.length;

    // Jump-table base substitution (jt/func-ptr modes).
    auto subst = substs_.find(in.addr);
    if (subst != substs_.end() &&
        cfg_opts_.mode != RewriteMode::dir) {
        Instruction patched = in;
        const Addr target = subst->second.newTarget;
        switch (subst->second.role) {
          case Subst::Role::whole:
            if (in.op == Opcode::MovImm) {
                patched.imm = static_cast<std::int64_t>(target);
            } else {
                patched.target = target;
            }
            break;
          case Subst::Role::hi:
            if (in.op == Opcode::AddisToc) {
                const std::int64_t off =
                    static_cast<std::int64_t>(target) -
                    static_cast<std::int64_t>(image_.tocBase);
                patched.imm = (off + 0x8000) >> 16;
            } else { // AdrPage
                patched.op = Opcode::AdrPage;
                patched.target = target;
            }
            break;
          case Subst::Role::lo: {
            std::int64_t lo;
            if (arch_.hasToc) {
                const std::int64_t off =
                    static_cast<std::int64_t>(target) -
                    static_cast<std::int64_t>(image_.tocBase);
                lo = signExtend(static_cast<std::uint64_t>(off), 16);
            } else {
                const Addr page = ((target + 0x8000) >> 16) << 16;
                lo = static_cast<std::int64_t>(target) -
                     static_cast<std::int64_t>(page);
            }
            patched.imm = lo;
            break;
          }
        }
        as.emit(patched);
        return;
    }

    // Widened jump-table entry loads (a64 1/2-byte -> 4-byte read).
    if (widenLoads_.count(in.addr) &&
        cfg_opts_.mode != RewriteMode::dir) {
        Instruction patched = in;
        patched.memSize = 4;
        patched.signedLoad = true;
        as.emit(patched);
        return;
    }

    // Materialize an original-space code address into a register in
    // a position-correct way (pc-relative / TOC-relative), as call
    // emulation must on position independent code.
    auto emitMaterializeAddr = [&](Reg rd, Addr target) {
        if (arch_.arch == Arch::x64) {
            as.emit(makeLea(rd, target));
        } else if (arch_.hasToc) {
            const std::int64_t off =
                static_cast<std::int64_t>(target) -
                static_cast<std::int64_t>(image_.tocBase);
            as.emit(makeAddisToc(rd, static_cast<std::int32_t>(
                                         (off + 0x8000) >> 16)));
            as.emit(makeAddImm(
                rd, signExtend(static_cast<std::uint64_t>(off), 16)));
        } else {
            as.emit(makeAdrPage(rd, target));
            const Addr page = ((target + 0x8000) >> 16) << 16;
            as.emit(makeAddImm(rd,
                               static_cast<std::int64_t>(target) -
                                   static_cast<std::int64_t>(page)));
        }
    };
    auto emitEmulatedRa = [&](Addr orig_ra) {
        if (arch_.hasLinkRegister) {
            emitMaterializeAddr(Reg::lr, orig_ra);
        } else {
            emitMaterializeAddr(Reg::r13, orig_ra);
            as.emit(makePush(Reg::r13));
        }
    };

    // Branches from .instr back into original space can exceed the
    // fixed-ISA direct reach (e.g. ppc64le ±32 MB with large data
    // sections); emit a veneer through r13, which the synthetic ABI
    // reserves for the rewriter. The decision depends on the
    // instruction's final address, so it is recorded for the layout
    // pass to re-validate.
    auto needsVeneer = [&](Addr target) {
        FuncStream::Decision d;
        d.isVeneer = true;
        d.off = static_cast<Offset>(as.here() - as.startAddr());
        d.target = target;
        d.taken = veneerNeeded(arch_, as.here(), target);
        fs.decisions.push_back(d);
        return d.taken;
    };
    auto emitVeneerTarget = [&](Addr target) {
        if (arch_.hasToc) {
            const std::int64_t off =
                static_cast<std::int64_t>(target) -
                static_cast<std::int64_t>(image_.tocBase);
            as.emit(makeAddisToc(
                Reg::r13,
                static_cast<std::int32_t>((off + 0x8000) >> 16)));
            as.emit(makeAddImm(
                Reg::r13,
                signExtend(static_cast<std::uint64_t>(off), 16)));
        } else {
            as.emit(makeAdrPage(Reg::r13, target));
            const Addr page = ((target + 0x8000) >> 16) << 16;
            as.emit(makeAddImm(Reg::r13,
                               static_cast<std::int64_t>(target) -
                                   static_cast<std::int64_t>(page)));
        }
    };

    switch (in.op) {
      case Opcode::Jmp: {
        if (isRelocatedBlock(in.target)) {
            as.emitToLabel(makeJmp(0), labelFor(fs, in.target));
        } else if (needsVeneer(in.target)) {
            emitVeneerTarget(in.target);
            as.emit(makeJmpInd(Reg::r13));
        } else {
            as.emit(makeJmp(in.target)); // stays in original space
        }
        return;
      }
      case Opcode::JmpCond: {
        if (isRelocatedBlock(in.target)) {
            Instruction jcc = makeJmpCond(in.cond, 0);
            as.emitToLabel(jcc, labelFor(fs, in.target));
        } else {
            as.emit(makeJmpCond(in.cond, in.target));
        }
        return;
      }
      case Opcode::Call: {
        if (cfg_opts_.callEmulation) {
            // Call emulation: materialize the ORIGINAL return
            // address, then branch. Returns land in original code
            // (the fall-through CFL block's trampoline bounces).
            emitEmulatedRa(orig_next);
            if (isRelocatedBlock(in.target)) {
                as.emitToLabel(makeJmp(0), labelFor(fs, in.target));
            } else if (needsVeneer(in.target)) {
                emitVeneerTarget(in.target);
                as.emit(makeJmpInd(Reg::r13));
            } else {
                as.emit(makeJmp(in.target));
            }
        } else {
            if (isRelocatedBlock(in.target)) {
                as.emitToLabel(makeCall(0), labelFor(fs, in.target));
            } else if (needsVeneer(in.target)) {
                emitVeneerTarget(in.target);
                as.emit(makeCallInd(Reg::r13));
            } else {
                as.emit(makeCall(in.target));
            }
            fs.raOffsets.emplace_back(
                static_cast<Offset>(as.here() - as.startAddr()),
                orig_next);
        }
        return;
      }
      case Opcode::CallInd: {
        if (cfg_opts_.callEmulation) {
            emitEmulatedRa(orig_next);
            as.emit(makeJmpInd(in.rs1));
        } else {
            as.emit(in);
            fs.raOffsets.emplace_back(
                static_cast<Offset>(as.here() - as.startAddr()),
                orig_next);
        }
        return;
      }
      case Opcode::CallIndMem: {
        if (cfg_opts_.callEmulation) {
            // Dyninst-10.2's x64 bug reproduced (§8.1): the pushed
            // return address shifts sp, so sp-relative operands read
            // the wrong slot.
            emitEmulatedRa(orig_next);
            as.emit(makeLoad(Reg::r12, in.rs1, in.imm));
            as.emit(makeJmpInd(Reg::r12));
        } else {
            as.emit(in);
            fs.raOffsets.emplace_back(
                static_cast<Offset>(as.here() - as.startAddr()),
                orig_next);
        }
        return;
      }
      case Opcode::Throw: {
        if (cfg_opts_.callEmulation) {
            // Emulate the call into the throw runtime: materialize
            // the original throw address for the unwinder.
            if (arch_.hasLinkRegister) {
                emitMaterializeAddr(Reg::r13, in.addr);
            } else {
                emitMaterializeAddr(Reg::r13, in.addr);
                as.emit(makePush(Reg::r13));
            }
            as.emit(makeThrowRa());
            return;
        }
        // The unwinder's innermost frame pc is the throw site
        // itself; map it back like a return address so the FDE
        // lookup sees original coordinates (§6).
        fs.raOffsets.emplace_back(
            static_cast<Offset>(as.here() - as.startAddr()),
            in.addr);
        as.emit(in);
        return;
      }
      case Opcode::Lea: {
        // An intra-function Lea of a block start is a jump-table
        // anchor: it must track the relocated code in jt/func-ptr
        // modes so anchor-relative clones stay consistent.
        if (cfg_opts_.mode != RewriteMode::dir &&
            in.target >= func.entry && in.target < func.end &&
            isRelocatedBlock(in.target)) {
            as.emitToLabel(makeLea(in.rd, 0),
                           labelFor(fs, in.target));
            return;
        }
        // The short-range ADR form cannot reach original space from
        // .instr; widen to the adrp/add pair (same absolute value).
        // Reachability depends on the final address: recorded.
        {
            std::vector<std::uint8_t> scratch;
            FuncStream::Decision d;
            d.off = static_cast<Offset>(as.here() - as.startAddr());
            d.in = in;
            d.taken = arch_.codec->encode(in, as.here(), scratch);
            fs.decisions.push_back(d);
            if (!d.taken) {
                as.emit(makeAdrPage(in.rd, in.target));
                const Addr page = ((in.target + 0x8000) >> 16) << 16;
                as.emit(makeAddImm(
                    in.rd, static_cast<std::int64_t>(in.target) -
                               static_cast<std::int64_t>(page)));
                return;
            }
        }
        as.emit(in);
        return;
      }
      default:
        as.emit(in);
        return;
    }
}

void
Engine::emitBlock(FuncStream &fs, const Function &func,
                  const Block &block, Addr fallthrough_next)
{
    Assembler &as = *fs.as;
    as.bind(fs.ownLabels.at(block.start));
    fs.blockOffsets.emplace_back(
        block.start, static_cast<Offset>(as.here() - as.startAddr()));

    // Instrumentation snippets (counter ids pre-assigned in
    // emission order by assignCountersFor so streams can emit
    // concurrently).
    const bool is_entry = block.start == func.entry;
    if (is_entry && cfg_opts_.goRaTranslation &&
        (func.name == "runtime.findfunc" ||
         func.name == "runtime.pcvalue")) {
        const unsigned slot = arch_.hasLinkRegister ? go_arg_slot_lr
                                                    : go_arg_slot_x64;
        as.emit(makeCallRt(
            rtServiceImm(RtService::raXlatStackSlot, slot)));
    }
    if (is_entry && cfg_opts_.instrumentation.countFunctionEntries) {
        auto id = result_.entryCounters.find(func.entry);
        icp_assert(id != result_.entryCounters.end(),
                   "entry counter not pre-assigned");
        as.emit(makeCallRt(
            rtServiceImm(RtService::count, id->second)));
    }
    if (cfg_opts_.instrumentation.instrumentsBlock(block.start)) {
        auto id = result_.blockCounters.find(block.start);
        icp_assert(id != result_.blockCounters.end(),
                   "block counter not pre-assigned");
        as.emit(makeCallRt(
            rtServiceImm(RtService::count, id->second)));
    }

    for (const auto &in : block.insns) {
        fs.insnOffsets.emplace_back(
            in.addr, static_cast<Offset>(as.here() - as.startAddr()));
        emitTranslated(fs, func, in);
    }

    // Preserve fall-through semantics when the next emitted block is
    // not the layout successor (block reordering, function ends).
    const Instruction &last = block.last();
    const bool falls = !isControlFlow(last.op) ||
                       last.op == Opcode::JmpCond ||
                       isCall(last.op);
    if (falls) {
        const Addr ft = block.end;
        if (ft != fallthrough_next) {
            if (isRelocatedBlock(ft))
                as.emitToLabel(makeJmp(0), labelFor(fs, ft));
            else
                as.emit(makeJmp(ft));
        }
    }
}

std::vector<const Block *>
Engine::blockEmitOrder(const Function &func) const
{
    std::vector<const Block *> order;
    order.reserve(func.blocks.size());
    for (const auto &[start, block] : func.blocks)
        order.push_back(&block);
    if (cfg_opts_.blockOrder == OrderPolicy::reversed) {
        // Keep the entry block first (callers land there), reverse
        // the rest.
        std::reverse(order.begin(), order.end());
        auto it = std::find_if(order.begin(), order.end(),
                               [&](const Block *b) {
                                   return b->start == func.entry;
                               });
        if (it != order.end()) {
            const Block *entry = *it;
            order.erase(it);
            order.insert(order.begin(), entry);
        }
    }
    return order;
}

void
Engine::emitFunction(FuncStream &fs, const Function &func)
{
    const std::vector<const Block *> order = blockEmitOrder(func);
    for (std::size_t i = 0; i < order.size(); ++i) {
        const Addr next =
            i + 1 < order.size() ? order[i + 1]->start : invalid_addr;
        emitBlock(fs, func, *order[i], next);
    }
}

Engine::FuncStream
Engine::emitFunctionStream(const Function &func, Addr base)
{
    FuncStream fs;
    fs.func = &func;
    fs.base = base;
    fs.as = std::make_unique<Assembler>(arch_, base);
    for (const auto &[start, block] : func.blocks)
        fs.ownLabels.emplace(start, fs.as->newLabel());
    emitFunction(fs, func);
    fs.size = fs.as->here() - fs.as->startAddr();
    return fs;
}

bool
Engine::decisionsHold(const FuncStream &fs, Addr base) const
{
    for (const auto &d : fs.decisions) {
        if (d.isVeneer) {
            if (veneerNeeded(arch_, base + d.off, d.target) !=
                d.taken) {
                return false;
            }
        } else {
            std::vector<std::uint8_t> scratch;
            if (arch_.codec->encode(d.in, base + d.off, scratch) !=
                d.taken) {
                return false;
            }
        }
    }
    return true;
}

/** Bind @p fs's cross-function branches against the block map and
 *  encode it. */
std::vector<std::uint8_t>
Engine::finalizeStream(FuncStream &fs) const
{
    for (const auto &[addr, label] : fs.externalLabels) {
        const std::optional<Addr> target = result_.blockMap.lookup(addr);
        icp_assert(target.has_value(),
                   "external block 0x%llx not relocated",
                   static_cast<unsigned long long>(addr));
        fs.as->bindAt(label, *target);
    }
    return fs.as->finalize();
}

/** Append the nop padding for [@p from, @p to): the same bytes
 *  Assembler::alignTo produces. */
void
Engine::appendPadding(std::vector<std::uint8_t> &out, Addr from,
                      Addr to) const
{
    const std::size_t start = out.size();
    Addr addr = from;
    while (addr < to) {
        const bool ok = arch_.codec->encode(makeNop(), addr, out);
        icp_assert(ok, "nop encode failed");
        addr = from + (out.size() - start);
    }
    icp_assert(addr == to, "alignment overshot");
}

/** The .newrodata payload: every clone's entries, re-solved through
 *  the block map. */
std::vector<std::uint8_t>
Engine::cloneBytes() const
{
    std::vector<std::uint8_t> out;
    for (const TableClone &clone : result_.clones) {
        const JumpTable &jt = clone.table;
        for (unsigned i = 0; i < jt.entryCount; ++i) {
            std::uint64_t value = 0;
            const Addr orig_target =
                i < jt.targets.size() ? jt.targets[i] : 0;
            if (const std::optional<Addr> relocated =
                    result_.blockMap.lookup(orig_target)) {
                const Addr tnew = *relocated;
                if (!jt.base) {
                    value = tnew;
                } else {
                    Addr base_new;
                    if (*jt.base == jt.tableAddr) {
                        base_new = clone.cloneAddr;
                    } else {
                        // Anchor-relative: the anchor moved with the
                        // code.
                        const std::optional<Addr> anchor =
                            result_.blockMap.lookup(*jt.base);
                        icp_assert(anchor.has_value(),
                                   "anchor 0x%llx not relocated",
                                   static_cast<unsigned long long>(
                                       *jt.base));
                        base_new = *anchor;
                    }
                    const std::int64_t diff =
                        static_cast<std::int64_t>(tnew) -
                        static_cast<std::int64_t>(base_new);
                    icp_assert((diff & ((1LL << jt.shift) - 1)) == 0,
                               "clone entry not aligned");
                    const std::int64_t entry = diff >> jt.shift;
                    icp_assert(
                        clone.entrySize == 8 ||
                            fitsSigned(entry, clone.entrySize * 8),
                        "clone entry does not fit");
                    value = static_cast<std::uint64_t>(entry);
                }
            }
            // Over-approximated garbage entries keep zero; they are
            // never dereferenced at runtime (§5.1, Failure 3).
            const Offset off = clone.cloneAddr -
                               cfg_opts_.newRodataBase +
                               std::uint64_t{i} * clone.entrySize;
            if (out.size() < off + clone.entrySize)
                out.resize(off + clone.entrySize, 0);
            for (unsigned b = 0; b < clone.entrySize; ++b) {
                out[off + b] =
                    static_cast<std::uint8_t>(value >> (8 * b));
            }
        }
    }
    return out;
}

/** Append @p offsets, rebased to @p base, to @p out. */
void
addRelocated(std::vector<AddrPairMap::Pair> &out,
             const std::vector<std::pair<Addr, Offset>> &offsets,
             Addr base)
{
    for (const auto &[orig, off] : offsets)
        out.emplace_back(orig, base + off);
}

void
Engine::assignCountersFor(const Function &func)
{
    for (const Block *block : blockEmitOrder(func)) {
        if (block->start == func.entry &&
            cfg_opts_.instrumentation.countFunctionEntries) {
            result_.entryCounters[func.entry] = counterNext_++;
        }
        if (cfg_opts_.instrumentation.instrumentsBlock(
                block->start)) {
            result_.blockCounters[block->start] = counterNext_++;
        }
    }
}

/**
 * Selective re-rewrite: re-emit only the dirty functions at the
 * bases the previous pass recorded, splicing their bytes into a copy
 * of the previous .instr payload; every other function's bytes,
 * block/insn map entries, and RA pairs carry over verbatim. Returns
 * false (leaving result_ untouched except clones/counters, which the
 * caller's full run path recomputes identically) whenever the
 * previous layout cannot be reproduced exactly — the caller then
 * falls back to a full emission.
 */
bool
Engine::tryReuseRun(const std::vector<const Function *> &funcs)
{
    const EngineReuse &ru = cfg_opts_.reuse;
    const RewriteManifest &prev = *ru.manifest;
    const std::vector<FuncSpan> &spans = prev.funcSpans;
    if (spans.size() != funcs.size())
        return false;
    for (std::size_t i = 0; i < funcs.size(); ++i) {
        if (spans[i].entry != funcs[i]->entry)
            return false;
    }

    // Re-emit each dirty function at its exact previous base. A size
    // change would shift every later function: bail to a full run.
    std::vector<FuncStream> streams(funcs.size());
    std::vector<bool> emitted(funcs.size(), false);
    for (std::size_t i = 0; i < funcs.size(); ++i) {
        if (!ru.dirty->count(funcs[i]->entry))
            continue;
        streams[i] = emitFunctionStream(*funcs[i], spans[i].base);
        if (streams[i].size != spans[i].size)
            return false;
        emitted[i] = true;
    }

    // Final addresses: copy the previous maps (one vector copy
    // each), then splice each dirty function's fresh entries over its
    // original [entry, end) extent. Reused functions are
    // byte-unchanged under the dirty-set contract, so their previous
    // entries stand verbatim; each one's entry block is still looked
    // up as a containment check so a manifest that does not actually
    // cover the current CFG falls back to a full emission instead of
    // producing a silently wrong map.
    result_.blockMap = prev.blockMap;
    result_.insnMap = prev.insnMap;
    for (std::size_t i = 0; i < funcs.size(); ++i) {
        const Function &func = *funcs[i];
        if (!emitted[i]) {
            if (!prev.blockMap.lookup(func.entry))
                return false;
            continue;
        }
        const FuncStream &fs = streams[i];
        std::vector<AddrPairMap::Pair> blocks, insns;
        addRelocated(blocks, fs.blockOffsets, fs.base);
        addRelocated(insns, fs.insnOffsets, fs.base);
        result_.blockMap.replaceRange(func.entry, func.end,
                                      std::move(blocks));
        result_.insnMap.replaceRange(func.entry, func.end,
                                     std::move(insns));
    }

    // RA pairs in emission order: the previous pass appended them
    // stream by stream, so they are sorted by relocated address and
    // a reused function's pairs are exactly the previous pairs whose
    // relocated address falls in its span — found by binary search,
    // not a full scan per function (the full scan made warm-path
    // relocation quadratic in the function count).
    icp_assert(std::is_sorted(prev.raPairs.begin(),
                              prev.raPairs.end(),
                              [](const auto &a, const auto &b) {
                                  return a.first < b.first;
                              }),
               "previous RA pairs not in emission order");
    for (std::size_t i = 0; i < funcs.size(); ++i) {
        if (emitted[i]) {
            const FuncStream &fs = streams[i];
            for (const auto &[off, orig] : fs.raOffsets)
                result_.raPairs.emplace_back(fs.base + off, orig);
            continue;
        }
        const Addr lo = spans[i].base;
        const Addr hi = spans[i].base + spans[i].size;
        auto it = std::lower_bound(
            prev.raPairs.begin(), prev.raPairs.end(), lo,
            [](const std::pair<Addr, Addr> &p, Addr v) {
                return p.first < v;
            });
        for (; it != prev.raPairs.end() && it->first < hi; ++it)
            result_.raPairs.push_back(*it);
    }

    // Splice the dirty functions' finalized bytes into a copy of the
    // previous payload; everything else is byte-identical.
    std::vector<std::uint8_t> out = *ru.instrBytes;
    for (std::size_t i = 0; i < funcs.size(); ++i) {
        if (!emitted[i])
            continue;
        FuncStream &fs = streams[i];
        fs.bytes = finalizeStream(fs);
        const Offset off = fs.base - cfg_opts_.instrBase;
        if (off + fs.bytes.size() > out.size())
            return false;
        std::copy(fs.bytes.begin(), fs.bytes.end(),
                  out.begin() + off);
    }
    result_.instrBytes = std::move(out);

    result_.funcSpans = spans;
    for (std::size_t i = 0; i < funcs.size(); ++i) {
        if (emitted[i])
            ++result_.emittedFunctions;
        else
            ++result_.reusedFunctions;
    }
    result_.newRodataBytes = cloneBytes();
    return true;
}

EngineResult
Engine::run()
{
    // Plan in address order; counter ids follow emission order.
    std::vector<const Function *> funcs;
    for (const auto &[entry, func] : cfg_.functions) {
        if (instrumented_.count(entry)) {
            funcs.push_back(&func);
            planFunction(func);
        }
    }
    std::sort(relocatedBlocks_.begin(), relocatedBlocks_.end());
    if (cfg_opts_.functionOrder == OrderPolicy::reversed)
        std::reverse(funcs.begin(), funcs.end());
    for (const Function *func : funcs)
        assignCountersFor(*func);

    if (cfg_opts_.reuse.valid()) {
        if (tryReuseRun(funcs))
            return result_;
        // Fall back to a full emission; discard partial state.
        EngineResult fresh;
        fresh.clones = std::move(result_.clones);
        fresh.blockCounters = std::move(result_.blockCounters);
        fresh.entryCounters = std::move(result_.entryCounters);
        result_ = std::move(fresh);
    }

    const Addr align =
        std::max(cfg_opts_.functionAlign, arch_.instrAlign);
    const unsigned threads = effectiveThreads(cfg_opts_.threads);
    std::vector<FuncStream> streams(funcs.size());

    if (threads <= 1 || funcs.size() <= 1) {
        // Sequential: every function emits at its exact final base,
        // so address-dependent selections match the historical
        // single-assembler layout by construction.
        Addr cursor = cfg_opts_.instrBase;
        for (std::size_t i = 0; i < funcs.size(); ++i) {
            const Addr base = alignUpAddr(cursor, align);
            streams[i] = emitFunctionStream(*funcs[i], base);
            cursor = base + streams[i].size;
        }
    } else {
        // Parallel: emit every function speculatively at the window
        // base, then lay out in order, re-validating each stream's
        // recorded address-dependent decisions against its final
        // base. A stream whose decisions all hold is position-
        // correct after a rebase (lengths are address-independent);
        // a flipped decision — only possible within ±window of a
        // direct-branch range boundary — re-emits that one function
        // at its exact base. Output is bit-identical to sequential.
        ThreadPool::shared().parallelFor(
            funcs.size(), threads, [&](std::size_t i) {
                streams[i] = emitFunctionStream(
                    *funcs[i], cfg_opts_.instrBase);
            });
        Addr cursor = cfg_opts_.instrBase;
        for (std::size_t i = 0; i < funcs.size(); ++i) {
            const Addr base = alignUpAddr(cursor, align);
            if (decisionsHold(streams[i], base)) {
                streams[i].as->rebase(base);
                streams[i].base = base;
            } else {
                streams[i] = emitFunctionStream(*funcs[i], base);
            }
            cursor = base + streams[i].size;
        }
    }

    // Deterministic fixup: final addresses for every block and
    // instruction (sorted once; already sorted in original order),
    // RA pairs in emission order.
    std::vector<AddrPairMap::Pair> blocks, insns;
    for (const FuncStream &fs : streams) {
        result_.funcSpans.push_back(
            {fs.func->entry, fs.base, fs.size});
        addRelocated(blocks, fs.blockOffsets, fs.base);
        addRelocated(insns, fs.insnOffsets, fs.base);
        for (const auto &[off, orig] : fs.raOffsets)
            result_.raPairs.emplace_back(fs.base + off, orig);
    }
    result_.blockMap = AddrPairMap(std::move(blocks));
    result_.insnMap = AddrPairMap(std::move(insns));

    // Patch cross-function branches and encode each stream; streams
    // are independent.
    ThreadPool::shared().parallelFor(
        streams.size(), threads, [&](std::size_t i) {
            streams[i].bytes = finalizeStream(streams[i]);
        });

    // Concatenate with the same inter-function nop padding the
    // single-assembler alignTo() produced.
    std::vector<std::uint8_t> out;
    for (const FuncStream &fs : streams) {
        appendPadding(out, cfg_opts_.instrBase + out.size(), fs.base);
        out.insert(out.end(), fs.bytes.begin(), fs.bytes.end());
    }
    result_.instrBytes = std::move(out);
    result_.emittedFunctions =
        static_cast<unsigned>(streams.size());

    result_.newRodataBytes = cloneBytes();
    return result_;
}

} // namespace

EngineResult
relocateFunctions(const CfgModule &cfg,
                  const std::set<Addr> &instrumented,
                  const EngineConfig &config)
{
    StageTimer timer(Stage::relocate);
    Engine engine(cfg, instrumented, config);
    return engine.run();
}

// --- IncrementalEngine ------------------------------------------------------

struct IncrementalEngine::State
{
    /** Carries only the image pointer; the per-function entry points
     *  never touch Engine::cfg_.functions. */
    CfgModule cfg;
    std::set<Addr> instrumented; ///< unused by per-function paths
    /** Its result_ accumulates the maps, appended per function in
     *  ascending entry order. */
    Engine engine;
    Addr align = 0;
    Addr cursor = 0;

    static CfgModule
    makeCfg(const BinaryImage &image)
    {
        CfgModule m;
        m.image = &image;
        return m;
    }

    State(const BinaryImage &image, const EngineConfig &config)
        : cfg(makeCfg(image)), engine(cfg, instrumented, config)
    {
        align = std::max<Addr>(config.functionAlign,
                               image.archInfo().instrAlign);
        cursor = config.instrBase;
    }
};

IncrementalEngine::IncrementalEngine(const BinaryImage &image,
                                     const EngineConfig &config)
    : st_(std::make_unique<State>(image, config))
{
    icp_assert(config.functionOrder == OrderPolicy::original,
               "incremental emission requires original "
               "function order");
    icp_assert(!config.reuse.valid(),
               "incremental emission does not take a reuse pass");
}

IncrementalEngine::~IncrementalEngine() = default;

void
IncrementalEngine::planFunction(const Function &func)
{
    Engine &engine = st_->engine;
    // Ascending entry order keeps the flat vector sorted without a
    // global sort pass.
    icp_assert(engine.relocatedBlocks_.empty() ||
                   engine.relocatedBlocks_.back() < func.entry,
               "planFunction out of address order");
    engine.planFunction(func);
    engine.assignCountersFor(func);
}

FuncSpan
IncrementalEngine::layoutFunction(const Function &func)
{
    State &st = *st_;
    const Addr base = alignUpAddr(st.cursor, st.align);
    Engine::FuncStream fs = st.engine.emitFunctionStream(func, base);
    st.cursor = base + fs.size;

    // Record final addresses; the bytes are discarded (they cannot
    // finalize until every function has a layout address).
    EngineResult &r = st.engine.result_;
    std::vector<AddrPairMap::Pair> blocks, insns;
    addRelocated(blocks, fs.blockOffsets, base);
    addRelocated(insns, fs.insnOffsets, base);
    r.blockMap.append(std::move(blocks));
    r.insnMap.append(std::move(insns));
    for (const auto &[off, orig] : fs.raOffsets)
        r.raPairs.emplace_back(base + off, orig);

    return {func.entry, base, fs.size};
}

Addr
IncrementalEngine::layoutEnd() const
{
    return st_->cursor;
}

std::vector<std::uint8_t>
IncrementalEngine::emitFunction(const Function &func, Addr base)
{
    Engine::FuncStream fs = st_->engine.emitFunctionStream(func, base);
    return st_->engine.finalizeStream(fs);
}

std::vector<std::uint8_t>
IncrementalEngine::paddingBytes(Addr from, Addr to) const
{
    std::vector<std::uint8_t> out;
    st_->engine.appendPadding(out, from, to);
    return out;
}

const EngineResult &
IncrementalEngine::result() const
{
    return st_->engine.result_;
}

std::vector<std::uint8_t>
IncrementalEngine::cloneBytes() const
{
    return st_->engine.cloneBytes();
}

} // namespace icp
