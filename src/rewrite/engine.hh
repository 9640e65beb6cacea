/**
 * @file
 * The code-relocation engine: translates instrumented functions into
 * the .instr section, inserting instrumentation snippets, rewriting
 * direct control flow, cloning jump tables, recording the RA map,
 * and optionally emulating calls or permuting function/block order
 * (for the baselines and the BOLT comparison).
 */

#ifndef ICP_REWRITE_ENGINE_HH
#define ICP_REWRITE_ENGINE_HH

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "analysis/cfg.hh"
#include "binfmt/addr_map.hh"
#include "rewrite/options.hh"

namespace icp
{

/**
 * Placement of one cloned jump table in .newrodata. Owns a copy of
 * the source table so the plan outlives the CFG it came from (the
 * sharded coordinator drops each shard's CFG between passes).
 */
struct TableClone
{
    JumpTable table;
    Addr funcEntry = 0; ///< owning function
    Addr cloneAddr = 0;
    unsigned entrySize = 0; ///< possibly widened (a64 1/2 -> 4)
    bool widened = false;
};

/**
 * Previous-pass artifacts for a selective re-rewrite
 * (RewriteSession::repair): the prior manifest's function spans and
 * .instr bytes, plus the set of dirty function entries that must
 * re-emit. Functions outside the dirty set splice their previous
 * bytes verbatim; the engine falls back to a full run whenever the
 * previous layout cannot be reproduced exactly.
 */
struct EngineReuse
{
    const RewriteManifest *manifest = nullptr;
    const std::vector<std::uint8_t> *instrBytes = nullptr;
    const std::set<Addr> *dirty = nullptr;

    bool
    valid() const
    {
        return manifest && manifest->populated && instrBytes &&
               dirty && !manifest->funcSpans.empty();
    }
};

struct EngineConfig
{
    RewriteMode mode = RewriteMode::funcPtr;
    bool callEmulation = false;
    InstrumentationSpec instrumentation;
    OrderPolicy functionOrder = OrderPolicy::original;
    OrderPolicy blockOrder = OrderPolicy::original;

    Addr instrBase = 0;
    Addr newRodataBase = 0;

    /** Instrument findfunc/pcvalue entries with RA translation. */
    bool goRaTranslation = false;

    /** Relocated function alignment (IR lowering compacts to 4). */
    unsigned functionAlign = 16;

    /**
     * Worker threads for per-function emission (0 = hardware
     * concurrency, 1 = sequential). Output bytes are identical for
     * every value; 1 additionally skips the speculative-emission
     * machinery and emits each function directly at its final base.
     */
    unsigned threads = 1;

    /** When valid(), attempt the selective re-rewrite fast path. */
    EngineReuse reuse;
};

struct EngineResult
{
    std::vector<std::uint8_t> instrBytes;
    std::vector<std::uint8_t> newRodataBytes;

    /** Original block start -> relocated address. */
    AddrPairMap blockMap;

    /** Original instruction -> relocated address. */
    AddrPairMap insnMap;

    /** (relocated return address -> original return address). */
    std::vector<std::pair<Addr, Addr>> raPairs;

    std::vector<TableClone> clones;

    std::map<Addr, std::uint32_t> blockCounters;
    std::map<Addr, std::uint32_t> entryCounters;

    /** Per-function extents in emission order (for later reuse). */
    std::vector<FuncSpan> funcSpans;

    /** Functions re-emitted this pass vs. spliced from reuse. */
    unsigned emittedFunctions = 0;
    unsigned reusedFunctions = 0;
};

/**
 * Relocate @p instrumented functions of @p cfg. The caller supplies
 * final section base addresses in @p cfg_in so all cross references
 * encode directly.
 */
EngineResult relocateFunctions(const CfgModule &cfg,
                               const std::set<Addr> &instrumented,
                               const EngineConfig &config);

/**
 * Per-function driver over the same relocation engine, for
 * coordinators that never hold the whole-module CFG at once (the
 * sharded rewriter). The protocol mirrors the monolithic run:
 *
 *   1. plan:   planFunction() once per instrumented function, in
 *              ascending entry order — jump-table clones, operand
 *              substitutions, counter ids, relocated-block set.
 *   2. layout: layoutFunction() in the same order — emits the
 *              function at its final base, records the block /
 *              instruction / return-address maps, and DISCARDS the
 *              bytes (cross-function branches can only bind once
 *              every function has a layout address).
 *   3. emit:   emitFunction() in the same order — re-emits at the
 *              recorded base (emission is deterministic in (CFG,
 *              base)), binds cross-function branches against the
 *              global block map, and returns the finalized bytes.
 *
 * Driving all three passes over every instrumented function in
 * address order reproduces relocateFunctions() bit for bit; peak
 * memory is one function's assembler stream plus the flat maps.
 * Only OrderPolicy::original function order is supported.
 */
class IncrementalEngine
{
  public:
    IncrementalEngine(const BinaryImage &image,
                      const EngineConfig &config);
    ~IncrementalEngine();
    IncrementalEngine(const IncrementalEngine &) = delete;
    IncrementalEngine &operator=(const IncrementalEngine &) = delete;

    // Pass 1: planning.
    void planFunction(const Function &func);

    // Pass 2: layout. Returns the function's span.
    FuncSpan layoutFunction(const Function &func);

    /** First address past the last laid-out span. */
    Addr layoutEnd() const;

    // Pass 3: final emission (call with the span's recorded base).
    std::vector<std::uint8_t> emitFunction(const Function &func,
                                           Addr base);

    /** The inter-span alignment padding bytes (encoded nops). */
    std::vector<std::uint8_t> paddingBytes(Addr from, Addr to) const;

    /**
     * What the passes so far produced: the block / instruction / RA
     * maps of every laid-out function, the planned clones and the
     * counter ids. Its byte payloads and spans stay empty.
     */
    const EngineResult &result() const;

    /** The .newrodata payload (valid after all layoutFunction calls). */
    std::vector<std::uint8_t> cloneBytes() const;

  private:
    struct State;
    std::unique_ptr<State> st_;
};

} // namespace icp

#endif // ICP_REWRITE_ENGINE_HH
