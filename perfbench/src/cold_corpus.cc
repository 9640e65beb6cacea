/**
 * @file
 * cold_corpus: closed loop, one operation at a time, over a seeded
 * corpus of the 19 SPEC-like profiles on all three ISAs plus libxul,
 * docker, libcuda and chromium-small. One operation deserializes a
 * binary, rewrites it cold (in-memory analysis cache cleared, no
 * cache file), lints the result and serializes it. verifyRewrite and
 * the simulated cycles run once per binary, outside the timed loop.
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "analysis/builder.hh"
#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "harness/verify.hh"
#include "rewrite/rewriter.hh"
#include "sim/loader.hh"
#include "sim/runtime_lib.hh"
#include "support/random.hh"
#include "trace.hh"
#include "verify/lint.hh"
#include "workloads.hh"

using namespace icp;

namespace icpbench
{

namespace
{

struct Binary
{
    std::string name;
    RewriteMode mode = RewriteMode::funcPtr;
    std::vector<std::uint8_t> blob;
    std::uint64_t insns = 0;
    std::uint64_t outHash = 0;
    bool haveHash = false;
};

/** The corpus in seeded order; every profile, every ISA. */
std::vector<std::pair<ProgramSpec, RewriteMode>>
corpusSpecs(std::uint64_t seed)
{
    std::vector<std::pair<ProgramSpec, RewriteMode>> specs;
    for (Arch arch : {Arch::x64, Arch::aarch64, Arch::ppc64le})
        for (ProgramSpec &spec : specCpuSuite(arch, false))
            specs.emplace_back(std::move(spec), RewriteMode::funcPtr);
    specs.emplace_back(libxulProfile(), RewriteMode::funcPtr);
    // func-ptr mode fails on Docker's untracked Go function tables;
    // the paper reports it in jt mode.
    specs.emplace_back(dockerProfile(), RewriteMode::jt);
    specs.emplace_back(libcudaProfile(), RewriteMode::funcPtr);
    specs.emplace_back(chromiumSmallProfile(Arch::x64, false),
                       RewriteMode::funcPtr);
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 11);
    for (std::size_t i = 0; i < specs.size(); ++i)
        varySpec(specs[i].first, rng.next(), 8, 12);
    for (std::size_t i = specs.size(); i > 1; --i)
        std::swap(specs[i - 1], specs[rng.range(0, i - 1)]);
    return specs;
}

std::string
binaryName(const ProgramSpec &spec)
{
    return spec.name + "/" + archName(spec.arch);
}

RewriteOptions
opOptions(RewriteMode mode)
{
    RewriteOptions opts = baseOptions(mode);
    opts.instrumentation.countBlocks = true;
    return opts;
}

struct OpOutcome
{
    double ms = 0.0;
    std::uint64_t outHash = 0;
};

/** The untraced operation. */
OpOutcome
coldOp(const Binary &b, Result &res)
{
    OpOutcome o;
    AnalysisCache::global().clear();
    const RewriteOptions opts = opOptions(b.mode);
    const auto t0 = Clock::now();
    const BinaryImage img = BinaryImage::deserialize(b.blob);
    const RewriteResult rw = rewriteBinary(img, opts);
    const LintReport report = lintRewrite(img, rw);
    const std::vector<std::uint8_t> out =
        rw.ok ? rw.image.serialize() : std::vector<std::uint8_t>{};
    o.ms = msSince(t0);
    o.outHash = hashBytes(out);
    res.attempt();
    if (!rw.ok)
        res.fail(b.name + ": rewrite failed: " + rw.failReason);
    else if (!report.findings.empty())
        res.fail(b.name + ": lint finding: " +
                 report.findings.front().rule);
    return o;
}

/**
 * The traced operation: the same work split at each public call,
 * with the CFG built explicitly and handed to the rewriter.
 */
OpOutcome
tracedOp(const Binary &b, Result &res, SpanRecorder &rec,
         LayerAccum &layers, std::map<std::string, double> &sums)
{
    OpOutcome o;
    AnalysisCache::global().clear();
    const RewriteOptions opts = opOptions(b.mode);
    AnalysisOptions aopts = opts.analysis;
    aopts.threads = opts.threads;
    aopts.useCache = opts.useAnalysisCache;

    const LayerSnapshot before = LayerSnapshot::begin();
    const auto t0 = Clock::now();
    std::vector<std::uint8_t> out;
    RewriteResult rw;
    LintReport report;
    CfgModule cfg;
    double t_des = 0, t_cfg = 0, t_rw = 0, t_lint = 0, t_ser = 0;
    {
        SpanScope op(&rec, "cold_op", true);
        auto t = Clock::now();
        BinaryImage img;
        {
            SpanScope s(&rec, "binfmt.deserialize");
            img = BinaryImage::deserialize(b.blob);
        }
        t_des = msSince(t);
        t = Clock::now();
        {
            SpanScope s(&rec, "analysis.buildCfg");
            cfg = buildCfg(img, aopts);
        }
        t_cfg = msSince(t);
        t = Clock::now();
        {
            SpanScope s(&rec, "rewrite.rewriteBinary");
            RewritePass pass;
            pass.cfg = &cfg;
            rw = rewriteBinary(img, opts, pass);
        }
        t_rw = msSince(t);
        t = Clock::now();
        {
            SpanScope s(&rec, "verify.lintRewrite");
            report = lintRewrite(img, rw);
        }
        t_lint = msSince(t);
        t = Clock::now();
        {
            SpanScope s(&rec, "binfmt.serialize");
            if (rw.ok)
                out = rw.image.serialize();
        }
        t_ser = msSince(t);
    }
    o.ms = msSince(t0);
    layers.add(before.end());
    o.outHash = hashBytes(out);

    res.attempt();
    if (!rw.ok) {
        res.fail(b.name + ": traced rewrite failed: " + rw.failReason);
        return o;
    }
    if (!report.findings.empty())
        res.fail(b.name + ": lint finding: " +
                 report.findings.front().rule);
    if (b.haveHash && o.outHash != b.outHash)
        res.fail(b.name + ": traced output differs from untraced");

    std::uint64_t blocks = 0, insns = 0;
    for (const auto &[entry, f] : cfg.functions) {
        (void)entry;
        blocks += f.blocks.size();
        for (const auto &[start, blk] : f.blocks) {
            (void)start;
            insns += blk.insns.size();
        }
    }
    const RewriteStats &st = rw.stats;
    sums["binfmt.deserialize_ms"] += t_des;
    sums["analysis.build_cfg_ms"] += t_cfg;
    sums["rewrite.total_ms"] += t_rw;
    sums["verify.lint_ms"] += t_lint;
    sums["binfmt.serialize_ms"] += t_ser;
    sums["analysis.functions"] += static_cast<double>(cfg.functions.size());
    sums["analysis.blocks"] += static_cast<double>(blocks);
    sums["analysis.insns"] += static_cast<double>(insns);
    sums["rewrite.emitted_functions"] += st.relocEmittedFunctions;
    sums["rewrite.spliced_functions"] += st.relocReusedFunctions;
    sums["rewrite.trampolines"] += static_cast<double>(st.trampolines);
    sums["rewrite.trap_tramps"] += static_cast<double>(st.trapTramps);
    sums["rewrite.multi_hop_tramps"] +=
        static_cast<double>(st.multiHopTramps);
    sums["rewrite.long_tramps"] += static_cast<double>(st.longTramps);
    sums["rewrite.instrumented"] += st.instrumentedFunctions;
    sums["rewrite.total_functions"] += st.totalFunctions;
    sums["rewrite.out_bytes"] += static_cast<double>(out.size());
    sums["verify.findings"] += static_cast<double>(report.findings.size());
    return o;
}

/** Run whole passes over the corpus until @p budget_ms is spent. */
template <typename Op>
std::size_t
runPasses(std::vector<Binary> &corpus, double budget_ms, Op op)
{
    const auto t0 = Clock::now();
    std::size_t passes = 0;
    do {
        for (Binary &b : corpus)
            op(b);
        ++passes;
    } while (msSince(t0) < budget_ms);
    return passes;
}

} // namespace

int
runColdCorpus(const Args &args, Result &res)
{
    // Set-up: generate the corpus. Repeated so setup_s is a median.
    std::vector<Binary> corpus;
    std::vector<double> setup_s, compile_ms;
    for (int rep = 0; rep < (args.inputsOnly ? 1 : 5); ++rep) {
        const auto t0 = Clock::now();
        corpus.clear();
        for (auto &[spec, mode] : corpusSpecs(args.seed)) {
            const auto tc = Clock::now();
            const BinaryImage img = compileProgram(spec);
            compile_ms.push_back(msSince(tc));
            Binary b;
            b.name = binaryName(spec);
            b.mode = mode;
            b.blob = img.serialize();
            corpus.push_back(std::move(b));
        }
        setup_s.push_back(msSince(t0) / 1000.0);
    }
    std::uint64_t h = hashBytes(nullptr, 0);
    for (const Binary &b : corpus)
        h = hashBytes(b.blob, h);
    res.inputHash = hexU64(h);
    if (args.inputsOnly)
        return 0;

    // Timed loop, untraced. A traced run spends only a quarter of its
    // budget here; its result reports per-layer metrics.
    const double budget_ms = args.seconds * 1000.0 * (args.trace ? 0.25 : 1.0);
    std::vector<double> lat, pass_ms;
    double pass_acc = 0.0;
    // Decoded-instruction counts per binary, for throughput.
    for (Binary &b : corpus) {
        const BinaryImage img = BinaryImage::deserialize(b.blob);
        const CfgModule cfg = buildCfg(img);
        for (const auto &[entry, f] : cfg.functions) {
            (void)entry;
            for (const auto &[start, blk] : f.blocks) {
                (void)start;
                b.insns += blk.insns.size();
            }
        }
    }
    // One untimed pass warms the process (allocator, page cache)
    // and records each binary's output hash.
    for (Binary &b : corpus) {
        Result warm;
        b.outHash = coldOp(b, warm).outHash;
        b.haveHash = true;
    }
    std::size_t untraced_ops = 0;
    runPasses(corpus, budget_ms, [&](Binary &b) {
        const OpOutcome o = coldOp(b, res);
        if (b.haveHash && o.outHash != b.outHash)
            res.fail(b.name + ": output differs between passes");
        b.outHash = o.outHash;
        b.haveHash = true;
        lat.push_back(o.ms);
        pass_acc += o.ms;
        if (++untraced_ops % corpus.size() == 0) {
            pass_ms.push_back(pass_acc);
            pass_acc = 0.0;
        }
    });
    const double peak_rss_mb = selfPeakRssMb();

    // Checks, once per binary: the strong test (verifyRewrite with
    // clobbered originals and entry counters), then Table 3's
    // empty-instrumentation timing run for the simulated overhead.
    std::vector<double> overheads, sizes;
    double cyc_orig = 0, cyc_rw = 0, traps = 0, rt_calls = 0;
    double icache_acc = 0, icache_miss = 0;
    std::uint64_t sum_tramps = 0, sum_out = 0;
    for (const Binary &b : corpus) {
        const BinaryImage img = BinaryImage::deserialize(b.blob);
        RewriteOptions vopts = baseOptions(b.mode);
        vopts.clobberOriginal = true;
        vopts.instrumentation.countFunctionEntries = true;
        vopts.instrumentation.countBlocks = true;
        const RewriteResult vrw = rewriteBinary(img, vopts);
        const VerifyOutcome v = verifyRewrite(img, vrw, Machine::Config{});
        if (!v.pass) {
            res.checkFailed(b.name + ": verifyRewrite: " + v.reason);
            continue;
        }
        RewriteOptions topts = baseOptions(b.mode);
        topts.clobberOriginal = true;
        const RewriteResult trw = rewriteBinary(img, topts);
        if (!trw.ok) {
            res.checkFailed(b.name + ": timing rewrite failed");
            continue;
        }
        auto proc = loadImage(trw.image);
        RuntimeLib rt(proc->module);
        Machine machine(*proc, Machine::Config{});
        machine.attachRuntimeLib(&rt);
        const RunResult r = machine.run();
        if (!r.halted || r.checksum != v.golden.checksum) {
            res.checkFailed(b.name + ": timing run: " + r.describe());
            continue;
        }
        overheads.push_back(static_cast<double>(r.cycles) /
                                static_cast<double>(v.golden.cycles) -
                            1.0);
        sizes.push_back(trw.stats.sizeIncrease());
        cyc_orig += static_cast<double>(v.golden.cycles);
        cyc_rw += static_cast<double>(r.cycles);
        traps += static_cast<double>(r.traps);
        rt_calls += static_cast<double>(r.rtCalls);
        icache_acc += static_cast<double>(r.icacheAccesses);
        icache_miss += static_cast<double>(r.icacheMisses);
        sum_tramps += trw.stats.trampolines;
        sum_out += trw.image.serialize().size();
        res.determinism["sim.cycles." + b.name] =
            static_cast<double>(r.cycles);
    }
    res.determinism["rewrite.trampolines"] = static_cast<double>(sum_tramps);
    res.determinism["rewrite.out_bytes"] = static_cast<double>(sum_out);
    std::uint64_t out_hash = hashBytes(nullptr, 0);
    for (const Binary &b : corpus)
        out_hash = hashBytes(reinterpret_cast<const std::uint8_t *>(&b.outHash),
                             sizeof(b.outHash), out_hash);
    res.determinism["output_hash_low32"] =
        static_cast<double>(out_hash & 0xffffffffu);

    const Summary lat_s = summarize(lat);
    const double setup = percentile(setup_s, 50);
    const double size_pct = geomeanOfRatios(sizes) * 100.0;
    const double sim_pct = geomeanOfRatios(overheads) * 100.0;
    std::uint64_t pass_insns = 0;
    for (const Binary &b : corpus)
        pass_insns += b.insns;
    // Throughput of the median pass (insns per ms = kinsn/s): a
    // median over passes is robust to a slow stretch of the host.
    const double kinsn =
        static_cast<double>(pass_insns) / percentile(pass_ms, 50);
    const std::string corpus_note =
        std::to_string(corpus.size()) + " binaries, " +
        std::to_string(pass_insns) + " decoded instructions per pass";

    res.e2e["setup_s"] = {setup, "s", setup_s.size(), "median of 5 set-ups"};
    res.e2e["op_ms_p50"] = {lat_s.p50, "ms", lat_s.n,
                            "one cold deserialize+rewrite+lint+serialize"};
    res.e2e["kinsn_per_s"] = {kinsn, "kinsn/s", pass_ms.size(),
                              corpus_note + "; median pass"};
    res.e2e["peak_rss_mb"] = {peak_rss_mb, "MB", 0, "benchmark process"};
    res.e2e["size_increase_pct"] = {size_pct, "%", sizes.size(),
                                    "geomean, empty instrumentation"};

    char tail_note[64];
    std::snprintf(tail_note, sizeof(tail_note), "p%.1f", lat_s.tailPct);
    res.named["setup_s"] = res.e2e["setup_s"];
    res.named["peak_rss_mb"] = res.e2e["peak_rss_mb"];
    res.named["cold_kinsn_per_s"] = res.e2e["kinsn_per_s"];
    res.named["cold_op_ms_p50"] = res.e2e["op_ms_p50"];
    res.named["cold_op_ms_tail"] = {lat_s.tail, "ms", lat_s.n, tail_note};
    res.named["sim_overhead_pct"] = {sim_pct, "%", overheads.size(),
                                     "geomean, empty instrumentation"};
    res.named["size_increase_pct"] = res.e2e["size_increase_pct"];

    // Per-layer metrics: set-up, sim and the traced run.
    res.layers["codegen.compile_ms"] = {percentile(compile_ms, 50), "ms",
                                        compile_ms.size(),
                                        "median per binary"};
    if (!overheads.empty()) {
        const double n = static_cast<double>(overheads.size());
        res.layers["sim.cycles_original"] = {cyc_orig / n, "cycles", 0,
                                             "mean per binary"};
        res.layers["sim.cycles_rewritten"] = {cyc_rw / n, "cycles", 0,
                                              "mean per binary"};
        res.layers["sim.traps"] = {traps / n, "count", 0, "mean per binary"};
        res.layers["sim.rt_calls"] = {rt_calls / n, "count", 0,
                                      "mean per binary"};
        res.layers["sim.icache_miss_ratio"] = {
            icache_acc > 0 ? icache_miss / icache_acc : 0.0, "ratio", 0,
            "rewritten runs"};
    }

    if (!args.trace)
        return 0;

    SpanRecorder rec;
    LayerAccum layers;
    std::map<std::string, double> sums;
    std::size_t traced_ops = 0;
    double traced_ms = 0.0, plain_ms = 0.0;
    // Traced and untraced passes alternate, so a drift in host speed
    // does not show up as tracing overhead.
    const auto t_alt = Clock::now();
    do {
        for (Binary &b : corpus) {
            plain_ms += coldOp(b, res).ms;
        }
        for (Binary &b : corpus) {
            traced_ms += tracedOp(b, res, rec, layers, sums).ms;
            ++traced_ops;
        }
    } while (msSince(t_alt) < args.seconds * 1000.0 * 0.6);
    const double n = static_cast<double>(traced_ops);
    layers.report(res.layers);
    for (const auto &[name, total] : sums)
        if (name != "rewrite.instrumented" && name != "rewrite.total_functions")
            res.layers[name] = {total / n, "", traced_ops, "per-op mean"};
    res.layers["rewrite.coverage"] = {
        sums["rewrite.instrumented"] / std::max(1.0, sums["rewrite.total_functions"]),
        "ratio", traced_ops, "instrumented / total functions"};
    res.layers["trace.coverage_pct"] = {rec.coverage() * 100.0, "%",
                                        traced_ops,
                                        "top-level spans / op wall"};
    res.layers["trace.overhead_pct"] = {
        (traced_ms / plain_ms - 1.0) * 100.0, "%", traced_ops,
        "traced vs untraced op wall, alternating passes"};
    res.spansJson = rec.selfTimeJson();
    writeTraceFile(args.out + ".trace.json", rec);
    return 0;
}

} // namespace icpbench
