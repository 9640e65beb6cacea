/**
 * @file
 * chromium_scale: closed loop, one operation at a time, on the
 * 120k-function chromium profile. Each iteration rewrites it classic
 * (materializing) and --shards 4 streaming with a fresh cache file,
 * each in a forked child so wall time and peak RSS (workers
 * included) come from wait4, and byte-compares the two outputs. The
 * benchmark process itself never holds the corpus.
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include "analysis/builder.hh"
#include "binfmt/stream_writer.hh"
#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "rewrite/rewriter.hh"
#include "rewrite/shard.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace icp;

namespace icpbench
{

namespace
{

constexpr unsigned kShards = 4;

struct Paths
{
    std::string input, classicOut, shardedOut, cache, report;
};

RewriteOptions
chromiumOptions(unsigned shards, const std::string &cache)
{
    // Sharded rewrites cannot record lint manifests; both sides run
    // without one so they do identical work.
    RewriteOptions opts = baseOptions(RewriteMode::jt);
    opts.lint = false;
    opts.shards = shards;
    opts.cachePath = cache;
    return opts;
}

bool
loadInput(const std::string &path, BinaryImage &img, SpanRecorder *rec)
{
    SpanScope s(rec, "binfmt.deserialize");
    std::vector<std::uint8_t> raw;
    if (!readFile(path, raw) || raw.empty())
        return false;
    img = BinaryImage::deserialize(raw);
    return true;
}

void
writeReport(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::trunc);
    out << text;
}

/** Child: classic rewrite. Traced, it builds the CFG explicitly. */
int
classicChild(const Paths &p, bool traced)
{
    SpanRecorder rec;
    SpanRecorder *r = traced ? &rec : nullptr;
    const LayerSnapshot before = LayerSnapshot::begin();
    std::ostringstream rep;
    RewriteResult rw;
    {
        SpanScope op(r, "chromium.classic", true);
        BinaryImage img;
        if (!loadInput(p.input, img, r))
            return 2;
        const RewriteOptions opts = chromiumOptions(0, "");
        if (traced) {
            AnalysisOptions aopts = opts.analysis;
            aopts.threads = opts.threads;
            aopts.useCache = opts.useAnalysisCache;
            CfgModule cfg;
            const auto t = Clock::now();
            {
                SpanScope s(r, "analysis.buildCfg");
                cfg = buildCfg(img, aopts);
            }
            rep << "build_cfg_ms=" << msSince(t) << "\n";
            std::uint64_t blocks = 0, insns = 0;
            for (const auto &[entry, f] : cfg.functions) {
                (void)entry;
                blocks += f.blocks.size();
                for (const auto &[start, blk] : f.blocks) {
                    (void)start;
                    insns += blk.insns.size();
                }
            }
            rep << "functions=" << cfg.functions.size()
                << "\nblocks=" << blocks << "\ninsns=" << insns << "\n";
            const auto t2 = Clock::now();
            {
                SpanScope s(r, "rewrite.rewriteBinary");
                RewritePass pass;
                pass.cfg = &cfg;
                rw = rewriteBinary(img, opts, pass);
            }
            rep << "rewrite_ms=" << msSince(t2) << "\n";
        } else {
            rw = rewriteBinary(img, opts);
        }
        if (!rw.ok) {
            std::fprintf(stderr, "classic rewrite failed: %s\n",
                         rw.failReason.c_str());
            return 2;
        }
        SpanScope s(r, "binfmt.serialize");
        const auto t = Clock::now();
        if (!writeFile(p.classicOut, rw.image.serialize()))
            return 2;
        rep << "serialize_ms=" << msSince(t) << "\n";
    }
    const RewriteStats &st = rw.stats;
    rep << before.end().encode() << "size_increase="
        << st.sizeIncrease() << "\ntrampolines=" << st.trampolines
        << "\ntrap_tramps=" << st.trapTramps
        << "\nmulti_hop_tramps=" << st.multiHopTramps
        << "\nlong_tramps=" << st.longTramps
        << "\nemitted=" << st.relocEmittedFunctions
        << "\nspliced=" << st.relocReusedFunctions
        << "\ninstrumented=" << st.instrumentedFunctions
        << "\ntotal_functions=" << st.totalFunctions << "\n"
        << rec.encode();
    writeReport(p.report, rep.str());
    return 0;
}

/** Child: the --shards 4 streaming rewrite with a fresh cache file. */
int
shardedChild(const Paths &p, bool traced)
{
    SpanRecorder rec;
    SpanRecorder *r = traced ? &rec : nullptr;
    std::remove(p.cache.c_str());
    const LayerSnapshot before = LayerSnapshot::begin();
    RewriteResult rw;
    {
        SpanScope op(r, "chromium.sharded", true);
        BinaryImage img;
        if (!loadInput(p.input, img, r))
            return 2;
        SpanScope s(r, "rewrite.rewriteBinarySharded");
        std::FILE *f = std::fopen(p.shardedOut.c_str(), "wb");
        if (!f)
            return 2;
        FileSink sink(f);
        rw = rewriteBinarySharded(img, chromiumOptions(kShards, p.cache),
                                  sink);
        std::fclose(f);
    }
    if (!rw.ok) {
        std::fprintf(stderr, "sharded rewrite failed: %s\n",
                     rw.failReason.c_str());
        return 2;
    }
    std::uint64_t functions = 0, blocks = 0, insns = 0, degraded = 0,
                  attempts = 0, max_funcs = 0;
    double worker_rss = 0;
    for (const ShardCounters &sc : rw.stats.shards) {
        functions += sc.functions;
        blocks += sc.blocks;
        insns += sc.insns;
        degraded += sc.degraded ? 1 : 0;
        attempts += sc.workerAttempts;
        max_funcs = std::max<std::uint64_t>(max_funcs, sc.functions);
        worker_rss = std::max(worker_rss,
                              static_cast<double>(sc.workerPeakRssBytes) /
                                  (1024.0 * 1024.0));
    }
    const double mean_funcs =
        rw.stats.shards.empty()
            ? 0.0
            : static_cast<double>(functions) /
                  static_cast<double>(rw.stats.shards.size());
    std::uint64_t cache_bytes = 0, cache_hash = 0;
    hashFile(p.cache, cache_hash, cache_bytes);
    std::ostringstream rep;
    rep << before.end().encode() << "functions=" << functions
        << "\nblocks=" << blocks << "\ninsns=" << insns
        << "\ndegraded=" << degraded << "\nworker_attempts=" << attempts
        << "\nworker_rss_mb=" << worker_rss
        << "\nbalance=" << (mean_funcs > 0 ? max_funcs / mean_funcs : 0.0)
        << "\ncache_file_bytes=" << cache_bytes
        << "\ntrampolines=" << rw.stats.trampolines << "\n"
        << rec.encode();
    writeReport(p.report, rep.str());
    return 0;
}

/** Child: the shard workers alone, called directly. */
int
workersChild(const Paths &p)
{
    SpanRecorder rec;
    std::remove(p.cache.c_str());
    std::ostringstream rep;
    {
        SpanScope op(&rec, "chromium.workers", true);
        BinaryImage img;
        if (!loadInput(p.input, img, &rec))
            return 2;
        const RewriteOptions opts = chromiumOptions(kShards, p.cache);
        std::vector<ShardRange> ranges;
        {
            SpanScope s(&rec, "shard.planShards");
            ranges = planShards(img, kShards);
        }
        std::vector<ShardCounters> counters(ranges.size());
        const auto t = Clock::now();
        {
            SpanScope s(&rec, "shard.runShardWorkers");
            runShardWorkers(img, opts, ranges, p.cache, counters);
        }
        rep << "workers_ms=" << msSince(t) << "\n";
    }
    rep << rec.encode();
    writeReport(p.report, rep.str());
    return 0;
}

struct ChildRun
{
    bool ok = false;
    double wallMs = 0.0;
    double rssMb = 0.0;
    std::map<std::string, std::string> kv;
    std::vector<SpanRecorder::Span> spans;
};

ChildRun
runChild(const Paths &p, const std::function<int()> &body)
{
    ChildRun run;
    std::remove(p.report.c_str());
    const int rc = runInChild(body, run.rssMb, &run.wallMs);
    std::vector<std::uint8_t> raw;
    if (rc != 0 || !readFile(p.report, raw))
        return run;
    const std::string text(raw.begin(), raw.end());
    run.kv = parseKv(text);
    run.spans = SpanRecorder::decode(text);
    run.ok = true;
    return run;
}

double
num(const ChildRun &run, const std::string &key)
{
    auto it = run.kv.find(key);
    return it == run.kv.end() ? 0.0 : std::stod(it->second);
}

} // namespace

int
runChromiumScale(const Args &args, Result &res)
{
    Paths p;
    p.input = args.work + "/chromium.sbf";
    p.classicOut = args.work + "/chromium.classic.sbf";
    p.shardedOut = args.work + "/chromium.sharded.sbf";
    p.cache = args.work + "/chromium.icpc";
    p.report = args.work + "/child.report";

    // Set-up: generate the corpus in a throwaway child (the benchmark
    // process must not hold it: every measured child would inherit
    // it). Repeated so setup_s is a median.
    std::vector<double> setup_s, compile_ms;
    const int setups = args.inputsOnly ? 1 : 3;
    for (int rep = 0; rep < setups; ++rep) {
        double rss = 0, wall = 0;
        const int rc = runInChild(
            [&] {
                ProgramSpec spec = chromiumProfile();
                varySpec(spec, args.seed * 0x9e3779b97f4a7c15ull + 29, 80,
                         120);
                const auto t = Clock::now();
                const BinaryImage img = compileProgram(spec);
                const double ms = msSince(t);
                if (!writeFile(p.input, img.serialize()))
                    return 2;
                writeReport(p.report, "compile_ms=" + std::to_string(ms) +
                                          "\n");
                return 0;
            },
            rss, &wall);
        if (rc != 0) {
            std::fprintf(stderr, "chromium_scale: set-up failed\n");
            return 1;
        }
        std::vector<std::uint8_t> raw;
        readFile(p.report, raw);
        const auto kv = parseKv(std::string(raw.begin(), raw.end()));
        compile_ms.push_back(std::stod(kv.at("compile_ms")));
        setup_s.push_back(wall / 1000.0);
    }
    std::uint64_t in_hash = 0, in_size = 0;
    hashFile(p.input, in_hash, in_size);
    res.inputHash = hexU64(in_hash);
    if (args.inputsOnly)
        return 0;

    // Timed loop: whole iterations until the budget is spent (at
    // least one). A traced run measures one untraced iteration, then
    // one traced.
    std::vector<double> pair_ms, classic_ms, sharded_ms, classic_rss,
        sharded_rss;
    double insns = 0, size_increase = 0, trampolines = 0;
    const auto t0 = Clock::now();
    do {
        const ChildRun c = runChild(p, [&] { return classicChild(p, false); });
        const ChildRun s = runChild(p, [&] { return shardedChild(p, false); });
        res.attempt(2);
        if (!c.ok || !s.ok) {
            res.fail(!c.ok ? "classic rewrite failed"
                           : "sharded rewrite failed");
            continue;
        }
        std::uint64_t hc = 0, hs = 0, nc = 0, ns = 0;
        if (!hashFile(p.classicOut, hc, nc) ||
            !hashFile(p.shardedOut, hs, ns) || hc != hs || nc != ns) {
            res.fail("sharded output differs from classic output");
            continue;
        }
        classic_ms.push_back(c.wallMs);
        sharded_ms.push_back(s.wallMs);
        pair_ms.push_back(c.wallMs + s.wallMs);
        classic_rss.push_back(c.rssMb);
        sharded_rss.push_back(s.rssMb);
        insns = num(s, "insns");
        size_increase = num(c, "size_increase");
        trampolines = num(c, "trampolines");
        res.determinism["rewrite.out_bytes"] = static_cast<double>(nc);
        res.determinism["rewrite.trampolines"] = trampolines;
        res.determinism["output_hash_low32"] =
            static_cast<double>(hc & 0xffffffffu);
        // Start another iteration only if it fits the budget.
    } while (!args.trace && !pair_ms.empty() &&
             msSince(t0) + pair_ms.back() <= args.seconds * 1000.0);

    if (pair_ms.empty()) {
        res.checkFailed("no chromium iteration completed");
        return 0;
    }
    const Summary pair = summarize(pair_ms);
    const double setup = percentile(setup_s, 50);
    res.e2e["setup_s"] = {setup, "s", setup_s.size(), "median of 3 set-ups"};
    res.e2e["op_ms_p50"] = {pair.p50, "ms", pair.n,
                            "classic + --shards 4 rewrite, forked"};
    res.e2e["kinsn_per_s"] = {2.0 * insns / pair.p50, "kinsn/s", pair.n,
                              std::to_string(static_cast<std::uint64_t>(insns)) +
                                  " decoded instructions, rewritten twice"};
    res.e2e["peak_rss_mb"] = {percentile(sharded_rss, 50), "MB",
                              sharded_rss.size(),
                              "sharded run incl. workers (wait4)"};
    res.e2e["size_increase_pct"] = {size_increase * 100.0, "%", 1,
                                    "classic output"};
    res.named["setup_s"] = res.e2e["setup_s"];
    res.named["peak_rss_mb"] = res.e2e["peak_rss_mb"];
    res.named["size_increase_pct"] = res.e2e["size_increase_pct"];
    res.named["chromium_classic_s"] = {percentile(classic_ms, 50) / 1000.0,
                                       "s", classic_ms.size(), "median"};
    res.named["chromium_sharded_s"] = {percentile(sharded_ms, 50) / 1000.0,
                                       "s", sharded_ms.size(), "median"};
    res.named["chromium_classic_rss_mb"] = {percentile(classic_rss, 50), "MB",
                                            classic_rss.size(), "wait4"};
    res.layers["codegen.compile_ms"] = {percentile(compile_ms, 50), "ms",
                                        compile_ms.size(), "median"};

    if (!args.trace)
        return 0;

    // Traced iteration: the classic rewrite split at buildCfg, the
    // sharded rewrite, and the shard workers called on their own.
    SpanRecorder rec;
    LayerAccum layers;
    const ChildRun c = runChild(p, [&] { return classicChild(p, true); });
    std::uint64_t hc = 0, nc = 0, hs = 0, ns = 0;
    hashFile(p.classicOut, hc, nc);
    const ChildRun s = runChild(p, [&] { return shardedChild(p, true); });
    hashFile(p.shardedOut, hs, ns);
    const ChildRun w = runChild(p, [&] { return workersChild(p); });
    res.attempt(2);
    if (!c.ok || !s.ok || !w.ok) {
        res.fail("traced chromium child failed");
        return 0;
    }
    if (hc != hs || static_cast<double>(hc & 0xffffffffu) !=
                        res.determinism["output_hash_low32"])
        res.fail("traced chromium output differs from untraced");
    rec.merge(c.spans);
    rec.merge(s.spans);
    rec.merge(w.spans);
    layers.add(LayerSnapshot::decode(c.kv));
    layers.add(LayerSnapshot::decode(s.kv));
    layers.report(res.layers);
    const std::string note = "traced iteration";
    res.layers["analysis.build_cfg_ms"] = {num(c, "build_cfg_ms"), "ms", 1, note};
    res.layers["analysis.functions"] = {num(c, "functions"), "count", 1, note};
    res.layers["analysis.blocks"] = {num(c, "blocks"), "count", 1, note};
    res.layers["analysis.insns"] = {num(c, "insns"), "count", 1, note};
    res.layers["rewrite.total_ms"] = {num(c, "rewrite_ms"), "ms", 1, note};
    res.layers["binfmt.serialize_ms"] = {num(c, "serialize_ms"), "ms", 1,
                                         "serialize + write, classic"};
    res.layers["rewrite.emitted_functions"] = {num(c, "emitted"), "count", 1, note};
    res.layers["rewrite.spliced_functions"] = {num(c, "spliced"), "count", 1, note};
    res.layers["rewrite.trampolines"] = {num(c, "trampolines"), "count", 1, note};
    res.layers["rewrite.trap_tramps"] = {num(c, "trap_tramps"), "count", 1, note};
    res.layers["rewrite.multi_hop_tramps"] = {num(c, "multi_hop_tramps"),
                                              "count", 1, note};
    res.layers["rewrite.long_tramps"] = {num(c, "long_tramps"), "count", 1, note};
    res.layers["rewrite.coverage"] = {
        num(c, "instrumented") / std::max(1.0, num(c, "total_functions")),
        "ratio", 1, note};
    res.layers["rewrite.out_bytes"] = {static_cast<double>(nc), "bytes", 1, note};
    res.layers["shard.workers_ms"] = {num(w, "workers_ms"), "ms", 1,
                                      "direct runShardWorkers call"};
    res.layers["shard.worker_rss_mb_max"] = {num(s, "worker_rss_mb"), "MB", 1,
                                             note};
    res.layers["shard.balance"] = {num(s, "balance"), "ratio", 1,
                                   "largest shard's functions / mean"};
    res.layers["shard.degraded"] = {num(s, "degraded"), "count", 1, note};
    res.layers["cache.file_bytes"] = {num(s, "cache_file_bytes"), "bytes", 1,
                                      "after the sharded rewrite"};
    double des_ms = 0;
    std::size_t des_n = 0;
    for (const SpanRecorder::Span &sp : rec.spans())
        if (sp.name == "binfmt.deserialize") {
            des_ms += static_cast<double>(sp.endNs - sp.startNs) / 1e6;
            ++des_n;
        }
    res.layers["binfmt.deserialize_ms"] = {des_n ? des_ms / static_cast<double>(des_n) : 0.0,
                                           "ms", des_n, "read + deserialize"};
    res.layers["trace.coverage_pct"] = {rec.coverage() * 100.0, "%", 3,
                                        "top-level spans / child op wall"};
    res.layers["trace.overhead_pct"] = {
        ((c.wallMs + s.wallMs) / pair_ms.front() - 1.0) * 100.0, "%", 1,
        "traced vs untraced classic + sharded wall"};
    res.spansJson = rec.selfTimeJson();
    writeTraceFile(args.out + ".trace.json", rec);
    return 0;
}

} // namespace icpbench
