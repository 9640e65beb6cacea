#include "common.hh"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#ifndef ICPBENCH_BUILD_TYPE
#define ICPBENCH_BUILD_TYPE "unknown"
#endif

namespace icpbench
{

using icp::Stage;

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos =
        p / 100.0 * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = static_cast<std::size_t>(std::ceil(pos));
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

Summary
summarize(std::vector<double> samples)
{
    Summary s;
    s.n = samples.size();
    if (samples.empty())
        return s;
    s.p50 = percentile(samples, 50);
    s.tail = s.p50;
    // The highest percentile of the ladder with at least ten samples
    // above it.
    for (double p : {99.9, 99.0, 90.0}) {
        if (static_cast<double>(s.n) * (1.0 - p / 100.0) >= 10.0) {
            s.tail = percentile(samples, p);
            s.tailPct = p;
            break;
        }
    }
    return s;
}

double
geomeanOfRatios(const std::vector<double> &deltas)
{
    if (deltas.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double d : deltas)
        log_sum += std::log1p(d);
    return std::expm1(log_sum / static_cast<double>(deltas.size()));
}

void
Result::fail(const std::string &reason)
{
    ++failed;
    if (reasons_.size() < 20)
        reasons_.push_back(reason);
}

void
Result::checkFailed(const std::string &reason)
{
    ++checkFailures_;
    if (reasons_.size() < 20)
        reasons_.push_back("check: " + reason);
}

namespace
{

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::map<std::string, Metric> &metrics)
{
    std::ostringstream out;
    out << "{";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        out << (first ? "\n" : ",\n") << "    " << jsonString(name)
            << ": {\"value\": " << jsonNumber(m.value)
            << ", \"unit\": " << jsonString(m.unit);
        if (m.samples)
            out << ", \"samples\": " << m.samples;
        if (!m.note.empty())
            out << ", \"note\": " << jsonString(m.note);
        if (m.absent)
            out << ", \"absent\": true";
        out << "}";
        first = false;
    }
    out << "\n  }";
    return out.str();
}

} // namespace

void
Result::write(const std::string &path, const Args &args) const
{
    std::ostringstream out;
    out << "{\n  \"workload\": " << jsonString(args.workload)
        << ",\n  \"seed\": " << args.seed
        << ",\n  \"seconds\": " << jsonNumber(args.seconds)
        << ",\n  \"trace\": " << (args.trace ? 1 : 0)
        << ",\n  \"host\": {\"nproc\": "
        << sysconf(_SC_NPROCESSORS_ONLN)
        << ", \"build_type\": " << jsonString(ICPBENCH_BUILD_TYPE)
        << ", \"compiler\": "
#if defined(__clang__)
        << jsonString(std::string("clang ") + __clang_version__)
#elif defined(__GNUC__)
        << jsonString(std::string("gcc ") + __VERSION__)
#else
        << jsonString("unknown")
#endif
        << ", \"commit\": " << jsonString(args.commit)
        << ", \"seed\": " << args.seed << "}"
        << ",\n  \"input_hash\": " << jsonString(inputHash)
        << ",\n  \"correct\": " << (correct() ? "true" : "false")
        << ",\n  \"attempted\": " << attempted
        << ",\n  \"failed\": " << failed
        << ",\n  \"failed_ops_frac\": "
        << jsonNumber(attempted ? static_cast<double>(failed) /
                                      static_cast<double>(attempted)
                                : 0.0)
        << ",\n  \"failures\": [";
    for (std::size_t i = 0; i < reasons_.size(); ++i)
        out << (i ? ", " : "") << jsonString(reasons_[i]);
    out << "],\n  \"end_to_end\": " << metricsJson(e2e)
        << ",\n  \"named\": " << metricsJson(named)
        << ",\n  \"per_layer\": " << metricsJson(layers)
        << ",\n  \"determinism\": {";
    bool first = true;
    for (const auto &[name, v] : determinism) {
        out << (first ? "" : ", ") << jsonString(name) << ": "
            << jsonNumber(v);
        first = false;
    }
    out << "},\n  \"spans\": " << spansJson << "\n}\n";
    std::ofstream f(path, std::ios::trunc);
    f << out.str();
}

std::uint64_t
hashBytes(const std::uint8_t *data, std::size_t len, std::uint64_t h)
{
    for (std::size_t i = 0; i < len; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hexU64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

bool
writeFile(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(out);
}

bool
readFile(const std::string &path, std::vector<std::uint8_t> &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    out.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
    return true;
}

bool
hashFile(const std::string &path, std::uint64_t &hash,
         std::uint64_t &size)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    hash = 0xcbf29ce484222325ull;
    size = 0;
    std::vector<std::uint8_t> buf(1 << 20);
    std::size_t n = 0;
    while ((n = std::fread(buf.data(), 1, buf.size(), f)) > 0) {
        hash = hashBytes(buf.data(), n, hash);
        size += n;
    }
    std::fclose(f);
    return true;
}

double
selfPeakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

LayerSnapshot
LayerSnapshot::begin()
{
    icp::StageTimers::global().reset();
    icp::CacheCounters::global().reset();
    icp::DepsCounters::global().reset();
    icp::StreamCounters::global().reset();
    LayerSnapshot s;
    s.cache = icp::AnalysisCache::global().stats();
    return s;
}

LayerSnapshot
LayerSnapshot::end() const
{
    LayerSnapshot s;
    for (unsigned i = 0; i < s.nanos.size(); ++i)
        s.nanos[i] =
            icp::StageTimers::global().nanos(static_cast<Stage>(i));
    const icp::AnalysisCache::Stats now =
        icp::AnalysisCache::global().stats();
    s.cache.functionHits = now.functionHits - cache.functionHits;
    s.cache.functionMisses = now.functionMisses - cache.functionMisses;
    s.cache.livenessHits = now.livenessHits - cache.livenessHits;
    s.cache.livenessMisses = now.livenessMisses - cache.livenessMisses;
    const auto &cc = icp::CacheCounters::global();
    s.crossHits = cc.crossHits.load();
    s.bytesMapped = cc.bytesMapped.load();
    s.bytesAppended = cc.bytesAppended.load();
    const auto &dc = icp::DepsCounters::global();
    s.hitsValidated = dc.hitsValidated.load();
    s.hitsRejected = dc.hitsRejected.load();
    const auto &sc = icp::StreamCounters::global();
    s.streamBytes = sc.bytesStreamed.load();
    s.windowOverflows = sc.windowOverflows.load();
    return s;
}

std::string
LayerSnapshot::encode() const
{
    std::ostringstream out;
    for (unsigned i = 0; i < nanos.size(); ++i)
        out << "stage." << i << "=" << nanos[i] << "\n";
    out << "cache.fh=" << cache.functionHits
        << "\ncache.fm=" << cache.functionMisses
        << "\ncache.lh=" << cache.livenessHits
        << "\ncache.lm=" << cache.livenessMisses
        << "\ncross=" << crossHits << "\nmapped=" << bytesMapped
        << "\nappended=" << bytesAppended
        << "\nvalidated=" << hitsValidated
        << "\nrejected=" << hitsRejected
        << "\nstream=" << streamBytes
        << "\noverflows=" << windowOverflows << "\n";
    return out.str();
}

LayerSnapshot
LayerSnapshot::decode(const std::map<std::string, std::string> &kv)
{
    auto get = [&](const std::string &k) -> std::uint64_t {
        auto it = kv.find(k);
        return it == kv.end() ? 0 : std::stoull(it->second);
    };
    LayerSnapshot s;
    for (unsigned i = 0; i < s.nanos.size(); ++i)
        s.nanos[i] = get("stage." + std::to_string(i));
    s.cache.functionHits = get("cache.fh");
    s.cache.functionMisses = get("cache.fm");
    s.cache.livenessHits = get("cache.lh");
    s.cache.livenessMisses = get("cache.lm");
    s.crossHits = get("cross");
    s.bytesMapped = get("mapped");
    s.bytesAppended = get("appended");
    s.hitsValidated = get("validated");
    s.hitsRejected = get("rejected");
    s.streamBytes = get("stream");
    s.windowOverflows = get("overflows");
    return s;
}

void
LayerAccum::add(const LayerSnapshot &snap)
{
    ++ops_;
    for (unsigned i = 0; i < ms_.size(); ++i)
        ms_[i] += static_cast<double>(snap.nanos[i]) / 1e6;
    cacheHits_ += static_cast<double>(snap.cache.hits());
    cacheLookups_ +=
        static_cast<double>(snap.cache.hits() + snap.cache.misses());
    crossHits_ += static_cast<double>(snap.crossHits);
    bytesMapped_ += static_cast<double>(snap.bytesMapped);
    bytesAppended_ += static_cast<double>(snap.bytesAppended);
    hitsValidated_ += static_cast<double>(snap.hitsValidated);
    hitsRejected_ += static_cast<double>(snap.hitsRejected);
    streamBytes_ += static_cast<double>(snap.streamBytes);
    windowOverflows_ += static_cast<double>(snap.windowOverflows);
}

void
LayerAccum::report(std::map<std::string, Metric> &out) const
{
    if (ops_ == 0)
        return;
    const double n = static_cast<double>(ops_);
    // The program's stage timers are flat: cfg contains disasm and
    // jump-table time, lint contains its lint.* sub-stages.
    const std::string flat = "per-op mean of a flat stage timer; "
                             "stage timers overlap";
    auto stage = [&](const char *name, Stage s) {
        out[name] = Metric{ms_[static_cast<unsigned>(s)] / n, "ms", ops_,
                           flat};
    };
    stage("analysis.disasm_ms", Stage::disasm);
    stage("analysis.cfg_ms", Stage::cfg);
    stage("analysis.jump_table_ms", Stage::jumpTable);
    stage("analysis.liveness_ms", Stage::liveness);
    stage("analysis.funcptr_ms", Stage::funcPtr);
    stage("analysis.deps_compute_ms", Stage::depsCompute);
    stage("rewrite.relocation_ms", Stage::relocate);
    stage("rewrite.trampoline_ms", Stage::trampoline);
    stage("rewrite.output_ms", Stage::output);
    stage("verify.lint_chains_ms", Stage::lintChains);
    stage("verify.lint_clones_ms", Stage::lintClones);
    stage("verify.lint_ptrs_ms", Stage::lintPtrs);
    stage("cache.load_ms", Stage::cacheLoad);
    stage("cache.save_ms", Stage::cacheSave);
    stage("cache.rebase_ms", Stage::cacheRebase);
    stage("deps.validate_ms", Stage::depsValidate);
    const std::string mean = "per-op mean";
    out["cache.hit_ratio"] = Metric{
        cacheLookups_ > 0 ? cacheHits_ / cacheLookups_ : 0.0, "ratio",
        ops_, "hits / lookups over all ops"};
    out["cache.cross_hits"] = Metric{crossHits_ / n, "count", ops_, mean};
    out["cache.bytes_mapped"] =
        Metric{bytesMapped_ / n, "bytes", ops_, mean};
    out["cache.bytes_appended"] =
        Metric{bytesAppended_ / n, "bytes", ops_, mean};
    out["deps.hits_validated"] =
        Metric{hitsValidated_ / n, "count", ops_, mean};
    out["deps.hits_rejected"] =
        Metric{hitsRejected_ / n, "count", ops_, mean};
    out["stream.bytes"] = Metric{streamBytes_ / n, "bytes", ops_, mean};
    out["stream.window_overflows"] =
        Metric{windowOverflows_ / n, "count", ops_, mean};
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"codegen.compile_ms", "ms"},
        {"binfmt.deserialize_ms", "ms"},
        {"binfmt.serialize_ms", "ms"},
        {"analysis.build_cfg_ms", "ms"},
        {"analysis.disasm_ms", "ms"},
        {"analysis.cfg_ms", "ms"},
        {"analysis.jump_table_ms", "ms"},
        {"analysis.liveness_ms", "ms"},
        {"analysis.funcptr_ms", "ms"},
        {"analysis.deps_compute_ms", "ms"},
        {"analysis.functions", "count"},
        {"analysis.blocks", "count"},
        {"analysis.insns", "count"},
        {"cache.hit_ratio", "ratio"},
        {"cache.cross_hits", "count"},
        {"cache.load_ms", "ms"},
        {"cache.save_ms", "ms"},
        {"cache.rebase_ms", "ms"},
        {"cache.bytes_mapped", "bytes"},
        {"cache.bytes_appended", "bytes"},
        {"cache.file_bytes", "bytes"},
        {"deps.validate_ms", "ms"},
        {"deps.hits_validated", "count"},
        {"deps.hits_rejected", "count"},
        {"rewrite.total_ms", "ms"},
        {"rewrite.relocation_ms", "ms"},
        {"rewrite.trampoline_ms", "ms"},
        {"rewrite.output_ms", "ms"},
        {"rewrite.emitted_functions", "count"},
        {"rewrite.spliced_functions", "count"},
        {"rewrite.trampolines", "count"},
        {"rewrite.trap_tramps", "count"},
        {"rewrite.multi_hop_tramps", "count"},
        {"rewrite.long_tramps", "count"},
        {"rewrite.coverage", "ratio"},
        {"rewrite.out_bytes", "bytes"},
        {"shard.workers_ms", "ms"},
        {"shard.worker_rss_mb_max", "MB"},
        {"shard.balance", "ratio"},
        {"shard.degraded", "count"},
        {"stream.bytes", "bytes"},
        {"stream.window_overflows", "count"},
        {"verify.lint_ms", "ms"},
        {"verify.lint_chains_ms", "ms"},
        {"verify.lint_clones_ms", "ms"},
        {"verify.lint_ptrs_ms", "ms"},
        {"verify.findings", "count"},
        {"session.load_input_ms", "ms"},
        {"session.rewrite_ms", "ms"},
        {"session.lint_ms", "ms"},
        {"session.dirty_functions", "count"},
        {"session.incremental_ratio", "ratio"},
        {"serve.overhead_ms", "ms"},
        {"serve.queue_ms", "ms"},
        {"serve.gen_lag_ms_p99", "ms"},
        {"serve.rejected", "count"},
        {"serve.timeouts", "count"},
        {"serve.errors", "count"},
        {"serve.session_hits", "count"},
        {"serve.session_misses", "count"},
        {"serve.evictions", "count"},
        {"sim.cycles_original", "cycles"},
        {"sim.cycles_rewritten", "cycles"},
        {"sim.traps", "count"},
        {"sim.icache_miss_ratio", "ratio"},
        {"sim.rt_calls", "count"},
        {"trace.coverage_pct", "%"},
        {"trace.overhead_pct", "%"},
    };
    return names;
}

void
completeLayers(std::map<std::string, Metric> &layers)
{
    for (const auto &[name, unit] : perLayerMetrics()) {
        auto it = layers.find(name);
        if (it == layers.end()) {
            Metric m;
            m.unit = unit;
            m.absent = true;
            m.note = "not exercised by this workload";
            layers[name] = m;
        } else {
            it->second.unit = unit;
        }
    }
}

std::map<std::string, std::string>
parseKv(const std::string &text)
{
    std::map<std::string, std::string> kv;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        const auto eq = line.find('=');
        if (eq != std::string::npos)
            kv[line.substr(0, eq)] = line.substr(eq + 1);
    }
    return kv;
}

int
runInChild(const std::function<int()> &body, double &peak_rss_mb,
           double *wall_ms)
{
    std::fflush(stdout);
    std::fflush(stderr);
    const auto t0 = Clock::now();
    const pid_t pid = fork();
    if (pid < 0)
        return -1;
    if (pid == 0) {
        int rc = 2;
        try {
            rc = body();
        } catch (...) {
            rc = 3;
        }
        std::fflush(stdout);
        std::fflush(stderr);
        _exit(rc);
    }
    int status = 0;
    struct rusage ru = {};
    while (wait4(pid, &status, 0, &ru) < 0) {
        if (errno != EINTR)
            return -1;
    }
    if (wall_ms)
        *wall_ms = msSince(t0);
    peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

} // namespace icpbench
