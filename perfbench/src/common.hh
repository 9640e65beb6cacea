/**
 * @file
 * Shared pieces of the benchmark program: command-line arguments,
 * the result record every workload fills (gated end-to-end metrics,
 * the full set of named end-to-end metrics, per-layer metrics,
 * determinism counts, failures), sample summaries, hashing, and the
 * per-operation snapshot of the program's stage timers and counters.
 */

#ifndef ICPBENCH_COMMON_HH
#define ICPBENCH_COMMON_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "analysis/cache.hh"
#include "support/stats.hh"

namespace icpbench
{

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double
msSince(Clock::time_point a)
{
    return msBetween(a, Clock::now());
}

/** Parsed command line of the icpbench binary. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out;       ///< result JSON path
    std::string work;      ///< scratch directory (relative is fine)
    std::string icp;       ///< the icp CLI (edit_stream's daemon)
    std::string commit = "unknown";
    double latencyLimitMs = 100.0; ///< serve_max_rps limit on p99
    bool inputsOnly = false; ///< print input hashes and exit
};

/** One reported number. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0; ///< timing samples behind the value
    std::string note;        ///< e.g. which percentile a tail is
    bool absent = false;     ///< the program gives no such number
};

/** Median plus the highest percentile with >= 10 samples beyond. */
struct Summary
{
    double p50 = 0.0;
    double tail = 0.0;
    double tailPct = 50.0;
    std::size_t n = 0;
};

Summary summarize(std::vector<double> samples);

/** Percentile (0..100) with linear interpolation; 0 when empty. */
double percentile(std::vector<double> samples, double p);

/** Geometric mean of (1 + x) minus 1, for ratios like overheads. */
double geomeanOfRatios(const std::vector<double> &deltas);

/** Everything one run reports; written as JSON by write(). */
class Result
{
  public:
    /** Gated end-to-end metrics (BENCHMARK.json end_to_end). */
    std::map<std::string, Metric> e2e;

    /** The named end-to-end metrics of this workload. */
    std::map<std::string, Metric> named;

    /** Per-layer metrics (BENCHMARK.json per_layer). */
    std::map<std::string, Metric> layers;

    /** Counts that must repeat exactly across runs at one seed. */
    std::map<std::string, double> determinism;

    /** Span self-time table of a traced run (JSON object text). */
    std::string spansJson = "{}";

    std::string inputHash;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Count one attempted operation. */
    void attempt(std::uint64_t n = 1) { attempted += n; }

    /** Count one failed operation, keeping the first reasons. */
    void fail(const std::string &reason);

    /** A check outside the operation count failed (run incorrect). */
    void checkFailed(const std::string &reason);

    bool correct() const { return failed == 0 && checkFailures_ == 0; }

    void write(const std::string &path, const Args &args) const;

  private:
    std::vector<std::string> reasons_;
    std::uint64_t checkFailures_ = 0;
};

/** FNV-1a over bytes; @p h chains several buffers. */
std::uint64_t hashBytes(const std::uint8_t *data, std::size_t len,
                        std::uint64_t h = 0xcbf29ce484222325ull);

inline std::uint64_t
hashBytes(const std::vector<std::uint8_t> &v,
          std::uint64_t h = 0xcbf29ce484222325ull)
{
    return hashBytes(v.data(), v.size(), h);
}

std::string hexU64(std::uint64_t v);

bool writeFile(const std::string &path,
               const std::vector<std::uint8_t> &bytes);
bool readFile(const std::string &path, std::vector<std::uint8_t> &out);

/** Streaming hash of a file's contents; false when unreadable. */
bool hashFile(const std::string &path, std::uint64_t &hash,
              std::uint64_t &size);

/** Peak RSS of this process so far, in MiB. */
double selfPeakRssMb();

/**
 * The program's process-global stage timers and counters, reset
 * right before one operation and read right after it, so the numbers
 * belong to that operation alone.
 */
struct LayerSnapshot
{
    std::array<std::uint64_t, static_cast<unsigned>(icp::Stage::count_)>
        nanos{};
    icp::AnalysisCache::Stats cache;
    std::uint64_t crossHits = 0;
    std::uint64_t bytesMapped = 0;
    std::uint64_t bytesAppended = 0;
    std::uint64_t hitsValidated = 0;
    std::uint64_t hitsRejected = 0;
    std::uint64_t streamBytes = 0;
    std::uint64_t windowOverflows = 0;

    /** Reset every timer and counter; remember the cache stats. */
    static LayerSnapshot begin();

    /** Counters since begin() (cache stats as a difference). */
    LayerSnapshot end() const;

    double ms(icp::Stage s) const
    {
        return static_cast<double>(nanos[static_cast<unsigned>(s)]) /
               1e6;
    }

    /** key=value lines, for snapshots taken in a forked child. */
    std::string encode() const;
    static LayerSnapshot decode(const std::map<std::string, std::string> &kv);
};

/**
 * Sums per-operation snapshots and reports their per-operation
 * means as per-layer metrics.
 */
class LayerAccum
{
  public:
    void add(const LayerSnapshot &snap);

    /** Write every stage/counter metric into @p out (means). */
    void report(std::map<std::string, Metric> &out) const;

  private:
    std::size_t ops_ = 0;
    std::array<double, static_cast<unsigned>(icp::Stage::count_)> ms_{};
    double cacheHits_ = 0, cacheLookups_ = 0;
    double crossHits_ = 0, bytesMapped_ = 0, bytesAppended_ = 0;
    double hitsValidated_ = 0, hitsRejected_ = 0;
    double streamBytes_ = 0, windowOverflows_ = 0;
};

/** Every per-layer metric name with its unit (BENCHMARK.json). */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/**
 * Fill in every per-layer metric the workload did not measure as
 * absent (value 0), so each run reports the full list.
 */
void completeLayers(std::map<std::string, Metric> &layers);

/** Parse key=value lines. */
std::map<std::string, std::string> parseKv(const std::string &text);

/** Run @p body in a forked child; returns its exit code (or -1)
 *  and fills @p peak_rss_mb from wait4's ru_maxrss. */
int runInChild(const std::function<int()> &body, double &peak_rss_mb,
               double *wall_ms = nullptr);

} // namespace icpbench

#endif // ICPBENCH_COMMON_HH
