/**
 * @file
 * icpbench: the rewriter's benchmark program. perfbench/run.py builds
 * it and calls it once per run:
 *
 *   icpbench --workload cold_corpus|edit_stream|chromium_scale
 *            --seed N --seconds S --trace 0|1 --out result.json
 *            --work DIR --icp PATH [--commit C] [--latency-limit-ms L]
 *            [--inputs-only]
 *
 * The run writes its full result (host block, gated and named
 * end-to-end metrics, per-layer metrics, determinism counts, span
 * self times) to --out. --inputs-only generates the seeded inputs,
 * prints their hash and exits, which the benchmark's self test uses.
 */

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "support/random.hh"
#include "workloads.hh"

namespace icpbench
{

void
varySpec(icp::ProgramSpec &spec, std::uint64_t seed,
         unsigned scale_pct_lo, unsigned scale_pct_hi)
{
    icp::Rng rng(seed);
    const std::uint64_t pct = rng.range(scale_pct_lo, scale_pct_hi);
    spec.mainIterations =
        std::max<std::uint64_t>(4, spec.mainIterations * pct / 100);
}

icp::RewriteOptions
baseOptions(icp::RewriteMode mode)
{
    icp::RewriteOptions opts;
    opts.mode = mode;
    opts.threads = 1;
    opts.lint = true;
    return opts;
}

} // namespace icpbench

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: icpbench --workload cold_corpus|edit_stream|"
                 "chromium_scale --seed N --seconds S --trace 0|1 "
                 "--out FILE --work DIR --icp PATH [--commit C] "
                 "[--latency-limit-ms L] [--inputs-only]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace icpbench;
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--inputs-only") {
            args.inputsOnly = true;
        } else if (!has_value) {
            return usage();
        } else if (a == "--workload") {
            args.workload = argv[++i];
        } else if (a == "--seed") {
            args.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds") {
            args.seconds = std::strtod(argv[++i], nullptr);
        } else if (a == "--trace") {
            args.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (a == "--out") {
            args.out = argv[++i];
        } else if (a == "--work") {
            args.work = argv[++i];
        } else if (a == "--icp") {
            args.icp = argv[++i];
        } else if (a == "--commit") {
            args.commit = argv[++i];
        } else if (a == "--latency-limit-ms") {
            args.latencyLimitMs = std::strtod(argv[++i], nullptr);
        } else {
            return usage();
        }
    }
    if (args.workload.empty() || args.seconds <= 0 ||
        (!args.inputsOnly && (args.out.empty() || args.work.empty())))
        return usage();
    if (!args.work.empty())
        mkdir(args.work.c_str(), 0755);

    Result res;
    int rc = 2;
    if (args.workload == "cold_corpus")
        rc = runColdCorpus(args, res);
    else if (args.workload == "edit_stream")
        rc = runEditStream(args, res);
    else if (args.workload == "chromium_scale")
        rc = runChromiumScale(args, res);
    else
        return usage();
    if (rc != 0)
        return rc;
    if (args.inputsOnly) {
        std::printf("inputs %s seed %llu %s\n", args.workload.c_str(),
                    static_cast<unsigned long long>(args.seed),
                    res.inputHash.c_str());
        return 0;
    }
    completeLayers(res.layers);
    res.write(args.out, args);
    return 0;
}
