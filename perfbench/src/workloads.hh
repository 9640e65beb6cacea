/**
 * @file
 * The three workloads. Each fills a Result from a seed and a time
 * budget, and returns 0 unless the workload could not run at all.
 *
 *  - cold_corpus: closed loop over a seeded corpus; one operation is
 *    deserialize -> cold rewriteBinary -> lintRewrite -> serialize.
 *  - edit_stream: open loop of seeded edit/lint requests against a
 *    forked `icp serve` daemon holding three resident binaries.
 *  - chromium_scale: the 120k-function chromium profile rewritten
 *    classic and --shards 4 streaming, each in a forked child.
 */

#ifndef ICPBENCH_WORKLOADS_HH
#define ICPBENCH_WORKLOADS_HH

#include <string>
#include <vector>

#include "codegen/spec.hh"
#include "common.hh"
#include "rewrite/options.hh"

namespace icpbench
{

int runColdCorpus(const Args &args, Result &res);
int runEditStream(const Args &args, Result &res);
int runChromiumScale(const Args &args, Result &res);

/**
 * Seeded variation of a profile that keeps its work the same: the
 * main loop's trip count is redrawn (which changes main's code bytes
 * and the simulated run length, not the rewrite's work).
 */
void varySpec(icp::ProgramSpec &spec, std::uint64_t seed,
              unsigned scale_pct_lo, unsigned scale_pct_hi);

/** The operation-level rewrite options every workload starts from. */
icp::RewriteOptions baseOptions(icp::RewriteMode mode);

} // namespace icpbench

#endif // ICPBENCH_WORKLOADS_HH
