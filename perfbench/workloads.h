// The benchmark's workloads. Each builds its inputs from the run's
// seed, measures for the requested time, checks the library's outputs,
// and fills the run's result: the end-to-end metrics when untraced, the
// per-layer metrics when traced.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

struct RunOutput {
  RunResult result;
  Context context;
};

/// Closed-loop crawl replay: 4 paper-scale owners grow batch by batch.
void RunCrawlGrowth(const Options& options, RunOutput* out);
/// Repeated cold AssessNow of 10k-stranger owners, top-8 sparsified.
void RunCold10kTopK8(const Options& options, RunOutput* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
