// End-to-end benchmark of the Sight library.
//
// Usage: sight_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Prints one context line (seed, thread counts, cores delivered,
// workload-specific figures) and, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}. Exits 0 when every
// operation succeeded and every correctness gate held, 1 when one failed,
// 2 on bad arguments. See README.md in this directory.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "harness.h"
#include "workloads.h"

namespace {

constexpr size_t kProbeThreads = 4;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage(argv[0]);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || options.seconds <= 0.0) return Usage(argv[0]);
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage(argv[0]);
      }
      options.trace = value[0] == '1';
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || !have_workload) return Usage(argv[0]);

  perfbench::RunOutput out;
  double probe_before = perfbench::EffectiveParallelism(kProbeThreads);
  if (options.workload == "crawl_growth") {
    perfbench::RunCrawlGrowth(options, &out);
  } else if (options.workload == "cold_10k_topk8") {
    perfbench::RunCold10kTopK8(options, &out);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return Usage(argv[0]);
  }
  double probe_after = perfbench::EffectiveParallelism(kProbeThreads);
  double parallelism = (probe_before + probe_after) / 2.0;

  out.context.Add("workload", options.workload);
  out.context.Add("seed", static_cast<double>(options.seed));
  out.context.Add("trace", options.trace ? 1.0 : 0.0);
  out.context.Add("hardware_concurrency",
                  static_cast<double>(std::thread::hardware_concurrency()));
  out.context.Add("util.effective_parallelism", parallelism);
  out.context.Add("probe_threads", static_cast<double>(kProbeThreads));
  out.context.Add("minor_faults", perfbench::MinorFaults());
  if (options.trace) {
    out.result.Add("util.effective_parallelism", parallelism, "cores");
  }
  std::printf("%s\n%s\n", out.context.Json().c_str(),
              out.result.Json().c_str());
  std::fflush(stdout);
  return out.result.failed() == 0 ? 0 : 1;
}
