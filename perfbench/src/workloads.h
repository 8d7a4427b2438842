#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scratch directory for the disk-backed workload's files (removed at
  // the end of the run).
  std::string workdir = "perfbench-work";
  // Chrome/Perfetto trace file written after a traced run; empty = none.
  std::string trace_out;
  // Identifies the source the library was built from (recorded only).
  std::string source_id = "unknown";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // 0 where the value is not a sample statistic
};

struct RunResult {
  bool correct = false;
  uint64_t attempted = 0;  // logical transactions finished in the window
  uint64_t failed = 0;     // of those, the ones that never committed
  std::vector<Metric> end_to_end;  // measured with tracing off
  std::vector<Metric> per_layer;   // from the traced window (trace runs)
  std::vector<std::string> problems;
  std::string descriptor_json;
};

// Sets up the named workload, measures it, audits the database and
// returns every metric. Unknown workload names come back as a problem.
RunResult RunWorkload(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
