// Ablations over the design choices DESIGN.md calls out:
//   1. Basic IRA vs. the Section 4.2 two-lock extension: lock footprint
//      vs. reorganization duration.
//   2. Section 4.3 migration grouping: migrations per transaction vs.
//      reorganization duration, log volume, and workload impact.
// (The Section 4.5 TRT purge ablation is finished; its last result is in
// EXPERIMENTS.md.)
//
// Expected: two-lock caps the lock footprint at 2 at the cost of a longer
// reorganization; grouping shortens the reorganization (fewer commits /
// log forces) but holds more locks at once.

#include "bench/harness.h"

namespace brahma {
namespace bench {
namespace {

ExperimentResult RunIraVariant(const IraOptions& ira, double mutation) {
  ExperimentConfig cfg;
  cfg.scenario = Scenario::kIRA;
  cfg.ira = ira;
  cfg.workload.mpl = 10;
  cfg.workload.ref_mutation_prob = mutation;
  return RunExperiment(cfg);
}

void Run() {
  std::printf("# Ablation 1 — basic vs. two-lock (Section 4.2)\n");
  std::printf("%-10s %16s %16s %14s %14s %14s\n", "variant",
              "reorg_ms", "max_locks", "timeouts", "wl_tps", "wl_art_ms");
  for (bool two_lock : {false, true}) {
    IraOptions opt;
    opt.two_lock_mode = two_lock;
    ExperimentResult r = RunIraVariant(opt, 0.2);
    std::printf("%-10s %16.1f %16llu %14llu %14.1f %14.2f\n",
                two_lock ? "two-lock" : "basic", r.reorg.duration_ms,
                static_cast<unsigned long long>(
                    r.reorg.max_distinct_objects_locked),
                static_cast<unsigned long long>(r.reorg.lock_timeouts),
                r.driver.throughput_tps(), r.driver.response_ms.mean());
  }

  std::printf("\n# Ablation 2 — migration grouping (Section 4.3)\n");
  std::printf("%-10s %16s %16s %14s %14s\n", "group", "reorg_ms",
              "max_locks", "wl_tps", "wl_art_ms");
  for (uint32_t group : {1u, 8u, 32u, 128u}) {
    IraOptions opt;
    opt.group_size = group;
    ExperimentResult r = RunIraVariant(opt, 0.2);
    std::printf("%-10u %16.1f %16llu %14.1f %14.2f\n", group,
                r.reorg.duration_ms,
                static_cast<unsigned long long>(
                    r.reorg.max_distinct_objects_locked),
                r.driver.throughput_tps(), r.driver.response_ms.mean());
  }
}

}  // namespace
}  // namespace bench
}  // namespace brahma

int main() {
  brahma::bench::Run();
  // Nonzero when any experiment's reorganization failed or a JSON
  // artifact could not be written: CI must fail the step instead of
  // validating zeroed stats.
  return brahma::bench::ExitCode();
}
