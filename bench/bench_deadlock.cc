// Deadlock handling ablation: timeout-only (the paper's 1 s-timeout
// baseline) vs waits-for graph detection with reorg-first victim
// selection, on a contended Fig-6 style workload with a 4-worker
// parallel IRA in flight.
//
// Expected shape: under timeout-only, every user/reorg cycle parks both
// parties for the full lock timeout before one aborts, so contended user
// p99 sits near (timeout + transaction time). Graph detection notices the
// cycle within the detection grace, sacrifices the reorg side (users are
// never victims while a reorg transaction is in the cycle), and the user
// transaction proceeds after milliseconds instead of the full timeout —
// victim_wait_ms_saved tallies exactly the parked time detection
// reclaimed.
//
// Emits BENCH_deadlock.json in the working directory.

#include <string>
#include <vector>

#include "bench/harness.h"

namespace brahma {
namespace bench {
namespace {

const char* PolicyName(DeadlockPolicy p) {
  switch (p) {
    case DeadlockPolicy::kTimeoutOnly: return "timeout_only";
    case DeadlockPolicy::kDetect: return "detect";
  }
  return "?";
}

void Run() {
  std::vector<uint32_t> mpls = {4, 10, 20};
  uint32_t workers = 4;
  WorkloadParams base;
  // Contended variant of the Table 1 workload: fewer, smaller partitions
  // and a high update mix concentrate the random walks on the partition
  // being reorganized, so user transactions and migration workers
  // actually collide and form cycles.
  base.num_partitions = 4;
  base.objects_per_partition = 85 * 8;
  base.update_prob = 0.8;
  base.ref_mutation_prob = 0.3;
  if (SmokeMode()) {
    mpls = {4};
    workers = 2;
    base.num_partitions = 3;
    base.objects_per_partition = 85 * 4;
  } else if (FullMode()) {
    mpls = {10, 20, 30};
    base.objects_per_partition = 85 * 12;
  }

  const std::vector<DeadlockPolicy> policies = {DeadlockPolicy::kTimeoutOnly,
                                                DeadlockPolicy::kDetect};

  std::printf("# Deadlock ablation — user p99 and reorg wall-clock, "
              "timeout-only vs waits-for detection\n");
  PrintSeriesHeader("mode", {"mpl", "reorg_ms", "user_tps", "user_p99_ms",
                             "detected", "victims", "saved_ms",
                             "lock_timeouts"});
  JsonBenchWriter json("deadlock");
  // mode 0 = timeout-only, 1 = waits-for detection.
  for (size_t mode = 0; mode < policies.size(); ++mode) {
    for (uint32_t mpl : mpls) {
      ExperimentConfig cfg;
      cfg.workload = base;
      cfg.workload.mpl = mpl;
      cfg.scenario = Scenario::kIRA;
      cfg.ira.num_workers = workers;
      cfg.deadlock_policy = policies[mode];
      ExperimentResult r = RunExperiment(cfg);
      PrintSeriesRow(static_cast<double>(mode),
                     {static_cast<double>(mpl), r.reorg_duration_ms,
                      r.driver.throughput_tps(),
                      r.driver.response_ms.Percentile(0.99),
                      static_cast<double>(r.counters.deadlocks_detected),
                      static_cast<double>(r.counters.victims_aborted),
                      static_cast<double>(r.counters.victim_wait_ms_saved),
                      static_cast<double>(r.reorg.lock_timeouts)});
      std::printf("#   policy=%s\n", PolicyName(policies[mode]));
      json.BeginRow();
      json.Add("mode", static_cast<double>(mode));
      json.Add("mpl", mpl);
      json.Add("workers", workers);
      json.Add("reorg_ms", r.reorg_duration_ms);
      json.Add("user_tps", r.driver.throughput_tps());
      json.Add("user_p99_ms", r.driver.response_ms.Percentile(0.99));
      json.Add("user_art_ms", r.driver.response_ms.mean());
      json.Add("user_timeout_aborts",
               static_cast<double>(r.driver.timeout_aborts));
      json.Add("user_other_aborts",
               static_cast<double>(r.driver.other_aborts));
      json.Add("deadlocks_detected",
               static_cast<double>(r.counters.deadlocks_detected));
      json.Add("victims_aborted",
               static_cast<double>(r.counters.victims_aborted));
      json.Add("victim_wait_ms_saved",
               static_cast<double>(r.counters.victim_wait_ms_saved));
      json.Add("lock_timeouts", static_cast<double>(r.reorg.lock_timeouts));
      json.Add("objects_migrated",
               static_cast<double>(r.reorg.objects_migrated));
      json.Add("reorg_ok", r.reorg_status.ok() ? 1 : 0);
    }
  }
  if (!json.WriteFile("BENCH_deadlock.json")) {
    std::fprintf(stderr, "failed to write BENCH_deadlock.json\n");
    NoteFailure();
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
