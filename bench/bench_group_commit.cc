// Group-commit WAL force + claim-aware wakeup + adaptive workers: reorg
// wall-clock and user-transaction p99 vs num_workers, with the whole
// stack toggled on/off. "off" rows reproduce the PR 2 pipeline — every
// committer queues a serial force of its own on the one-head log
// device, deferred siblings spin on the blind 1 ms retry timer, and the
// worker count is static — so the emitted JSON is its own baseline.
//
// Expected shape: without batching, MPL user committers plus N reorg
// workers each demand a full device force per commit, so the force
// queue — not the migration work — gates both reorg wall-clock and user
// throughput. Batching the queued forces (one elected flusher per
// batch, the rest absorbed) collapses that queue to ~one force per
// batch; claim-aware wakeup then removes the deferral dead time and the
// adaptive controller stops entangled clusters from thrashing. User p99
// improves for the same reason: commits ride a shared batch instead of
// queueing behind every outstanding force.
//
// Emits BENCH_group_commit.json in the working directory.

#include <string>
#include <vector>

#include "bench/harness.h"

namespace brahma {
namespace bench {
namespace {

void Run() {
  std::vector<uint32_t> workers = {1, 2, 4, 8};
  uint32_t mpl = 10;
  WorkloadParams base;
  if (SmokeMode()) {
    workers = {2, 4};
    mpl = 4;
    base.num_partitions = 3;
    base.objects_per_partition = 85 * 4;
  } else if (FullMode()) {
    workers = {1, 2, 4, 8, 16};
    mpl = 30;
  }

  std::printf("# Group commit + claim wakeup + adaptive workers — reorg "
              "wall-clock and user p99 vs num_workers\n");
  PrintSeriesHeader("mode", {"workers", "reorg_ms", "user_tps", "user_p99_ms",
                             "batches", "absorbed", "commits_per_force",
                             "gathers", "gather_timeouts", "claim_wakeups",
                             "shed", "added"});
  JsonBenchWriter json("group_commit");
  // mode 0 = PR 2 baseline (everything off), mode 1 = full stack on.
  for (int gc = 0; gc <= 1; ++gc) {
    for (uint32_t w : workers) {
      ExperimentConfig cfg;
      cfg.workload = base;
      cfg.workload.mpl = mpl;
      cfg.scenario = Scenario::kIRA;
      cfg.ira.num_workers = w;
      cfg.group_commit = gc != 0;
      cfg.ira.claim_wakeup = gc != 0;
      cfg.ira.adaptive_workers = gc != 0;
      ExperimentResult r = RunExperiment(cfg);
      const double batches =
          static_cast<double>(r.reorg.group_commit_batches);
      const double absorbed = static_cast<double>(r.reorg.forces_absorbed);
      // Commits made durable per device force (0 without group commit,
      // where the daemon counts nothing).
      const double per_force =
          batches > 0 ? (batches + absorbed) / batches : 0;
      const double gathers =
          static_cast<double>(r.reorg.group_commit_gathers);
      const double gather_timeouts =
          static_cast<double>(r.reorg.group_commit_gather_timeouts);
      PrintSeriesRow(gc, {static_cast<double>(w), r.reorg_duration_ms,
                          r.driver.throughput_tps(),
                          r.driver.response_ms.Percentile(0.99), batches,
                          absorbed, per_force, gathers, gather_timeouts,
                          static_cast<double>(r.reorg.claim_wakeups),
                          static_cast<double>(r.reorg.workers_shed),
                          static_cast<double>(r.reorg.workers_added)});
      json.BeginRow();
      json.Add("group_commit", gc);
      json.Add("workers", w);
      json.Add("mpl", mpl);
      json.Add("reorg_ms", r.reorg_duration_ms);
      json.Add("user_tps", r.driver.throughput_tps());
      json.Add("user_p99_ms", r.driver.response_ms.Percentile(0.99));
      json.Add("user_art_ms", r.driver.response_ms.mean());
      json.Add("objects_migrated",
               static_cast<double>(r.reorg.objects_migrated));
      json.Add("group_commit_batches", batches);
      json.Add("forces_absorbed", absorbed);
      json.Add("commits_per_force", per_force);
      json.Add("group_commit_gathers", gathers);
      json.Add("group_commit_gather_timeouts", gather_timeouts);
      json.Add("claim_deferrals",
               static_cast<double>(r.reorg.claim_deferrals));
      json.Add("claim_wakeups", static_cast<double>(r.reorg.claim_wakeups));
      json.Add("workers_shed", static_cast<double>(r.reorg.workers_shed));
      json.Add("workers_added", static_cast<double>(r.reorg.workers_added));
      json.Add("lock_timeouts", static_cast<double>(r.reorg.lock_timeouts));
      json.Add("reorg_ok", r.reorg_status.ok() ? 1 : 0);
    }
  }
  if (!json.WriteFile("BENCH_group_commit.json")) {
    std::fprintf(stderr, "failed to write BENCH_group_commit.json\n");
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
