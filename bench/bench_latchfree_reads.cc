// Epoch-protected latch-free reads (DESIGN.md §11): read-only user
// transactions vs a concurrent IRA reorganization, locked baseline
// against the zero-lock snapshot path, swept over reorg worker counts.
//
// In the locked baseline every read step goes through the lock manager
// and may queue behind a migration's exclusive locks. With
// latchfree_reads on, readers never touch the lock manager: they pin an
// epoch, chase the relocation table past in-flight migrations, and
// snapshot under the per-object latch only. Read-only commits pay no log
// force, so the rows measure the read path itself (EXPERIMENTS.md).
//
// The readers are closed loops that never sleep, so each row runs
// nproc - workers of them (at least one): together with the IRA workers
// they fit the cores, and reorg_ms measures migration cost rather than
// how much CPU the readers left over. read_tps_per_reader compares rows
// with different reader counts.
//
// Emits BENCH_latchfree_reads.json in the working directory.

#include <algorithm>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/harness.h"

namespace brahma {
namespace bench {
namespace {

// Closed-loop readers that fit the cores beside `workers` IRA workers.
uint32_t ReadersBeside(uint32_t workers) {
  const uint32_t cores = std::max(1u, std::thread::hardware_concurrency());
  return workers < cores ? cores - workers : 1;
}

void Run() {
  std::vector<uint32_t> workers = {1, 2, 8};
  // Fixed measurement window containing one complete reorganization: the
  // sweep variable (workers) must not change the window's composition,
  // or user-side tps compares a mostly-quiet long run against a
  // saturated short one. Sized just above the slowest (1-worker) reorg —
  // a tighter window keeps the reorg-active fraction (where worker count
  // matters) from being diluted by identical quiet time.
  double window_s = 8.5;
  WorkloadParams base;
  base.update_prob = 0.0;  // pure readers: the path under test
  if (SmokeMode()) {
    workers = {1, 4};
    base.num_partitions = 3;
    base.objects_per_partition = 85 * 4;
    window_s = 2.0;
  } else if (FullMode()) {
    workers = {1, 2, 4, 8, 16};
    window_s = 30.0;
  }

  std::printf("# Latch-free reads — reader tps/p99 vs reorg workers, "
              "locked baseline vs epoch-protected zero-lock path\n");
  PrintSeriesHeader("latchfree",
                    {"workers", "readers", "read_tps", "read_p99_ms",
                     "reorg_ms", "lf_reads", "epoch_advances",
                     "retire_drains"});
  JsonBenchWriter json("latchfree_reads");
  // mode 0 = locked baseline (readers queue behind migrations),
  // mode 1 = epoch-protected latch-free read path.
  const int trials = SmokeMode() ? 1 : 5;
  std::vector<std::pair<int, uint32_t>> configs;
  for (int lf = 0; lf <= 1; ++lf)
    for (uint32_t w : workers) configs.emplace_back(lf, w);
  // Best of N trials, interleaved round-robin across configurations: on
  // a time-shared box scheduler interference only subtracts throughput,
  // so the max is the least-biased estimate of a configuration's true
  // capacity, and interleaving keeps one noisy stretch of wall-clock
  // from contaminating every trial of a single configuration.
  std::vector<std::vector<ExperimentResult>> runs(configs.size());
  for (int t = 0; t < trials; ++t) {
    for (size_t c = 0; c < configs.size(); ++c) {
      ExperimentConfig cfg;
      cfg.workload = base;
      cfg.workload.mpl = ReadersBeside(configs[c].second);
      cfg.scenario = Scenario::kIRA;
      cfg.min_duration_s = window_s;
      cfg.ira.num_workers = configs[c].second;
      cfg.latchfree_reads = configs[c].first != 0;
      runs[c].push_back(RunExperiment(cfg));
    }
  }
  for (size_t c = 0; c < configs.size(); ++c) {
    const int lf = configs[c].first;
    const uint32_t w = configs[c].second;
    const uint32_t mpl = ReadersBeside(w);
    {
      ExperimentResult& r = *std::max_element(
          runs[c].begin(), runs[c].end(),
          [](const ExperimentResult& a, const ExperimentResult& b) {
            return a.driver.throughput_tps() < b.driver.throughput_tps();
          });
      PrintSeriesRow(lf, {static_cast<double>(w), static_cast<double>(mpl),
                          r.driver.throughput_tps(),
                          r.driver.response_ms.Percentile(0.99),
                          r.reorg_duration_ms,
                          static_cast<double>(r.counters.latchfree_reads),
                          static_cast<double>(r.counters.epoch_advances),
                          static_cast<double>(r.counters.retire_drains)});
      json.BeginRow();
      json.Add("latchfree", lf);
      json.Add("workers", w);
      json.Add("mpl", mpl);
      json.Add("read_tps", r.driver.throughput_tps());
      json.Add("read_tps_per_reader", r.driver.throughput_tps() / mpl);
      json.Add("read_p99_ms", r.driver.response_ms.Percentile(0.99));
      json.Add("read_art_ms", r.driver.response_ms.mean());
      json.Add("reorg_ms", r.reorg_duration_ms);
      json.Add("objects_migrated",
               static_cast<double>(r.reorg.objects_migrated));
      json.Add("latchfree_reads",
               static_cast<double>(r.counters.latchfree_reads));
      json.Add("epoch_advances",
               static_cast<double>(r.counters.epoch_advances));
      json.Add("retire_drains", static_cast<double>(r.counters.retire_drains));
      json.Add("lock_timeouts", static_cast<double>(r.reorg.lock_timeouts));
      json.Add("reorg_ok", r.reorg_status.ok() ? 1 : 0);
    }
  }
  if (!json.WriteFile("BENCH_latchfree_reads.json")) {
    std::fprintf(stderr, "failed to write BENCH_latchfree_reads.json\n");
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
