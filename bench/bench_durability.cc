// Durability substrate ablation (DESIGN.md §12): user throughput and
// reorg wall-clock with the WAL force backed by (0) the in-memory log
// paying the modelled kCommitForceLatency, (1) real WAL segment files
// with one fsync per commit force (group commit off — the classic
// one-I/O-per-commit discipline), and (2) the same disk log under group
// commit, where queued committers ride one elected flusher's fsync.
//
// Expected shape: the in-memory model and the disk log agree on the
// *structure* of the cost (forces serialize on one device), so group
// commit recovers most of the gap between (1) and (0) — the fsyncs
// column shows the batching directly: (2) pays roughly one fsync per
// batch instead of one per commit.
//
// Emits BENCH_durability.json in the working directory.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/file_util.h"

namespace brahma {
namespace bench {
namespace {

void Run() {
  std::vector<uint32_t> workers = {1, 2, 4};
  uint32_t mpl = 10;
  WorkloadParams base;
  if (SmokeMode()) {
    workers = {1, 2};
    mpl = 4;
    base.num_partitions = 3;
    base.objects_per_partition = 85 * 4;
  } else if (FullMode()) {
    workers = {1, 2, 4, 8};
    mpl = 30;
  }

  std::printf("# Durability substrate — in-memory model vs disk WAL "
              "(fsync per commit) vs disk WAL + group commit\n");
  PrintSeriesHeader("durability", {"workers", "reorg_ms", "user_tps",
                                   "fsyncs", "batches", "absorbed"});
  JsonBenchWriter json("durability");
  // 0 = in-memory + modelled force latency, 1 = disk + fsync per commit,
  // 2 = disk + group commit.
  for (int mode = 0; mode <= 2; ++mode) {
    for (uint32_t w : workers) {
      const std::string wal_dir =
          "./durability_wal_" + std::to_string(mode) + "_" +
          std::to_string(w);
      RemoveDirRecursive(wal_dir);
      ExperimentConfig cfg;
      cfg.workload = base;
      cfg.workload.mpl = mpl;
      cfg.scenario = Scenario::kIRA;
      cfg.ira.num_workers = w;
      if (mode == 0) {
        cfg.durability = Durability::kInMemory;
        cfg.group_commit = true;
      } else {
        cfg.durability = Durability::kDisk;
        cfg.wal_dir = wal_dir;
        cfg.fsync_mode = FsyncMode::kFull;
        cfg.group_commit = mode == 2;
        // The device provides the latency now; don't pay the model too.
        cfg.flush_latency = std::chrono::microseconds(0);
      }
      ExperimentResult r = RunExperiment(cfg);
      PrintSeriesRow(mode,
                     {static_cast<double>(w), r.reorg_duration_ms,
                      r.driver.throughput_tps(),
                      static_cast<double>(r.counters.fsyncs),
                      static_cast<double>(r.counters.group_commit_batches),
                      static_cast<double>(r.counters.forces_absorbed)});
      json.BeginRow();
      json.Add("durability", mode);
      json.Add("workers", w);
      json.Add("mpl", mpl);
      json.Add("reorg_ms", r.reorg_duration_ms);
      json.Add("user_tps", r.driver.throughput_tps());
      json.Add("user_p99_ms", r.driver.response_ms.Percentile(0.99));
      json.Add("fsyncs", static_cast<double>(r.counters.fsyncs));
      json.Add("group_commit_batches",
               static_cast<double>(r.counters.group_commit_batches));
      json.Add("forces_absorbed",
               static_cast<double>(r.counters.forces_absorbed));
      json.Add("reorg_ok", r.reorg_status.ok() ? 1 : 0);
      RemoveDirRecursive(wal_dir);
    }
  }
  if (!json.WriteFile("BENCH_durability.json")) {
    std::fprintf(stderr, "failed to write BENCH_durability.json\n");
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
