// Microbenchmarks (google-benchmark) for the substrate primitives: the
// extendible hash index backing the ERT/TRT, object latches, lock
// manager acquire/release, partition allocation, WAL append, the
// group-commit force under a closed loop of committers, and the fuzzy
// traversal over a paper-scale partition.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/params.h"
#include "core/database.h"
#include "core/fuzzy_traversal.h"
#include "index/extendible_hash.h"
#include "workload/graph_builder.h"

namespace brahma {
namespace {

void BM_ExtendibleHashInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    ExtendibleHash<uint64_t, uint64_t> h(16);
    state.ResumeTiming();
    for (uint64_t i = 0; i < 10000; ++i) h.Insert(i, i);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_ExtendibleHashInsert)->Unit(benchmark::kMicrosecond);

void BM_ExtendibleHashLookup(benchmark::State& state) {
  ExtendibleHash<uint64_t, uint64_t> h(16);
  for (uint64_t i = 0; i < 10000; ++i) h.Insert(i, i);
  uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.Lookup(k++ % 10000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExtendibleHashLookup);

void BM_SharedLatchAcquireRelease(benchmark::State& state) {
  SharedLatch latch;
  for (auto _ : state) {
    latch.LockShared();
    latch.UnlockShared();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SharedLatchAcquireRelease)->ThreadRange(1, 8);

void BM_LockManagerAcquireRelease(benchmark::State& state) {
  static LockManager* lm = new LockManager();
  ObjectId oid(1, 64 + 8 * state.thread_index());
  TxnId txn = 1 + state.thread_index();
  for (auto _ : state) {
    lm->Acquire(txn, oid, LockMode::kExclusive,
                std::chrono::milliseconds(100));
    lm->Release(txn, oid);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockManagerAcquireRelease)->ThreadRange(1, 8);

void BM_PartitionAllocateFree(benchmark::State& state) {
  Partition part(1, 64 << 20);
  std::vector<uint64_t> offsets;
  offsets.reserve(1000);
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      uint64_t off;
      part.Allocate(5, 64, &off);
      offsets.push_back(off);
    }
    for (uint64_t off : offsets) part.Free(off);
    offsets.clear();
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_PartitionAllocateFree)->Unit(benchmark::kMicrosecond);

void BM_WalAppend(benchmark::State& state) {
  LogManager log;
  LogRecord rec;
  rec.type = LogRecordType::kSetRef;
  rec.txn = 1;
  rec.oid = ObjectId(1, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.Append(rec));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WalAppend);

// Baseline for the failpoint-overhead pair: the same loop body with no
// failpoint site at all.
void BM_WalAppendNoFailpoint(benchmark::State& state) {
  LogManager log;
  LogRecord rec;
  rec.type = LogRecordType::kSetRef;
  rec.txn = 1;
  rec.oid = ObjectId(1, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.Append(rec));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WalAppendNoFailpoint);

// A failpoint site on the hot path with nothing armed: the whole check is
// one relaxed atomic load, so the delta versus the baseline above must be
// within run-to-run noise.
void BM_WalAppendInactiveFailpoint(benchmark::State& state) {
  FailPoints::Instance().Reset();
  LogManager log;
  LogRecord rec;
  rec.type = LogRecordType::kSetRef;
  rec.txn = 1;
  rec.oid = ObjectId(1, 64);
  for (auto _ : state) {
    BRAHMA_FAILPOINT_HIT("bench:wal-append");
    benchmark::DoNotOptimize(log.Append(rec));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WalAppendInactiveFailpoint);

// The raw cost of an inactive failpoint check in isolation.
void BM_InactiveFailpointCheck(benchmark::State& state) {
  FailPoints::Instance().Reset();
  for (auto _ : state) {
    BRAHMA_FAILPOINT_HIT("bench:isolated");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InactiveFailpointCheck);

// Batch alignment in the group-commit force (DESIGN.md §9), on a bare
// LogManager with the modeled kCommitForceLatency force: 4 committers in
// a closed loop each "work" for `work` (a sleep), append a record and
// force it, passing their Begin-to-commit time. With work shorter than a
// force the released batch comes back before the next force could end,
// so the flusher holds for it and commits_per_force approaches 4. With
// work longer than a force nobody is ever held (gathers must be 0).
void BM_GroupCommitClosedLoop(benchmark::State& state,
                              std::chrono::microseconds work) {
  constexpr int kCommitters = 4;
  constexpr int kCommitsPerCommitter = 25;
  LogManager log(kCommitForceLatency);
  log.set_group_commit(true);
  for (auto _ : state) {
    std::vector<std::thread> committers;
    for (int c = 0; c < kCommitters; ++c) {
      committers.emplace_back([&log, work] {
        LogRecord rec;
        rec.type = LogRecordType::kCommit;
        for (int i = 0; i < kCommitsPerCommitter; ++i) {
          const auto begun = std::chrono::steady_clock::now();
          std::this_thread::sleep_for(work);
          const Lsn lsn = log.Append(rec);
          log.ForceCommit(lsn, std::chrono::steady_clock::now() - begun);
        }
      });
    }
    for (std::thread& t : committers) t.join();
  }
  const double batches = static_cast<double>(log.group_commit_batches());
  const double commits =
      batches + static_cast<double>(log.group_commit_forces_absorbed());
  state.SetItemsProcessed(static_cast<int64_t>(commits));
  state.counters["commits_per_force"] = batches > 0 ? commits / batches : 0;
  state.counters["gathers"] =
      static_cast<double>(log.group_commit_gathers());
  state.counters["gather_timeouts"] =
      static_cast<double>(log.group_commit_gather_timeouts());
}
BENCHMARK_CAPTURE(BM_GroupCommitClosedLoop, short_work,
                  std::chrono::microseconds(50))
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_GroupCommitClosedLoop, long_work,
                  std::chrono::microseconds(2000))
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_FuzzyTraversalPartition(benchmark::State& state) {
  DatabaseOptions dopt;
  dopt.num_data_partitions = 3;
  Database db(dopt);
  WorkloadParams params;
  params.num_partitions = 2;
  params.objects_per_partition =
      static_cast<uint32_t>(state.range(0));
  BuiltGraph graph;
  GraphBuilder builder(&db);
  Status s = builder.Build(params, &graph);
  if (!s.ok()) {
    state.SkipWithError(s.ToString().c_str());
    return;
  }
  for (auto _ : state) {
    FuzzyTraversal t(&db.store(), &db.erts(), &db.trt(), &db.analyzer());
    TraversalResult r = t.Run(1);
    benchmark::DoNotOptimize(r.traversed.size());
  }
  state.SetItemsProcessed(state.iterations() * params.objects_per_partition);
}
BENCHMARK(BM_FuzzyTraversalPartition)
    ->Arg(1020)
    ->Arg(4080)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace brahma

BENCHMARK_MAIN();
