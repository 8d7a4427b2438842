// Microbenchmarks (google-benchmark) for the substrate primitives: the
// extendible hash index backing the ERT/TRT, object latches, lock
// manager acquire/release, a locked read-only transaction, a transaction
// holding many locks, partition allocation, WAL append and truncation, the
// group-commit force under a closed loop of committers, and the fuzzy
// traversal over a paper-scale partition.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/histogram.h"
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

// A locked read walk called straight against the library: Begin, 9 x
// (S lock + ReadRefs), Commit, each thread on its own 9 objects. The
// threads share no object, only the transaction manager, the lock table
// and the epoch manager, so items/s across thread counts shows how well
// the user transaction path scales (DESIGN.md §10).
void BM_TxnReadWalk(benchmark::State& state) {
  constexpr int kSteps = 9;
  constexpr int kMaxThreads = 4;
  struct Fixture {
    static DatabaseOptions Options() {
      DatabaseOptions opt;
      opt.num_data_partitions = 1;
      opt.partition_capacity = 1 << 20;
      return opt;
    }
    Database db{Options()};
    std::vector<ObjectId> objects;
    Fixture() {
      auto setup = db.Begin();
      objects.resize(kSteps * kMaxThreads);
      for (ObjectId& oid : objects) setup->CreateObject(1, 2, 64, &oid);
      setup->Commit();
    }
  };
  static Fixture* fx = new Fixture();
  const ObjectId* mine = &fx->objects[kSteps * state.thread_index()];
  std::vector<ObjectId> refs;
  bool ok = true;
  for (auto _ : state) {
    auto txn = fx->db.Begin();
    for (int i = 0; i < kSteps && ok; ++i) {
      ok = txn->Lock(mine[i], LockMode::kShared).ok() &&
           txn->ReadRefs(mine[i], &refs).ok();
      benchmark::DoNotOptimize(refs.data());
      benchmark::ClobberMemory();
    }
    if (!ok || !txn->Commit().ok()) {
      state.SkipWithError("locked read walk failed");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TxnReadWalk)->ThreadRange(1, 4)->UseRealTime();

// One transaction holding n locks: Begin, n x S lock on distinct objects,
// a Holds check on each, Commit (which releases them all). Past 32 locks
// the transaction's held-mode table is a hash map (Transaction::HeldLocks);
// grouped IRA and PQR transactions hold that many. At 16384 locks each of
// the lock table's 1024 shards holds about 16 of the transaction's
// requests, as under PQR's one quiescing transaction.
void BM_TxnHeldLocks(benchmark::State& state) {
  constexpr int kMaxLocks = 16384;
  struct Fixture {
    static DatabaseOptions Options() {
      DatabaseOptions opt;
      opt.num_data_partitions = 1;
      opt.partition_capacity = 4 << 20;
      return opt;
    }
    Database db{Options()};
    std::vector<ObjectId> objects;
    Fixture() {
      auto setup = db.Begin();
      objects.resize(kMaxLocks);
      for (ObjectId& oid : objects) setup->CreateObject(1, 2, 16, &oid);
      setup->Commit();
    }
  };
  static Fixture* fx = new Fixture();
  const int n = static_cast<int>(state.range(0));
  bool ok = true;
  for (auto _ : state) {
    auto txn = fx->db.Begin();
    for (int i = 0; i < n && ok; ++i) {
      ok = txn->Lock(fx->objects[i], LockMode::kShared).ok();
    }
    for (int i = 0; i < n && ok; ++i) ok = txn->Holds(fx->objects[i]);
    if (!ok || !txn->Commit().ok()) {
      state.SkipWithError("held-lock transaction failed");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TxnHeldLocks)
    ->Arg(64)
    ->Arg(128)
    ->Arg(1024)
    ->Arg(16384)
    ->Unit(benchmark::kMicrosecond);

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

// Log truncation against a concurrent appender. The log holds 100k
// update records with payloads, as a retained log does before a
// truncation; Truncate drops all but the newest 1k while another thread
// appends in a loop. Each truncation's worst Append is how long Truncate
// kept the log mutex (plus any preemption); worst_append_us is the median
// of those over the iterations, worst_append_max_us the largest.
void BM_WalTruncateWorstAppend(benchmark::State& state) {
  constexpr Lsn kRecords = 100000;
  constexpr Lsn kKept = 1000;
  LogRecord rec;
  rec.type = LogRecordType::kUpdateData;
  rec.txn = 1;
  rec.oid = ObjectId(1, 64);
  rec.old_data.assign(64, 1);
  rec.new_data.assign(64, 2);
  Histogram worst_us;
  for (auto _ : state) {
    state.PauseTiming();
    auto log = std::make_unique<LogManager>();
    for (Lsn i = 0; i < kRecords; ++i) log->Append(rec);
    std::atomic<int> appended{0};
    std::atomic<bool> truncating{false};
    std::atomic<bool> done{false};
    std::chrono::nanoseconds worst{0};
    std::thread appender([&] {
      LogRecord small;
      small.type = LogRecordType::kSetRef;
      while (!done.load(std::memory_order_relaxed)) {
        const bool timed = truncating.load(std::memory_order_relaxed);
        const auto t0 = std::chrono::steady_clock::now();
        log->Append(small);
        if (timed) {
          worst = std::max<std::chrono::nanoseconds>(
              worst, std::chrono::steady_clock::now() - t0);
        }
        appended.fetch_add(1, std::memory_order_relaxed);
      }
    });
    // Past the appender's first allocations before anything is timed.
    while (appended.load() < 1000) std::this_thread::yield();
    truncating.store(true);
    state.ResumeTiming();
    log->Truncate(kRecords - kKept);
    state.PauseTiming();
    done.store(true);
    appender.join();
    worst_us.Add(std::chrono::duration<double, std::micro>(worst).count());
    log.reset();
    state.ResumeTiming();
  }
  state.counters["worst_append_us"] = worst_us.Percentile(0.5);
  state.counters["worst_append_max_us"] = worst_us.max();
}
BENCHMARK(BM_WalTruncateWorstAppend)
    ->Iterations(15)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

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
