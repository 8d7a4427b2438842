#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/failpoint.h"
#include "core/database.h"
#include "core/ira.h"
#include "tests/test_util.h"
#include "workload/driver.h"
#include "workload/graph_builder.h"

namespace brahma {
namespace {

using ::brahma::testing::CollectReachable;
using ::brahma::testing::CountDanglingRefs;
using ::brahma::testing::CountErtDiscrepancies;
using ::brahma::testing::CountLiveObjects;
using ::brahma::testing::SlotSwapMutators;
using ::brahma::testing::TotalLiveObjects;

// A multi-worker run must produce exactly the state a one-worker run
// produces: every live object of the partition migrated, no dangling
// references, ERTs matching the physical graph, no leaked locks — under
// quiescence, under edge-preserving mutators, under a full workload
// driver, and under injected lock timeouts.

void CheckFullyMigrated(Database* db, uint64_t live_before,
                        const ReorgStats& stats) {
  EXPECT_EQ(stats.objects_migrated, live_before);
  EXPECT_EQ(stats.relocation.size(), stats.objects_migrated);
  EXPECT_EQ(CountLiveObjects(&db->store(), 1), 0u);
  EXPECT_EQ(CountLiveObjects(&db->store(), 5), live_before);
  db->analyzer().Sync();
  EXPECT_EQ(CountDanglingRefs(&db->store()), 0);
  EXPECT_EQ(CountErtDiscrepancies(&db->store(), &db->erts()), 0);
  EXPECT_EQ(db->locks().NumLockedObjects(), 0u);
  EXPECT_FALSE(db->trt().enabled());
}

struct ParallelConfig {
  bool two_lock;
  uint32_t workers;
  uint32_t group_size;
  const char* name;
};

class IraParallelTest : public ::testing::TestWithParam<ParallelConfig> {};

// Quiescent database: the pipeline's only contention is worker-vs-worker
// (sibling lock races, claim defers, checkpoint barriers).
TEST_P(IraParallelTest, QuiescentMigratesEverything) {
  const ParallelConfig& cfg = GetParam();
  Database db(testing::SmallDbOptions(5));
  WorkloadParams params = testing::SmallWorkload(2);
  BuiltGraph graph;
  GraphBuilder builder(&db);
  ASSERT_TRUE(builder.Build(params, &graph).ok());
  const uint64_t live_before = CountLiveObjects(&db.store(), 1);
  const size_t reachable_before = CollectReachable(&db.store()).size();

  ReorgCheckpoint ckpt;
  IraOptions opt;
  opt.two_lock_mode = cfg.two_lock;
  opt.num_workers = cfg.workers;
  opt.group_size = cfg.group_size;
  opt.lock_timeout = std::chrono::milliseconds(100);
  opt.checkpoint_sink = &ckpt;  // exercise the barrier path
  opt.checkpoint_every = 16;
  CopyOutPlanner planner(5);
  ReorgStats stats;
  IraReorganizer ira(db.reorg_context());
  Status s = ira.Run(1, &planner, opt, &stats);
  ASSERT_TRUE(s.ok()) << s.ToString();

  CheckFullyMigrated(&db, live_before, stats);
  EXPECT_EQ(CollectReachable(&db.store()).size(), reachable_before);
  EXPECT_TRUE(ckpt.valid);  // at least one barrier checkpoint was cut
  // Every claim wakeup corresponds to a parked deferral.
  EXPECT_LE(stats.claim_wakeups, stats.claim_deferrals);
}

// Edge-preserving mutators on a sibling partition race the pipeline the
// whole time; counts stay exact because slot swaps change no edge set.
TEST_P(IraParallelTest, SlotSwapMutatorsKeepInvariants) {
  const ParallelConfig& cfg = GetParam();
  DatabaseOptions dopt = testing::SmallDbOptions(5);
  dopt.lock_timeout = std::chrono::milliseconds(100);
  Database db(dopt);
  WorkloadParams params = testing::SmallWorkload(2);
  BuiltGraph graph;
  GraphBuilder builder(&db);
  ASSERT_TRUE(builder.Build(params, &graph).ok());
  const uint64_t live_before = CountLiveObjects(&db.store(), 1);
  const uint64_t total_live = TotalLiveObjects(&db.store());
  const size_t reachable_before = CollectReachable(&db.store()).size();

  SlotSwapMutators mutators(&db, 2, /*threads=*/2);
  IraOptions opt;
  opt.two_lock_mode = cfg.two_lock;
  opt.num_workers = cfg.workers;
  opt.group_size = cfg.group_size;
  opt.lock_timeout = std::chrono::milliseconds(100);
  CopyOutPlanner planner(5);
  ReorgStats stats;
  IraReorganizer ira(db.reorg_context());
  Status s = ira.Run(1, &planner, opt, &stats);
  mutators.StopAndJoin();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(mutators.committed(), 0u);

  CheckFullyMigrated(&db, live_before, stats);
  EXPECT_EQ(TotalLiveObjects(&db.store()), total_live);
  EXPECT_EQ(CollectReachable(&db.store()).size(), reachable_before);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, IraParallelTest,
    ::testing::Values(
        ParallelConfig{false, 2, 1, "Basic2"},
        ParallelConfig{false, 4, 1, "Basic4"},
        ParallelConfig{false, 4, 8, "Basic4Grouped"},
        ParallelConfig{true, 2, 1, "TwoLock2"},
        ParallelConfig{true, 3, 1, "TwoLock3"}),
    [](const ::testing::TestParamInfo<ParallelConfig>& info) {
      return info.param.name;
    });

// Full random-walk workload (reference mutations included) against the
// 4-worker basic pipeline — the paper's central claim, parallelized.
TEST(IraParallelStressTest, WorkloadDriverBasicFourWorkers) {
  DatabaseOptions dopt = testing::SmallDbOptions(5);
  dopt.lock_timeout = std::chrono::milliseconds(150);
  Database db(dopt);
  WorkloadParams params = testing::SmallWorkload(3);
  params.mpl = 6;
  params.ref_mutation_prob = 0.3;
  params.update_prob = 0.6;
  BuiltGraph graph;
  GraphBuilder builder(&db);
  ASSERT_TRUE(builder.Build(params, &graph).ok());
  const uint64_t live_before = CountLiveObjects(&db.store(), 1);

  std::atomic<bool> reorg_done{false};
  ReorgStats stats;
  Status reorg_status;
  std::thread reorg([&]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    CopyOutPlanner planner(5);
    IraOptions opt;
    opt.num_workers = 4;
    opt.lock_timeout = std::chrono::milliseconds(150);
    IraReorganizer ira(db.reorg_context());
    reorg_status = ira.Run(1, &planner, opt, &stats);
    reorg_done.store(true);
  });
  WorkloadDriver driver(&db, params, graph);
  DriverResult run = driver.Run([&]() { return reorg_done.load(); },
                                /*max_txns_per_thread=*/0);
  reorg.join();

  ASSERT_TRUE(reorg_status.ok()) << reorg_status.ToString();
  EXPECT_GT(run.committed, 0u);
  CheckFullyMigrated(&db, live_before, stats);
}

// Eight migration workers against eight latch-free pointer-chasing
// readers (DESIGN.md §11): readers take no logical lock at all, so the
// pipeline never queues behind them and they never queue behind it —
// the reader-vs-migration stall this PR removes. Readers must see only
// clean snapshots (live ids of real partitions) the whole way, and the
// run must end with the usual exact-migration invariants.
TEST(IraParallelStressTest, LatchfreeReadersEightWorkers) {
  DatabaseOptions dopt = testing::SmallDbOptions(5);
  dopt.latchfree_reads = true;
  dopt.lock_timeout = std::chrono::milliseconds(150);
  Database db(dopt);
  WorkloadParams params = testing::SmallWorkload(3);
  BuiltGraph graph;
  GraphBuilder builder(&db);
  ASSERT_TRUE(builder.Build(params, &graph).ok());
  const uint64_t live_before = CountLiveObjects(&db.store(), 1);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> chases{0};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&, t] {
      uint64_t x = 88172645463325252ull + t;  // xorshift seed
      auto rnd = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
      };
      while (!stop.load()) {
        auto txn = db.Begin();
        ObjectId current = graph.partition_dirs[rnd() % 3];
        for (int step = 0; step < 32 && !stop.load(); ++step) {
          std::vector<ObjectId> refs;
          if (!txn->ReadRefs(current, &refs).ok()) break;
          std::vector<ObjectId> valid;
          for (ObjectId r : refs) {
            if (r.valid()) valid.push_back(r);
          }
          if (valid.empty()) break;
          current = valid[rnd() % valid.size()];
          if (current.partition() >= db.store().num_partitions()) {
            bad.fetch_add(1);  // a torn/garbage snapshot leaked out
            break;
          }
          chases.fetch_add(1);
        }
        txn->Abort();
      }
    });
  }

  // Don't start migrating until the readers are actually chasing: under
  // machine load the 8-worker run could otherwise finish before the first
  // reader thread is scheduled.
  while (chases.load() == 0) std::this_thread::yield();

  CopyOutPlanner planner(5);
  IraOptions opt;
  opt.num_workers = 8;
  opt.lock_timeout = std::chrono::milliseconds(150);
  ReorgStats stats;
  IraReorganizer ira(db.reorg_context());
  const uint64_t advances = db.epoch().epochs_advanced();
  const uint64_t drains = db.epoch().retire_drains();
  Status s = ira.Run(1, &planner, opt, &stats);
  stop.store(true);
  for (auto& th : readers) th.join();
  ASSERT_TRUE(s.ok()) << s.ToString();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(chases.load(), 0u);
  CheckFullyMigrated(&db, live_before, stats);
  // The readers ran lock-free the whole time; the migrations advanced
  // the epoch and drained retirements while the run was on.
  EXPECT_GT(db.epoch().latchfree_reads(), 0u);
  EXPECT_GT(db.epoch().epochs_advanced(), advances);
  EXPECT_GT(db.epoch().retire_drains(), drains);
  // Readers may have pinned the run's final drain pass; with all of them
  // gone one more pass must reclaim everything.
  db.epoch().AdvanceAndDrain();
  EXPECT_EQ(db.epoch().retired_pending(), 0u);
}

// Injected lock timeouts (failpoint at the lock-acquire site) push the
// pipeline into its defer/requeue path; the contention budget aggregates
// timeouts *across workers* and degrades the whole run, forcing a
// checkpoint that a later parallel Resume finishes from.
TEST(IraParallelStressTest, InjectedTimeoutsDegradeThenParallelResume) {
  FailPoints::Instance().Reset();
  Database db(testing::SmallDbOptions(5));
  WorkloadParams params = testing::SmallWorkload(2);
  BuiltGraph graph;
  GraphBuilder builder(&db);
  ASSERT_TRUE(builder.Build(params, &graph).ok());
  const uint64_t live_before = CountLiveObjects(&db.store(), 1);
  const size_t reachable_before = CollectReachable(&db.store()).size();

  ASSERT_TRUE(FailPoints::Instance()
                  .ArmFromString("lock:acquire=timeout.prob(0.05)")
                  .ok());
  ReorgCheckpoint ckpt;
  IraOptions opt;
  opt.num_workers = 4;
  opt.lock_timeout = std::chrono::milliseconds(50);
  opt.backoff_initial = std::chrono::milliseconds(1);
  opt.backoff_max = std::chrono::milliseconds(4);
  opt.contention_budget = 20;
  opt.checkpoint_sink = &ckpt;
  opt.checkpoint_every = 10;
  CopyOutPlanner planner(5);
  ReorgStats stats;
  IraReorganizer ira(db.reorg_context());
  Status s = ira.Run(1, &planner, opt, &stats);
  FailPoints::Instance().Reset();
  ASSERT_TRUE(s.IsDegraded()) << s.ToString();
  EXPECT_GE(stats.lock_timeouts, opt.contention_budget);
  ASSERT_TRUE(ckpt.valid);  // degradation forces a checkpoint
  EXPECT_EQ(db.locks().NumLockedObjects(), 0u);
  EXPECT_FALSE(db.trt().enabled());

  // Contention subsided: a parallel Resume finishes the job.
  ReorgStats stats2;
  IraOptions fin;
  fin.num_workers = 4;
  IraReorganizer ira2(db.reorg_context());
  Status fs = ira2.Resume(ckpt, &planner, fin, &stats2);
  ASSERT_TRUE(fs.ok()) << fs.ToString();

  db.analyzer().Sync();
  EXPECT_EQ(CountLiveObjects(&db.store(), 1), 0u);
  EXPECT_EQ(CountLiveObjects(&db.store(), 5), live_before);
  EXPECT_EQ(CountDanglingRefs(&db.store()), 0);
  EXPECT_EQ(CountErtDiscrepancies(&db.store(), &db.erts()), 0);
  EXPECT_EQ(CollectReachable(&db.store()).size(), reachable_before);
  EXPECT_EQ(db.locks().NumLockedObjects(), 0u);
}

// Unconditional injected lock timeouts exhaust one object's requeue
// attempts; the pipeline stops with RetryExhausted, releases every lock,
// and a later clean run finishes the partition. (A user transaction
// pinning an object before Run cannot exercise this path: the Section
// 4.5 quiesce barrier waits for all transactions active at reorg start,
// so Run would block before the traversal even begins.)
TEST(IraParallelStressTest, RetryExhaustionStopsPipelineThenRecovers) {
  FailPoints::Instance().Reset();
  Database db(testing::SmallDbOptions(5));
  WorkloadParams params = testing::SmallWorkload(2);
  BuiltGraph graph;
  GraphBuilder builder(&db);
  ASSERT_TRUE(builder.Build(params, &graph).ok());
  const uint64_t live_before = CountLiveObjects(&db.store(), 1);

  ASSERT_TRUE(FailPoints::Instance().ArmFromString("lock:acquire=timeout").ok());
  IraOptions opt;
  opt.num_workers = 3;
  opt.lock_timeout = std::chrono::milliseconds(30);
  opt.max_retries_per_object = 3;
  opt.backoff_initial = std::chrono::milliseconds(1);
  opt.backoff_max = std::chrono::milliseconds(2);
  CopyOutPlanner planner(5);
  ReorgStats stats;
  IraReorganizer ira(db.reorg_context());
  Status s = ira.Run(1, &planner, opt, &stats);
  FailPoints::Instance().Reset();
  ASSERT_TRUE(s.IsRetryExhausted()) << s.ToString();
  EXPECT_LT(stats.objects_migrated, live_before);
  EXPECT_FALSE(db.trt().enabled());
  EXPECT_EQ(db.locks().NumLockedObjects(), 0u);

  ReorgStats stats2;
  IraOptions fin;
  fin.num_workers = 3;
  IraReorganizer ira2(db.reorg_context());
  ASSERT_TRUE(ira2.Run(1, &planner, fin, &stats2).ok());
  db.analyzer().Sync();
  EXPECT_EQ(CountLiveObjects(&db.store(), 1), 0u);
  EXPECT_EQ(CountLiveObjects(&db.store(), 5), live_before);
  EXPECT_EQ(CountDanglingRefs(&db.store()), 0);
  EXPECT_EQ(CountErtDiscrepancies(&db.store(), &db.erts()), 0);
}

}  // namespace
}  // namespace brahma
