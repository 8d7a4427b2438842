#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/database.h"
#include "core/ira.h"
#include "core/pqr.h"
#include "tests/test_util.h"
#include "workload/graph_builder.h"

namespace brahma {
namespace {

using ::brahma::testing::CollectReachable;
using ::brahma::testing::CountDanglingRefs;
using ::brahma::testing::CountErtDiscrepancies;
using ::brahma::testing::CountLiveObjects;
using ::brahma::testing::SlotSwapMutators;
using ::brahma::testing::TotalLiveObjects;

// The abort-schedule harness, the voluntary-rollback twin of
// crash_schedule_test: at every reorg failpoint site inject
// Status::Aborted instead of a crash. Unlike a crash, nothing is allowed
// to be lost or deferred to recovery — the migration transaction aborts
// cleanly, its WAL undo restores object state, and the side-effect log
// restores the side tables (ERTs, parent lists, TRT, relocation maps)
// before any lock is released. The harness checks the database is
// consistent immediately after the abort (no restart, no
// CompleteInterruptedMigration) and that the reorganization then resumes
// to completion under concurrent mutators.

bool IsReorgSite(const std::string& site) {
  return site.rfind("ira:", 0) == 0 || site.rfind("txn:reorg-", 0) == 0;
}

std::vector<std::string> DiscoverSites(bool two_lock) {
  FailPoints::Instance().Reset();
  Database db(testing::SmallDbOptions(5));
  WorkloadParams params = testing::SmallWorkload(2);
  params.objects_per_partition = 85 * 2;
  BuiltGraph graph;
  GraphBuilder builder(&db);
  EXPECT_TRUE(builder.Build(params, &graph).ok());

  FailPoints::Instance().set_tracing(true);
  IraOptions opt;
  opt.two_lock_mode = two_lock;
  CopyOutPlanner planner(5);
  ReorgStats stats;
  EXPECT_TRUE(db.RunIra(1, &planner, opt, &stats).ok());

  std::vector<std::string> sites;
  for (const std::string& s :
       FailPoints::Instance().SitesHit(/*status_capable_only=*/true)) {
    if (IsReorgSite(s)) sites.push_back(s);
  }
  std::sort(sites.begin(), sites.end());
  FailPoints::Instance().Reset();
  return sites;
}

// Invariants that must hold the moment the aborted run returns — the
// abort is not a crash, so the state must already be consistent, with no
// recovery step in between. `expected_total` / `expected_reachable` pin
// leak-freedom: a rolled-back migration must not strand O_new copies or
// lose O_old ones.
void CheckConsistent(Database* db, IraReorganizer* ira,
                     uint64_t expected_total, size_t expected_reachable) {
  db->analyzer().Sync();
  EXPECT_EQ(CountDanglingRefs(&db->store()), 0);
  EXPECT_EQ(CountErtDiscrepancies(&db->store(), &db->erts()), 0);
  EXPECT_EQ(TotalLiveObjects(&db->store()), expected_total);
  EXPECT_EQ(CollectReachable(&db->store()).size(), expected_reachable);
  EXPECT_EQ(db->locks().NumLockedObjects(), 0u);
  if (ira != nullptr) {
    EXPECT_EQ(ira->ActiveFootprintClaims(), 0u);  // no stuck claims
  }
}

// Flavor A: abort unconditionally (every hit from start_hit on) at one
// site with one worker. Each aborted migration is requeued until one
// object exhausts its retry cap, and the run stops cleanly. Verify
// consistency right away, then Resume from the forced checkpoint (or
// rerun) to completion.
void RunAbortHaltSchedule(bool two_lock, const std::string& site) {
  SCOPED_TRACE((two_lock ? "twolock @ " : "basic @ ") + site);
  FailPoints::Instance().Reset();

  DatabaseOptions dopt = testing::SmallDbOptions(5);
  dopt.lock_timeout = std::chrono::milliseconds(100);
  Database db(dopt);
  WorkloadParams params = testing::SmallWorkload(2);
  params.objects_per_partition = 85 * 2;
  BuiltGraph graph;
  GraphBuilder builder(&db);
  ASSERT_TRUE(builder.Build(params, &graph).ok());

  const uint64_t live_p1 = CountLiveObjects(&db.store(), 1);
  const uint64_t total_live = TotalLiveObjects(&db.store());
  const size_t reachable_before = CollectReachable(&db.store()).size();

  SlotSwapMutators mutators(&db, 2, /*threads=*/2);

  FailSpec spec;
  spec.action = FailSpec::Action::kError;
  spec.error_code = Status::Code::kAborted;
  spec.start_hit = 25;  // deep enough that reorg checkpoints exist
  FailPoints::Instance().Arm(site, spec);

  ReorgCheckpoint ckpt;
  IraOptions opt;
  opt.two_lock_mode = two_lock;
  opt.group_size = 5;  // open groups hold completed migrations to roll back
  opt.max_retries_per_object = 4;
  opt.lock_timeout = std::chrono::milliseconds(100);
  opt.backoff_initial = std::chrono::milliseconds(1);
  opt.checkpoint_sink = &ckpt;
  opt.checkpoint_every = 10;
  CopyOutPlanner planner(5);
  ReorgStats stats;
  IraReorganizer ira(db.reorg_context());
  const uint64_t faults_before = FailPoints::Instance().total_triggered();
  Status s = ira.Run(1, &planner, opt, &stats);
  mutators.StopAndJoin();
  ASSERT_TRUE(s.IsRetryExhausted()) << s.ToString();
  EXPECT_GT(FailPoints::Instance().total_triggered(), faults_before);
  EXPECT_GE(stats.aborts_rolled_back, 1u);
  FailPoints::Instance().Reset();

  // No crash, no recovery: the state must be consistent *now*.
  CheckConsistent(&db, &ira, total_live, reachable_before);

  // Finish the job from the forced checkpoint.
  ReorgStats stats2;
  IraOptions fin;
  fin.two_lock_mode = two_lock;
  IraReorganizer ira2(db.reorg_context());
  Status fs = ckpt.valid ? ira2.Resume(ckpt, &planner, fin, &stats2)
                         : ira2.Run(1, &planner, fin, &stats2);
  ASSERT_TRUE(fs.ok()) << fs.ToString();

  db.analyzer().Sync();
  EXPECT_EQ(CountLiveObjects(&db.store(), 1), 0u);
  EXPECT_EQ(CountLiveObjects(&db.store(), 5), live_p1);
  CheckConsistent(&db, &ira2, total_live, reachable_before);
}

TEST(AbortScheduleTest, DiscoveryMatchesCrashScheduleSites) {
  std::vector<std::string> basic = DiscoverSites(/*two_lock=*/false);
  std::vector<std::string> twolock = DiscoverSites(/*two_lock=*/true);
  std::set<std::string> all(basic.begin(), basic.end());
  all.insert(twolock.begin(), twolock.end());
  EXPECT_GE(basic.size(), 6u) << "basic-mode sites";
  EXPECT_GE(twolock.size(), 6u) << "two-lock-mode sites";
  EXPECT_GE(all.size(), 10u);
}

TEST(AbortScheduleTest, BasicModeSurvivesAbortAtEverySite) {
  std::vector<std::string> sites = DiscoverSites(/*two_lock=*/false);
  ASSERT_FALSE(sites.empty());
  for (const std::string& site : sites) {
    RunAbortHaltSchedule(/*two_lock=*/false, site);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(AbortScheduleTest, TwoLockModeSurvivesAbortAtEverySite) {
  std::vector<std::string> sites = DiscoverSites(/*two_lock=*/true);
  ASSERT_FALSE(sites.empty());
  for (const std::string& site : sites) {
    RunAbortHaltSchedule(/*two_lock=*/true, site);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Flavor B: one single injected abort mid-run with the parallel pipeline.
// The pipeline must requeue the rolled-back object (not halt): a single
// Run self-heals and completes with no outside help.
void RunAbortRequeueSchedule(bool two_lock, const std::string& site) {
  SCOPED_TRACE((two_lock ? "twolock @ " : "basic @ ") + site);
  FailPoints::Instance().Reset();

  DatabaseOptions dopt = testing::SmallDbOptions(5);
  dopt.lock_timeout = std::chrono::milliseconds(100);
  Database db(dopt);
  WorkloadParams params = testing::SmallWorkload(2);
  params.objects_per_partition = 85 * 2;
  BuiltGraph graph;
  GraphBuilder builder(&db);
  ASSERT_TRUE(builder.Build(params, &graph).ok());

  const uint64_t live_p1 = CountLiveObjects(&db.store(), 1);
  const uint64_t total_live = TotalLiveObjects(&db.store());
  const size_t reachable_before = CollectReachable(&db.store()).size();

  SlotSwapMutators mutators(&db, 2, /*threads=*/2);

  FailSpec spec;
  spec.action = FailSpec::Action::kError;
  spec.error_code = Status::Code::kAborted;
  spec.start_hit = 25;
  spec.max_triggers = 1;
  FailPoints::Instance().Arm(site, spec);

  IraOptions opt;
  opt.two_lock_mode = two_lock;
  opt.group_size = 5;
  opt.num_workers = 4;
  opt.lock_timeout = std::chrono::milliseconds(100);
  opt.backoff_initial = std::chrono::milliseconds(1);
  CopyOutPlanner planner(5);
  ReorgStats stats;
  IraReorganizer ira(db.reorg_context());
  const uint64_t faults_before = FailPoints::Instance().total_triggered();
  Status s = ira.Run(1, &planner, opt, &stats);
  mutators.StopAndJoin();
  const uint64_t faults =
      FailPoints::Instance().total_triggered() - faults_before;
  FailPoints::Instance().Reset();

  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(faults, 1u);
  EXPECT_GE(stats.aborts_rolled_back, 1u);

  db.analyzer().Sync();
  EXPECT_EQ(CountLiveObjects(&db.store(), 1), 0u);
  EXPECT_EQ(CountLiveObjects(&db.store(), 5), live_p1);
  CheckConsistent(&db, &ira, total_live, reachable_before);
}

TEST(AbortScheduleTest, ParallelPipelineRequeuesAbortedMigrationBasic) {
  RunAbortRequeueSchedule(/*two_lock=*/false, "ira:move:after-copy");
}

TEST(AbortScheduleTest, ParallelPipelineRequeuesAbortedMigrationTwoLock) {
  RunAbortRequeueSchedule(/*two_lock=*/true, "ira:twolock:after-create");
}

TEST(AbortScheduleTest, ParallelPipelineRequeuesAbortedCommit) {
  // Group-commit abort: the whole group (up to 5 completed migrations)
  // rolls back; every one of them must be re-injected and re-migrated.
  RunAbortRequeueSchedule(/*two_lock=*/false, "txn:reorg-commit:begin");
}

// Flavor C: unlimited aborts against the parallel pipeline with a small
// per-object retry cap. The run must terminate (RetryExhausted, not hang
// or livelock), leave consistent state, and be resumable after disarm.
void RunAbortExhaustionSchedule(bool two_lock, const std::string& site) {
  SCOPED_TRACE((two_lock ? "twolock @ " : "basic @ ") + site);
  FailPoints::Instance().Reset();

  DatabaseOptions dopt = testing::SmallDbOptions(5);
  dopt.lock_timeout = std::chrono::milliseconds(100);
  Database db(dopt);
  WorkloadParams params = testing::SmallWorkload(2);
  params.objects_per_partition = 85 * 2;
  BuiltGraph graph;
  GraphBuilder builder(&db);
  ASSERT_TRUE(builder.Build(params, &graph).ok());

  const uint64_t live_p1 = CountLiveObjects(&db.store(), 1);
  const uint64_t total_live = TotalLiveObjects(&db.store());
  const size_t reachable_before = CollectReachable(&db.store()).size();

  SlotSwapMutators mutators(&db, 2, /*threads=*/2);

  FailSpec spec;
  spec.action = FailSpec::Action::kError;
  spec.error_code = Status::Code::kAborted;
  spec.start_hit = 25;
  FailPoints::Instance().Arm(site, spec);

  ReorgCheckpoint ckpt;
  IraOptions opt;
  opt.two_lock_mode = two_lock;
  opt.group_size = 5;
  opt.num_workers = 4;
  opt.max_retries_per_object = 4;
  opt.lock_timeout = std::chrono::milliseconds(100);
  opt.backoff_initial = std::chrono::milliseconds(1);
  opt.checkpoint_sink = &ckpt;
  opt.checkpoint_every = 10;
  CopyOutPlanner planner(5);
  ReorgStats stats;
  IraReorganizer ira(db.reorg_context());
  Status s = ira.Run(1, &planner, opt, &stats);
  mutators.StopAndJoin();
  FailPoints::Instance().Reset();

  ASSERT_TRUE(s.IsRetryExhausted() || s.IsAborted()) << s.ToString();
  EXPECT_GE(stats.aborts_rolled_back, 1u);

  CheckConsistent(&db, &ira, total_live, reachable_before);

  ReorgStats stats2;
  IraOptions fin;
  fin.two_lock_mode = two_lock;
  IraReorganizer ira2(db.reorg_context());
  Status fs = ckpt.valid ? ira2.Resume(ckpt, &planner, fin, &stats2)
                         : ira2.Run(1, &planner, fin, &stats2);
  ASSERT_TRUE(fs.ok()) << fs.ToString();

  db.analyzer().Sync();
  EXPECT_EQ(CountLiveObjects(&db.store(), 1), 0u);
  EXPECT_EQ(CountLiveObjects(&db.store(), 5), live_p1);
  CheckConsistent(&db, &ira2, total_live, reachable_before);
}

TEST(AbortScheduleTest, RetryCapTerminatesUnlimitedAbortsBasic) {
  RunAbortExhaustionSchedule(/*two_lock=*/false, "ira:basic:after-parent-locks");
}

TEST(AbortScheduleTest, RetryCapTerminatesUnlimitedAbortsTwoLock) {
  RunAbortExhaustionSchedule(/*two_lock=*/true, "ira:twolock:after-create");
}

// Late two-lock sites: every parent already references O_new (committed)
// and FinishMigration's side-table edits are pending in the anchor when
// the abort lands, so the rollback must reverse all of it.
TEST(AbortScheduleTest, RetryCapTerminatesUnlimitedAbortsTwoLockBeforeCommit) {
  RunAbortExhaustionSchedule(/*two_lock=*/true, "ira:twolock:before-commit");
}

TEST(AbortScheduleTest, RetryCapTerminatesUnlimitedAbortsTwoLockBeforeFree) {
  RunAbortExhaustionSchedule(/*two_lock=*/true, "ira:finish:before-free");
}

// Every reorg commit aborts, and the whole partition fits in one open
// group, so the only commit is the one at drain time. Each rollback must
// charge every migration it undoes: had the undone members re-entered the
// pipe at zero attempts, the run would migrate, drain, abort and start
// over forever. A watchdog disarms the schedule after a deadline, so a
// regression fails here instead of hanging.
TEST(AbortScheduleTest, RetryCapTerminatesWhenEveryGroupCommitAborts) {
  FailPoints::Instance().Reset();
  Database db(testing::SmallDbOptions(5));
  WorkloadParams params = testing::SmallWorkload(2);
  params.objects_per_partition = 85 * 2;
  BuiltGraph graph;
  GraphBuilder builder(&db);
  ASSERT_TRUE(builder.Build(params, &graph).ok());
  const uint64_t total_live = TotalLiveObjects(&db.store());
  const size_t reachable_before = CollectReachable(&db.store()).size();

  const std::string site = "txn:reorg-commit:begin";
  ASSERT_TRUE(FailPoints::Instance().ArmFromString(site + "=aborted").ok());
  IraOptions opt;
  opt.group_size = 1000;  // more than the partition holds
  opt.max_retries_per_object = 4;
  CopyOutPlanner planner(5);
  ReorgStats stats;
  IraReorganizer ira(db.reorg_context());
  std::atomic<bool> done{false};
  std::thread watchdog([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!done.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    FailPoints::Instance().Disarm(site);
  });
  Status s = ira.Run(1, &planner, opt, &stats);
  done.store(true);
  watchdog.join();
  FailPoints::Instance().Reset();

  EXPECT_TRUE(s.IsRetryExhausted()) << s.ToString();
  EXPECT_GE(stats.aborts_rolled_back, 1u);
  CheckConsistent(&db, &ira, total_live, reachable_before);
}

// PQR migrates the whole partition under one transaction: a single
// injected abort rolls every completed migration back — live counts,
// ERTs, parent slots and the stats counters all return to their
// pre-reorg values, and a clean rerun completes.
TEST(AbortScheduleTest, PqrAbortRollsBackWholePartition) {
  FailPoints::Instance().Reset();
  Database db(testing::SmallDbOptions(5));
  WorkloadParams params = testing::SmallWorkload(2);
  params.objects_per_partition = 85;
  BuiltGraph graph;
  GraphBuilder builder(&db);
  ASSERT_TRUE(builder.Build(params, &graph).ok());

  const uint64_t live_p1 = CountLiveObjects(&db.store(), 1);
  const uint64_t total_live = TotalLiveObjects(&db.store());
  const size_t reachable_before = CollectReachable(&db.store()).size();

  // Abort on the 10th migration: nine completed moves must unwind.
  ASSERT_TRUE(FailPoints::Instance()
                  .ArmFromString("ira:move:after-copy=aborted.nth(10)")
                  .ok());
  CopyOutPlanner planner(5);
  ReorgStats stats;
  Status s = db.RunPqr(1, &planner, PqrOptions{}, &stats);
  ASSERT_TRUE(s.IsAborted()) << s.ToString();
  FailPoints::Instance().Reset();

  EXPECT_EQ(stats.aborts_rolled_back, 1u);
  EXPECT_GT(stats.side_effects_compensated, 0u);
  // The counter compensation rolled objects_migrated back to zero.
  EXPECT_EQ(stats.objects_migrated, 0u);
  EXPECT_EQ(CountLiveObjects(&db.store(), 1), live_p1);
  EXPECT_EQ(CountLiveObjects(&db.store(), 5), 0u);
  CheckConsistent(&db, nullptr, total_live, reachable_before);

  ReorgStats stats2;
  ASSERT_TRUE(db.RunPqr(1, &planner, PqrOptions{}, &stats2).ok());
  EXPECT_EQ(CountLiveObjects(&db.store(), 1), 0u);
  EXPECT_EQ(CountLiveObjects(&db.store(), 5), live_p1);
  CheckConsistent(&db, nullptr, total_live, reachable_before);
}

}  // namespace
}  // namespace brahma
