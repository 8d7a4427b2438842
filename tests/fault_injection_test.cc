#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "core/database.h"
#include "core/ira.h"
#include "tests/test_util.h"
#include "workload/graph_builder.h"

namespace brahma {
namespace {

// Framework semantics first (parsing, trigger gating, tracing), then the
// IRA hardening the framework exists to exercise: retry exhaustion with
// clean lock release and graceful degradation under persistent
// contention.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoints::Instance().Reset(); }

  FailPoints& fp() { return FailPoints::Instance(); }
};

TEST_F(FaultInjectionTest, ParsesScheduleGrammar) {
  EXPECT_TRUE(fp().ArmFromString("a=crash").ok());
  EXPECT_TRUE(fp().ArmFromString("b=timeout.nth(3)").ok());
  EXPECT_TRUE(fp().ArmFromString("c=delay(25).times(2)").ok());
  EXPECT_TRUE(
      fp().ArmFromString("d=error.prob(0.5); e=notfound, f=crash.nth(2)")
          .ok());
  EXPECT_TRUE(fp().ArmFromString("  g = off ").ok() ||
              fp().ArmFromString("g=off").ok());

  EXPECT_FALSE(fp().ArmFromString("nosite").ok());
  EXPECT_FALSE(fp().ArmFromString("h=explode").ok());
  EXPECT_FALSE(fp().ArmFromString("i=crash.sometimes(3)").ok());
  EXPECT_FALSE(fp().ArmFromString("j=delay(5").ok());
  EXPECT_FALSE(fp().ArmFromString("=crash").ok());
}

TEST_F(FaultInjectionTest, ErrorCodesMapToStatus) {
  ASSERT_TRUE(fp().ArmFromString("s1=timeout;s2=notfound;s3=nospace;"
                                 "s4=corruption;s5=aborted;s6=internal")
                  .ok());
  EXPECT_TRUE(failpoint::Check("s1").IsTimedOut());
  EXPECT_TRUE(failpoint::Check("s2").IsNotFound());
  EXPECT_TRUE(failpoint::Check("s3").IsNoSpace());
  EXPECT_TRUE(failpoint::Check("s4").IsCorruption());
  EXPECT_TRUE(failpoint::Check("s5").IsAborted());
  EXPECT_FALSE(failpoint::Check("s6").ok());
}

TEST_F(FaultInjectionTest, NthAndTimesGateDeterministically) {
  // Arms from the 3rd hit, at most 2 triggers: hits 1,2 pass, 3,4 fail,
  // 5+ pass again.
  ASSERT_TRUE(fp().ArmFromString("gate=timeout.nth(3).times(2)").ok());
  EXPECT_TRUE(failpoint::Check("gate").ok());
  EXPECT_TRUE(failpoint::Check("gate").ok());
  EXPECT_TRUE(failpoint::Check("gate").IsTimedOut());
  EXPECT_TRUE(failpoint::Check("gate").IsTimedOut());
  EXPECT_TRUE(failpoint::Check("gate").ok());
  EXPECT_TRUE(failpoint::Check("gate").ok());
  EXPECT_EQ(fp().hits("gate"), 6u);
  EXPECT_EQ(fp().triggered("gate"), 2u);
  EXPECT_EQ(fp().total_triggered(), 2u);
}

TEST_F(FaultInjectionTest, DelayAppliesToStatusAndHitSites) {
  ASSERT_TRUE(fp().ArmFromString("slow=delay(30)").ok());
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(failpoint::Check("slow").ok());  // delayed but not failed
  failpoint::Hit("slow");
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 50);
  EXPECT_EQ(fp().triggered("slow"), 2u);
}

TEST_F(FaultInjectionTest, CrashCannotFireAtHitOnlySites) {
  // wal:append-style sites cannot propagate a Status; crash/error armed
  // there must be inert rather than silently corrupting control flow.
  ASSERT_TRUE(fp().ArmFromString("voidsite=crash").ok());
  failpoint::Hit("voidsite");
  failpoint::Hit("voidsite");
  EXPECT_EQ(fp().hits("voidsite"), 2u);
  EXPECT_EQ(fp().triggered("voidsite"), 0u);
}

TEST_F(FaultInjectionTest, ProbabilityIsDeterministicPerSeed) {
  auto run_pattern = [this](uint64_t seed) {
    fp().Reset();
    fp().set_seed(seed);
    EXPECT_TRUE(fp().ArmFromString("coin=timeout.prob(0.5)").ok());
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(!failpoint::Check("coin").ok());
    }
    return fired;
  };
  std::vector<bool> a = run_pattern(42);
  std::vector<bool> b = run_pattern(42);
  std::vector<bool> c = run_pattern(43);
  EXPECT_EQ(a, b);  // same seed, same schedule
  EXPECT_NE(a, c);  // different seed, different schedule
  // And the gate really is probabilistic, not constant.
  EXPECT_GT(std::count(a.begin(), a.end(), true), 8);
  EXPECT_GT(std::count(a.begin(), a.end(), false), 8);
}

TEST_F(FaultInjectionTest, TracingEnumeratesSites) {
  fp().set_tracing(true);
  (void)failpoint::Check("cap:one");
  failpoint::Hit("void:two");
  auto all = fp().SitesHit();
  auto cap = fp().SitesHit(/*status_capable_only=*/true);
  EXPECT_EQ(all.size(), 2u);
  ASSERT_EQ(cap.size(), 1u);
  EXPECT_EQ(cap[0], "cap:one");
}

TEST_F(FaultInjectionTest, InactiveSitesAreFreeOfSideEffects) {
  // Nothing armed, no tracing: hooks must not register or count sites.
  EXPECT_TRUE(failpoint::Check("never:armed").ok());
  failpoint::Hit("never:armed");
  EXPECT_EQ(fp().hits("never:armed"), 0u);
  EXPECT_TRUE(fp().SitesHit().empty());
}

TEST_F(FaultInjectionTest, WalDelaysDoNotAffectCorrectness) {
  ASSERT_TRUE(fp().ArmFromString("wal:append=delay(1).times(3);"
                                 "wal:flush=delay(1).times(3)")
                  .ok());
  Database db(testing::SmallDbOptions(3));
  ObjectId o;
  auto txn = db.Begin();
  ASSERT_TRUE(txn->CreateObject(1, 1, 8, &o).ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_TRUE(db.store().Validate(o));
}

TEST_F(FaultInjectionTest, RecoveryFailureSurfaces) {
  // The double-fault case: the restart itself dies. The error must reach
  // the caller, and a clean retry must succeed.
  Database db(testing::SmallDbOptions(3));
  ObjectId o;
  {
    auto txn = db.Begin();
    ASSERT_TRUE(txn->CreateObject(1, 0, 8, &o).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  db.Checkpoint();
  db.SimulateCrash();
  ASSERT_TRUE(fp().ArmFromString("recovery:start=corruption").ok());
  EXPECT_TRUE(db.Recover().IsCorruption());
  fp().Reset();
  ASSERT_TRUE(db.Recover().ok());
  EXPECT_TRUE(db.store().Validate(o));
}

// --- IRA hardening under injected contention ----------------------------

// parent (partition 2) -> child (partition 1): migrating the child forces
// Find_Exact_Parents to lock the parent, which injected timeouts deny.
class IraContentionTest : public FaultInjectionTest {
 protected:
  IraContentionTest() : db_(testing::SmallDbOptions(3)) {}

  void BuildPair() {
    auto txn = db_.Begin();
    ASSERT_TRUE(txn->CreateObject(2, 1, 8, &parent_).ok());
    ASSERT_TRUE(txn->CreateObject(1, 0, 8, &child_).ok());
    ASSERT_TRUE(txn->SetRef(parent_, 0, child_).ok());
    ASSERT_TRUE(txn->Commit().ok());
    db_.analyzer().Sync();
  }

  Database db_;
  ObjectId parent_, child_;
};

TEST_F(IraContentionTest, FindExactParentsExhaustionReleasesLocks) {
  BuildPair();
  ASSERT_TRUE(fp().ArmFromString("lock:acquire=timeout").ok());
  IraOptions opt;
  opt.max_retries_per_object = 3;
  opt.backoff_initial = std::chrono::milliseconds(1);
  CopyOutPlanner planner(2);
  ReorgStats stats;
  const uint64_t faults_before = fp().total_triggered();
  Status s = db_.RunIra(1, &planner, opt, &stats);
  EXPECT_TRUE(s.IsRetryExhausted()) << s.ToString();
  // Exhaustion must not leak partially-taken locks.
  EXPECT_EQ(db_.locks().NumLockedObjects(), 0u);
  EXPECT_EQ(stats.find_exact_retries, 3u);
  EXPECT_EQ(stats.lock_timeouts, 3u);
  EXPECT_EQ(stats.backoff_sleeps, 2u);  // no sleep after the final attempt
  EXPECT_GT(fp().total_triggered(), faults_before);
  // Nothing moved; the graph is untouched and consistent.
  fp().Reset();
  EXPECT_TRUE(db_.store().Validate(child_));
  EXPECT_EQ(testing::CountDanglingRefs(&db_.store()), 0);
}

TEST_F(IraContentionTest, TwoLockAnchorExhaustionReleasesLocks) {
  BuildPair();
  ASSERT_TRUE(fp().ArmFromString("lock:acquire=timeout").ok());
  IraOptions opt;
  opt.two_lock_mode = true;
  opt.max_retries_per_object = 3;
  opt.backoff_initial = std::chrono::milliseconds(1);
  CopyOutPlanner planner(2);
  ReorgStats stats;
  Status s = db_.RunIra(1, &planner, opt, &stats);
  EXPECT_TRUE(s.IsRetryExhausted()) << s.ToString();
  EXPECT_EQ(db_.locks().NumLockedObjects(), 0u);
  fp().Reset();
  EXPECT_TRUE(db_.store().Validate(child_));
}

TEST_F(FaultInjectionTest, DegradedModeStopsCleanlyAndResumes) {
  // Persistent injected lock-timeouts: instead of hanging in the retry
  // loop the run must stop at the contention budget, commit completed
  // work, force a checkpoint, and report Degraded — then a Resume after
  // the "contention" clears finishes the reorganization.
  Database db(testing::SmallDbOptions(5));
  WorkloadParams params = testing::SmallWorkload(2);
  BuiltGraph graph;
  GraphBuilder builder(&db);
  ASSERT_TRUE(builder.Build(params, &graph).ok());
  const uint64_t live_before = testing::CountLiveObjects(&db.store(), 1);

  ASSERT_TRUE(
      FailPoints::Instance().ArmFromString("lock:acquire=timeout").ok());
  ReorgCheckpoint ckpt;
  IraOptions opt;
  opt.contention_budget = 5;
  opt.backoff_initial = std::chrono::milliseconds(1);
  opt.checkpoint_sink = &ckpt;
  opt.checkpoint_every = 10;
  CopyOutPlanner planner(5);
  ReorgStats stats;
  Status s = db.RunIra(1, &planner, opt, &stats);
  EXPECT_TRUE(s.IsDegraded()) << s.ToString();
  EXPECT_GE(stats.lock_timeouts, opt.contention_budget);
  EXPECT_GT(stats.backoff_sleeps, 0u);
  EXPECT_GT(stats.backoff_total_ms, 0u);
  // Degradation is graceful: no locks leaked, a usable checkpoint was
  // forced even though no cadence boundary was reached.
  EXPECT_EQ(db.locks().NumLockedObjects(), 0u);
  ASSERT_TRUE(ckpt.valid);
  EXPECT_EQ(ckpt.partition, 1);
  EXPECT_EQ(ckpt.traversed.size(), live_before);

  // Contention clears; Resume finishes from the checkpoint.
  FailPoints::Instance().Reset();
  ReorgStats stats2;
  IraReorganizer ira(db.reorg_context());
  ASSERT_TRUE(ira.Resume(ckpt, &planner, IraOptions{}, &stats2).ok());
  EXPECT_EQ(stats.objects_migrated + stats2.objects_migrated, live_before);
  EXPECT_EQ(testing::CountLiveObjects(&db.store(), 1), 0u);
  EXPECT_EQ(testing::CountLiveObjects(&db.store(), 5), live_before);
  db.analyzer().Sync();
  EXPECT_EQ(testing::CountDanglingRefs(&db.store()), 0);
  EXPECT_EQ(testing::CountErtDiscrepancies(&db.store(), &db.erts()), 0);
}

TEST_F(FaultInjectionTest, BackoffIsCappedAndAccounted) {
  // Exhaust 8 retries with backoff 1ms doubling to a 4ms cap: sleeps are
  // 1,2,4,4,4,4,4 (none after the final attempt) = 23ms accounted.
  Database db(testing::SmallDbOptions(3));
  ObjectId parent, child;
  {
    auto txn = db.Begin();
    ASSERT_TRUE(txn->CreateObject(2, 1, 8, &parent).ok());
    ASSERT_TRUE(txn->CreateObject(1, 0, 8, &child).ok());
    ASSERT_TRUE(txn->SetRef(parent, 0, child).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  ASSERT_TRUE(
      FailPoints::Instance().ArmFromString("lock:acquire=timeout").ok());
  IraOptions opt;
  opt.max_retries_per_object = 8;
  opt.backoff_initial = std::chrono::milliseconds(1);
  opt.backoff_max = std::chrono::milliseconds(4);
  CopyOutPlanner planner(2);
  ReorgStats stats;
  EXPECT_TRUE(db.RunIra(1, &planner, opt, &stats).IsRetryExhausted());
  EXPECT_EQ(stats.backoff_sleeps, 7u);
  EXPECT_EQ(stats.backoff_total_ms, 23u);
}

}  // namespace
}  // namespace brahma
