// Deterministic deadlock-schedule harness (DESIGN.md §10).
//
// The LockManager-level tests build exact waits-for cycles — two-txn,
// three-txn, upgrade, mixed user/reorg, wait-die, all-exempt — and
// assert who the victim is, that resolution happens in milliseconds
// rather than by burning the lock-wait timeout, and that the loser's
// held locks and the lock table are intact afterwards. The DB-level test
// runs a 4-worker parallel IRA against mutators that lock two objects in
// sorted order (so user/user cycles are impossible by construction):
// every cycle that forms contains a migration transaction, the
// reorg-first policy must sacrifice it, and no user transaction may ever
// be a victim.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"
#include "core/database.h"
#include "core/ira.h"
#include "tests/test_util.h"
#include "txn/deadlock.h"
#include "txn/lock_manager.h"

// Wall-clock bounds are meaningless under ThreadSanitizer's scheduler.
#if defined(__SANITIZE_THREAD__)
#define BRAHMA_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BRAHMA_TEST_TSAN 1
#endif
#endif

namespace brahma {
namespace {

using ::brahma::testing::CollectReachable;
using ::brahma::testing::CountDanglingRefs;
using ::brahma::testing::CountErtDiscrepancies;
using ::brahma::testing::CountLiveObjects;
using ::brahma::testing::TotalLiveObjects;
using namespace std::chrono_literals;

const ObjectId kA(1, 64);
const ObjectId kB(1, 128);
const ObjectId kC(1, 192);

WaiterProfile User() { return WaiterProfile{}; }

WaiterProfile Reorg(uint64_t side_effects = 0, uint64_t locks = 0) {
  WaiterProfile p;
  p.reorg = true;
  p.side_effects = side_effects;
  p.locks_held = locks;
  return p;
}

int64_t ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

// --- pure cycle/victim unit tests ----------------------------------------

TEST(DeadlockGraphTest, FindsTwoAndThreeCycles) {
  deadlock::WaitsForGraph g;
  g[1] = {2};
  g[2] = {1};
  std::vector<TxnId> c = deadlock::FindCycleFrom(g, 1, 64);
  std::sort(c.begin(), c.end());
  EXPECT_EQ(c, (std::vector<TxnId>{1, 2}));

  deadlock::WaitsForGraph g3;
  g3[1] = {2};
  g3[2] = {3};
  g3[3] = {1};
  c = deadlock::FindCycleFrom(g3, 1, 64);
  std::sort(c.begin(), c.end());
  EXPECT_EQ(c, (std::vector<TxnId>{1, 2, 3}));
}

TEST(DeadlockGraphTest, NoCycleAndDepthCap) {
  deadlock::WaitsForGraph g;
  g[1] = {2};
  g[2] = {3};
  g[3] = {};
  EXPECT_TRUE(deadlock::FindCycleFrom(g, 1, 64).empty());
  // A 3-cycle is invisible when the DFS may only go 2 deep.
  deadlock::WaitsForGraph g3;
  g3[1] = {2};
  g3[2] = {3};
  g3[3] = {1};
  EXPECT_TRUE(deadlock::FindCycleFrom(g3, 1, 2).empty());
  EXPECT_FALSE(deadlock::FindCycleFrom(g3, 1, 3).empty());
}

TEST(DeadlockGraphTest, ReorgFirstVictimSelection) {
  std::unordered_map<TxnId, WaiterProfile> profiles;
  profiles[1] = Reorg(/*side_effects=*/50, /*locks=*/20);  // old, expensive
  profiles[2] = User();                                    // young, cheap
  // Reorg is always cheaper than user, regardless of undo cost or age.
  EXPECT_EQ(deadlock::SelectVictim({1, 2}, profiles, VictimPolicy::kReorgFirst),
            1u);
  // The youngest policy ignores the reorg bit entirely.
  EXPECT_EQ(deadlock::SelectVictim({1, 2}, profiles, VictimPolicy::kYoungest),
            2u);
  // Two reorg members: fewer side effects loses.
  profiles[2] = Reorg(/*side_effects=*/3, /*locks=*/100);
  EXPECT_EQ(deadlock::SelectVictim({1, 2}, profiles, VictimPolicy::kReorgFirst),
            2u);
}

TEST(DeadlockGraphTest, NoVictimExemption) {
  std::unordered_map<TxnId, WaiterProfile> profiles;
  profiles[1] = Reorg();
  profiles[1].no_victim = true;  // compensation in progress
  profiles[2] = User();
  // The exempt reorg txn is skipped; the user txn is all that is left.
  EXPECT_EQ(deadlock::SelectVictim({1, 2}, profiles, VictimPolicy::kReorgFirst),
            2u);
  profiles[2].no_victim = true;
  // Everybody exempt: no victim; the lock-wait timeout is the backstop.
  EXPECT_EQ(deadlock::SelectVictim({1, 2}, profiles, VictimPolicy::kReorgFirst),
            kInvalidTxn);
}

// --- deterministic LockManager schedules ---------------------------------

// txn 1 (user) holds A and wants B; txn 2 (reorg) holds B and wants A.
// The detector must notice the 2-cycle within the detection grace and
// sacrifice the reorg member — long before the 5 s timeout.
TEST(DeadlockScheduleTest, TwoTxnCycleReorgIsVictim) {
  FailPoints::Instance().Reset();
  FailPoints::Instance().set_tracing(true);
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kA, LockMode::kExclusive, 100ms, User()).ok());
  ASSERT_TRUE(lm.Acquire(2, kB, LockMode::kExclusive, 100ms, Reorg()).ok());

  Status user_status;
  std::thread user([&]() {
    user_status = lm.Acquire(1, kB, LockMode::kExclusive, 5000ms, User());
  });
  std::this_thread::sleep_for(30ms);  // txn 1 is parked on B

  const auto start = std::chrono::steady_clock::now();
  Status s = lm.Acquire(2, kA, LockMode::kExclusive, 5000ms, Reorg());
  EXPECT_TRUE(s.IsDeadlockVictim()) << s.ToString();
#ifndef BRAHMA_TEST_TSAN
  EXPECT_LT(ElapsedMs(start), 100);  // grace is 5 ms; nowhere near 5 s
#endif
  // The victim's held lock survives victimization; releasing it (the
  // abort) is what lets the user transaction through.
  EXPECT_TRUE(lm.IsHeld(2, kB));
  lm.Release(2, kB);
  user.join();
  EXPECT_TRUE(user_status.ok()) << user_status.ToString();

  EXPECT_GE(lm.deadlocks_detected(), 1u);
  EXPECT_EQ(lm.victims_aborted(), 1u);
  EXPECT_EQ(lm.user_victims(), 0u);
  EXPECT_GT(lm.victim_wait_saved_ms(), 0u);
  // The failpoint sites traced the detection, selection and cancellation.
  EXPECT_GE(FailPoints::Instance().hits("deadlock:detect"), 1u);
  EXPECT_GE(FailPoints::Instance().hits("deadlock:select"), 1u);
  EXPECT_GE(FailPoints::Instance().hits("deadlock:victim"), 1u);
  FailPoints::Instance().Reset();

  lm.Release(1, kA);
  lm.Release(1, kB);
  EXPECT_EQ(lm.NumLockedObjects(), 0u);
}

// Three-txn cycle A->B->C->A with one reorg member: the reorg txn is the
// victim no matter where it sits in the cycle, and both user txns finish.
TEST(DeadlockScheduleTest, ThreeTxnCycleReorgMemberIsVictim) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kA, LockMode::kExclusive, 100ms, User()).ok());
  ASSERT_TRUE(lm.Acquire(2, kB, LockMode::kExclusive, 100ms, User()).ok());
  ASSERT_TRUE(lm.Acquire(3, kC, LockMode::kExclusive, 100ms, Reorg()).ok());

  std::thread t1([&]() {
    // user txn 1: A held, wants B; granted once txn 2 moves on.
    EXPECT_TRUE(lm.Acquire(1, kB, LockMode::kExclusive, 5000ms, User()).ok());
    lm.Release(1, kA);
    lm.Release(1, kB);
  });
  std::this_thread::sleep_for(20ms);
  std::thread t2([&]() {
    // user txn 2: B held, wants C; granted once the victim releases C.
    EXPECT_TRUE(lm.Acquire(2, kC, LockMode::kExclusive, 5000ms, User()).ok());
    lm.Release(2, kB);
    lm.Release(2, kC);
  });
  std::this_thread::sleep_for(20ms);

  const auto start = std::chrono::steady_clock::now();
  // reorg txn 3: C held, wants A — closes the cycle.
  Status s = lm.Acquire(3, kA, LockMode::kExclusive, 5000ms, Reorg());
  EXPECT_TRUE(s.IsDeadlockVictim()) << s.ToString();
#ifndef BRAHMA_TEST_TSAN
  EXPECT_LT(ElapsedMs(start), 100);
#endif
  lm.Release(3, kC);  // the abort: unblocks txn 2, then txn 1
  t1.join();
  t2.join();

  EXPECT_EQ(lm.victims_aborted(), 1u);
  EXPECT_EQ(lm.user_victims(), 0u);
  EXPECT_EQ(lm.NumLockedObjects(), 0u);
}

// Upgrade cycle: S-holder vs S-holder both going for X, through the full
// schedule (one already parked as an upgrader). Resolution is immediate
// under every policy and the victim keeps its S lock.
TEST(DeadlockScheduleTest, UpgradeCycleFastFails) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kA, LockMode::kShared, 100ms, User()).ok());
  ASSERT_TRUE(lm.Acquire(2, kA, LockMode::kShared, 100ms, Reorg()).ok());
  std::thread t1([&]() {
    EXPECT_TRUE(lm.Acquire(1, kA, LockMode::kExclusive, 5000ms, User()).ok());
    lm.Release(1, kA);
  });
  std::this_thread::sleep_for(30ms);  // txn 1 queued as upgrader
  const auto start = std::chrono::steady_clock::now();
  Status s = lm.Acquire(2, kA, LockMode::kExclusive, 5000ms, Reorg());
  // The reorg rival loses instantly, S lock intact.
  EXPECT_TRUE(s.IsDeadlockVictim()) << s.ToString();
#ifndef BRAHMA_TEST_TSAN
  EXPECT_LT(ElapsedMs(start), 100);
#endif
  LockMode m;
  ASSERT_TRUE(lm.IsHeld(2, kA, &m));
  EXPECT_EQ(m, LockMode::kShared);
  lm.Release(2, kA);
  t1.join();
  EXPECT_EQ(lm.user_victims(), 0u);
  EXPECT_EQ(lm.NumLockedObjects(), 0u);
}

// Wait-die ablation: the younger transaction dies the moment it would
// wait on an older incompatible holder — no cycle needed, no detection
// counted, timeout untouched.
TEST(DeadlockScheduleTest, WaitDieYoungerDiesInstantly) {
  LockManager lm;
  lm.set_deadlock_policy(DeadlockPolicy::kWaitDie);
  ASSERT_TRUE(lm.Acquire(1, kA, LockMode::kExclusive, 100ms, User()).ok());
  const auto start = std::chrono::steady_clock::now();
  Status s = lm.Acquire(2, kA, LockMode::kExclusive, 5000ms, User());
  EXPECT_TRUE(s.IsDeadlockVictim()) << s.ToString();
#ifndef BRAHMA_TEST_TSAN
  EXPECT_LT(ElapsedMs(start), 100);
#endif
  EXPECT_EQ(lm.victims_aborted(), 1u);
  EXPECT_EQ(lm.deadlocks_detected(), 0u);  // died on suspicion, not a cycle
  // The older transaction may wait (and here, be granted) as usual.
  lm.Release(1, kA);
  EXPECT_TRUE(lm.Acquire(1, kA, LockMode::kShared, 100ms, User()).ok());
  lm.Release(1, kA);
  EXPECT_EQ(lm.NumLockedObjects(), 0u);
}

// Both cycle members exempt (compensation in progress): the detector
// declines and the paper's timeout backstop resolves the cycle.
TEST(DeadlockScheduleTest, AllExemptCycleFallsBackToTimeout) {
  LockManager lm;
  WaiterProfile exempt;
  exempt.no_victim = true;
  ASSERT_TRUE(lm.Acquire(1, kA, LockMode::kExclusive, 100ms, exempt).ok());
  ASSERT_TRUE(lm.Acquire(2, kB, LockMode::kExclusive, 100ms, exempt).ok());
  Status s1;
  std::thread t1([&]() {
    s1 = lm.Acquire(1, kB, LockMode::kExclusive, 150ms, exempt);
  });
  std::this_thread::sleep_for(20ms);
  Status s2 = lm.Acquire(2, kA, LockMode::kExclusive, 150ms, exempt);
  t1.join();
  EXPECT_TRUE(s1.IsTimedOut()) << s1.ToString();
  EXPECT_TRUE(s2.IsTimedOut()) << s2.ToString();
  EXPECT_EQ(lm.victims_aborted(), 0u);
  lm.Release(1, kA);
  lm.Release(2, kB);
  EXPECT_EQ(lm.NumLockedObjects(), 0u);
}

// --- DB-level: 4-worker parallel IRA vs two-lock mutators ----------------

// Mutator fleet that locks TWO objects per transaction in sorted
// ObjectId order. Sorted order makes user/user cycles impossible, so any
// waits-for cycle that forms during the run contains a migration
// transaction — which reorg-first selection must sacrifice. Swapping two
// valid reference slots inside each locked object keeps the edge multiset
// invariant, so the usual conservation checks stay exact.
class TwoLockSortedMutators {
 public:
  TwoLockSortedMutators(Database* db, PartitionId p, int threads) : db_(db) {
    db_->store().partition(p).ForEachLiveObject([&](uint64_t off) {
      targets_.push_back(ObjectId(p, off));
    });
    std::sort(targets_.begin(), targets_.end());
    for (int t = 0; t < threads; ++t) {
      threads_.emplace_back([this, t]() { Loop(t); });
    }
  }

  void StopAndJoin() {
    stop_.store(true);
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

  uint64_t committed() const { return committed_.load(); }
  uint64_t victims() const { return victims_.load(); }

 private:
  void SwapSlots(Transaction* txn, ObjectId target, Random* rng, bool* did) {
    std::vector<ObjectId> refs;
    if (!txn->ReadRefs(target, &refs).ok()) return;
    std::vector<uint32_t> valid;
    for (uint32_t i = 0; i < refs.size(); ++i) {
      if (refs[i].valid()) valid.push_back(i);
    }
    if (valid.size() < 2) return;
    uint32_t a = valid[rng->Uniform(valid.size())];
    uint32_t b = valid[rng->Uniform(valid.size())];
    if (a == b) return;
    *did = txn->SetRef(target, a, refs[b]).ok() &&
           txn->SetRef(target, b, refs[a]).ok();
  }

  void Loop(int id) {
    Random rng(2000 + id);
    while (!stop_.load()) {
      ObjectId x = targets_[rng.Uniform(targets_.size())];
      ObjectId y = targets_[rng.Uniform(targets_.size())];
      if (x == y) continue;
      ObjectId lo = std::min(x, y);
      ObjectId hi = std::max(x, y);
      auto txn = db_->Begin();
      bool aborted = false;
      for (ObjectId target : {lo, hi}) {
        Status s = txn->LockWithTimeout(target, LockMode::kExclusive,
                                        std::chrono::milliseconds(1000));
        if (!s.ok()) {
          // A user transaction must never be a deadlock victim while a
          // reorg transaction is in the cycle — and by construction every
          // cycle here has one.
          if (s.IsDeadlockVictim()) victims_.fetch_add(1);
          txn->Abort();
          aborted = true;
          break;
        }
      }
      if (aborted) continue;
      bool did = false;
      Random r2(rng.Next());
      SwapSlots(txn.get(), lo, &r2, &did);
      SwapSlots(txn.get(), hi, &r2, &did);
      if (!did) {
        txn->Abort();
        continue;
      }
      if (txn->Commit().ok()) committed_.fetch_add(1);
    }
  }

  Database* db_;
  std::vector<ObjectId> targets_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> committed_{0};
  std::atomic<uint64_t> victims_{0};
};

TEST(DeadlockScheduleTest, ParallelIraNeverVictimizesUsers) {
  DatabaseOptions dopt = testing::SmallDbOptions(5);
  dopt.lock_timeout = std::chrono::milliseconds(1000);
  Database db(dopt);
  WorkloadParams params = testing::SmallWorkload(2);
  BuiltGraph graph;
  GraphBuilder builder(&db);
  ASSERT_TRUE(builder.Build(params, &graph).ok());
  const uint64_t live_before = CountLiveObjects(&db.store(), 1);
  const uint64_t total_live = TotalLiveObjects(&db.store());
  const size_t reachable_before = CollectReachable(&db.store()).size();

  TwoLockSortedMutators mutators(&db, 2, /*threads=*/3);
  IraOptions opt;
  opt.num_workers = 4;
  opt.lock_timeout = std::chrono::milliseconds(1000);
  CopyOutPlanner planner(5);
  ReorgStats stats;
  IraReorganizer ira(db.reorg_context());
  Status s = ira.Run(1, &planner, opt, &stats);
  mutators.StopAndJoin();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(mutators.committed(), 0u);

  // Reorg-first selection: with a reorg txn in every possible cycle, no
  // user transaction was ever chosen.
  EXPECT_EQ(db.locks().user_victims(), 0u);
  EXPECT_EQ(mutators.victims(), 0u);
  // Any victims the run did produce were folded into the reorg stats.
  EXPECT_EQ(stats.victims_aborted, db.locks().victims_aborted());

  // Post-abort invariants: the migration finished exactly.
  EXPECT_EQ(stats.objects_migrated, live_before);
  EXPECT_EQ(CountLiveObjects(&db.store(), 1), 0u);
  EXPECT_EQ(CountLiveObjects(&db.store(), 5), live_before);
  EXPECT_EQ(TotalLiveObjects(&db.store()), total_live);
  db.analyzer().Sync();
  EXPECT_EQ(CountDanglingRefs(&db.store()), 0);
  EXPECT_EQ(CountErtDiscrepancies(&db.store(), &db.erts()), 0);
  EXPECT_EQ(CollectReachable(&db.store()).size(), reachable_before);
  EXPECT_EQ(db.locks().NumLockedObjects(), 0u);
  EXPECT_FALSE(db.trt().enabled());
}

}  // namespace
}  // namespace brahma
