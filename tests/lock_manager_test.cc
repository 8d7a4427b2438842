#include "txn/lock_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

// Wall-clock assertions are meaningless under ThreadSanitizer's scheduler.
#if defined(__SANITIZE_THREAD__)
#define BRAHMA_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BRAHMA_TEST_TSAN 1
#endif
#endif

namespace brahma {
namespace {

using namespace std::chrono_literals;

int64_t ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

const ObjectId kObj(1, 64);
const ObjectId kObj2(1, 128);

// `n` distinct objects that share one lock-table shard.
std::vector<ObjectId> SameShardObjects(size_t n) {
  auto shard = [](ObjectId oid) {
    return ObjectIdHash{}(oid) % LockManager::kNumShards;
  };
  std::vector<ObjectId> out{kObj};
  for (uint64_t off = 128; out.size() < n; off += 64) {
    if (shard(ObjectId(1, off)) == shard(kObj)) out.emplace_back(1, off);
  }
  return out;
}

// Starts `f` on a new thread and returns once that thread is running, so
// a short sleep afterwards is enough for it to queue its request.
std::thread StartThread(std::function<void()> f) {
  std::atomic<bool> started{false};
  std::thread t([&started, f = std::move(f)]() {
    started.store(true);
    f();
  });
  while (!started.load()) std::this_thread::yield();
  return t;
}

TEST(LockManagerTest, SharedLocksCompatible) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, kObj, LockMode::kShared, 100ms).ok());
  EXPECT_TRUE(lm.Acquire(2, kObj, LockMode::kShared, 100ms).ok());
  LockMode m;
  EXPECT_TRUE(lm.IsHeld(1, kObj, &m));
  EXPECT_EQ(m, LockMode::kShared);
  EXPECT_TRUE(lm.IsHeld(2, kObj));
}

TEST(LockManagerTest, ExclusiveConflicts) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kObj, LockMode::kExclusive, 100ms).ok());
  EXPECT_TRUE(lm.Acquire(2, kObj, LockMode::kShared, 50ms).IsTimedOut());
  EXPECT_TRUE(lm.Acquire(3, kObj, LockMode::kExclusive, 50ms).IsTimedOut());
  EXPECT_FALSE(lm.IsHeld(2, kObj));
}

TEST(LockManagerTest, ReleaseWakesWaiter) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kObj, LockMode::kExclusive, 100ms).ok());
  std::atomic<bool> got{false};
  std::thread t([&]() {
    EXPECT_TRUE(lm.Acquire(2, kObj, LockMode::kExclusive, 2000ms).ok());
    got.store(true);
  });
  std::this_thread::sleep_for(30ms);
  EXPECT_FALSE(got.load());
  lm.Release(1, kObj);
  t.join();
  EXPECT_TRUE(got.load());
}

TEST(LockManagerTest, ReentrantAcquire) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kObj, LockMode::kShared, 100ms).ok());
  EXPECT_TRUE(lm.Acquire(1, kObj, LockMode::kShared, 100ms).ok());
  ASSERT_TRUE(lm.Acquire(2, kObj2, LockMode::kExclusive, 100ms).ok());
  EXPECT_TRUE(lm.Acquire(2, kObj2, LockMode::kShared, 100ms).ok());  // weaker
  EXPECT_TRUE(lm.Acquire(2, kObj2, LockMode::kExclusive, 100ms).ok());
}

TEST(LockManagerTest, UpgradeSoleHolder) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kObj, LockMode::kShared, 100ms).ok());
  EXPECT_TRUE(lm.Acquire(1, kObj, LockMode::kExclusive, 100ms).ok());
  LockMode m;
  ASSERT_TRUE(lm.IsHeld(1, kObj, &m));
  EXPECT_EQ(m, LockMode::kExclusive);
  // Another txn can't get in now.
  EXPECT_TRUE(lm.Acquire(2, kObj, LockMode::kShared, 30ms).IsTimedOut());
}

TEST(LockManagerTest, UpgradeWaitsForOtherReaders) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kObj, LockMode::kShared, 100ms).ok());
  ASSERT_TRUE(lm.Acquire(2, kObj, LockMode::kShared, 100ms).ok());
  std::atomic<bool> upgraded{false};
  std::thread t([&]() {
    EXPECT_TRUE(lm.Acquire(1, kObj, LockMode::kExclusive, 2000ms).ok());
    upgraded.store(true);
  });
  std::this_thread::sleep_for(30ms);
  EXPECT_FALSE(upgraded.load());
  lm.Release(2, kObj);
  t.join();
  EXPECT_TRUE(upgraded.load());
}

TEST(LockManagerTest, UpgradeTimeoutKeepsSharedLock) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kObj, LockMode::kShared, 100ms).ok());
  ASSERT_TRUE(lm.Acquire(2, kObj, LockMode::kShared, 100ms).ok());
  EXPECT_TRUE(lm.Acquire(1, kObj, LockMode::kExclusive, 30ms).IsTimedOut());
  LockMode m;
  ASSERT_TRUE(lm.IsHeld(1, kObj, &m));
  EXPECT_EQ(m, LockMode::kShared);  // did not lose what it had
}

TEST(LockManagerTest, UpgradeDeadlockFastFailsOneRival) {
  // Two readers both try to upgrade: neither could ever be granted while
  // the other holds S, so Acquire recognizes the hopeless cycle on the
  // spot and fast-fails the cheaper rival with DeadlockVictim instead of
  // parking both threads for the full timeout.
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kObj, LockMode::kShared, 100ms).ok());
  ASSERT_TRUE(lm.Acquire(2, kObj, LockMode::kShared, 100ms).ok());
  const auto start = std::chrono::steady_clock::now();
  std::atomic<int> victims{0};
  std::atomic<int> granted{0};
  auto upgrader = [&](TxnId txn) {
    Status s = lm.Acquire(txn, kObj, LockMode::kExclusive, 5000ms);
    if (s.IsDeadlockVictim()) {
      ++victims;
      LockMode m;
      ASSERT_TRUE(lm.IsHeld(txn, kObj, &m));
      EXPECT_EQ(m, LockMode::kShared);  // the held lock is untouched
      lm.Release(txn, kObj);  // abort path: drop S so the winner proceeds
    } else {
      ASSERT_TRUE(s.ok());
      ++granted;
    }
  };
  std::thread t1(upgrader, 1);
  std::thread t2(upgrader, 2);
  t1.join();
  t2.join();
  EXPECT_EQ(victims.load(), 1);
  EXPECT_EQ(granted.load(), 1);
  EXPECT_EQ(lm.victims_aborted(), 1u);
  EXPECT_GE(lm.deadlocks_detected(), 1u);
#ifndef BRAHMA_TEST_TSAN
  // Neither thread burned its 5 s timeout.
  EXPECT_LT(ElapsedMs(start), 1000);
#endif
  lm.Release(1, kObj);
  lm.Release(2, kObj);
  EXPECT_EQ(lm.NumLockedObjects(), 0u);
}

TEST(LockManagerTest, UpgradeFastFailWorksUnderTimeoutOnlyPolicy) {
  // The instant upgrade-deadlock check does not depend on the waits-for
  // graph detector: with the policy at timeout-only, two rival upgraders
  // still resolve immediately instead of both waiting out the timeout.
  LockManager lm;
  lm.set_deadlock_policy(DeadlockPolicy::kTimeoutOnly);
  ASSERT_TRUE(lm.Acquire(1, kObj, LockMode::kShared, 100ms).ok());
  ASSERT_TRUE(lm.Acquire(2, kObj, LockMode::kShared, 100ms).ok());
  std::thread t1([&]() {
    EXPECT_TRUE(lm.Acquire(1, kObj, LockMode::kExclusive, 5000ms).ok());
  });
  std::this_thread::sleep_for(50ms);  // txn 1 is queued as an upgrader
  const auto start = std::chrono::steady_clock::now();
  Status s = lm.Acquire(2, kObj, LockMode::kExclusive, 5000ms);
  EXPECT_TRUE(s.IsDeadlockVictim()) << s.ToString();
#ifndef BRAHMA_TEST_TSAN
  EXPECT_LT(ElapsedMs(start), 1000);
#endif
  lm.Release(2, kObj);  // victim drops S; txn 1's upgrade is granted
  t1.join();
  lm.Release(1, kObj);
  EXPECT_EQ(lm.NumLockedObjects(), 0u);
}

TEST(LockManagerTest, UpgradeTimeoutDoesNotLeakLockedObjects) {
  // Regression: a timed-out upgrade used to leave the strengthened
  // request in the queue, so the entry survived both releases and
  // NumLockedObjects never returned to zero. The withdrawal path must
  // restore the originally held mode and prune the entry once the locks
  // are gone.
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kObj, LockMode::kShared, 100ms).ok());
  ASSERT_TRUE(lm.Acquire(2, kObj, LockMode::kShared, 100ms).ok());
  // txn 2 holds S but is not upgrading, so fast-fail does not apply and
  // txn 1's upgrade waits out its timeout.
  EXPECT_TRUE(lm.Acquire(1, kObj, LockMode::kExclusive, 30ms).IsTimedOut());
  LockMode m;
  ASSERT_TRUE(lm.IsHeld(1, kObj, &m));
  EXPECT_EQ(m, LockMode::kShared);
  lm.Release(1, kObj);
  lm.Release(2, kObj);
  EXPECT_EQ(lm.NumLockedObjects(), 0u);
  // And the object is genuinely free again.
  EXPECT_TRUE(lm.Acquire(3, kObj, LockMode::kExclusive, 50ms).ok());
  lm.Release(3, kObj);
  EXPECT_EQ(lm.NumLockedObjects(), 0u);
}

TEST(LockManagerTest, FifoNoBarging) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kObj, LockMode::kExclusive, 100ms).ok());
  std::atomic<bool> writer_got{false};
  std::atomic<bool> reader_got{false};
  std::thread writer([&]() {
    ASSERT_TRUE(lm.Acquire(2, kObj, LockMode::kExclusive, 5000ms).ok());
    writer_got.store(true);
    std::this_thread::sleep_for(50ms);
    lm.Release(2, kObj);
  });
  std::this_thread::sleep_for(20ms);  // writer is now queued
  std::thread reader([&]() {
    ASSERT_TRUE(lm.Acquire(3, kObj, LockMode::kShared, 5000ms).ok());
    reader_got.store(true);
  });
  std::this_thread::sleep_for(20ms);
  // Reader must not barge past the queued writer while txn 1 holds X...
  EXPECT_FALSE(reader_got.load());
  lm.Release(1, kObj);
  writer.join();
  reader.join();
  EXPECT_TRUE(writer_got.load());
  EXPECT_TRUE(reader_got.load());
}

TEST(LockManagerTest, TimeoutRemovesWaiterAndUnblocksOthers) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kObj, LockMode::kShared, 100ms).ok());
  // Writer queues, then times out.
  EXPECT_TRUE(lm.Acquire(2, kObj, LockMode::kExclusive, 50ms).IsTimedOut());
  // With the dead writer gone, a reader can be granted immediately.
  EXPECT_TRUE(lm.Acquire(3, kObj, LockMode::kShared, 50ms).ok());
}

TEST(LockManagerTest, NumLockedObjectsCleansUp) {
  LockManager lm;
  EXPECT_EQ(lm.NumLockedObjects(), 0u);
  ASSERT_TRUE(lm.Acquire(1, kObj, LockMode::kShared, 100ms).ok());
  ASSERT_TRUE(lm.Acquire(1, kObj2, LockMode::kExclusive, 100ms).ok());
  EXPECT_EQ(lm.NumLockedObjects(), 2u);
  lm.Release(1, kObj);
  lm.Release(1, kObj2);
  EXPECT_EQ(lm.NumLockedObjects(), 0u);
}

TEST(LockManagerTest, SameShardQueuesStayFifo) {
  // A shard keeps every object's requests in one vector. Txn 9's request
  // on b sits ahead of a's queue (holder 1, waiters 2 then 3); releasing
  // it must not move a later request ahead of an earlier one, or a's
  // waiters are granted out of order.
  const std::vector<ObjectId> objs = SameShardObjects(2);
  const ObjectId a = objs[0];
  const ObjectId b = objs[1];
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(9, b, LockMode::kExclusive, 100ms).ok());
  ASSERT_TRUE(lm.Acquire(1, a, LockMode::kExclusive, 100ms).ok());
  std::mutex order_mu;
  std::vector<TxnId> order;
  auto waiter = [&](TxnId txn) {
    return [&, txn]() {
      ASSERT_TRUE(lm.Acquire(txn, a, LockMode::kExclusive, 5000ms).ok());
      {
        std::lock_guard<std::mutex> g(order_mu);
        order.push_back(txn);
      }
      lm.Release(txn, a);
    };
  };
  std::thread t2 = StartThread(waiter(2));
  std::this_thread::sleep_for(30ms);  // txn 2 is queued
  std::thread t3 = StartThread(waiter(3));
  std::this_thread::sleep_for(30ms);  // txn 3 is queued behind it
  lm.Release(9, b);
  lm.Release(1, a);
  t2.join();
  t3.join();
  EXPECT_EQ(order, (std::vector<TxnId>{2, 3}));
  EXPECT_EQ(lm.NumLockedObjects(), 0u);
}

TEST(LockManagerTest, SameShardWaiterWokenWhileNeighbourChurns) {
  // A waiter on a shares its shard's condition variable with every other
  // object there. Two transactions fighting over b wake it again and
  // again; it must sleep through those wakeups while a is held, and the
  // release of a alone must wake it once b has gone quiet. Timeout-only,
  // so no detection pass wakes the waiter every grace slice.
  const std::vector<ObjectId> objs = SameShardObjects(2);
  const ObjectId a = objs[0];
  const ObjectId b = objs[1];
  LockManager lm;
  lm.set_deadlock_policy(DeadlockPolicy::kTimeoutOnly);
  ASSERT_TRUE(lm.Acquire(1, a, LockMode::kExclusive, 100ms).ok());
  std::atomic<bool> got{false};
  Status s;
  std::thread waiter = StartThread([&]() {
    s = lm.Acquire(2, a, LockMode::kExclusive, 5000ms);
    got.store(true);
  });
  std::atomic<bool> stop{false};
  std::atomic<int> churned{0};
  std::vector<std::thread> churn;
  for (TxnId txn : {3, 4}) {
    churn.emplace_back([&, txn]() {
      while (!stop.load()) {
        ASSERT_TRUE(lm.Acquire(txn, b, LockMode::kExclusive, 1000ms).ok());
        ++churned;
        lm.Release(txn, b);
      }
    });
  }
  std::this_thread::sleep_for(50ms);
  stop.store(true);
  for (std::thread& t : churn) t.join();
  EXPECT_GT(churned.load(), 0);
  EXPECT_FALSE(got.load());  // b's grants woke it but granted nothing on a
  const auto released = std::chrono::steady_clock::now();
  lm.Release(1, a);
  waiter.join();
  EXPECT_TRUE(s.ok()) << s.ToString();
#ifndef BRAHMA_TEST_TSAN
  // Woken by the release, not by its own 5 s deadline.
  EXPECT_LT(ElapsedMs(released), 1000);
#endif
  lm.Release(2, a);
  EXPECT_EQ(lm.NumLockedObjects(), 0u);
}

TEST(LockManagerTest, NumLockedObjectsCountsDistinctObjectsInOneShard) {
  const std::vector<ObjectId> objs = SameShardObjects(3);
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, objs[0], LockMode::kShared, 100ms).ok());
  ASSERT_TRUE(lm.Acquire(2, objs[1], LockMode::kExclusive, 100ms).ok());
  ASSERT_TRUE(lm.Acquire(3, objs[0], LockMode::kShared, 100ms).ok());
  ASSERT_TRUE(lm.Acquire(1, objs[2], LockMode::kShared, 100ms).ok());
  ASSERT_TRUE(lm.Acquire(2, objs[2], LockMode::kShared, 100ms).ok());
  EXPECT_EQ(lm.NumLockedObjects(), 3u);
  lm.Release(1, objs[0]);
  EXPECT_EQ(lm.NumLockedObjects(), 3u);  // txn 3 still holds objs[0]
  lm.Release(3, objs[0]);
  EXPECT_EQ(lm.NumLockedObjects(), 2u);
  lm.Release(2, objs[1]);
  lm.Release(1, objs[2]);
  lm.Release(2, objs[2]);
  EXPECT_EQ(lm.NumLockedObjects(), 0u);
}

TEST(LockManagerTest, SameShardTwoCycleIsBroken) {
  // Txn 1 holds a and wants b; txn 2 holds b and wants a; both objects
  // live in one shard. The detector must find the cycle among the
  // shard's interleaved requests and cancel exactly one side.
  const std::vector<ObjectId> objs = SameShardObjects(2);
  const ObjectId a = objs[0];
  const ObjectId b = objs[1];
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, a, LockMode::kExclusive, 100ms).ok());
  ASSERT_TRUE(lm.Acquire(2, b, LockMode::kExclusive, 100ms).ok());
  const auto start = std::chrono::steady_clock::now();
  std::atomic<int> victims{0};
  std::atomic<int> granted{0};
  auto cross = [&](TxnId txn, ObjectId held, ObjectId want) {
    Status s = lm.Acquire(txn, want, LockMode::kExclusive, 5000ms);
    if (s.IsDeadlockVictim()) {
      ++victims;
      lm.Release(txn, held);  // abort path: the survivor proceeds
      return;
    }
    ASSERT_TRUE(s.ok()) << s.ToString();
    ++granted;
    lm.Release(txn, want);
    lm.Release(txn, held);
  };
  std::thread t1(cross, 1, a, b);
  std::thread t2(cross, 2, b, a);
  t1.join();
  t2.join();
  EXPECT_EQ(victims.load(), 1);
  EXPECT_EQ(granted.load(), 1);
  EXPECT_EQ(lm.victims_aborted(), 1u);
  EXPECT_GE(lm.deadlocks_detected(), 1u);
#ifndef BRAHMA_TEST_TSAN
  EXPECT_LT(ElapsedMs(start), 1000);
#endif
  EXPECT_EQ(lm.NumLockedObjects(), 0u);
}

TEST(LockManagerTest, HistoryTracksAndForgets) {
  LockManager lm;
  lm.set_history_enabled(true);
  ASSERT_TRUE(lm.Acquire(1, kObj, LockMode::kShared, 100ms).ok());
  lm.Release(1, kObj);  // lock released, history remains
  std::vector<TxnId> h = lm.HistoricalHolders(kObj, /*except=*/99);
  ASSERT_EQ(h.size(), 1u);
  EXPECT_EQ(h[0], 1u);
  EXPECT_TRUE(lm.HistoricalHolders(kObj, /*except=*/1).empty());
  lm.ForgetTxn(1, {kObj});
  EXPECT_TRUE(lm.HistoricalHolders(kObj, 99).empty());
}

TEST(LockManagerTest, HistoryDisabledByDefault) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kObj, LockMode::kShared, 100ms).ok());
  EXPECT_TRUE(lm.HistoricalHolders(kObj, 99).empty());
}

TEST(LockManagerTest, ClearAllState) {
  LockManager lm;
  lm.set_history_enabled(true);
  ASSERT_TRUE(lm.Acquire(1, kObj, LockMode::kExclusive, 100ms).ok());
  lm.ClearAllState();
  EXPECT_EQ(lm.NumLockedObjects(), 0u);
  EXPECT_TRUE(lm.Acquire(2, kObj, LockMode::kExclusive, 50ms).ok());
}

TEST(LockManagerTest, HistoryRacesWithConcurrentVictims) {
  // TSan coverage: HistoricalHolders/ForgetTxn racing Acquire/Release
  // while the deadlock detector victimizes transactions that then appear
  // as historical holders. Two lock orders force real waits-for cycles.
  LockManager lm;
  lm.set_history_enabled(true);
  const ObjectId a(1, 64);
  const ObjectId b(1, 128);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> victims{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t]() {
      const TxnId txn = 10 + t;
      const ObjectId first = (t % 2 == 0) ? a : b;
      const ObjectId second = (t % 2 == 0) ? b : a;
      for (int i = 0; i < 120; ++i) {
        Status s1 = lm.Acquire(txn, first, LockMode::kExclusive, 500ms);
        if (s1.IsDeadlockVictim()) ++victims;
        if (!s1.ok()) continue;
        Status s2 = lm.Acquire(txn, second, LockMode::kExclusive, 500ms);
        if (s2.IsDeadlockVictim()) ++victims;
        lm.Release(txn, first);
        if (s2.ok()) lm.Release(txn, second);
        // The "abort": forget the victim's history while observers read it.
        lm.ForgetTxn(txn, {first, second});
      }
    });
  }
  std::thread observer([&]() {
    while (!stop.load()) {
      (void)lm.HistoricalHolders(a, /*except=*/0);
      (void)lm.HistoricalHolders(b, /*except=*/0);
      (void)lm.NumLockedObjects();
      std::this_thread::sleep_for(1ms);
    }
  });
  for (auto& w : workers) w.join();
  stop.store(true);
  observer.join();
  EXPECT_EQ(lm.NumLockedObjects(), 0u);
  EXPECT_EQ(lm.user_victims(), lm.victims_aborted());
}

TEST(LockManagerTest, ConcurrentStressNoLostExclusion) {
  LockManager lm;
  std::atomic<int> in_critical{0};
  std::atomic<int> violations{0};
  std::atomic<long> total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      TxnId txn = 100 + t;
      for (int i = 0; i < 300; ++i) {
        if (lm.Acquire(txn, kObj, LockMode::kExclusive, 2000ms).ok()) {
          if (in_critical.fetch_add(1) != 0) violations.fetch_add(1);
          total.fetch_add(1);
          in_critical.fetch_sub(1);
          lm.Release(txn, kObj);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(total.load(), 0);
  EXPECT_EQ(lm.NumLockedObjects(), 0u);
}

}  // namespace
}  // namespace brahma
