#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/migration_pipe.h"

namespace brahma {
namespace {

using Next = MigrationPipe::Next;

ObjectId Oid(uint64_t offset) { return ObjectId(1, offset); }

// Claim-aware wakeup: a deferred item wakes exactly when its blocking
// claim drops — not on an unrelated release, not on a timer.
TEST(MigrationPipeTest, ClaimParkWakesExactlyOnBlockerRelease) {
  MigrationPipe::Options opt;
  opt.workers = 2;
  std::vector<ObjectId> objs = {Oid(10), Oid(20)};
  MigrationPipe pipe(objs, opt);

  MigrationPipe::Item a, b;
  ASSERT_EQ(pipe.Pop(&a), Next::kItem);
  ASSERT_EQ(pipe.Pop(&b), Next::kItem);

  // a hit a footprint claim anchored at blocker; park it. b stays in
  // flight (modeling the worker that holds the blocking claim), so the
  // drained failsafe cannot promote a early.
  const ObjectId blocker = Oid(99);
  const ObjectId other = Oid(77);
  pipe.ParkOnClaim(blocker, a.oid, a.attempt);
  EXPECT_EQ(pipe.parked_on_claims(), 1u);

  std::atomic<bool> woke{false};
  MigrationPipe::Item got;
  std::thread waiter([&] {
    MigrationPipe::Next n = pipe.Pop(&got);
    ASSERT_EQ(n, Next::kItem);
    woke.store(true);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(woke.load()) << "woke with no release at all";

  // Releasing an *unrelated* claim must not wake the parked item.
  pipe.OnClaimReleased(other);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(woke.load()) << "woke on an unrelated claim release";
  EXPECT_EQ(pipe.claim_wakeups(), 0u);
  EXPECT_EQ(pipe.parked_on_claims(), 1u);

  // Releasing the actual blocker wakes it immediately.
  pipe.OnClaimReleased(blocker);
  waiter.join();
  EXPECT_TRUE(woke.load());
  EXPECT_EQ(got.oid, a.oid);
  EXPECT_EQ(got.attempt, a.attempt);
  EXPECT_EQ(pipe.claim_wakeups(), 1u);
  EXPECT_EQ(pipe.parked_on_claims(), 0u);

  pipe.Done();  // a (re-popped by the waiter)
  pipe.Done();  // b
  MigrationPipe::Item end;
  EXPECT_EQ(pipe.Pop(&end), Next::kDrained);
}

// Multiple items parked under the same blocker all wake on one release;
// items under a different blocker stay parked.
TEST(MigrationPipeTest, ReleaseWakesAllWaitersOfThatBlockerOnly) {
  MigrationPipe::Options opt;
  opt.workers = 3;
  std::vector<ObjectId> objs = {Oid(10), Oid(20), Oid(30)};
  MigrationPipe pipe(objs, opt);

  MigrationPipe::Item i1, i2, i3;
  ASSERT_EQ(pipe.Pop(&i1), Next::kItem);
  ASSERT_EQ(pipe.Pop(&i2), Next::kItem);
  ASSERT_EQ(pipe.Pop(&i3), Next::kItem);

  const ObjectId x = Oid(98);
  const ObjectId y = Oid(99);
  pipe.ParkOnClaim(x, i1.oid, i1.attempt);
  pipe.ParkOnClaim(x, i2.oid, i2.attempt);
  pipe.ParkOnClaim(y, i3.oid, i3.attempt);
  EXPECT_EQ(pipe.parked_on_claims(), 3u);

  pipe.OnClaimReleased(x);
  EXPECT_EQ(pipe.claim_wakeups(), 2u);
  EXPECT_EQ(pipe.parked_on_claims(), 1u);

  MigrationPipe::Item a, b;
  ASSERT_EQ(pipe.Pop(&a), Next::kItem);
  ASSERT_EQ(pipe.Pop(&b), Next::kItem);
  EXPECT_TRUE((a.oid == i1.oid && b.oid == i2.oid) ||
              (a.oid == i2.oid && b.oid == i1.oid));

  pipe.OnClaimReleased(y);
  EXPECT_EQ(pipe.claim_wakeups(), 3u);
  MigrationPipe::Item c;
  ASSERT_EQ(pipe.Pop(&c), Next::kItem);
  EXPECT_EQ(c.oid, i3.oid);

  pipe.Done();
  pipe.Done();
  pipe.Done();
  MigrationPipe::Item end;
  EXPECT_EQ(pipe.Pop(&end), Next::kDrained);
}

// Standalone-pipe failsafe: if every in-flight worker is gone and only
// claim-parked items remain (a release that never arrives), Pop promotes
// them rather than deadlocking.
TEST(MigrationPipeTest, StrandedClaimWaitersArePromotedNotDeadlocked) {
  MigrationPipe::Options opt;
  opt.workers = 1;
  std::vector<ObjectId> objs = {Oid(10)};
  MigrationPipe pipe(objs, opt);

  MigrationPipe::Item it;
  ASSERT_EQ(pipe.Pop(&it), Next::kItem);
  pipe.ParkOnClaim(Oid(99), it.oid, it.attempt);

  // No one holds anything; a fresh Pop must hand the item back.
  MigrationPipe::Item again;
  ASSERT_EQ(pipe.Pop(&again), Next::kItem);
  EXPECT_EQ(again.oid, it.oid);
  pipe.Done();
  MigrationPipe::Item end;
  EXPECT_EQ(pipe.Pop(&end), Next::kDrained);
}

// A worker above the cap parks (stops popping even with work available)
// and resumes when the cap rises again.
TEST(MigrationPipeTest, ShedWorkerParksAndResumesOnTargetRaise) {
  MigrationPipe::Options opt;
  opt.workers = 2;
  std::vector<ObjectId> objs = {Oid(10), Oid(20)};
  MigrationPipe pipe(objs, opt);
  pipe.SetWorkerCap(1);

  // The "second worker" must park inside Pop despite ready work.
  std::atomic<bool> popped{false};
  MigrationPipe::Item parked_item;
  std::thread w2([&] {
    MigrationPipe::Next n = pipe.Pop(&parked_item);
    ASSERT_EQ(n, Next::kItem);
    popped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(popped.load()) << "worker popped while over the cap";

  // Raising the cap resumes the parked worker.
  pipe.SetWorkerCap(2);
  w2.join();
  EXPECT_TRUE(popped.load());

  // Drain: the main thread takes the remaining item.
  MigrationPipe::Item mine;
  ASSERT_EQ(pipe.Pop(&mine), Next::kItem);
  pipe.Done();
  pipe.Done();
  MigrationPipe::Item end;
  EXPECT_EQ(pipe.Pop(&end), Next::kDrained);
}

// Stop() wins over parking: a parked worker must observe Stop and exit.
TEST(MigrationPipeTest, StopWakesParkedWorker) {
  MigrationPipe::Options opt;
  opt.workers = 2;
  std::vector<ObjectId> objs = {Oid(10), Oid(20)};
  MigrationPipe pipe(objs, opt);
  pipe.SetWorkerCap(1);

  std::atomic<bool> stopped_seen{false};
  std::thread w2([&] {
    MigrationPipe::Item it;
    if (pipe.Pop(&it) == Next::kStopped) stopped_seen.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  pipe.Stop(Status::Crashed("test stop"));
  w2.join();
  EXPECT_TRUE(stopped_seen.load());
  EXPECT_TRUE(pipe.result().IsCrashed());
}

}  // namespace
}  // namespace brahma
