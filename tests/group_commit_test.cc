#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/database.h"
#include "tests/test_util.h"
#include "wal/log_manager.h"

namespace brahma {
namespace {

// Group-commit daemon semantics: batching/absorption mechanics on a bare
// LogManager, then the durability ordering on a full Database — no
// committer (flusher or absorbed waiter) may observe durability before a
// force actually completed and advanced the stable LSN.
class GroupCommitTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoints::Instance().Reset(); }
};

LogRecord MakeRecord() {
  LogRecord r;
  r.type = LogRecordType::kCommit;
  return r;
}

TEST_F(GroupCommitTest, DisabledDegradesToPerCommitterFlush) {
  LogManager lm(std::chrono::microseconds(0));
  ASSERT_FALSE(lm.group_commit());
  Lsn lsn = lm.Append(MakeRecord());
  EXPECT_TRUE(lm.ForceCommit(lsn).ok());
  EXPECT_EQ(lm.stable_lsn(), lsn);
  EXPECT_EQ(lm.group_commit_batches(), 0u);
  EXPECT_EQ(lm.group_commit_forces_absorbed(), 0u);
}

TEST_F(GroupCommitTest, StaggeredCommittersBatchAndAbsorb) {
  // 50 ms device force, three committers staggered well inside it. The
  // first elects itself flusher for its own LSN; the second arrives
  // mid-force and leads the *next* batch, which by then covers the third
  // committer's LSN too — the third is absorbed, observing durability
  // without ever touching the device. Deterministic: 2 batches, 1
  // absorbed, regardless of which of the two waiters wins the election.
  LogManager lm(std::chrono::milliseconds(50));
  lm.set_group_commit(true);
  Lsn l1 = lm.Append(MakeRecord());
  Lsn l2 = lm.Append(MakeRecord());
  Lsn l3 = lm.Append(MakeRecord());

  std::vector<std::thread> committers;
  std::atomic<int> ok{0};
  committers.emplace_back([&] {
    if (lm.ForceCommit(l1).ok()) ++ok;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  committers.emplace_back([&] {
    if (lm.ForceCommit(l2).ok()) ++ok;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  committers.emplace_back([&] {
    if (lm.ForceCommit(l3).ok()) ++ok;
  });
  for (std::thread& t : committers) t.join();

  EXPECT_EQ(ok.load(), 3);
  EXPECT_EQ(lm.stable_lsn(), l3);
  EXPECT_EQ(lm.group_commit_batches(), 2u);
  EXPECT_EQ(lm.group_commit_forces_absorbed(), 1u);
  // No work time was given, so nobody was held for a returning committer.
  EXPECT_EQ(lm.group_commit_gathers(), 0u);
}

// Batch alignment (DESIGN.md §9). Committer A forces alone; `waiters`
// more committers request during A's 50 ms force, reporting
// `waiter_work`. A then works for kReturnAfter and commits again; both of
// A's commits report `work`. The flusher elected from the waiters holds
// its force for A only if A's reported work is short enough that the rest
// of the force A would save outweighs the delay to those already waiting.
struct ConvoyRun {
  uint64_t batches = 0;
  uint64_t absorbed = 0;
  uint64_t gathers = 0;
  uint64_t timeouts = 0;
};

constexpr auto kAlignForce = std::chrono::milliseconds(50);
constexpr auto kReturnAfter = std::chrono::milliseconds(10);

// The rule's inputs are fixed only if every waiter is inside ForceCommit
// before A's first force ends; a waiter that arrived later would shrink
// the batch shape the next flusher aligns to. So the waiters start once
// A is elected (its batch target taken), the test waits until each has
// hit ForceCommit's "wal:flush" site, and A's first force is kept from
// ending for kEntryGraceMs past its device write, which leaves the force's
// own length (last_force_) unchanged.
constexpr uint32_t kEntryGraceMs = 200;

ConvoyRun RunConvoy(std::chrono::nanoseconds work, int waiters,
                    std::chrono::nanoseconds waiter_work) {
  FailPoints& fp = FailPoints::Instance();
  fp.set_tracing(true);
  FailSpec grace;
  grace.action = FailSpec::Action::kDelay;
  grace.delay_ms = kEntryGraceMs;
  grace.max_triggers = 1;
  fp.Arm("wal:group-commit:after-force", grace);
  LogManager lm(kAlignForce);
  lm.set_group_commit(true);
  std::atomic<int> ok{0};
  std::atomic<bool> a_first_done{false};
  const Lsn a1 = lm.Append(MakeRecord());
  std::thread a([&] {
    if (lm.ForceCommit(a1, work).ok()) ++ok;
    a_first_done = true;
    std::this_thread::sleep_for(kReturnAfter);
    if (lm.ForceCommit(lm.Append(MakeRecord()), work).ok()) ++ok;
  });
  while (lm.group_commit_batches() == 0) std::this_thread::yield();
  std::vector<Lsn> lsns;
  for (int i = 0; i < waiters; ++i) lsns.push_back(lm.Append(MakeRecord()));
  std::vector<std::thread> others;
  for (Lsn lsn : lsns) {
    others.emplace_back([&, lsn] {
      if (lm.ForceCommit(lsn, waiter_work).ok()) ++ok;
    });
  }
  while (fp.hits("wal:flush") < static_cast<uint64_t>(1 + waiters)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(a_first_done.load());  // every waiter arrived in time
  a.join();
  for (std::thread& t : others) t.join();
  EXPECT_EQ(ok.load(), 2 + waiters);
  EXPECT_EQ(lm.stable_lsn(), lm.last_lsn());
  return {lm.group_commit_batches(), lm.group_commit_forces_absorbed(),
          lm.group_commit_gathers(), lm.group_commit_gather_timeouts()};
}

TEST_F(GroupCommitTest, ShortWorkCommittersStayInOneBatch) {
  // A's second commit joins the waiter: two forces in all, not three, and
  // the hold ended because A came back, not at the bound.
  const auto work = std::chrono::milliseconds(1);
  ConvoyRun r = RunConvoy(work, /*waiters=*/1, work);
  EXPECT_EQ(r.batches, 2u);
  EXPECT_EQ(r.absorbed, 1u);
  EXPECT_EQ(r.gathers, 1u);
  EXPECT_EQ(r.timeouts, 0u);
}

TEST_F(GroupCommitTest, UnknownOrLongWorkIsNeverHeld) {
  // With no work time, or work longer than a force, the flusher starts at
  // once: A's second commit misses it and pays a third force of its own.
  for (std::chrono::nanoseconds work :
       {std::chrono::nanoseconds(0),
        std::chrono::nanoseconds(2 * kAlignForce)}) {
    SCOPED_TRACE(work.count());
    ConvoyRun r = RunConvoy(work, /*waiters=*/1, work);
    EXPECT_EQ(r.batches, 3u);
    EXPECT_EQ(r.absorbed, 0u);
    EXPECT_EQ(r.gathers, 0u);
  }
}

TEST_F(GroupCommitTest, NoHoldWhenWaitingCostsMoreThanItSaves) {
  // Two committers wait for one returner that reports 20 ms of work in a
  // 50 ms force. Held, the returner would save about 30 ms while each
  // waiter lost about 20 ms, so the flusher starts at once and A pays its
  // own force. (The waiters report long work so that A, flusher of the
  // last batch, does not hold for them in turn.)
  ConvoyRun r = RunConvoy(std::chrono::milliseconds(20), /*waiters=*/2,
                          2 * kAlignForce);
  EXPECT_EQ(r.batches, 3u);
  EXPECT_EQ(r.absorbed, 1u);
  EXPECT_EQ(r.gathers, 0u);
}

TEST_F(GroupCommitTest, HoldIsBoundedByOneForce) {
  // A commits once with a short work time and never returns. The flusher
  // elected from B holds for it, gives up after one measured force, and
  // then forces: B returns about two forces after A's force ended. A
  // concurrent Flush issued during the hold waits its turn behind the held
  // batch and then pays its own force; nobody deadlocks.
  LogManager lm(kAlignForce);
  lm.set_group_commit(true);
  const auto work = std::chrono::milliseconds(1);
  const Lsn a1 = lm.Append(MakeRecord());
  std::atomic<bool> a_done{false};
  std::chrono::steady_clock::time_point a_end, b_end;
  std::thread a([&] {
    EXPECT_TRUE(lm.ForceCommit(a1, work).ok());
    a_end = std::chrono::steady_clock::now();
    a_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const Lsn b = lm.Append(MakeRecord());
  std::thread tb([&] {
    EXPECT_TRUE(lm.ForceCommit(b, work).ok());
    b_end = std::chrono::steady_clock::now();
  });
  while (!a_done) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));  // mid-hold
  const Lsn d = lm.Append(MakeRecord());
  lm.Flush(d);
  EXPECT_GE(lm.stable_lsn(), d);
  a.join();
  tb.join();

  EXPECT_EQ(lm.group_commit_gathers(), 1u);
  EXPECT_EQ(lm.group_commit_gather_timeouts(), 1u);
  EXPECT_EQ(lm.group_commit_batches(), 2u);
  EXPECT_EQ(lm.group_commit_forces_absorbed(), 0u);
  // One force of holding plus the batch's own force; the slack covers
  // scheduler noise, not a second hold.
  const auto waited = b_end - a_end;
  EXPECT_GE(waited, 2 * kAlignForce - std::chrono::milliseconds(5));
  EXPECT_LT(waited, 3 * kAlignForce);
}

TEST_F(GroupCommitTest, NoUserBatchIsHeldForAReorganizerCommitter) {
  // A reorganizer committer (a rider) commits once with a short work time
  // and does not come back, as in HoldIsBoundedByOneForce. Counted as a
  // returner, it would make the flusher elected from user B hold for one
  // force. As a rider it counts for nothing: B's batch starts the moment
  // the rider's force ends, and nobody holds.
  LogManager lm(kAlignForce);
  lm.set_group_commit(true);
  const auto work = std::chrono::milliseconds(1);
  const Lsn r = lm.Append(MakeRecord());
  std::chrono::steady_clock::time_point r_end, b_end;
  std::thread rider([&] {
    EXPECT_TRUE(lm.ForceCommit(r, work, /*rider=*/true).ok());
    r_end = std::chrono::steady_clock::now();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const Lsn b = lm.Append(MakeRecord());
  std::thread tb([&] {
    EXPECT_TRUE(lm.ForceCommit(b, work).ok());
    b_end = std::chrono::steady_clock::now();
  });
  rider.join();
  tb.join();

  EXPECT_EQ(lm.group_commit_gathers(), 0u);
  EXPECT_EQ(lm.group_commit_batches(), 2u);
  const auto waited = b_end - r_end;
  EXPECT_GE(waited, kAlignForce - std::chrono::milliseconds(5));
  EXPECT_LT(waited, 2 * kAlignForce - std::chrono::milliseconds(10));
}

TEST_F(GroupCommitTest, RiderSharesTheNextBatchWithUsers) {
  // A rider and a user that arrive while a user force is in flight both
  // wait for it; the next batch, led by whichever wins the election,
  // covers both, so one of them returns absorbed.
  LogManager lm(kAlignForce);
  lm.set_group_commit(true);
  const Lsn a = lm.Append(MakeRecord());
  std::thread ta([&] { EXPECT_TRUE(lm.ForceCommit(a).ok()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const Lsn r = lm.Append(MakeRecord());
  const Lsn b = lm.Append(MakeRecord());
  std::thread rider(
      [&] { EXPECT_TRUE(lm.ForceCommit(r, {}, /*rider=*/true).ok()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::thread tb([&] { EXPECT_TRUE(lm.ForceCommit(b).ok()); });
  ta.join();
  rider.join();
  tb.join();
  EXPECT_EQ(lm.stable_lsn(), b);
  EXPECT_EQ(lm.group_commit_batches(), 2u);
  EXPECT_EQ(lm.group_commit_forces_absorbed(), 1u);
}

TEST_F(GroupCommitTest, AlreadyDurableTargetSkipsTheDevice) {
  LogManager lm(std::chrono::microseconds(0));
  lm.set_group_commit(true);
  Lsn l1 = lm.Append(MakeRecord());
  ASSERT_TRUE(lm.ForceCommit(l1).ok());
  EXPECT_EQ(lm.group_commit_batches(), 1u);
  // A second force to the same (now stable) LSN never elects a flusher.
  ASSERT_TRUE(lm.ForceCommit(l1).ok());
  EXPECT_EQ(lm.group_commit_batches(), 1u);
}

TEST_F(GroupCommitTest, CrashBetweenForceAndAdvanceIsNotDurable) {
  // The crash window of the daemon: the device force completed but the
  // durability acknowledgement (stable_lsn_ advance) never happened. The
  // committer must see a crash, and the records must be lost on restart.
  LogManager lm(std::chrono::microseconds(0));
  lm.set_group_commit(true);
  ASSERT_TRUE(FailPoints::Instance()
                  .ArmFromString("wal:group-commit:after-force=crash")
                  .ok());
  Lsn lsn = lm.Append(MakeRecord());
  Status s = lm.ForceCommit(lsn);
  EXPECT_TRUE(s.IsCrashed());
  EXPECT_EQ(lm.stable_lsn(), 0u);
  lm.DiscardUnflushed();
  EXPECT_EQ(lm.NumRecords(), 0u);
}

TEST_F(GroupCommitTest, CrashedFlusherDoesNotStrandWaiters) {
  // A waiter riding a batch whose flusher crashes must wake, re-elect,
  // and (with the site armed unlimited) crash out itself — never hang,
  // never observe durability.
  LogManager lm(std::chrono::milliseconds(40));
  lm.set_group_commit(true);
  ASSERT_TRUE(FailPoints::Instance()
                  .ArmFromString("wal:group-commit:after-force=crash")
                  .ok());
  Lsn l1 = lm.Append(MakeRecord());
  Lsn l2 = lm.Append(MakeRecord());
  std::atomic<int> crashed{0};
  std::thread a([&] {
    if (lm.ForceCommit(l1).IsCrashed()) ++crashed;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::thread b([&] {
    if (lm.ForceCommit(l2).IsCrashed()) ++crashed;
  });
  a.join();
  b.join();
  EXPECT_EQ(crashed.load(), 2);
  EXPECT_EQ(lm.stable_lsn(), 0u);
}

TEST_F(GroupCommitTest, NoAbsorbedWaiterObservesDurabilityEarly) {
  // Database-level: two user transactions commit concurrently with a
  // real force latency while the after-force crash site is armed
  // unlimited. Whichever committer leads crashes; the other must not
  // treat the (possibly device-written) batch as durable — both commits
  // report crashed, both transactions are abandoned, and restart
  // recovery shows neither object.
  DatabaseOptions dopt = testing::SmallDbOptions();
  dopt.commit_flush_latency = std::chrono::milliseconds(30);
  dopt.group_commit = true;
  Database db(dopt);

  ObjectId oid1, oid2;
  {
    // Pre-crash baseline commit so recovery has a stable prefix.
    auto setup = db.Begin();
    ObjectId base;
    ASSERT_TRUE(setup->CreateObject(1, 2, 16, &base).ok());
    ASSERT_TRUE(setup->Commit().ok());
  }
  ASSERT_TRUE(FailPoints::Instance()
                  .ArmFromString("wal:group-commit:after-force=crash")
                  .ok());
  std::atomic<int> crashed{0};
  auto committer = [&](ObjectId* out) {
    auto txn = db.Begin();
    ASSERT_TRUE(txn->CreateObject(1, 2, 16, out).ok());
    Status s = txn->Commit();
    if (s.IsCrashed()) {
      ++crashed;
      txn->Abandon();
    }
  };
  std::thread t1(committer, &oid1);
  std::thread t2(committer, &oid2);
  t1.join();
  t2.join();
  ASSERT_EQ(crashed.load(), 2);
  FailPoints::Instance().Reset();

  db.SimulateCrash();
  ASSERT_TRUE(db.Recover().ok());
  EXPECT_FALSE(db.store().Validate(oid1));
  EXPECT_FALSE(db.store().Validate(oid2));
}

TEST_F(GroupCommitTest, CrashOnHeldBatchLeavesNoMemberDurable) {
  // The batch-alignment scenario on a full Database: A commits alone, B
  // commits during A's force, and B, elected flusher, holds its force
  // until A's next transaction has requested. That held
  // batch crashes between the device force and the stable-LSN advance
  // (site armed from its second hit on, so A's first force succeeds and
  // every re-elected flusher crashes too). Recovery shows A's first
  // object and none of the held batch's.
  DatabaseOptions dopt = testing::SmallDbOptions();
  dopt.commit_flush_latency = kAlignForce;
  dopt.group_commit = true;
  Database db(dopt);
  {
    auto setup = db.Begin();
    ObjectId base;
    ASSERT_TRUE(setup->CreateObject(1, 2, 16, &base).ok());
    ASSERT_TRUE(setup->Commit().ok());
  }
  ASSERT_TRUE(FailPoints::Instance()
                  .ArmFromString("wal:group-commit:after-force=crash.nth(2)")
                  .ok());
  const uint64_t gathers0 = db.log().group_commit_gathers();
  // Returns the commit status; a crashed committer abandons its txn.
  auto commit_one = [&db](ObjectId* out) {
    auto txn = db.Begin();
    EXPECT_TRUE(txn->CreateObject(1, 2, 16, out).ok());
    Status s = txn->Commit();
    if (!s.ok()) txn->Abandon();
    return s;
  };
  ObjectId a1, a2, b;
  Status sa1, sa2, sb;
  std::thread ta([&] {
    sa1 = commit_one(&a1);
    std::this_thread::sleep_for(kReturnAfter);
    sa2 = commit_one(&a2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::thread tb([&] { sb = commit_one(&b); });
  ta.join();
  tb.join();
  FailPoints::Instance().Reset();
  ASSERT_TRUE(sa1.ok()) << sa1.ToString();
  EXPECT_TRUE(sa2.IsCrashed()) << sa2.ToString();
  EXPECT_TRUE(sb.IsCrashed()) << sb.ToString();
  EXPECT_EQ(db.log().group_commit_gathers() - gathers0, 1u);

  db.SimulateCrash();
  ASSERT_TRUE(db.Recover().ok());
  EXPECT_TRUE(db.store().Validate(a1));
  EXPECT_FALSE(db.store().Validate(a2));
  EXPECT_FALSE(db.store().Validate(b));
}

TEST_F(GroupCommitTest, ConcurrentCommitsAreDurableAfterRecovery) {
  // The positive direction: commits that return OK through the daemon —
  // leaders and absorbed waiters alike — survive a crash.
  DatabaseOptions dopt = testing::SmallDbOptions();
  dopt.commit_flush_latency = std::chrono::milliseconds(40);
  dopt.group_commit = true;
  Database db(dopt);

  constexpr int kTxns = 3;
  ObjectId oids[kTxns];
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int i = 0; i < kTxns; ++i) {
    threads.emplace_back([&, i] {
      auto txn = db.Begin();
      ASSERT_TRUE(txn->CreateObject(1, 2, 16, &oids[i]).ok());
      if (txn->Commit().ok()) ++ok;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(ok.load(), kTxns);
  EXPECT_GT(db.log().group_commit_batches(), 0u);

  db.SimulateCrash();
  ASSERT_TRUE(db.Recover().ok());
  for (int i = 0; i < kTxns; ++i) {
    EXPECT_TRUE(db.store().Validate(oids[i])) << i;
  }
}

TEST_F(GroupCommitTest, GroupCommitOffIsStillDurable) {
  DatabaseOptions dopt = testing::SmallDbOptions();
  dopt.commit_flush_latency = std::chrono::milliseconds(5);
  dopt.group_commit = false;
  Database db(dopt);
  ObjectId oid;
  {
    auto txn = db.Begin();
    ASSERT_TRUE(txn->CreateObject(1, 2, 16, &oid).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  EXPECT_EQ(db.log().group_commit_batches(), 0u);
  db.SimulateCrash();
  ASSERT_TRUE(db.Recover().ok());
  EXPECT_TRUE(db.store().Validate(oid));
}

// The commit record of `txn`, searched forward from its first record.
Lsn CommitLsnOf(LogManager& log, TxnId txn, Lsn from) {
  const Lsn last = log.last_lsn();
  for (Lsn lsn = from; lsn <= last; ++lsn) {
    LogRecord rec;
    if (log.GetRecord(lsn, &rec) && rec.txn == txn &&
        rec.type == LogRecordType::kCommit) {
      return lsn;
    }
  }
  return kInvalidLsn;
}

TEST_F(GroupCommitTest, ReadOnlyCommitsRaceWritersWithoutForcing) {
  // Read-only committers race writers through the group-commit daemon.
  // Readers append nothing, so they never lead or join a batch; writers
  // still see their commit record stable when Commit returns. Each writer
  // stamps its payload with (txn id, first LSN), so a reader that S-locks
  // the object right after the writer released X can find the writer's
  // commit record and check the safety argument of DESIGN.md §9: strict
  // 2PL releases X only after the force, so the reader finds it stable.
  DatabaseOptions dopt = testing::SmallDbOptions();
  dopt.commit_flush_latency = std::chrono::milliseconds(1);
  dopt.group_commit = true;
  Database db(dopt);
  LogManager& log = db.log();

  constexpr int kWriters = 3;
  constexpr int kReaders = 3;
  constexpr int kCommitsPerWriter = 40;
  constexpr uint32_t kPayload = 16;
  std::vector<ObjectId> objs(kWriters);
  {
    auto setup = db.Begin();
    for (ObjectId& o : objs) {
      ASSERT_TRUE(setup->CreateObject(1, 0, kPayload, &o).ok());
    }
    ASSERT_TRUE(setup->Commit().ok());
  }
  const uint64_t batches0 = log.group_commit_batches();
  const uint64_t absorbed0 = log.group_commit_forces_absorbed();

  std::atomic<int> writers_left{kWriters};
  std::atomic<int> writer_commits{0};
  std::atomic<int> reader_commits{0};
  std::atomic<int> stamped_reads{0};
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kCommitsPerWriter; ++i) {
        auto txn = db.Begin();
        if (!txn->Lock(objs[w], LockMode::kExclusive).ok() ||
            !txn->WriteData(objs[w], std::vector<uint8_t>(kPayload)).ok()) {
          ++violations;
          break;
        }
        std::vector<uint8_t> stamp(kPayload);
        const TxnId id = txn->id();
        const Lsn first = txn->first_lsn();
        std::memcpy(stamp.data(), &id, sizeof(id));
        std::memcpy(stamp.data() + sizeof(id), &first, sizeof(first));
        if (!txn->WriteData(objs[w], stamp).ok() || !txn->Commit().ok()) {
          ++violations;
          break;
        }
        const Lsn stable = log.stable_lsn();
        const Lsn commit = CommitLsnOf(log, id, first);
        if (commit == kInvalidLsn || commit > stable) ++violations;
        ++writer_commits;
      }
      --writers_left;
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      while (writers_left.load() > 0) {
        auto txn = db.Begin();
        for (ObjectId o : objs) {
          if (!txn->Lock(o, LockMode::kShared).ok()) {
            ++violations;
            return;
          }
          const Lsn stable = log.stable_lsn();
          std::vector<uint8_t> data;
          if (!txn->ReadData(o, &data).ok() || data.size() != kPayload) {
            ++violations;
            return;
          }
          TxnId writer;
          Lsn first;
          std::memcpy(&writer, data.data(), sizeof(writer));
          std::memcpy(&first, data.data() + sizeof(writer), sizeof(first));
          if (writer == 0) continue;  // not yet written by any writer
          const Lsn commit = CommitLsnOf(log, writer, first);
          if (commit == kInvalidLsn || commit > stable) ++violations;
          ++stamped_reads;
        }
        if (!txn->Commit().ok()) {
          ++violations;
          return;
        }
        ++reader_commits;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(writer_commits.load(), kWriters * kCommitsPerWriter);
  EXPECT_GT(reader_commits.load(), 0);
  EXPECT_GT(stamped_reads.load(), 0);
  // Every batch leader and absorbed waiter was a writer.
  EXPECT_LE((log.group_commit_batches() - batches0) +
                (log.group_commit_forces_absorbed() - absorbed0),
            static_cast<uint64_t>(writer_commits.load()));

  // Readers alone never reach the daemon.
  const uint64_t batches1 = log.group_commit_batches();
  const uint64_t absorbed1 = log.group_commit_forces_absorbed();
  const Lsn last1 = log.last_lsn();
  for (int i = 0; i < 100; ++i) {
    auto txn = db.Begin();
    ASSERT_TRUE(txn->Lock(objs[i % kWriters], LockMode::kShared).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  EXPECT_EQ(log.group_commit_batches(), batches1);
  EXPECT_EQ(log.group_commit_forces_absorbed(), absorbed1);
  EXPECT_EQ(log.last_lsn(), last1);
}

}  // namespace
}  // namespace brahma
