#include "txn/transaction.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/database.h"
#include "tests/test_util.h"

namespace brahma {
namespace {

using namespace std::chrono_literals;

class TransactionTest : public ::testing::Test {
 protected:
  TransactionTest() : db_(testing::SmallDbOptions()) {}

  Database db_;
};

TEST_F(TransactionTest, CreateLocksAndCommitsReleases) {
  auto txn = db_.Begin();
  ObjectId oid;
  ASSERT_TRUE(txn->CreateObject(1, 2, 16, &oid).ok());
  EXPECT_TRUE(db_.locks().IsHeld(txn->id(), oid));
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(db_.locks().NumLockedObjects(), 0u);
  EXPECT_TRUE(db_.store().Validate(oid));
}

TEST(CompletionHookTest, TruncationHookRunsAfterLocksAreReleased) {
  // The TRT purge hook runs while the completing writer still holds its
  // locks; the log-truncation hook runs once they are released and the
  // writer is deregistered, so its lock waiters never wait out the frees.
  // A transaction that logged nothing runs neither.
  ObjectId oid;
  TxnId id = kInvalidTxn;
  bool held_at_complete = false;
  bool active_at_complete = false;
  bool held_at_released = true;
  bool active_at_released = true;
  int completed = 0;
  int released = 0;
  Database db(testing::SmallDbOptions());  // outlived by what hooks capture
  db.txns().SetCompletionHooks(
      [&](TxnId t, bool) {
        ++completed;
        held_at_complete = db.locks().IsHeld(t, oid);
        active_at_complete = db.txns().IsActive(t);
      },
      [&] {
        ++released;
        held_at_released = db.locks().IsHeld(id, oid);
        active_at_released = db.txns().IsActive(id);
      });
  auto txn = db.Begin();
  id = txn->id();
  ASSERT_TRUE(txn->CreateObject(1, 2, 16, &oid).ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(released, 1);
  EXPECT_TRUE(held_at_complete);
  EXPECT_TRUE(active_at_complete);
  EXPECT_FALSE(held_at_released);
  EXPECT_FALSE(active_at_released);

  auto reader = db.Begin();
  ASSERT_TRUE(reader->Lock(oid, LockMode::kShared).ok());
  ASSERT_TRUE(reader->Commit().ok());
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(released, 1);
}

TEST_F(TransactionTest, UpdatesRequireLocks) {
  ObjectId oid;
  {
    auto txn = db_.Begin();
    ASSERT_TRUE(txn->CreateObject(1, 2, 16, &oid).ok());
    txn->Commit();
  }
  auto txn = db_.Begin();
  // No lock: every access fails.
  std::vector<ObjectId> refs;
  EXPECT_FALSE(txn->ReadRefs(oid, &refs).ok());
  EXPECT_FALSE(txn->SetRef(oid, 0, ObjectId()).ok());
  // Shared lock: reads fine, writes rejected.
  ASSERT_TRUE(txn->Lock(oid, LockMode::kShared).ok());
  EXPECT_TRUE(txn->ReadRefs(oid, &refs).ok());
  EXPECT_FALSE(txn->WriteData(oid, std::vector<uint8_t>(16)).ok());
  // Upgrade: writes allowed.
  ASSERT_TRUE(txn->Lock(oid, LockMode::kExclusive).ok());
  EXPECT_TRUE(txn->WriteData(oid, std::vector<uint8_t>(16, 1)).ok());
  txn->Commit();
}

TEST_F(TransactionTest, SetRefAndReadBack) {
  auto txn = db_.Begin();
  ObjectId a, b;
  ASSERT_TRUE(txn->CreateObject(1, 2, 8, &a).ok());
  ASSERT_TRUE(txn->CreateObject(1, 0, 8, &b).ok());
  ASSERT_TRUE(txn->SetRef(a, 0, b).ok());
  ObjectId got;
  ASSERT_TRUE(txn->ReadRef(a, 0, &got).ok());
  EXPECT_EQ(got, b);
  EXPECT_FALSE(txn->SetRef(a, 5, b).ok());  // bad slot
  txn->Commit();
}

TEST_F(TransactionTest, LocalMemoryTracksCopiedRefs) {
  ObjectId a, b;
  {
    auto setup = db_.Begin();
    ASSERT_TRUE(setup->CreateObject(1, 1, 8, &a).ok());
    ASSERT_TRUE(setup->CreateObject(1, 0, 8, &b).ok());
    ASSERT_TRUE(setup->SetRef(a, 0, b).ok());
    setup->Commit();
  }
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Lock(a, LockMode::kShared).ok());
  std::vector<ObjectId> refs;
  ASSERT_TRUE(txn->ReadRefs(a, &refs).ok());
  ASSERT_EQ(txn->local_refs().size(), 1u);
  EXPECT_EQ(txn->local_refs()[0], b);
  txn->Commit();
}

TEST_F(TransactionTest, AbortUndoesSetRef) {
  ObjectId a, b, c;
  {
    auto setup = db_.Begin();
    ASSERT_TRUE(setup->CreateObject(1, 1, 8, &a).ok());
    ASSERT_TRUE(setup->CreateObject(1, 0, 8, &b).ok());
    ASSERT_TRUE(setup->CreateObject(1, 0, 8, &c).ok());
    ASSERT_TRUE(setup->SetRef(a, 0, b).ok());
    setup->Commit();
  }
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Lock(a, LockMode::kExclusive).ok());
  ASSERT_TRUE(txn->SetRef(a, 0, c).ok());
  txn->Abort();
  auto check = db_.Begin();
  ASSERT_TRUE(check->Lock(a, LockMode::kShared).ok());
  ObjectId got;
  ASSERT_TRUE(check->ReadRef(a, 0, &got).ok());
  EXPECT_EQ(got, b);  // restored
  check->Commit();
}

TEST_F(TransactionTest, AbortUndoesDataAndCreate) {
  ObjectId a;
  std::vector<uint8_t> original(16, 7);
  {
    auto setup = db_.Begin();
    ASSERT_TRUE(setup->CreateObject(1, 0, 16, &a).ok());
    ASSERT_TRUE(setup->WriteData(a, original).ok());
    setup->Commit();
  }
  ObjectId created;
  {
    auto txn = db_.Begin();
    ASSERT_TRUE(txn->Lock(a, LockMode::kExclusive).ok());
    ASSERT_TRUE(txn->WriteData(a, std::vector<uint8_t>(16, 9)).ok());
    ASSERT_TRUE(txn->CreateObject(1, 0, 8, &created).ok());
    txn->Abort();
  }
  EXPECT_FALSE(db_.store().Validate(created));  // creation rolled back
  auto check = db_.Begin();
  ASSERT_TRUE(check->Lock(a, LockMode::kShared).ok());
  std::vector<uint8_t> data;
  ASSERT_TRUE(check->ReadData(a, &data).ok());
  EXPECT_EQ(data, original);
  check->Commit();
}

TEST_F(TransactionTest, AbortUndoesFree) {
  ObjectId a, b;
  {
    auto setup = db_.Begin();
    ASSERT_TRUE(setup->CreateObject(1, 1, 8, &a).ok());
    ASSERT_TRUE(setup->CreateObject(1, 0, 8, &b).ok());
    ASSERT_TRUE(setup->SetRef(a, 0, b).ok());
    ASSERT_TRUE(setup->WriteData(a, std::vector<uint8_t>(8, 3)).ok());
    setup->Commit();
  }
  {
    auto txn = db_.Begin();
    ASSERT_TRUE(txn->Lock(a, LockMode::kExclusive).ok());
    ASSERT_TRUE(txn->FreeObject(a).ok());
    EXPECT_FALSE(db_.store().Validate(a));
    txn->Abort();
  }
  ASSERT_TRUE(db_.store().Validate(a));
  const ObjectHeader* h = db_.store().Get(a);
  EXPECT_EQ(h->refs()[0], b);
  EXPECT_EQ(h->data()[0], 3);
}

TEST_F(TransactionTest, DestructorAbortsActiveTxn) {
  ObjectId a;
  {
    auto txn = db_.Begin();
    ASSERT_TRUE(txn->CreateObject(1, 0, 8, &a).ok());
    // No commit: destructor must abort and undo.
  }
  EXPECT_FALSE(db_.store().Validate(a));
  EXPECT_EQ(db_.locks().NumLockedObjects(), 0u);
}

TEST_F(TransactionTest, StaleReferenceDetected) {
  ObjectId a;
  {
    auto setup = db_.Begin();
    ASSERT_TRUE(setup->CreateObject(1, 0, 8, &a).ok());
    setup->Commit();
  }
  {
    auto freeer = db_.Begin();
    ASSERT_TRUE(freeer->Lock(a, LockMode::kExclusive).ok());
    ASSERT_TRUE(freeer->FreeObject(a).ok());
    freeer->Commit();
  }
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Lock(a, LockMode::kExclusive).ok());  // lock by id works
  std::vector<ObjectId> refs;
  EXPECT_TRUE(txn->ReadRefs(a, &refs).IsAborted());
  txn->Abort();
}

TEST_F(TransactionTest, WalOrderUndoBeforeUpdate) {
  // The log record must exist before the update is visible (WAL): verify
  // via the synchronous observer that at append time the object still
  // holds the old value.
  ObjectId a, b;
  {
    auto setup = db_.Begin();
    ASSERT_TRUE(setup->CreateObject(1, 1, 8, &a).ok());
    ASSERT_TRUE(setup->CreateObject(1, 0, 8, &b).ok());
    setup->Commit();
  }
  bool checked = false;
  db_.log().SetAppendObserver([&](const LogRecord& rec) {
    if (rec.type == LogRecordType::kSetRef && rec.oid == a) {
      const ObjectHeader* h = db_.store().Get(a);
      EXPECT_EQ(h->refs()[rec.slot], rec.old_ref);  // not yet applied
      checked = true;
    }
  });
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Lock(a, LockMode::kExclusive).ok());
  ASSERT_TRUE(txn->SetRef(a, 0, b).ok());
  txn->Commit();
  db_.log().SetAppendObserver(nullptr);
  EXPECT_TRUE(checked);
}

TEST_F(TransactionTest, CommitFlushesLog) {
  auto txn = db_.Begin();
  ObjectId a;
  ASSERT_TRUE(txn->CreateObject(1, 0, 8, &a).ok());
  Lsn before = db_.log().stable_lsn();
  txn->Commit();
  EXPECT_GT(db_.log().stable_lsn(), before);
  EXPECT_EQ(db_.log().stable_lsn(), db_.log().last_lsn());
}

// Read-only transactions leave no trace in the log (DESIGN.md §9): no
// commit record, no force, no abort record. The 50 ms modeled force makes
// "did not wait for a force" visible in wall time.
class ReadOnlyTxnTest : public ::testing::Test {
 protected:
  static constexpr auto kForce = std::chrono::milliseconds(50);

  ReadOnlyTxnTest() : db_(SlowForceOptions()) {
    auto setup = db_.Begin();
    EXPECT_TRUE(setup->CreateObject(1, 2, 16, &a_).ok());
    EXPECT_TRUE(setup->CreateObject(1, 2, 16, &b_).ok());
    EXPECT_TRUE(setup->Commit().ok());
  }
  void TearDown() override { FailPoints::Instance().Reset(); }

  static DatabaseOptions SlowForceOptions() {
    DatabaseOptions opt = testing::SmallDbOptions();
    opt.commit_flush_latency = kForce;
    return opt;
  }

  // S-locks and reads both objects.
  void ReadBoth(Transaction* txn) {
    std::vector<ObjectId> refs;
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(txn->Lock(a_, LockMode::kShared).ok());
    ASSERT_TRUE(txn->ReadRefs(a_, &refs).ok());
    ASSERT_TRUE(txn->Lock(b_, LockMode::kShared).ok());
    ASSERT_TRUE(txn->ReadData(b_, &bytes).ok());
  }

  Database db_;
  ObjectId a_, b_;
};

TEST_F(ReadOnlyTxnTest, CommitSkipsRecordAndForce) {
  auto txn = db_.Begin();
  TxnId id = txn->id();
  ReadBoth(txn.get());
  ASSERT_EQ(txn->first_lsn(), kInvalidLsn);
  const Lsn last = db_.log().last_lsn();
  const Lsn stable = db_.log().stable_lsn();
  const uint64_t batches = db_.log().group_commit_batches();

  auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(txn->Commit().ok());
  auto elapsed = std::chrono::steady_clock::now() - t0;

  EXPECT_LT(elapsed, kForce / 2);
  EXPECT_EQ(txn->state(), Transaction::State::kCommitted);
  EXPECT_EQ(db_.log().last_lsn(), last);
  EXPECT_EQ(db_.log().stable_lsn(), stable);
  EXPECT_EQ(db_.log().group_commit_batches(), batches);
  EXPECT_FALSE(db_.locks().IsHeld(id, a_));
  EXPECT_FALSE(db_.locks().IsHeld(id, b_));
  EXPECT_EQ(db_.locks().NumLockedObjects(), 0u);
  EXPECT_FALSE(db_.txns().IsActive(id));
}

TEST_F(ReadOnlyTxnTest, AbortAppendsNothing) {
  auto txn = db_.Begin();
  TxnId id = txn->id();
  ReadBoth(txn.get());
  const Lsn last = db_.log().last_lsn();
  const size_t records = db_.log().NumRecords();
  ASSERT_TRUE(txn->Abort().ok());
  EXPECT_EQ(txn->state(), Transaction::State::kAborted);
  EXPECT_EQ(db_.log().last_lsn(), last);
  EXPECT_EQ(db_.log().NumRecords(), records);
  EXPECT_EQ(db_.locks().NumLockedObjects(), 0u);
  EXPECT_FALSE(db_.txns().IsActive(id));
}

TEST_F(ReadOnlyTxnTest, CommitBeginFailpointStillFires) {
  // txn:commit:begin fires on every commit; txn:commit:before-flush only
  // when a commit record was appended.
  FailPoints& fp = FailPoints::Instance();
  fp.Reset();
  fp.set_tracing(true);
  auto txn = db_.Begin();
  ReadBoth(txn.get());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(fp.hits("txn:commit:begin"), 1u);
  EXPECT_EQ(fp.hits("txn:commit:before-flush"), 0u);

  // An armed begin site still fails a read-only commit.
  ASSERT_TRUE(fp.ArmFromString("txn:commit:begin=error(aborted)").ok());
  auto failed = db_.Begin();
  ReadBoth(failed.get());
  EXPECT_FALSE(failed->Commit().ok());
  EXPECT_EQ(failed->state(), Transaction::State::kActive);
  ASSERT_TRUE(failed->Abort().ok());
}

TEST_F(TransactionTest, EarlyUnlockAllowed) {
  ObjectId a;
  {
    auto setup = db_.Begin();
    ASSERT_TRUE(setup->CreateObject(1, 0, 8, &a).ok());
    setup->Commit();
  }
  auto t1 = db_.Begin();
  ASSERT_TRUE(t1->Lock(a, LockMode::kExclusive).ok());
  t1->Unlock(a);
  // Another transaction can lock it immediately.
  auto t2 = db_.Begin();
  EXPECT_TRUE(t2->Lock(a, LockMode::kExclusive).ok());
  t2->Commit();
  t1->Commit();
}

TEST_F(TransactionTest, LockConflictTimesOut) {
  ObjectId a;
  {
    auto setup = db_.Begin();
    ASSERT_TRUE(setup->CreateObject(1, 0, 8, &a).ok());
    setup->Commit();
  }
  auto t1 = db_.Begin();
  ASSERT_TRUE(t1->Lock(a, LockMode::kExclusive).ok());
  auto t2 = db_.Begin();
  EXPECT_TRUE(t2->LockWithTimeout(a, LockMode::kShared, 50ms).IsTimedOut());
  t2->Abort();
  t1->Commit();
}

TEST_F(TransactionTest, FreeWithoutLockOnlyForReorg) {
  ObjectId a;
  {
    auto setup = db_.Begin();
    ASSERT_TRUE(setup->CreateObject(1, 0, 8, &a).ok());
    setup->Commit();
  }
  auto user = db_.Begin(LogSource::kUser);
  EXPECT_FALSE(user->FreeObject(a).ok());
  user->Abort();
  ASSERT_TRUE(db_.store().Validate(a));
  auto reorg = db_.Begin(LogSource::kReorg);
  EXPECT_TRUE(reorg->FreeObject(a).ok());
  reorg->Commit();
  EXPECT_FALSE(db_.store().Validate(a));
}

TEST_F(TransactionTest, ActiveSetAndWait) {
  auto txn = db_.Begin();
  TxnId id = txn->id();
  EXPECT_TRUE(db_.txns().IsActive(id));
  auto active = db_.txns().ActiveTxns();
  EXPECT_NE(std::find(active.begin(), active.end(), id), active.end());
  txn->Commit();
  EXPECT_FALSE(db_.txns().IsActive(id));
  db_.txns().WaitForTxn(id);  // returns immediately
}

// --- the held-mode table ---------------------------------------------------
//
// A transaction answers "do I hold oid, and in which mode?" from its own
// table instead of the shared lock table (DESIGN.md §10). These tests fail
// if that table ever says "held" where the lock table does not.

class HeldModeTest : public TransactionTest {
 protected:
  HeldModeTest() {
    auto setup = db_.Begin();
    EXPECT_TRUE(setup->CreateObject(1, 1, 8, &a_).ok());
    EXPECT_TRUE(setup->Commit().ok());
  }
  void TearDown() override { FailPoints::Instance().Reset(); }

  // Every accessor on a_ fails with Internal ("accessed without lock").
  void ExpectNoAccess(Transaction* txn) {
    std::vector<ObjectId> refs;
    std::vector<uint8_t> bytes;
    ObjectId ref;
    EXPECT_TRUE(txn->ReadRefs(a_, &refs).IsInternal());
    EXPECT_TRUE(txn->ReadRef(a_, 0, &ref).IsInternal());
    EXPECT_TRUE(txn->ReadData(a_, &bytes).IsInternal());
    EXPECT_TRUE(txn->SetRef(a_, 0, ObjectId()).IsInternal());
    EXPECT_TRUE(txn->WriteData(a_, std::vector<uint8_t>(8)).IsInternal());
    EXPECT_FALSE(txn->Holds(a_));
  }

  ObjectId a_;
};

TEST_F(HeldModeTest, AccessAfterUnlockFails) {
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Lock(a_, LockMode::kExclusive).ok());
  ASSERT_TRUE(txn->WriteData(a_, std::vector<uint8_t>(8, 1)).ok());
  txn->Unlock(a_);
  EXPECT_FALSE(db_.locks().IsHeld(txn->id(), a_));
  ExpectNoAccess(txn.get());
  ASSERT_TRUE(txn->Commit().ok());
}

TEST_F(HeldModeTest, AccessAfterCommitFails) {
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Lock(a_, LockMode::kShared).ok());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(txn->ReadData(a_, &bytes).ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(db_.locks().NumLockedObjects(), 0u);
  ExpectNoAccess(txn.get());
}

TEST_F(HeldModeTest, FailedUpgradeByTimeoutKeepsShared) {
  auto t1 = db_.Begin();
  auto t2 = db_.Begin();
  ASSERT_TRUE(t1->Lock(a_, LockMode::kShared).ok());
  ASSERT_TRUE(t2->Lock(a_, LockMode::kShared).ok());
  EXPECT_TRUE(t1->LockWithTimeout(a_, LockMode::kExclusive, 30ms).IsTimedOut());
  EXPECT_TRUE(t1->WriteData(a_, std::vector<uint8_t>(8)).IsInternal());
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(t1->ReadData(a_, &bytes).ok());
  LockMode m;
  ASSERT_TRUE(db_.locks().IsHeld(t1->id(), a_, &m));
  EXPECT_EQ(m, LockMode::kShared);
  ASSERT_TRUE(t2->Commit().ok());
  ASSERT_TRUE(t1->Commit().ok());
}

TEST_F(HeldModeTest, FailedUpgradeByDeadlockKeepsShared) {
  // Both hold S and both ask for X: the younger rival (same cost
  // otherwise) is fast-failed as the deadlock victim, whichever arrives
  // first.
  auto older = db_.Begin();
  auto younger = db_.Begin();
  ASSERT_TRUE(older->Lock(a_, LockMode::kShared).ok());
  ASSERT_TRUE(younger->Lock(a_, LockMode::kShared).ok());
  Status older_upgrade;
  std::thread t([&] {
    older_upgrade = older->LockWithTimeout(a_, LockMode::kExclusive, 5000ms);
  });
  Status s = younger->LockWithTimeout(a_, LockMode::kExclusive, 5000ms);
  EXPECT_TRUE(s.IsDeadlockVictim()) << s.ToString();
  EXPECT_TRUE(younger->WriteData(a_, std::vector<uint8_t>(8)).IsInternal());
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(younger->ReadData(a_, &bytes).ok());
  ASSERT_TRUE(younger->Abort().ok());
  t.join();
  ASSERT_TRUE(older_upgrade.ok()) << older_upgrade.ToString();
  EXPECT_TRUE(older->WriteData(a_, std::vector<uint8_t>(8, 2)).ok());
  ASSERT_TRUE(older->Commit().ok());
}

TEST_F(HeldModeTest, AbandonedTxnFailsRequireHeld) {
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Lock(a_, LockMode::kExclusive).ok());
  txn->Abandon();
  // Crash semantics: the lock stays in the shared table, but the
  // abandoned transaction no longer owns it.
  EXPECT_TRUE(db_.locks().IsHeld(txn->id(), a_));
  ExpectNoAccess(txn.get());
  db_.SimulateCrash();
  ASSERT_TRUE(db_.Recover().ok());
}

TEST_F(HeldModeTest, TxnOutstandingAcrossCrashFailsRequireHeld) {
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Lock(a_, LockMode::kExclusive).ok());
  ASSERT_TRUE(txn->WriteData(a_, std::vector<uint8_t>(8, 4)).ok());
  db_.SimulateCrash();
  EXPECT_EQ(db_.locks().NumLockedObjects(), 0u);
  ExpectNoAccess(txn.get());
  txn->Abandon();
  ASSERT_TRUE(db_.Recover().ok());
}

TEST_F(HeldModeTest, ReentrantLockSkipsLockTable) {
  FailPoints& fp = FailPoints::Instance();
  fp.Reset();
  fp.set_tracing(true);
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Lock(a_, LockMode::kShared).ok());
  EXPECT_EQ(fp.hits("lock:acquire"), 1u);
  ASSERT_TRUE(txn->Lock(a_, LockMode::kShared).ok());
  EXPECT_EQ(fp.hits("lock:acquire"), 1u);
  // With every acquisition failing, a re-entrant S still succeeds (it
  // never reaches the lock table) while the upgrade fails and leaves S.
  ASSERT_TRUE(fp.ArmFromString("lock:acquire=timeout").ok());
  EXPECT_TRUE(txn->Lock(a_, LockMode::kShared).ok());
  EXPECT_FALSE(txn->Lock(a_, LockMode::kExclusive).ok());
  EXPECT_TRUE(txn->WriteData(a_, std::vector<uint8_t>(8)).IsInternal());
  fp.Reset();
  fp.set_tracing(true);
  ASSERT_TRUE(txn->Lock(a_, LockMode::kExclusive).ok());
  EXPECT_EQ(fp.hits("lock:acquire"), 1u);
  // X covers both modes.
  ASSERT_TRUE(txn->Lock(a_, LockMode::kShared).ok());
  ASSERT_TRUE(txn->Lock(a_, LockMode::kExclusive).ok());
  EXPECT_EQ(fp.hits("lock:acquire"), 1u);
  EXPECT_TRUE(txn->WriteData(a_, std::vector<uint8_t>(8, 5)).ok());
  ASSERT_TRUE(txn->Commit().ok());
}

TEST_F(TransactionTest, ManyHeldLocksStayExact) {
  // Past the linear-scan size the table switches to a hash index; Unlock
  // in the middle must keep every other entry findable.
  constexpr int kObjects = 200;
  std::vector<ObjectId> oids(kObjects);
  {
    auto setup = db_.Begin();
    for (ObjectId& oid : oids) {
      ASSERT_TRUE(setup->CreateObject(1, 0, 8, &oid).ok());
    }
    ASSERT_TRUE(setup->Commit().ok());
  }
  auto txn = db_.Begin();
  for (int i = 0; i < kObjects; ++i) {
    LockMode mode = i % 2 == 0 ? LockMode::kShared : LockMode::kExclusive;
    ASSERT_TRUE(txn->Lock(oids[i], mode).ok());
  }
  for (int i = 0; i < kObjects; i += 3) txn->Unlock(oids[i]);
  std::vector<uint8_t> bytes;
  for (int i = 0; i < kObjects; ++i) {
    const bool held = i % 3 != 0;
    EXPECT_EQ(txn->Holds(oids[i]), held) << i;
    EXPECT_EQ(db_.locks().IsHeld(txn->id(), oids[i]), held) << i;
    EXPECT_EQ(txn->ReadData(oids[i], &bytes).ok(), held) << i;
    EXPECT_EQ(txn->WriteData(oids[i], std::vector<uint8_t>(8)).ok(),
              held && i % 2 == 1)
        << i;
  }
  EXPECT_EQ(txn->num_locks_held(), static_cast<size_t>(kObjects - 67));
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(db_.locks().NumLockedObjects(), 0u);
}

TEST_F(TransactionTest, FirstLsnFloorVisibleWhileFirstRecordAppends) {
  // The append observer runs inside Append, after the record is in the
  // log and before Append returns. A log truncation running at that
  // instant must already see a floor at or below the record.
  ObjectId a;
  {
    auto setup = db_.Begin();
    ASSERT_TRUE(setup->CreateObject(1, 0, 8, &a).ok());
    ASSERT_TRUE(setup->Commit().ok());
  }
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Lock(a, LockMode::kExclusive).ok());
  const TxnId id = txn->id();
  bool checked = false;
  db_.log().SetAppendObserver([&](const LogRecord& rec) {
    if (rec.txn != id || checked) return;
    checked = true;
    const Lsn floor = db_.txns().MinActiveFirstLsn();
    EXPECT_NE(floor, kInvalidLsn);
    EXPECT_LE(floor, rec.lsn);
  });
  ASSERT_TRUE(txn->WriteData(a, std::vector<uint8_t>(8, 1)).ok());
  db_.log().SetAppendObserver(nullptr);
  EXPECT_TRUE(checked);
  EXPECT_EQ(txn->first_lsn(), db_.log().last_lsn());
  ASSERT_TRUE(txn->Commit().ok());
}

// --- the sharded registry ----------------------------------------------------
//
// Churn threads run Begin/Commit while a checker thread takes ActiveTxns()
// and waits on it. Eight pinned transactions, held open by this thread,
// must all be in the snapshot; WaitForAll must not return before each of
// them completes; and MinActiveFirstLsn must be the minimum over every
// shard, even when the oldest record belongs to the last-begun txn.
TEST_F(TransactionTest, ShardedRegistrySnapshotAndWait) {
  constexpr int kPinned = 8;
  constexpr int kChurners = 3;
  std::vector<ObjectId> pinned_obj(kPinned), churn_obj(kChurners);
  {
    auto setup = db_.Begin();
    for (ObjectId& o : pinned_obj) {
      ASSERT_TRUE(setup->CreateObject(1, 0, 8, &o).ok());
    }
    for (ObjectId& o : churn_obj) {
      ASSERT_TRUE(setup->CreateObject(1, 0, 8, &o).ok());
    }
    ASSERT_TRUE(setup->Commit().ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> churned{0};
  std::vector<std::thread> churners;
  for (int c = 0; c < kChurners; ++c) {
    churners.emplace_back([&, c] {
      std::vector<uint8_t> bytes;
      while (!stop.load()) {
        auto txn = db_.Begin();
        ASSERT_TRUE(txn->Lock(churn_obj[c], LockMode::kShared).ok());
        ASSERT_TRUE(txn->ReadData(churn_obj[c], &bytes).ok());
        ASSERT_TRUE(txn->Commit().ok());
        churned.fetch_add(1);
      }
    });
  }

  // Begin the pinned transactions among the churn, then log in reverse
  // order so the smallest first LSN belongs to the last one begun.
  std::vector<std::unique_ptr<Transaction>> pinned;
  for (int i = 0; i < kPinned; ++i) {
    pinned.push_back(db_.Begin());
    std::this_thread::sleep_for(1ms);
  }
  for (int i = kPinned - 1; i >= 0; --i) {
    ASSERT_TRUE(pinned[i]->Lock(pinned_obj[i], LockMode::kExclusive).ok());
    ASSERT_TRUE(
        pinned[i]->WriteData(pinned_obj[i], std::vector<uint8_t>(8, 1)).ok());
  }
  auto min_pinned_first_lsn = [&pinned](size_t from) {
    Lsn m = kInvalidLsn;
    for (size_t i = from; i < pinned.size(); ++i) {
      Lsn f = pinned[i]->first_lsn();
      if (m == kInvalidLsn || f < m) m = f;
    }
    return m;
  };
  ASSERT_EQ(min_pinned_first_lsn(0), pinned[kPinned - 1]->first_lsn());
  EXPECT_EQ(db_.txns().MinActiveFirstLsn(), min_pinned_first_lsn(0));

  std::vector<TxnId> snapshot;
  std::atomic<bool> have_snapshot{false};
  std::atomic<bool> waited{false};
  std::thread checker([&] {
    snapshot = db_.txns().ActiveTxns();
    have_snapshot.store(true);
    db_.txns().WaitForAll(snapshot);
    waited.store(true);
  });
  while (!have_snapshot.load()) std::this_thread::yield();
  for (const auto& txn : pinned) {
    EXPECT_NE(std::find(snapshot.begin(), snapshot.end(), txn->id()),
              snapshot.end())
        << txn->id();
  }

  // Commit oldest-begun first; the minimum moves only when the owner of
  // the smallest first LSN (the last one) completes.
  for (int i = 0; i < kPinned; ++i) {
    std::this_thread::sleep_for(2ms);
    EXPECT_FALSE(waited.load()) << "returned before pinned txn " << i;
    EXPECT_EQ(db_.txns().MinActiveFirstLsn(), min_pinned_first_lsn(i));
    ASSERT_TRUE(pinned[i]->Commit().ok());
  }
  checker.join();
  for (TxnId id : snapshot) EXPECT_FALSE(db_.txns().IsActive(id)) << id;

  stop.store(true);
  for (std::thread& t : churners) t.join();
  EXPECT_GT(churned.load(), 0u);
  EXPECT_EQ(db_.txns().MinActiveFirstLsn(), kInvalidLsn);
  EXPECT_TRUE(db_.txns().ActiveTxns().empty());
  EXPECT_EQ(db_.locks().NumLockedObjects(), 0u);
}

}  // namespace
}  // namespace brahma
