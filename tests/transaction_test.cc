#include "txn/transaction.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace brahma
