#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/database.h"
#include "tests/test_util.h"

namespace brahma {
namespace {

using namespace std::chrono_literals;

// Early lock release for reorganizer commits (DESIGN.md §9): a kReorg
// transaction releases its locks before its force, so a locked reader can
// see its writes before they are stable. These tests pin the rule that
// keeps that safe: a read-only commit waits for exactly the early
// releases it read, and a failed force after a release fails the log.
class EarlyReleaseTest : public ::testing::Test {
 protected:
  // A force long enough that a reader's whole transaction fits inside it.
  static constexpr auto kForce = 60ms;

  EarlyReleaseTest() : db_(Options()) {
    auto setup = db_.Begin();
    for (ObjectId& o : objs_) {
      EXPECT_TRUE(setup->CreateObject(1, 0, 8, &o).ok());
    }
    EXPECT_TRUE(setup->Commit().ok());
  }

  void TearDown() override { FailPoints::Instance().Reset(); }

  static DatabaseOptions Options() {
    DatabaseOptions opt = testing::SmallDbOptions();
    opt.group_commit = true;
    opt.commit_flush_latency = kForce;
    return opt;
  }

  // A reorganizer transaction that X-locks and rewrites `oid`; nothing
  // else appends, so its commit record will be the next LSN.
  std::unique_ptr<Transaction> ReorgWriter(ObjectId oid) {
    auto txn = db_.Begin(LogSource::kReorg);
    EXPECT_TRUE(txn->Lock(oid, LockMode::kExclusive).ok());
    EXPECT_TRUE(txn->WriteData(oid, std::vector<uint8_t>(8, 7)).ok());
    return txn;
  }

  // Blocks until `txn` no longer holds oid's lock in the shared table.
  void AwaitRelease(TxnId txn, ObjectId oid) {
    while (db_.locks().IsHeld(txn, oid)) std::this_thread::sleep_for(100us);
  }

  Database db_;
  ObjectId objs_[2];
};

TEST_F(EarlyReleaseTest, ReadOnlyCommitWaitsForTheReleaseItRead) {
  auto reorg = ReorgWriter(objs_[0]);
  const TxnId reorg_id = reorg->id();
  const Lsn commit_lsn = db_.log().last_lsn() + 1;  // its commit record
  std::atomic<bool> reorg_ok{false};
  std::thread committer([&] { reorg_ok = reorg->Commit().ok(); });
  AwaitRelease(reorg_id, objs_[0]);

  auto reader = db_.Begin();
  ASSERT_TRUE(reader->Lock(objs_[0], LockMode::kShared).ok());
  std::vector<uint8_t> data;
  ASSERT_TRUE(reader->ReadData(objs_[0], &data).ok());
  EXPECT_EQ(data, std::vector<uint8_t>(8, 7));  // the released write
  // The lock came before the migration's commit was stable: it was
  // released early.
  EXPECT_LT(db_.log().stable_lsn(), commit_lsn);
  ASSERT_TRUE(reader->Commit().ok());
  // What the reader saw is durable by the time its commit returns.
  EXPECT_GE(db_.log().stable_lsn(), commit_lsn);

  committer.join();
  EXPECT_TRUE(reorg_ok.load());
  EXPECT_GE(db_.log().stable_lsn(), commit_lsn);
  EXPECT_EQ(db_.locks().NumLockedObjects(), 0u);
}

TEST_F(EarlyReleaseTest, ReadOnlyCommitThatReadNoReleaseDoesNotWait) {
  auto reorg = ReorgWriter(objs_[0]);
  const TxnId reorg_id = reorg->id();
  const Lsn commit_lsn = db_.log().last_lsn() + 1;  // its commit record
  std::atomic<bool> reorg_ok{false};
  std::thread committer([&] { reorg_ok = reorg->Commit().ok(); });
  AwaitRelease(reorg_id, objs_[0]);

  // Reads only an object the migration never touched: nothing it saw
  // waits on the migration's force, so neither does its commit.
  auto reader = db_.Begin();
  ASSERT_TRUE(reader->Lock(objs_[1], LockMode::kShared).ok());
  std::vector<uint8_t> data;
  ASSERT_TRUE(reader->ReadData(objs_[1], &data).ok());
  ASSERT_TRUE(reader->Commit().ok());
  EXPECT_LT(db_.log().stable_lsn(), commit_lsn);

  committer.join();
  EXPECT_TRUE(reorg_ok.load());
  EXPECT_GE(db_.log().stable_lsn(), commit_lsn);
}

TEST_F(EarlyReleaseTest, ReleaseIsForgottenOnceStable) {
  // After the migration's commit is stable, a reader of its object finds
  // no early release to wait for and never reaches the log.
  auto reorg = ReorgWriter(objs_[0]);
  ASSERT_TRUE(reorg->Commit().ok());
  const uint64_t batches = db_.log().group_commit_batches();
  auto reader = db_.Begin();
  ASSERT_TRUE(reader->Lock(objs_[0], LockMode::kShared).ok());
  ASSERT_TRUE(reader->Commit().ok());
  EXPECT_EQ(db_.log().group_commit_batches(), batches);
}

TEST_F(EarlyReleaseTest, FailedForceAfterReleaseAcknowledgesNoLaterCommit) {
  // The migration's own force fails after it released its locks. Others
  // may already have read its writes, so the log is failed: no later
  // commit, writer or reader, is acknowledged, and nothing becomes stable.
  ASSERT_TRUE(FailPoints::Instance()
                  .ArmFromString("wal:group-commit:after-force=crash.times(1)")
                  .ok());
  const Lsn stable0 = db_.log().stable_lsn();
  auto reorg = ReorgWriter(objs_[0]);
  Status s = reorg->Commit();
  EXPECT_TRUE(s.IsCrashed()) << s.ToString();
  EXPECT_EQ(reorg->state(), Transaction::State::kCommitted);  // released
  EXPECT_TRUE(db_.log().failed());

  auto writer = db_.Begin();
  ASSERT_TRUE(writer->Lock(objs_[1], LockMode::kExclusive).ok());
  ASSERT_TRUE(writer->WriteData(objs_[1], std::vector<uint8_t>(8, 1)).ok());
  EXPECT_FALSE(writer->Commit().ok());

  auto reader = db_.Begin();
  ASSERT_TRUE(reader->Lock(objs_[0], LockMode::kShared).ok());
  EXPECT_FALSE(reader->Commit().ok());
  EXPECT_EQ(db_.log().stable_lsn(), stable0);
  writer->Abandon();
  reader->Abandon();

  // Restart: the migration never became durable, and the log works again.
  db_.SimulateCrash();
  ASSERT_TRUE(db_.Recover().ok());
  EXPECT_FALSE(db_.log().failed());
  auto after = db_.Begin();
  ASSERT_TRUE(after->Lock(objs_[0], LockMode::kShared).ok());
  std::vector<uint8_t> data;
  ASSERT_TRUE(after->ReadData(objs_[0], &data).ok());
  EXPECT_EQ(data, std::vector<uint8_t>(8, 0));
  ASSERT_TRUE(after->Commit().ok());
}

TEST_F(EarlyReleaseTest, CrashBetweenReleaseAndForceFailsTheLog) {
  // The failpoint site between the release and the force: the locks are
  // gone, the commit is not stable, and the process counts as crashed.
  ASSERT_TRUE(FailPoints::Instance()
                  .ArmFromString("txn:early-release:before-force=crash")
                  .ok());
  auto reorg = ReorgWriter(objs_[0]);
  const TxnId reorg_id = reorg->id();
  EXPECT_TRUE(reorg->Commit().IsCrashed());
  EXPECT_FALSE(db_.locks().IsHeld(reorg_id, objs_[0]));
  EXPECT_TRUE(db_.log().failed());
  FailPoints::Instance().Reset();
  db_.SimulateCrash();
  ASSERT_TRUE(db_.Recover().ok());
  auto after = db_.Begin();
  ASSERT_TRUE(after->Lock(objs_[0], LockMode::kShared).ok());
  std::vector<uint8_t> data;
  ASSERT_TRUE(after->ReadData(objs_[0], &data).ok());
  EXPECT_EQ(data, std::vector<uint8_t>(8, 0));
}

}  // namespace
}  // namespace brahma
