#include "wal/recovery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/file_util.h"
#include "core/database.h"
#include "tests/test_util.h"
#include "workload/graph_builder.h"

namespace brahma {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() : db_(testing::SmallDbOptions()) {}

  ObjectId CreateCommitted(PartitionId p, uint32_t num_refs = 2) {
    auto txn = db_.Begin();
    ObjectId oid;
    EXPECT_TRUE(txn->CreateObject(p, num_refs, 8, &oid).ok());
    txn->Commit();
    return oid;
  }

  Database db_;
};

TEST_F(RecoveryTest, RedoFromEmptyLogRebuildsEverything) {
  ObjectId a = CreateCommitted(1);
  ObjectId b = CreateCommitted(2);
  {
    auto txn = db_.Begin();
    ASSERT_TRUE(txn->Lock(a, LockMode::kExclusive).ok());
    ASSERT_TRUE(txn->SetRef(a, 0, b).ok());
    ASSERT_TRUE(txn->WriteData(a, std::vector<uint8_t>(8, 0x5A)).ok());
    txn->Commit();
  }
  db_.SimulateCrash();
  ASSERT_TRUE(db_.Recover().ok());
  ASSERT_TRUE(db_.store().Validate(a));
  ASSERT_TRUE(db_.store().Validate(b));
  const ObjectHeader* h = db_.store().Get(a);
  EXPECT_EQ(h->refs()[0], b);
  EXPECT_EQ(h->data()[0], 0x5A);
}

TEST_F(RecoveryTest, UncommittedTxnIsUndone) {
  ObjectId a = CreateCommitted(1);
  ObjectId b = CreateCommitted(2);
  {
    auto txn = db_.Begin();
    ASSERT_TRUE(txn->Lock(a, LockMode::kExclusive).ok());
    ASSERT_TRUE(txn->SetRef(a, 0, b).ok());
    // Force the update records to the stable log, then "crash" before the
    // commit record exists: the transaction is a loser.
    db_.log().Flush(db_.log().last_lsn());
    // Carry the txn past the crash without running abort paths: Abandon
    // has crash semantics (no undo, no abort record).
    db_.SimulateCrash();
    txn->Abandon();
  }
  ASSERT_TRUE(db_.Recover().ok());
  const ObjectHeader* h = db_.store().Get(a);
  ASSERT_NE(h, nullptr);
  EXPECT_FALSE(h->refs()[0].valid());  // loser undone
}

TEST_F(RecoveryTest, UnflushedCommittedTailIsLost) {
  // A committed transaction's effects survive (commit forces the log);
  // appended-but-unflushed records of an in-flight transaction vanish.
  ObjectId a = CreateCommitted(1);
  {
    auto txn = db_.Begin();
    ASSERT_TRUE(txn->Lock(a, LockMode::kExclusive).ok());
    ASSERT_TRUE(txn->WriteData(a, std::vector<uint8_t>(8, 0x77)).ok());
    // no flush, no commit
    db_.SimulateCrash();
    txn->Abandon();
  }
  ASSERT_TRUE(db_.Recover().ok());
  const ObjectHeader* h = db_.store().Get(a);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->data()[0], 0);  // the write never became durable
}

TEST_F(RecoveryTest, CheckpointShortensRedo) {
  ObjectId a = CreateCommitted(1);
  db_.Checkpoint();
  Lsn ckpt_lsn = db_.checkpoint().lsn;
  ObjectId b = CreateCommitted(2);
  {
    auto txn = db_.Begin();
    ASSERT_TRUE(txn->Lock(a, LockMode::kExclusive).ok());
    ASSERT_TRUE(txn->SetRef(a, 1, b).ok());
    txn->Commit();
  }
  EXPECT_GT(db_.log().last_lsn(), ckpt_lsn);
  db_.SimulateCrash();
  ASSERT_TRUE(db_.Recover().ok());
  EXPECT_TRUE(db_.store().Validate(a));
  EXPECT_TRUE(db_.store().Validate(b));
  EXPECT_EQ(db_.store().Get(a)->refs()[1], b);
}

TEST_F(RecoveryTest, AbortedTxnStaysAborted) {
  ObjectId a = CreateCommitted(1);
  ObjectId b = CreateCommitted(2);
  {
    auto txn = db_.Begin();
    ASSERT_TRUE(txn->Lock(a, LockMode::kExclusive).ok());
    ASSERT_TRUE(txn->SetRef(a, 0, b).ok());
    txn->Abort();
  }
  db_.log().Flush(db_.log().last_lsn());
  db_.SimulateCrash();
  ASSERT_TRUE(db_.Recover().ok());
  EXPECT_FALSE(db_.store().Get(a)->refs()[0].valid());
}

TEST_F(RecoveryTest, FreeRedoneAfterCrash) {
  ObjectId a = CreateCommitted(1);
  {
    auto txn = db_.Begin(LogSource::kReorg);
    ASSERT_TRUE(txn->FreeObject(a).ok());
    txn->Commit();
  }
  db_.SimulateCrash();
  ASSERT_TRUE(db_.Recover().ok());
  EXPECT_FALSE(db_.store().Validate(a));
}

TEST_F(RecoveryTest, ErtsRebuiltAfterRecovery) {
  ObjectId a = CreateCommitted(1);
  ObjectId b = CreateCommitted(2);
  {
    auto txn = db_.Begin();
    ASSERT_TRUE(txn->Lock(a, LockMode::kExclusive).ok());
    ASSERT_TRUE(txn->SetRef(a, 0, b).ok());
    txn->Commit();
  }
  db_.SimulateCrash();
  ASSERT_TRUE(db_.Recover().ok());
  EXPECT_TRUE(db_.erts().For(2).HasEntry(b, a));
  EXPECT_EQ(testing::CountErtDiscrepancies(&db_.store(), &db_.erts()), 0);
}

TEST_F(RecoveryTest, WorkloadGraphSurvivesCrash) {
  WorkloadParams params = testing::SmallWorkload(2);
  BuiltGraph graph;
  GraphBuilder builder(&db_);
  ASSERT_TRUE(builder.Build(params, &graph).ok());
  auto before = testing::CollectReachable(&db_.store());
  db_.Checkpoint();
  db_.SimulateCrash();
  ASSERT_TRUE(db_.Recover().ok());
  auto after = testing::CollectReachable(&db_.store());
  EXPECT_EQ(before, after);
  EXPECT_EQ(testing::CountDanglingRefs(&db_.store()), 0);
  EXPECT_EQ(testing::CountErtDiscrepancies(&db_.store(), &db_.erts()), 0);
}

TEST_F(RecoveryTest, DatabaseUsableAfterRecovery) {
  ObjectId a = CreateCommitted(1);
  db_.SimulateCrash();
  ASSERT_TRUE(db_.Recover().ok());
  // New transactions work, the analyzer is running again.
  ObjectId b = CreateCommitted(2);
  {
    auto txn = db_.Begin();
    ASSERT_TRUE(txn->Lock(a, LockMode::kExclusive).ok());
    ASSERT_TRUE(txn->SetRef(a, 0, b).ok());
    txn->Commit();
  }
  db_.analyzer().Sync();
  EXPECT_TRUE(db_.erts().For(2).HasEntry(b, a));
}

TEST_F(RecoveryTest, DoubleCrashIsIdempotent) {
  ObjectId a = CreateCommitted(1);
  db_.SimulateCrash();
  ASSERT_TRUE(db_.Recover().ok());
  db_.SimulateCrash();
  ASSERT_TRUE(db_.Recover().ok());
  EXPECT_TRUE(db_.store().Validate(a));
}

TEST_F(RecoveryTest, FindInterruptedMigrationsDetectsPairs) {
  ObjectId old_obj = CreateCommitted(1);
  // Simulate the durable O_new creation of a two-lock migration whose
  // parent updates never completed.
  ObjectId onew;
  {
    auto txn = db_.Begin(LogSource::kReorg);
    ASSERT_TRUE(txn->CreateObjectWithContents(
                       2, std::vector<ObjectId>(2), std::vector<uint8_t>(8),
                       &onew, /*reorg_old=*/old_obj)
                    .ok());
    txn->Commit();
  }
  db_.SimulateCrash();
  ASSERT_TRUE(db_.Recover().ok());
  auto interrupted = FindInterruptedMigrations(&db_.store(), &db_.log());
  ASSERT_EQ(interrupted.size(), 1u);
  EXPECT_EQ(interrupted[0].old_id, old_obj);
  EXPECT_EQ(interrupted[0].new_id, onew);
}

// In-memory twin of DiskRecoveryTest.RecoveredLoserStaysUndoneAcrossSecond-
// Restart, with a reference rewrite and a creation in the loser: the first
// recovery logs their compensation, so the second neither undoes the
// rewrite over a later commit nor resurrects the loser's object.
TEST_F(RecoveryTest, RecoveredLoserStaysUndoneAcrossSecondRestart) {
  ObjectId a = CreateCommitted(1);
  ObjectId b = CreateCommitted(2);
  ObjectId c = CreateCommitted(2);
  ObjectId created;
  {
    auto loser = db_.Begin();
    ASSERT_TRUE(loser->Lock(a, LockMode::kExclusive).ok());
    ASSERT_TRUE(loser->SetRef(a, 0, b).ok());
    ASSERT_TRUE(loser->CreateObject(3, 1, 8, &created).ok());
    CreateCommitted(1);  // forces the loser's records to the stable log
    loser->Abandon();
  }
  db_.SimulateCrash();
  ASSERT_TRUE(db_.Recover().ok());
  EXPECT_FALSE(db_.store().Get(a)->refs()[0].valid());
  EXPECT_FALSE(db_.store().Validate(created));
  {
    auto txn = db_.Begin();
    ASSERT_TRUE(txn->Lock(a, LockMode::kExclusive).ok());
    ASSERT_TRUE(txn->SetRef(a, 0, c).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  db_.SimulateCrash();
  ASSERT_TRUE(db_.Recover().ok());
  EXPECT_EQ(db_.store().Get(a)->refs()[0], c);
  EXPECT_FALSE(db_.store().Validate(created));
}

TEST_F(RecoveryTest, CompletedMigrationNotReported) {
  ObjectId old_obj = CreateCommitted(1);
  ObjectId onew;
  {
    auto txn = db_.Begin(LogSource::kReorg);
    ASSERT_TRUE(txn->CreateObjectWithContents(
                       2, std::vector<ObjectId>(2), std::vector<uint8_t>(8),
                       &onew, old_obj)
                    .ok());
    ASSERT_TRUE(txn->FreeObject(old_obj).ok());  // migration finished
    txn->Commit();
  }
  db_.SimulateCrash();
  ASSERT_TRUE(db_.Recover().ok());
  EXPECT_TRUE(FindInterruptedMigrations(&db_.store(), &db_.log()).empty());
}


// ---------------------------------------------------------------------------
// Disk-backed recovery (DESIGN.md §12): the same crash/recover cycle, but
// with a real WAL segment directory and checkpoint images, plus injected
// media faults. Every fault class runs in "both recovery orders": with a
// prior checkpoint image on disk and without one.
// ---------------------------------------------------------------------------

// A disk-mode database over its own temp directory. Reopen() replaces the
// Database in place (the crashed instance's files stay put), modelling a
// restart of the process against the same volume.
struct DiskDb {
  explicit DiskDb(const std::string& tag) : dir(tag) { Reopen(); }

  void Reopen() {
    DatabaseOptions opt = testing::SmallDbOptions();
    opt.durability = Durability::kDisk;
    opt.wal_dir = dir.path();
    opt.wal_segment_bytes = 4096;  // small: rotation happens in-test
    opt.fsync_mode = FsyncMode::kNoop;
    db = std::make_unique<Database>(opt);
    ASSERT_TRUE(db->durability_status().ok())
        << db->durability_status().ToString();
  }

  ObjectId CreateCommitted(PartitionId p, uint8_t fill) {
    auto txn = db->Begin();
    ObjectId oid;
    EXPECT_TRUE(txn->CreateObject(p, 2, 8, &oid).ok());
    EXPECT_TRUE(txn->WriteData(oid, std::vector<uint8_t>(8, fill)).ok());
    EXPECT_TRUE(txn->Commit().ok());
    return oid;
  }

  Status WriteCommitted(ObjectId oid, uint8_t fill) {
    auto txn = db->Begin();
    Status s = txn->Lock(oid, LockMode::kExclusive);
    if (s.ok()) s = txn->WriteData(oid, std::vector<uint8_t>(8, fill));
    if (!s.ok()) {
      txn->Abort();
      return s;
    }
    return txn->Commit();
  }

  uint8_t DataByte(ObjectId oid) { return db->store().Get(oid)->data()[0]; }

  // Lexically smallest/largest wal-*.seg == lowest/highest seqno
  // (zero-padded names sort numerically).
  std::string WalSegment(bool last) {
    std::vector<std::string> entries;
    std::vector<std::string> segs;
    EXPECT_TRUE(ListDir(dir.path(), &entries).ok());
    for (const auto& e : entries) {
      if (e.rfind("wal-", 0) == 0) segs.push_back(e);
    }
    EXPECT_FALSE(segs.empty());
    std::sort(segs.begin(), segs.end());
    return dir.path() + "/" + (last ? segs.back() : segs.front());
  }

  std::string CkptPath(uint64_t gen) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "/ckpt-%06llu",
                  static_cast<unsigned long long>(gen));
    return dir.path() + buf;
  }

  testing::ScopedTempDir dir;
  std::unique_ptr<Database> db;
};

class DiskRecoveryTest : public ::testing::Test {
 protected:
  ~DiskRecoveryTest() override {
    FailPoints::Instance().Reset();
    MediaFaultInjector::Instance().Reset();
  }
};

// Torn-tail truncation table, rows = {no checkpoint, with checkpoint}: a
// commit whose force tears mid-frame was never acknowledged, so recovery
// truncates the torn tail and keeps everything acknowledged before it.
TEST_F(DiskRecoveryTest, TornTailPastStableFloorIsTruncated) {
  for (bool with_checkpoint : {false, true}) {
    SCOPED_TRACE(with_checkpoint ? "with checkpoint" : "no checkpoint");
    DiskDb d("torn-ok");
    ObjectId a = d.CreateCommitted(1, 0x11);
    if (with_checkpoint) ASSERT_TRUE(d.db->Checkpoint().ok());
    ASSERT_TRUE(d.WriteCommitted(a, 0x22).ok());  // acknowledged, above floor

    // The next commit's force tears halfway through its first frame.
    const uint64_t faults_before =
        MediaFaultInjector::Instance().faults_injected();
    ASSERT_TRUE(FailPoints::Instance()
                    .ArmFromString("media:wal:write=error(io)")
                    .ok());
    Status doomed = d.WriteCommitted(a, 0x33);
    EXPECT_FALSE(doomed.ok());  // never acknowledged
    FailPoints::Instance().Reset();
    EXPECT_GT(MediaFaultInjector::Instance().faults_injected(), faults_before);

    d.db->SimulateCrash();
    const ScrubReport before = d.db->scrub();
    ASSERT_TRUE(d.db->Recover().ok());
    EXPECT_GE(d.db->scrub().torn_tails_truncated - before.torn_tails_truncated,
              1u);
    EXPECT_GE(d.db->scrub().wal_records_verified - before.wal_records_verified,
              1u);
    EXPECT_EQ(d.DataByte(a), 0x22);  // acknowledged write survived
    // The store is fully usable after the truncated recovery.
    ASSERT_TRUE(d.WriteCommitted(a, 0x44).ok());
    EXPECT_EQ(d.DataByte(a), 0x44);
  }
}

// Tearing the tail *into* the stable floor (checkpointed LSNs) is a media
// fault recovery cannot paper over: acknowledged history would vanish.
TEST_F(DiskRecoveryTest, TornTailBelowStableFloorIsCorrupted) {
  DiskDb d("torn-fatal");
  ObjectId a = d.CreateCommitted(1, 0x11);
  ASSERT_TRUE(d.WriteCommitted(a, 0x22).ok());
  ASSERT_TRUE(d.db->Checkpoint().ok());  // floor covers everything above

  d.db->SimulateCrash();
  // Post-mortem: chop the (only) segment just past its header, losing
  // every stable frame.
  ASSERT_TRUE(
      InjectFileFault(d.WalSegment(true), FileFaultKind::kTruncateAt, 45)
          .ok());
  Status s = d.db->Recover();
  EXPECT_TRUE(s.IsCorrupted()) << s.ToString();
}

// A flipped bit in a non-tail segment fails that frame's CRC while later
// segments still hold good frames: unambiguous corruption in both orders,
// never silent truncation.
TEST_F(DiskRecoveryTest, BitFlipMidLogIsCorrupted) {
  for (bool with_checkpoint : {false, true}) {
    SCOPED_TRACE(with_checkpoint ? "with checkpoint" : "no checkpoint");
    DiskDb d("bitflip");
    ObjectId a = d.CreateCommitted(1, 0x10);
    // Enough committed updates to roll into a second 4 KiB segment.
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(d.WriteCommitted(a, static_cast<uint8_t>(i)).ok());
    }
    if (with_checkpoint) ASSERT_TRUE(d.db->Checkpoint().ok());
    std::string first_seg = d.WalSegment(false);
    ASSERT_NE(first_seg, d.WalSegment(true)) << "expected >= 2 segments";

    d.db->SimulateCrash();
    // Flip one bit in a frame body well past the 40-byte segment header.
    ASSERT_TRUE(
        InjectFileFault(first_seg, FileFaultKind::kBitFlip, 2000 * 8 + 3)
            .ok());
    Status s = d.db->Recover();
    EXPECT_TRUE(s.IsCorrupted()) << s.ToString();
  }
}

// A failed fsync must fail the commit (no acknowledgment). Recovery is
// still consistent: the transaction's outcome is merely unresolved, so the
// surviving value is either the attempt or the last acknowledged write.
TEST_F(DiskRecoveryTest, FailedFsyncCommitNotAcknowledged) {
  for (bool with_checkpoint : {false, true}) {
    SCOPED_TRACE(with_checkpoint ? "with checkpoint" : "no checkpoint");
    DiskDb d("fsync-fail");
    ObjectId a = d.CreateCommitted(1, 0x11);
    if (with_checkpoint) ASSERT_TRUE(d.db->Checkpoint().ok());

    ASSERT_TRUE(FailPoints::Instance()
                    .ArmFromString("media:wal:fsync=error(io)")
                    .ok());
    Status doomed = d.WriteCommitted(a, 0x22);
    EXPECT_FALSE(doomed.ok());
    FailPoints::Instance().Reset();

    d.db->SimulateCrash();
    ASSERT_TRUE(d.db->Recover().ok());
    uint8_t v = d.DataByte(a);
    EXPECT_TRUE(v == 0x11 || v == 0x22) << static_cast<int>(v);
    EXPECT_EQ(testing::CountDanglingRefs(&d.db->store()), 0);
    ASSERT_TRUE(d.WriteCommitted(a, 0x44).ok());
  }
}

// Recovery logs its undo of a loser (CLRs, then an abort record). Without
// that log, a second restart would redo the loser's update and undo it
// again from its before-image, over a write committed after the first
// recovery.
TEST_F(DiskRecoveryTest, RecoveredLoserStaysUndoneAcrossSecondRestart) {
  DiskDb d("second-restart");
  ObjectId a = d.CreateCommitted(1, 0x11);
  ObjectId b = d.CreateCommitted(1, 0x12);
  {
    auto loser = d.db->Begin();
    ASSERT_TRUE(loser->Lock(a, LockMode::kExclusive).ok());
    ASSERT_TRUE(loser->WriteData(a, std::vector<uint8_t>(8, 0x99)).ok());
    ASSERT_TRUE(d.WriteCommitted(b, 0x22).ok());
    loser->Abandon();
  }
  d.db->SimulateCrash();
  ASSERT_TRUE(d.db->Recover().ok());
  EXPECT_EQ(d.DataByte(a), 0x11);
  ASSERT_TRUE(d.WriteCommitted(a, 0x44).ok());
  d.db->SimulateCrash();
  ASSERT_TRUE(d.db->Recover().ok());
  EXPECT_EQ(d.DataByte(a), 0x44);
}

// Recovery undoes a loser and forces its CLR and abort records. If that
// force fails, the undo is not durable and Recover must say so rather than
// reopen the database. A later recovery (with the device healthy) still
// rolls the loser back.
TEST_F(DiskRecoveryTest, FailedPostUndoForceFailsRecovery) {
  DiskDb d("undo-fsync-fail");
  ObjectId a = d.CreateCommitted(1, 0x11);
  ObjectId b = d.CreateCommitted(1, 0x12);
  {
    // The loser's update reaches the stable log through another
    // transaction's commit force; the loser itself never commits.
    auto loser = d.db->Begin();
    ASSERT_TRUE(loser->Lock(a, LockMode::kExclusive).ok());
    ASSERT_TRUE(loser->WriteData(a, std::vector<uint8_t>(8, 0x99)).ok());
    ASSERT_TRUE(d.WriteCommitted(b, 0x22).ok());
    loser->Abandon();
  }
  d.db->SimulateCrash();

  ASSERT_TRUE(FailPoints::Instance()
                  .ArmFromString("media:wal:fsync=error(io)")
                  .ok());
  Status s = d.db->Recover();
  EXPECT_FALSE(s.ok()) << "recovery acknowledged an undo it never forced";
  FailPoints::Instance().Reset();

  d.db->SimulateCrash();
  ASSERT_TRUE(d.db->Recover().ok());
  EXPECT_EQ(d.DataByte(a), 0x11);
  EXPECT_EQ(d.DataByte(b), 0x22);
}

// Bad newest checkpoint image: recovery falls back to the previous
// generation; with every generation bad it recovers from the log alone.
TEST_F(DiskRecoveryTest, StaleCheckpointGenerationFallback) {
  DiskDb d("ckpt-fallback");
  ObjectId a = d.CreateCommitted(1, 0x11);
  ASSERT_TRUE(d.db->Checkpoint().ok());  // generation 1
  ASSERT_TRUE(d.WriteCommitted(a, 0x22).ok());
  ASSERT_TRUE(d.db->Checkpoint().ok());  // generation 2
  ASSERT_TRUE(d.WriteCommitted(a, 0x33).ok());

  // Corrupt the newest image: recovery falls back to generation 1 and
  // redoes the rest of the log from its (older) floor.
  d.db->SimulateCrash();
  ASSERT_TRUE(
      InjectFileFault(d.CkptPath(2), FileFaultKind::kBitFlip, 777).ok());
  uint64_t discarded = d.db->scrub().checkpoint_generations_discarded;
  ASSERT_TRUE(d.db->Recover().ok());
  EXPECT_EQ(d.db->scrub().checkpoint_generations_discarded - discarded, 1u);
  EXPECT_EQ(d.DataByte(a), 0x33);

  // Corrupt both generations: recovery proceeds from the log alone (the
  // log head is intact back to LSN 1).
  d.db->SimulateCrash();
  ASSERT_TRUE(
      InjectFileFault(d.CkptPath(1), FileFaultKind::kBitFlip, 555).ok());
  discarded = d.db->scrub().checkpoint_generations_discarded;
  ASSERT_TRUE(d.db->Recover().ok());
  EXPECT_EQ(d.db->scrub().checkpoint_generations_discarded - discarded, 2u);
  EXPECT_EQ(d.DataByte(a), 0x33);
  EXPECT_EQ(testing::CountDanglingRefs(&d.db->store()), 0);
}

// A crash between the WAL force and the checkpoint image publication
// leaves the previous generation in place — rename is atomic, so recovery
// never sees a half-written current image.
TEST_F(DiskRecoveryTest, CrashDuringCheckpointPublishKeepsPriorImage) {
  DiskDb d("ckpt-crash");
  ObjectId a = d.CreateCommitted(1, 0x11);
  ASSERT_TRUE(d.db->Checkpoint().ok());  // generation 1
  ASSERT_TRUE(d.WriteCommitted(a, 0x22).ok());

  // The publication rename of generation 2 fails.
  ASSERT_TRUE(FailPoints::Instance()
                  .ArmFromString("media:ckpt:rename=error(io)")
                  .ok());
  EXPECT_FALSE(d.db->Checkpoint().ok());
  FailPoints::Instance().Reset();

  d.db->SimulateCrash();
  ASSERT_TRUE(d.db->Recover().ok());
  EXPECT_EQ(d.DataByte(a), 0x22);  // redone from generation 1's floor
  ASSERT_TRUE(d.WriteCommitted(a, 0x33).ok());
  // The next checkpoint publishes cleanly over the failed attempt.
  ASSERT_TRUE(d.db->Checkpoint().ok());
}

}  // namespace
}  // namespace brahma
