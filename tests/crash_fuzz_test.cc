// Randomized crash-recovery fuzzer over the disk-backed WAL and
// checkpoint store (DESIGN.md §12). Each seed builds a small tracked
// object graph in a fresh WAL directory (half the seeds additionally put
// the partition arenas behind a tiny disk-backed frame pool, so dirty
// frames die with the crash), runs a randomized schedule of
// committed writes, aborts, left-open transactions, checkpoints, and an
// occasional concurrent reorganization while one randomly chosen media
// fault (torn write, failed fsync, failed checkpoint publication — as a
// hard crash or a transient error) may fire, then crashes, optionally
// applies a post-mortem fault to the surviving files (bit flip,
// truncation, zeroed tail, deleted file), recovers, and checks the
// durability oracle:
//
//   - recovery either succeeds or reports Status::Corrupted — never any
//     other failure, and never corruption without an injected fault;
//   - after a successful recovery: no dangling references, ERTs match
//     the physical graph, abort/open-transaction sentinel values are
//     never visible, every tracked object's value is one the schedule
//     could have made durable, and the database accepts new commits;
//   - without a post-mortem fault, acknowledged commits are never lost
//     and the live-object count is exact.
//
// A failing seed keeps its WAL directory under crash_fuzz_artifacts/ so
// CI can upload it. Seed count: BRAHMA_CRASH_FUZZ_SEEDS (default
// kCrashFuzzDefaultSeeds).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/file_util.h"
#include "common/random.h"
#include "core/database.h"
#include "core/ira.h"
#include "core/relocation.h"
#include "tests/test_util.h"
#include "wal/recovery.h"

namespace brahma {
namespace {

constexpr uint8_t kAbortSentinel = 0xEE;  // written only by aborted txns
constexpr uint8_t kOpenSentinel = 0xDD;   // written only by left-open txns

int NumSeeds() {
  const char* env = std::getenv("BRAHMA_CRASH_FUZZ_SEEDS");
  if (env != nullptr) {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return kCrashFuzzDefaultSeeds;
}

// First seed to run — lets a failing CI seed be reproduced in isolation:
//   BRAHMA_CRASH_FUZZ_START=1234 BRAHMA_CRASH_FUZZ_SEEDS=1 ./crash_fuzz_test
int StartSeed() {
  const char* env = std::getenv("BRAHMA_CRASH_FUZZ_START");
  return env != nullptr ? std::atoi(env) : 0;
}

struct Tracked {
  ObjectId oid;
  uint8_t acked = 0;                 // last acknowledged committed value
  std::set<uint8_t> unresolved;      // attempts since then, outcome unknown
  std::set<uint8_t> history;         // every value ever acknowledged
};

// One seeded run. Returns "" when the oracle holds, else a description of
// the violation. The temp dir is owned by the caller (kept on failure).
std::string RunSeed(uint64_t seed, testing::ScopedTempDir* dir) {
  Random rng(seed * 0x9E3779B97F4A7C15ull + 1);
  std::ostringstream why;

  DatabaseOptions opt = testing::SmallDbOptions(4);
  opt.durability = std::getenv("BRAHMA_CRASH_FUZZ_INMEM") != nullptr
                       ? Durability::kInMemory
                       : Durability::kDisk;
  opt.wal_dir = dir->path();
  opt.wal_segment_bytes = 1024 + 512 * rng.Uniform(7);
  opt.fsync_mode = FsyncMode::kNoop;
  opt.lock_timeout = std::chrono::milliseconds(100);
  // Disk-data-path mode (DESIGN.md §13): half the seeds run the arenas
  // behind a tiny disk-backed frame pool, so the crash also loses dirty
  // frames and recovery must rebuild the arenas through the pool's
  // restore protocol under constant eviction.
  if (rng.Bernoulli(0.5)) {
    opt.data_backing = DataBacking::kDisk;
    opt.data_dir = dir->path() + "/data";
    opt.buffer_pool_frames = 4 + rng.Uniform(8);
  }
  Database db(opt);
  if (!db.durability_status().ok()) {
    return "durability init failed: " + db.durability_status().ToString();
  }
  if (!db.data_status().ok()) {
    return "data init failed: " + db.data_status().ToString();
  }

  // --- Setup (no faults armed yet): tracked objects in partitions 1-2,
  // churn objects in partition 3 (the reorganization source), and random
  // reference wiring among them.
  std::vector<Tracked> tracked;
  std::vector<ObjectId> churn;
  std::vector<ObjectId> all;
  for (PartitionId p = 1; p <= 3; ++p) {
    for (int i = 0; i < 8; ++i) {
      auto txn = db.Begin();
      ObjectId oid;
      if (!txn->CreateObject(p, 2, 8, &oid).ok() ||
          !txn->WriteData(oid, std::vector<uint8_t>(8, 0x01)).ok() ||
          !txn->Commit().ok()) {
        return "setup commit failed";
      }
      all.push_back(oid);
      if (p <= 2) {
        Tracked t;
        t.oid = oid;
        t.acked = 0x01;
        t.history.insert(0x01);
        tracked.push_back(t);
      } else {
        churn.push_back(oid);
      }
    }
  }
  const uint64_t expected_live = testing::TotalLiveObjects(&db.store());
  // Wire a rooted graph: a cycle through every object (slot 0) keeps the
  // whole population reachable — IRA leaves unreachable objects behind as
  // garbage (Section 4.6), and a stale reference inside garbage is benign
  // by the paper's semantics but would trip this fuzzer's oracle. Slot 1
  // adds random extra edges for parent-list variety. The schedule only
  // rewrites data bytes afterwards, so reachability is invariant.
  for (size_t i = 0; i < all.size(); ++i) {
    auto txn = db.Begin();
    if (!txn->Lock(all[i], LockMode::kExclusive).ok() ||
        !txn->SetRef(all[i], 0, all[(i + 1) % all.size()]).ok() ||
        !txn->SetRef(all[i], 1, all[rng.Uniform(all.size())]).ok() ||
        !txn->Commit().ok()) {
      return "setup ref wiring failed";
    }
  }
  if (rng.Bernoulli(0.4) && !db.Checkpoint().ok()) {
    return "setup checkpoint failed";
  }

  // --- Arm at most one media fault for the mutation phase. A "crash"
  // spec fails every file operation from its nth hit on (the device died
  // mid-run); a transient error(io).times(1) fails exactly one operation
  // and lets the log self-heal by rewriting the torn tail.
  static const char* kSites[] = {"media:wal:write", "media:wal:fsync",
                                 "media:ckpt:write", "media:ckpt:fsync",
                                 "media:ckpt:rename"};
  const uint64_t triggered_before = FailPoints::Instance().total_triggered();
  const double fault_draw = rng.NextDouble();
  if (fault_draw < 0.75) {
    const char* site = kSites[rng.Uniform(5)];
    std::ostringstream spec;
    spec << site << (fault_draw < 0.45 ? "=crash" : "=error(io).times(1)")
         << ".nth(" << 1 + rng.Uniform(40) << ")";
    Status as = FailPoints::Instance().ArmFromString(spec.str());
    if (!as.ok()) return "failpoint arm failed: " + as.ToString();
    if (std::getenv("BRAHMA_CRASH_FUZZ_VERBOSE") != nullptr) {
      std::fprintf(stderr, "[seed %llu] armed %s\n",
                   static_cast<unsigned long long>(seed), spec.str().c_str());
    }
    if (rng.Bernoulli(0.5)) {
      MediaFaultInjector::Instance().set_torn_write_bytes(rng.Uniform(16));
    }
  }

  // --- Randomized mutation schedule.
  const int ops = 30 + static_cast<int>(rng.Uniform(30));
  const int reorg_at =
      rng.Bernoulli(0.35) ? static_cast<int>(rng.Uniform(ops)) : -1;
  std::vector<std::unique_ptr<Transaction>> open;
  std::set<uint64_t> locked;  // tracked oids held by left-open txns
  uint8_t next_val = 0x02;
  bool crashed = false;

  auto pick_unlocked = [&]() -> Tracked* {
    for (int tries = 0; tries < 10; ++tries) {
      Tracked& t = tracked[rng.Uniform(tracked.size())];
      if (locked.count(t.oid.raw()) == 0) return &t;
    }
    return nullptr;
  };

  for (int i = 0; i < ops && !crashed; ++i) {
    if (i == reorg_at) {
      IraOptions iopt;
      iopt.two_lock_mode = rng.Bernoulli(0.5);
      iopt.group_size = 1 + static_cast<uint32_t>(rng.Uniform(4));
      iopt.lock_timeout = std::chrono::milliseconds(20);
      iopt.backoff_initial = std::chrono::milliseconds(1);
      iopt.contention_budget = 5;  // left-open txns hold locks forever
      CopyOutPlanner planner(4);
      ReorgStats rstats;
      IraReorganizer ira(db.reorg_context());
      Status s = ira.Run(3, &planner, iopt, &rstats);
      if (!s.ok() && s.IsCrashed()) crashed = true;
      if (std::getenv("BRAHMA_CRASH_FUZZ_VERBOSE") != nullptr) {
        std::fprintf(stderr, "[seed %llu] reorg two_lock=%d -> %s\n",
                     static_cast<unsigned long long>(seed),
                     iopt.two_lock_mode ? 1 : 0, s.ToString().c_str());
      }
      continue;  // other failures (timeout, degraded) are benign
    }
    const uint64_t op = rng.Uniform(100);
    if (op < 55) {
      // Committed write with value tracking.
      Tracked* t = pick_unlocked();
      if (t == nullptr) continue;
      uint8_t v = next_val;
      next_val = next_val >= 0xC0 ? 0x02 : next_val + 1;
      auto txn = db.Begin();
      Status s = txn->Lock(t->oid, LockMode::kExclusive);
      if (s.ok()) s = txn->WriteData(t->oid, std::vector<uint8_t>(8, v));
      if (!s.ok()) {
        txn->Abort();
        if (s.IsCrashed()) crashed = true;
        continue;
      }
      s = txn->Commit();
      if (s.ok()) {
        t->acked = v;
        t->history.insert(v);
        t->unresolved.clear();  // later acked values win redo order
      } else {
        t->unresolved.insert(v);  // durable or not — outcome unknown
        if (s.IsCrashed()) crashed = true;
      }
    } else if (op < 65) {
      // Aborted transaction: its sentinel must never survive recovery.
      Tracked* t = pick_unlocked();
      if (t == nullptr) continue;
      auto txn = db.Begin();
      Status s = txn->Lock(t->oid, LockMode::kExclusive);
      if (s.ok()) {
        s = txn->WriteData(t->oid,
                           std::vector<uint8_t>(8, kAbortSentinel));
      }
      txn->Abort();
      if (!s.ok() && s.IsCrashed()) crashed = true;
    } else if (op < 75 && open.size() < 3 && i > reorg_at) {
      // Left-open transaction: a loser at the crash; sometimes force its
      // update to disk so undo has real work. Only after the reorg point:
      // IRA's TRT drain (Section 4.5) waits untimed for every transaction
      // that touched an object it migrates, and these never finish.
      Tracked* t = pick_unlocked();
      if (t == nullptr) continue;
      auto txn = db.Begin();
      Status s = txn->Lock(t->oid, LockMode::kExclusive);
      if (s.ok()) {
        s = txn->WriteData(t->oid, std::vector<uint8_t>(8, kOpenSentinel));
      }
      if (!s.ok()) {
        txn->Abort();
        if (s.IsCrashed()) crashed = true;
        continue;
      }
      locked.insert(t->oid.raw());
      open.push_back(std::move(txn));
      if (rng.Bernoulli(0.5)) {
        db.log().Flush(db.log().last_lsn());
      }
    } else if (op < 85) {
      Status s = db.Checkpoint();
      if (!s.ok() && s.IsCrashed()) crashed = true;
    } else {
      // Churn write in the reorganization partition (untracked values —
      // these objects migrate under IRA and change identity).
      ObjectId oid = churn[rng.Uniform(churn.size())];
      if (!db.store().Validate(oid)) continue;
      auto txn = db.Begin();
      Status s = txn->Lock(oid, LockMode::kExclusive);
      if (s.ok()) s = txn->WriteData(oid, std::vector<uint8_t>(8, 0x33));
      if (s.ok()) {
        s = txn->Commit();
      } else {
        txn->Abort();
      }
      if (!s.ok() && s.IsCrashed()) crashed = true;
    }
  }

  // --- Crash. Left-open transactions die with the process.
  db.SimulateCrash();
  for (auto& t : open) t->Abandon();  // crash semantics: no undo, no abort
  open.clear();
  const bool fault_fired =
      FailPoints::Instance().total_triggered() > triggered_before;
  FailPoints::Instance().Reset();
  MediaFaultInjector::Instance().Reset();

  // --- Optional post-mortem media fault against the surviving files.
  bool post_fault = false;
  if (rng.Bernoulli(0.3)) {
    std::vector<std::string> entries;
    std::vector<std::string> segs, ckpts;
    if (ListDir(dir->path(), &entries).ok()) {
      for (const auto& e : entries) {
        if (e.rfind("wal-", 0) == 0) segs.push_back(e);
        if (e.rfind("ckpt-", 0) == 0 &&
            e.find(".tmp") == std::string::npos) {
          ckpts.push_back(e);
        }
      }
    }
    std::sort(segs.begin(), segs.end());
    std::sort(ckpts.begin(), ckpts.end());
    uint64_t kind = rng.Uniform(5);
    uint64_t param = rng.Next();
    if (kind == 4 && ckpts.empty()) kind = 0;
    if (!segs.empty()) {
      const std::string last_seg = dir->path() + "/" + segs.back();
      switch (kind) {
        case 0:
          post_fault = InjectFileFault(last_seg, FileFaultKind::kBitFlip,
                                       param).ok();
          break;
        case 1:
          post_fault = InjectFileFault(last_seg, FileFaultKind::kTruncateAt,
                                       param).ok();
          break;
        case 2:
          post_fault = InjectFileFault(last_seg, FileFaultKind::kZeroTail,
                                       param).ok();
          break;
        case 3:
          post_fault = InjectFileFault(last_seg, FileFaultKind::kDelete,
                                       param).ok();
          break;
        case 4:
          post_fault =
              InjectFileFault(dir->path() + "/" + ckpts.back(),
                              FileFaultKind::kBitFlip, param).ok();
          break;
      }
    }
  }

  // --- Recovery and the oracle.
  if (std::getenv("BRAHMA_CRASH_FUZZ_VERBOSE") != nullptr) {
    std::fprintf(stderr,
                 "[seed %llu] crashed=%d fault_fired=%d post_fault=%d\n",
                 static_cast<unsigned long long>(seed), crashed ? 1 : 0,
                 fault_fired ? 1 : 0, post_fault ? 1 : 0);
  }
  Status rs = db.Recover();
  const bool any_fault = fault_fired || post_fault;
  if (!rs.ok()) {
    if (!rs.IsCorrupted()) {
      return "recovery failed with non-corruption status: " + rs.ToString();
    }
    if (!any_fault) {
      return "corruption reported but no fault was injected: " +
             rs.ToString();
    }
    return "";  // detected corruption under injected faults: correct
  }

  ReorgContext ctx = db.reorg_context();
  for (const InterruptedMigration& m :
       FindInterruptedMigrations(&db.store(), &db.log())) {
    Status s = CompleteInterruptedMigration(ctx, m.old_id, m.new_id);
    if (!s.ok()) {
      return "CompleteInterruptedMigration failed: " + s.ToString();
    }
  }
  db.analyzer().Sync();

  int dangling = testing::CountDanglingRefs(&db.store());
  if (dangling != 0) {
    if (std::getenv("BRAHMA_CRASH_FUZZ_VERBOSE") != nullptr) {
      std::vector<LogRecord> recs;
      db.log().ReadAfter(0, &recs);
      for (const LogRecord& r : recs) {
        std::fprintf(stderr,
                     "  lsn=%llu txn=%llu type=%d src=%d oid=%s slot=%u "
                     "old=%s new=%s reorg_old=%s ckpt=%llu\n",
                     static_cast<unsigned long long>(r.lsn),
                     static_cast<unsigned long long>(r.txn),
                     static_cast<int>(r.type), static_cast<int>(r.source),
                     r.oid.ToString().c_str(), r.slot,
                     r.old_ref.ToString().c_str(),
                     r.new_ref.ToString().c_str(),
                     r.reorg_old.ToString().c_str(),
                     static_cast<unsigned long long>(r.checkpoint_lsn));
      }
    }
    why << dangling << " dangling refs after recovery";
    return why.str();
  }
  int ert_bad = testing::CountErtDiscrepancies(&db.store(), &db.erts());
  if (ert_bad != 0) {
    why << ert_bad << " ERT discrepancies after recovery";
    return why.str();
  }

  for (const Tracked& t : tracked) {
    if (!db.store().Validate(t.oid)) {
      if (!post_fault) {
        why << "tracked object " << t.oid.ToString()
            << " vanished without a post-mortem fault";
        return why.str();
      }
      continue;
    }
    const uint8_t v = db.store().Get(t.oid)->data()[0];
    if (v == kOpenSentinel || v == kAbortSentinel) {
      why << "sentinel value 0x" << std::hex << static_cast<int>(v)
          << " visible on " << t.oid.ToString();
      return why.str();
    }
    if (!post_fault) {
      // Without post-mortem damage the acknowledged value survives, or
      // an unresolved later attempt that turned out durable.
      if (v != t.acked && t.unresolved.count(v) == 0) {
        why << "object " << t.oid.ToString() << " holds 0x" << std::hex
            << static_cast<int>(v) << " but last acked was 0x"
            << static_cast<int>(t.acked);
        return why.str();
      }
    } else if (v != 0 && t.history.count(v) == 0 &&
               t.unresolved.count(v) == 0) {
      // Post-mortem truncation may roll back to any earlier durable
      // prefix, but never to a value the schedule never wrote.
      why << "object " << t.oid.ToString() << " holds 0x" << std::hex
          << static_cast<int>(v) << ", never written by the schedule";
      return why.str();
    }
  }

  if (!post_fault &&
      testing::TotalLiveObjects(&db.store()) != expected_live) {
    why << "live objects " << testing::TotalLiveObjects(&db.store())
        << " != expected " << expected_live;
    return why.str();
  }

  // The recovered database accepts new work.
  for (const Tracked& t : tracked) {
    if (!db.store().Validate(t.oid)) continue;
    auto txn = db.Begin();
    Status s = txn->Lock(t.oid, LockMode::kExclusive);
    if (s.ok()) s = txn->WriteData(t.oid, std::vector<uint8_t>(8, 0x42));
    if (s.ok()) s = txn->Commit();
    if (!s.ok()) return "post-recovery commit failed: " + s.ToString();
    break;
  }
  return "";
}

TEST(CrashFuzzTest, RandomizedCrashRecovery) {
  const int start = StartSeed();
  const int seeds = NumSeeds();
  int failures = 0;
  for (int s = start; s < start + seeds; ++s) {
    testing::ScopedTempDir dir("crash-fuzz");
    std::string violation = RunSeed(static_cast<uint64_t>(s), &dir);
    FailPoints::Instance().Reset();
    MediaFaultInjector::Instance().Reset();
    if (!violation.empty()) {
      // Preserve the WAL directory for the CI artifact upload.
      dir.keep();
      MakeDirs("./crash_fuzz_artifacts");
      std::string dst = "./crash_fuzz_artifacts/seed-" + std::to_string(s);
      RemoveDirRecursive(dst);
      std::rename(dir.path().c_str(), dst.c_str());
      ADD_FAILURE() << "seed " << s << ": " << violation
                    << " (WAL dir preserved at " << dst << ")";
      if (++failures >= 3) break;  // enough to diagnose; stop the spam
    }
  }
}

}  // namespace
}  // namespace brahma
