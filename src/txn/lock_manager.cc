#include "txn/lock_manager.h"

#include <algorithm>

#include "common/failpoint.h"

namespace brahma {

bool LockManager::TryGrant(std::vector<Request>& requests, ObjectId oid) {
  bool changed = false;
  auto compatible_with_holders = [&requests, oid](const Request& r) {
    for (const Request& q : requests) {
      if (q.oid != oid || q.txn == r.txn || !q.has_held) continue;
      if (!Compatible(q.held, r.want)) return false;
    }
    return true;
  };
  // Pass 1: upgrades (current holders waiting for a stronger mode).
  for (Request& r : requests) {
    if (r.oid == oid && r.waiting && r.has_held && compatible_with_holders(r)) {
      r.held = r.want;
      r.waiting = false;
      changed = true;
    }
  }
  // Pass 2: fresh waiters in FIFO order; stop at the first that cannot be
  // granted so later arrivals do not barge past it.
  for (Request& r : requests) {
    if (r.oid != oid || !r.waiting || r.has_held) continue;
    if (!compatible_with_holders(r)) break;
    r.has_held = true;
    r.held = r.want;
    r.waiting = false;
    changed = true;
    if (r.held == LockMode::kExclusive) break;
  }
  return changed;
}

LockManager::Request* LockManager::FindRequest(std::vector<Request>& requests,
                                               ObjectId oid, TxnId txn) {
  for (Request& r : requests) {
    if (r.oid == oid && r.txn == txn) return &r;
  }
  return nullptr;
}

void LockManager::NoteEarlyRelease(const Shard& shard, ObjectId oid,
                                   Lsn* released_at) {
  if (released_at == nullptr) return;
  for (const EarlyRelease& e : shard.early) {
    if (e.oid == oid) {
      *released_at = std::max(*released_at, e.commit);
      return;
    }
  }
}

void LockManager::WithdrawRequest(Shard& shard, ObjectId oid, TxnId txn) {
  Request* r = FindRequest(shard.requests, oid, txn);
  if (r == nullptr) return;
  if (r->has_held) {
    // Upgrade cancelled: fall back to the originally held mode so the
    // transaction keeps exactly what it had before asking for more.
    r->want = r->held;
    r->waiting = false;
    r->victim = false;
  } else {
    shard.requests.erase(shard.requests.begin() + (r - shard.requests.data()));
  }
  if (TryGrant(shard.requests, oid)) shard.cv.notify_all();
}

void LockManager::RegisterWaiter(TxnId txn, ObjectId oid,
                                 const WaiterProfile& profile) {
  std::lock_guard<std::mutex> g(graph_mu_);
  waiting_[txn] = WaitRecord{oid, profile};
}

void LockManager::DeregisterWaiter(TxnId txn) {
  std::lock_guard<std::mutex> g(graph_mu_);
  waiting_.erase(txn);
}

void LockManager::RunDetection(TxnId self) {
  // A pass already in flight is scanning the same registry; rather than
  // convoy behind it, give up and retry next grace slice.
  std::unique_lock<std::mutex> d(detector_mu_, std::try_to_lock);
  if (!d.owns_lock()) return;

  std::unordered_map<TxnId, WaitRecord> waiting;
  {
    std::lock_guard<std::mutex> g(graph_mu_);
    waiting = waiting_;
  }
  if (waiting.find(self) == waiting.end()) return;

  // Build waits-for edges one shard at a time (never two shard mutexes at
  // once), re-reading each waiter's queue as ground truth. The per-shard
  // snapshots are taken at slightly different instants; MarkVictim below
  // re-verifies before cancelling anything.
  deadlock::WaitsForGraph graph;
  for (const auto& [t, rec] : waiting) {
    Shard& shard = ShardFor(rec.oid);
    std::lock_guard<std::mutex> l(shard.mu);
    const Request* me = FindRequest(shard.requests, rec.oid, t);
    if (me == nullptr || !me->waiting || me->victim) continue;
    std::vector<TxnId> out;
    bool before_me = true;
    for (const Request& r : shard.requests) {
      if (r.oid != rec.oid) continue;
      if (r.txn == t) {
        before_me = false;
        continue;
      }
      if (r.has_held) {
        if (!Compatible(r.held, me->want)) out.push_back(r.txn);
      } else if (r.waiting && before_me && !me->has_held) {
        // FIFO no-barge: a fresh waiter is also blocked behind every
        // earlier fresh waiter still in line.
        out.push_back(r.txn);
      }
    }
    if (!out.empty()) graph.emplace(t, std::move(out));
  }

  std::vector<TxnId> cycle =
      deadlock::FindCycleFrom(graph, self, kDeadlockMaxDfsDepth);
  if (cycle.empty()) return;
  BRAHMA_FAILPOINT_HIT("deadlock:detect");

  std::unordered_map<TxnId, WaiterProfile> profiles;
  for (TxnId t : cycle) {
    auto it = waiting.find(t);
    if (it != waiting.end()) profiles[t] = it->second.profile;
  }
  TxnId victim = deadlock::SelectVictim(cycle, profiles);
  BRAHMA_FAILPOINT_HIT("deadlock:select");
  if (victim == kInvalidTxn) return;  // every member exempt; timeout backstop

  auto vrec = waiting.find(victim);
  if (vrec == waiting.end()) return;
  ObjectId voi = vrec->second.oid;
  Shard& vshard = ShardFor(voi);
  bool marked = false;
  {
    std::lock_guard<std::mutex> l(vshard.mu);
    Request* r = FindRequest(vshard.requests, voi, victim);
    // Only cancel a request that is still blocked: the cycle may have
    // dissolved (grant, timeout, release) between snapshot and now.
    if (r != nullptr && r->waiting && !r->victim) {
      r->victim = true;
      marked = true;
      vshard.cv.notify_all();
    }
  }
  if (marked) {
    deadlocks_detected_.fetch_add(1);
    // Drop the victim from the registry immediately so an overlapping
    // pass cannot pick a second victim for the same cycle.
    DeregisterWaiter(victim);
  }
}

Status LockManager::Acquire(TxnId txn, ObjectId oid, LockMode mode,
                            std::chrono::milliseconds timeout,
                            const WaiterProfile& profile, Lsn* released_at) {
  // `lock:acquire=timeout` injects persistent contention (every acquire
  // behaves as a deadlock-broken wait); `delay` models a convoy.
  BRAHMA_FAILPOINT("lock:acquire");
  Shard& shard = ShardFor(oid);
  std::unique_lock<std::mutex> l(shard.mu);

  Request* mine = FindRequest(shard.requests, oid, txn);
  if (mine != nullptr && mine->has_held) {
    if (mine->held == LockMode::kExclusive || mine->held == mode) {
      return Status::Ok();  // re-entrant; already strong enough
    }
    // Upgrade S -> X. Two holders both waiting to upgrade deadlock the
    // instant the second asks — neither can ever be granted while the
    // other holds S — so resolve holder-vs-holder conflicts on the spot,
    // under every DeadlockPolicy (the evidence IS the cycle; no graph
    // needed). Loop: several rivals may be queued.
    for (;;) {
      std::vector<Request*> rivals;
      for (Request& r : shard.requests) {
        if (r.oid == oid && r.txn != txn && r.has_held && r.waiting &&
            !r.victim) {
          rivals.push_back(&r);
        }
      }
      if (rivals.empty()) break;
      std::vector<TxnId> cycle{txn};
      std::unordered_map<TxnId, WaiterProfile> profiles{{txn, profile}};
      for (Request* r : rivals) {
        cycle.push_back(r->txn);
        profiles.emplace(r->txn, r->profile);
      }
      TxnId v = deadlock::SelectVictim(cycle, profiles);
      if (v == kInvalidTxn) break;  // everyone exempt; timeout backstop
      deadlocks_detected_.fetch_add(1);
      if (v == txn) {
        // Fast-fail before the upgrade is even queued: the held S mode is
        // untouched, and the full would-be wait is saved.
        victims_aborted_.fetch_add(1);
        if (!profile.reorg) user_victims_.fetch_add(1);
        if (timeout.count() > 0) {
          victim_wait_saved_ms_.fetch_add(
              static_cast<uint64_t>(timeout.count()));
        }
        l.unlock();
        BRAHMA_FAILPOINT_HIT("deadlock:victim");
        return Status::DeadlockVictim("upgrade deadlock on " + oid.ToString());
      }
      for (Request* r : rivals) {
        if (r->txn == v) {
          r->victim = true;
          break;
        }
      }
      shard.cv.notify_all();
    }
    mine->want = LockMode::kExclusive;
    mine->waiting = true;
    mine->victim = false;
    mine->profile = profile;
  } else if (mine == nullptr) {
    Request r;
    r.oid = oid;
    r.txn = txn;
    r.held = mode;
    r.want = mode;
    r.waiting = true;
    r.profile = profile;
    mine = &shard.requests.emplace_back(r);
  } else {
    // A waiting (not yet granted) request exists; strengthen it.
    if (mode == LockMode::kExclusive) mine->want = LockMode::kExclusive;
  }

  // Queueing or strengthening a request frees nobody else, so only this
  // request can be granted here and there is no one to wake. TryGrant
  // moves no request, so `mine` stays valid across it.
  TryGrant(shard.requests, oid);
  if (!mine->waiting) {
    if (history_enabled_) shard.history[oid].insert(txn);
    NoteEarlyRelease(shard, oid, released_at);
    return Status::Ok();
  }

  const bool detect = deadlock_policy() == DeadlockPolicy::kDetect;
  if (detect) RegisterWaiter(txn, oid, profile);  // graph_mu_ is a leaf

  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + timeout;
  auto next_detect = start + kDeadlockDetectGrace;
  for (;;) {
    // Re-find every iteration: the shard's vector reallocates under churn
    // while this thread waits or runs a detection pass unlocked.
    mine = FindRequest(shard.requests, oid, txn);
    if (mine == nullptr) {
      // Defensive; only this thread withdraws its own request.
      if (detect) DeregisterWaiter(txn);
      return Status::TimedOut("lock request lost on " + oid.ToString());
    }
    if (!mine->waiting) break;  // granted
    auto now = std::chrono::steady_clock::now();
    if (mine->victim) {
      // Cancelled to break a cycle (graph detector / upgrade fast-fail).
      // Withdraw — held locks intact — and let the caller abort and
      // retry without burning the timeout.
      if (detect) DeregisterWaiter(txn);
      victims_aborted_.fetch_add(1);
      if (!mine->profile.reorg) user_victims_.fetch_add(1);
      if (deadline > now) {
        victim_wait_saved_ms_.fetch_add(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                  now)
                .count()));
      }
      WithdrawRequest(shard, oid, txn);
      l.unlock();
      BRAHMA_FAILPOINT_HIT("deadlock:victim");
      return Status::DeadlockVictim("deadlock victim on " + oid.ToString());
    }
    if (now >= deadline) {
      if (detect) DeregisterWaiter(txn);
      WithdrawRequest(shard, oid, txn);
      return Status::TimedOut("lock wait timeout on " + oid.ToString());
    }
    if (detect && now >= next_detect) {
      // Still blocked after a grace slice: run a detection pass on our
      // own dime. Drop the shard mutex first — the detector takes shards
      // one at a time and must never hold two.
      l.unlock();
      RunDetection(txn);
      l.lock();
      next_detect = std::chrono::steady_clock::now() + kDeadlockDetectGrace;
      continue;  // re-read state: granted or victimized meanwhile?
    }
    shard.cv.wait_until(l, detect ? std::min(deadline, next_detect) : deadline);
  }
  if (detect) DeregisterWaiter(txn);
  if (history_enabled_) shard.history[oid].insert(txn);
  NoteEarlyRelease(shard, oid, released_at);
  return Status::Ok();
}

void LockManager::Release(TxnId txn, ObjectId oid, Lsn unstable_commit) {
  Shard& shard = ShardFor(oid);
  std::unique_lock<std::mutex> l(shard.mu);
  if (unstable_commit != kInvalidLsn) {
    // Recorded before the request leaves the queue, under the same mutex,
    // so every grant this release makes possible sees it.
    auto e = std::find_if(shard.early.begin(), shard.early.end(),
                          [oid](const EarlyRelease& r) { return r.oid == oid; });
    if (e == shard.early.end()) {
      shard.early.push_back(EarlyRelease{oid, unstable_commit});
    } else {
      e->commit = std::max(e->commit, unstable_commit);
    }
  }
  Request* r = FindRequest(shard.requests, oid, txn);
  if (r == nullptr) return;
  // Erase in place: a swap-remove would move another object's request
  // ahead of its own queue.
  shard.requests.erase(shard.requests.begin() + (r - shard.requests.data()));
  if (TryGrant(shard.requests, oid)) shard.cv.notify_all();
}

void LockManager::ForgetEarlyReleases(const std::vector<ObjectId>& oids,
                                      Lsn stable) {
  for (ObjectId oid : oids) {
    Shard& shard = ShardFor(oid);
    std::unique_lock<std::mutex> l(shard.mu);
    for (size_t i = 0; i < shard.early.size(); ++i) {
      if (shard.early[i].oid != oid) continue;
      if (shard.early[i].commit <= stable) {
        shard.early[i] = shard.early.back();
        shard.early.pop_back();
      }
      break;
    }
  }
}

bool LockManager::IsHeld(TxnId txn, ObjectId oid, LockMode* mode) const {
  const Shard& shard = ShardFor(oid);
  std::unique_lock<std::mutex> l(shard.mu);
  for (const Request& r : shard.requests) {
    if (r.oid == oid && r.txn == txn && r.has_held) {
      if (mode != nullptr) *mode = r.held;
      return true;
    }
  }
  return false;
}

size_t LockManager::NumLockedObjects() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::unique_lock<std::mutex> l(shard.mu);
    // Count each object at its first request.
    for (auto it = shard.requests.begin(); it != shard.requests.end(); ++it) {
      ObjectId oid = it->oid;
      if (std::none_of(shard.requests.begin(), it,
                       [oid](const Request& r) { return r.oid == oid; })) {
        ++n;
      }
    }
  }
  return n;
}

std::vector<TxnId> LockManager::HistoricalHolders(ObjectId oid,
                                                  TxnId except) const {
  const Shard& shard = ShardFor(oid);
  std::unique_lock<std::mutex> l(shard.mu);
  std::vector<TxnId> out;
  auto it = shard.history.find(oid);
  if (it == shard.history.end()) return out;
  for (TxnId t : it->second) {
    if (t != except) out.push_back(t);
  }
  return out;
}

void LockManager::ClearAllState() {
  for (Shard& shard : shards_) {
    std::unique_lock<std::mutex> l(shard.mu);
    shard.requests.clear();
    shard.early.clear();
    shard.history.clear();
  }
  std::lock_guard<std::mutex> g(graph_mu_);
  waiting_.clear();
}

void LockManager::ForgetTxn(TxnId txn, const std::vector<ObjectId>& touched) {
  for (ObjectId oid : touched) {
    Shard& shard = ShardFor(oid);
    std::unique_lock<std::mutex> l(shard.mu);
    auto it = shard.history.find(oid);
    if (it == shard.history.end()) continue;
    it->second.erase(txn);
    if (it->second.empty()) shard.history.erase(it);
  }
}

}  // namespace brahma
