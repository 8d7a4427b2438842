#include "txn/transaction_manager.h"

namespace brahma {

std::unique_ptr<Transaction> TransactionManager::Begin(LogSource source) {
  TxnId id = next_id_.fetch_add(1);
  auto txn =
      std::unique_ptr<Transaction>(new Transaction(this, ctx_, id, source));
  RegistryShard& shard = ShardFor(id);
  std::lock_guard<std::mutex> g(shard.mu);
  shard.txns.emplace(id, txn.get());
  return txn;
}

Lsn TransactionManager::MinActiveFirstLsn() const {
  Lsn min_lsn = kInvalidLsn;
  for (const RegistryShard& shard : shards_) {
    std::lock_guard<std::mutex> g(shard.mu);
    for (const auto& [id, txn] : shard.txns) {
      (void)id;
      Lsn f = txn->first_lsn();
      if (f != kInvalidLsn && (min_lsn == kInvalidLsn || f < min_lsn)) {
        min_lsn = f;
      }
    }
  }
  return min_lsn;
}

std::vector<TxnId> TransactionManager::ActiveTxns() const {
  std::vector<TxnId> ids;
  for (const RegistryShard& shard : shards_) {
    std::lock_guard<std::mutex> g(shard.mu);
    for (const auto& [id, txn] : shard.txns) {
      (void)txn;
      ids.push_back(id);
    }
  }
  return ids;
}

bool TransactionManager::IsActive(TxnId id) const {
  const RegistryShard& shard = ShardFor(id);
  std::lock_guard<std::mutex> g(shard.mu);
  return shard.txns.count(id) > 0;
}

void TransactionManager::WaitForTxn(TxnId id) {
  RegistryShard& shard = ShardFor(id);
  std::unique_lock<std::mutex> l(shard.mu);
  ++shard.waiters;
  shard.cv.wait(l, [&shard, id]() { return shard.txns.count(id) == 0; });
  --shard.waiters;
}

void TransactionManager::WaitForAll(const std::vector<TxnId>& ids) {
  for (TxnId id : ids) WaitForTxn(id);
}

void TransactionManager::Reset() {
  for (RegistryShard& shard : shards_) {
    std::lock_guard<std::mutex> g(shard.mu);
    for (auto& [id, txn] : shard.txns) {
      (void)id;
      txn->held_.Clear();
    }
    shard.txns.clear();
    shard.cv.notify_all();
  }
}

void TransactionManager::Deregister(TxnId id) {
  RegistryShard& shard = ShardFor(id);
  std::lock_guard<std::mutex> g(shard.mu);
  shard.txns.erase(id);
  if (shard.waiters > 0) shard.cv.notify_all();
}

void TransactionManager::OnAbandon(Transaction* txn) { Deregister(txn->id()); }

void TransactionManager::OnComplete(Transaction* txn, bool committed,
                                    Lsn unstable_commit) {
  const bool logged = txn->last_lsn_ != kInvalidLsn;
  if (logged && completion_hook_) completion_hook_(txn->id(), committed);
  if (ctx_.locks->history_enabled()) {
    ctx_.locks->ForgetTxn(txn->id(), txn->ever_locked_);
  }
  // Release locks before declaring the transaction complete: a waiter in
  // WaitForTxn must be able to lock whatever the transaction held.
  txn->held_.ForEach([&](ObjectId oid, LockMode mode) {
    if (unstable_commit != kInvalidLsn && mode == LockMode::kExclusive) {
      ctx_.locks->Release(txn->id(), oid, unstable_commit);
      txn->released_early_.push_back(oid);
    } else {
      ctx_.locks->Release(txn->id(), oid);
    }
  });
  txn->held_.Clear();
  Deregister(txn->id());
  if (logged && released_hook_) released_hook_();
}

}  // namespace brahma
