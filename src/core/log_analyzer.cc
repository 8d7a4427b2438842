#include "core/log_analyzer.h"

#include <chrono>

namespace brahma {

void LogAnalyzer::Start(Mode mode) {
  mode_ = mode;
  if (mode_ == Mode::kSynchronous) {
    log_->SetAppendObserver([this](const LogRecord& rec) {
      ProcessRecord(rec);
      processed_.store(rec.lsn, std::memory_order_release);
    });
    return;
  }
  running_.store(true);
  thread_ = std::thread([this]() { ThreadMain(); });
}

void LogAnalyzer::Stop() {
  if (mode_ == Mode::kSynchronous) {
    log_->SetAppendObserver(nullptr);
    return;
  }
  if (running_.exchange(false) && thread_.joinable()) {
    thread_.join();
    // The tailer sleeps between passes, so records appended after its
    // last pass would otherwise never reach the ERT/TRT. Drain the tail
    // so Stop leaves the tables reflecting the whole log.
    ProcessUpTo(log_->last_lsn());
  }
}

void LogAnalyzer::Sync() {
  if (mode_ == Mode::kSynchronous) return;
  ProcessUpTo(log_->last_lsn());
}

void LogAnalyzer::SkipToEnd() {
  std::lock_guard<std::mutex> g(process_mu_);
  processed_.store(log_->last_lsn(), std::memory_order_release);
}

void LogAnalyzer::ProcessUpTo(Lsn target) {
  if (processed_.load(std::memory_order_acquire) >= target) return;
  std::lock_guard<std::mutex> g(process_mu_);
  Lsn cursor = processed_.load(std::memory_order_acquire);
  if (cursor >= target) return;
  std::vector<LogRecord> batch;
  Lsn hi = log_->ReadAfter(cursor, &batch);
  for (const LogRecord& rec : batch) {
    ProcessRecord(rec);
  }
  processed_.store(hi, std::memory_order_release);
}

void LogAnalyzer::ThreadMain() {
  while (running_.load(std::memory_order_acquire)) {
    ProcessUpTo(log_->last_lsn());
    // Background tailer: keeps the tables fresh between explicit syncs
    // without burning the (single) CPU.
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

void LogAnalyzer::ProcessRecord(const LogRecord& rec) {
  // The reorganizer maintains the ERT itself when migrating (Figure 5)
  // and its reference rewrites must not re-enter either table.
  if (rec.source == LogSource::kReorg) return;
  records_processed_.fetch_add(1, std::memory_order_relaxed);
  switch (rec.type) {
    case LogRecordType::kSetRef:
      HandleRefChange(rec.txn, rec.oid, rec.old_ref, rec.new_ref);
      break;
    case LogRecordType::kCreate:
      for (ObjectId r : rec.refs_image) {
        if (r.valid()) {
          HandleRefChange(rec.txn, rec.oid, ObjectId::Invalid(), r);
        }
      }
      break;
    case LogRecordType::kFree:
      for (ObjectId r : rec.refs_image) {
        if (r.valid()) {
          HandleRefChange(rec.txn, rec.oid, r, ObjectId::Invalid());
        }
      }
      break;
    case LogRecordType::kClr:
      // CLR payloads describe the compensating action, so they are
      // processed exactly like forward records: an abort that
      // reintroduces a deleted reference counts as an insertion
      // (Section 4.5).
      switch (rec.compensates) {
        case LogRecordType::kSetRef:
          HandleRefChange(rec.txn, rec.oid, rec.old_ref, rec.new_ref);
          break;
        case LogRecordType::kCreate:  // compensating action: free
          break;  // creator's refs were already undone record by record
        case LogRecordType::kFree:  // compensating action: recreate
          for (ObjectId r : rec.refs_image) {
            if (r.valid()) {
              HandleRefChange(rec.txn, rec.oid, ObjectId::Invalid(), r);
            }
          }
          break;
        default:
          break;
      }
      break;
    default:
      break;
  }
}

void LogAnalyzer::HandleRefChange(TxnId txn, ObjectId parent,
                                  ObjectId old_child, ObjectId new_child) {
  if (old_child.valid()) {
    if (old_child.partition() != parent.partition()) {
      erts_->For(old_child.partition()).RemoveRef(old_child, parent);
    }
    if (trt_->EnabledFor(old_child.partition())) {
      trt_->NoteDelete(old_child, parent, txn);
    }
  }
  if (new_child.valid()) {
    if (new_child.partition() != parent.partition()) {
      erts_->For(new_child.partition()).AddRef(new_child, parent);
    }
    if (trt_->EnabledFor(new_child.partition())) {
      trt_->NoteInsert(new_child, parent, txn);
    }
  }
}

}  // namespace brahma
