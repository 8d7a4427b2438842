#include "trace.h"

#include <cstdio>

namespace perfbench {

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kTxn: return "txn.logical";
    case Kind::kAttempt: return "txn.attempt";
    case Kind::kLock: return "txn.lock";
    case Kind::kRead: return "txn.read";
    case Kind::kWrite: return "txn.write";
    case Kind::kCommit: return "txn.commit";
    case Kind::kAbort: return "txn.abort";
    case Kind::kNetBegin: return "net.begin";
    case Kind::kNetRead: return "net.read";
    case Kind::kNetUpdate: return "net.update";
    case Kind::kNetCommit: return "net.commit";
    case Kind::kNetAbort: return "net.abort";
    case Kind::kReorgPass: return "reorg.pass";
    case Kind::kReorgTraverse: return "reorg.traverse";
    case Kind::kReorgMigrate: return "reorg.migrate";
    case Kind::kTarget: return "reorg.target";
    case Kind::kCount: break;
  }
  return "?";
}

ThreadTrace* Tracer::Register(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  threads_.push_back(std::make_unique<ThreadTrace>(
      name, static_cast<uint32_t>(threads_.size() + 1), capacity_));
  return threads_.back().get();
}

std::array<KindSummary, kNumKinds> Tracer::Summarize() const {
  std::lock_guard<std::mutex> g(mu_);
  std::array<KindSummary, kNumKinds> out{};
  for (const auto& t : threads_) {
    for (size_t i = 0; i < kNumKinds; ++i) {
      out[i].hist.Merge(t->hist_[i]);
      out[i].self_ns += t->self_ns_[i];
      out[i].instants += t->instants_[i];
    }
  }
  return out;
}

Histogram Tracer::MigrateGaps() const {
  std::lock_guard<std::mutex> g(mu_);
  Histogram h;
  for (const auto& t : threads_) h.Merge(t->migrate_gap_);
  return h;
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> g(mu_);
  uint64_t n = 0;
  for (const auto& t : threads_) n += t->dropped_;
  return n;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              int64_t origin_ns) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> g(mu_);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  for (const auto& t : threads_) {
    sep();
    std::fprintf(f,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                 t->tid_, t->name_.c_str());
    for (const ThreadTrace::Event& e : t->events_) {
      sep();
      const double ts_us = static_cast<double>(e.start_ns - origin_ns) / 1e3;
      if (e.dur_ns == 0 && e.kind == Kind::kTarget) {
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"args\":{\"id\":%llu}}",
                     KindName(e.kind), t->tid_, ts_us,
                     static_cast<unsigned long long>(e.id));
      } else {
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu}}",
                     KindName(e.kind), t->tid_, ts_us,
                     static_cast<double>(e.dur_ns) / 1e3,
                     static_cast<unsigned long long>(e.id));
      }
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
