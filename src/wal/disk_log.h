#ifndef BRAHMA_WAL_DISK_LOG_H_
#define BRAHMA_WAL_DISK_LOG_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/params.h"
#include "common/status.h"
#include "wal/log_record.h"

namespace brahma {

// Counters surfaced by the corruption-aware recovery scan (DESIGN.md
// §12). Database::Recover accumulates them in Database::scrub().
struct ScrubReport {
  uint64_t segments_scanned = 0;
  uint64_t wal_records_verified = 0;
  uint64_t wal_bytes_scanned = 0;
  uint64_t torn_tails_truncated = 0;
  uint64_t torn_bytes_discarded = 0;
  uint64_t checkpoint_generations_discarded = 0;

  void Add(const ScrubReport& o) {
    segments_scanned += o.segments_scanned;
    wal_records_verified += o.wal_records_verified;
    wal_bytes_scanned += o.wal_bytes_scanned;
    torn_tails_truncated += o.torn_tails_truncated;
    torn_bytes_discarded += o.torn_bytes_discarded;
    checkpoint_generations_discarded += o.checkpoint_generations_discarded;
  }
};

// Wire codec for LogRecord: fixed-width little-endian fields followed by
// the three variable payloads, each length-prefixed. Exposed for the
// round-trip tests.
void EncodeLogRecord(const LogRecord& rec, std::vector<uint8_t>* out);
bool DecodeLogRecord(const uint8_t* data, size_t n, LogRecord* out);

// Disk backend for the WAL (DESIGN.md §12). Fixed-size segment files
// named wal-<seqno>.seg under a directory, each opened by a 40-byte
// header [magic | version | incarnation | seqno | base_lsn | header CRC]
// and filled with frames [len | kind | CRC32C | payload] where the CRC
// covers everything but itself. Records never split across segments: a
// segment rotates when the next frame would overflow it, and segments
// wholly below the checkpoint truncation point are recycled.
//
// LogManager owns the record order: Buffer() is called under the log
// mutex at append time (LSNs arrive strictly ascending), Force() is
// called by the elected flusher outside it — one Force is one device
// write burst plus one fsync (group-commit batches therefore map to one
// fsync). On a force failure nothing is acknowledged: the failed frame
// and everything behind it re-queue and are rewritten at the same file
// offset by the next force, exactly the rewrite-the-tail discipline the
// recovery scan's torn-tail rule assumes.
class DiskLog {
 public:
  struct Options {
    std::string dir;
    uint64_t segment_bytes = kWalSegmentBytes;
    FsyncMode fsync_mode = FsyncMode::kFull;
  };

  explicit DiskLog(Options opts) : opts_(std::move(opts)) {}

  DiskLog(const DiskLog&) = delete;
  DiskLog& operator=(const DiskLog&) = delete;

  // Creates the directory if needed and positions appends after any
  // existing segments. Does not read record content: call Recover() to
  // scan an existing log.
  Status Open();

  // Queues an encoded frame for the next force. Called under the
  // LogManager mutex — records arrive in LSN order.
  void Buffer(const LogRecord& rec);

  // Writes all queued frames (rotating segments as needed) and fsyncs.
  // On failure the unwritten frames remain queued and the durability
  // watermark must not advance.
  Status Force();

  // Crash simulation: drops queued frames and closes the current segment
  // without syncing, leaving the on-disk state exactly as the "dead"
  // process left it.
  void CrashClose();

  // Corruption-aware scan of the on-disk log. Verifies every header and
  // frame CRC and the LSN chain. A bad or short frame in the *last*
  // segment is a torn tail: if every lost LSN is above stable_floor it
  // is truncated away (the writes were never acknowledged); if it would
  // swallow a record at or below the floor, or if a bad frame has good
  // segments after it, the damage is to stable data and the scan returns
  // Status::Corrupted. Surviving records (LSN ascending) land in *out*
  // and appends resume at the truncation point.
  Status Recover(Lsn stable_floor, std::vector<LogRecord>* out,
                 ScrubReport* report);

  // Checkpoint truncation: recycles whole segments whose every record
  // has lsn < upto. The current segment is never recycled.
  void TruncateThrough(Lsn upto);

  // Successful fsync calls (monotone; readers take deltas per run).
  uint64_t fsyncs() const;

  const std::string& dir() const { return opts_.dir; }

 private:
  struct Segment {
    uint64_t seqno = 0;
    Lsn base_lsn = kInvalidLsn;   // lsn of the segment's first frame
    Lsn next_lsn = kInvalidLsn;   // one past its last frame (maintained
                                  // for the head; exact for sealed ones)
  };
  struct PendingFrame {
    Lsn lsn = kInvalidLsn;
    std::vector<uint8_t> bytes;  // full frame: header + payload
  };

  std::string SegmentPath(uint64_t seqno) const;
  Status OpenFreshSegmentLocked(Lsn base_lsn);
  Status SyncCurrentLocked();

  Options opts_;

  // Two locks so appends never wait on the device: Buffer takes only
  // mu_ (pending queue); Force swaps the queue out under mu_, then does
  // file I/O under io_mu_. Lock order where both are held: io_mu_, mu_.
  std::mutex mu_;                     // guards pending_
  std::deque<PendingFrame> pending_;

  std::mutex io_mu_;                  // guards all file state below
  std::vector<Segment> segments_;     // on-disk, ascending seqno
  FileHandle cur_;                    // open handle on segments_.back()
  uint64_t cur_off_ = 0;              // append offset in cur_
  bool cur_dirty_ = false;            // written since last successful sync
  std::vector<std::string> recycle_;  // reusable segment files
  uint32_t incarnation_ = 0;
  uint64_t next_seqno_ = 1;
  std::atomic<uint64_t> fsyncs_{0};
};

}  // namespace brahma

#endif  // BRAHMA_WAL_DISK_LOG_H_
