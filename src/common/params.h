#ifndef BRAHMA_COMMON_PARAMS_H_
#define BRAHMA_COMMON_PARAMS_H_

#include <chrono>
#include <cstdint>

namespace brahma {

// Calibrated system-wide defaults shared by the library and the benches
// (see DESIGN.md §2). Two lock-wait timeouts exist on purpose:
//
// * kPaperLockTimeout — the literal 1 s of the paper's experiments
//   (Section 5), proportionate to transactions that averaged ~800 ms at
//   MPL 30 on 2000-era hardware. This is the library default
//   (DatabaseOptions, IraOptions, PqrOptions).
// * kCalibratedLockTimeout — the benches run the same transactions in
//   ~2 ms on modern hardware; 50 ms keeps the paper's *proportions*
//   (timeout ≈ 25x a median transaction) so deadlock-resolution costs
//   do not distort the reproduced ratios. BRAHMA_BENCH_FULL=1 restores
//   the literal paper value.
inline constexpr std::chrono::milliseconds kPaperLockTimeout{1000};
inline constexpr std::chrono::milliseconds kCalibratedLockTimeout{50};

// Modeled commit-time disk force (paper Section 5.3.1): the log force a
// transaction pays at commit, scaled to modern hardware the same way the
// lock timeouts are (see EXPERIMENTS.md "Methodology"). The benches
// charge this per log force; it is the dominant reason the paper's IRA
// barely dents user throughput — migration transactions spend most of
// their life waiting on this force, during which user work proceeds.
inline constexpr std::chrono::microseconds kCommitForceLatency{800};

// Deadlock handling. The paper resolves reorg/user deadlocks with the 1 s
// lock-wait timeout alone (Section 5); with commits now in the single-digit
// milliseconds (group commit, DESIGN.md §9) a burned timeout dominates the
// user tail, so the lock manager additionally runs waits-for cycle
// detection (DESIGN.md §10).
//
// * kTimeoutOnly — the paper's literal behavior (ablation baseline).
// * kDetect     — explicit waits-for graph; a blocked Acquire runs DFS
//   cycle detection after kDeadlockDetectGrace (most waits are shorter
//   than the grace, so the common no-conflict path never touches the
//   graph machinery beyond registration).
enum class DeadlockPolicy : uint8_t { kTimeoutOnly, kDetect };

inline constexpr DeadlockPolicy kDefaultDeadlockPolicy = DeadlockPolicy::kDetect;

// Epoch-based reclamation for the latch-free read path (DESIGN.md §11).
//
// kEpochMaxSlots bounds concurrent guard pins (threads x nesting depth);
// an Enter never blocks below that bound. 256 is ~8x the largest bench
// thread count with nested traversal guards on every thread.
//
// kEpochRelocationMaxHops caps how many old -> new relocation hops a
// latch-free reader chases before declaring a reference stale. Each hop
// is one completed migration of the same object during the reader's
// walk; two is already rare, so 8 only guards against a pathological
// publish cycle.
inline constexpr uint32_t kEpochMaxSlots = 256;
inline constexpr uint32_t kEpochRelocationMaxHops = 8;

// Durability substrate (DESIGN.md §12). kInMemory is the seed's fast
// mode: the stable log and the checkpoint image live in RAM and a
// "force" is a modeled latency. kDisk puts fixed-size WAL segment files
// and generation-stamped checkpoint images under DatabaseOptions::wal_dir,
// with one real fsync per force (group-commit batches map to one fsync)
// and a corruption-aware recovery scan.
enum class Durability : uint8_t { kInMemory, kDisk };

// How a force reaches the platter. kNoop skips the fsync(2) syscall but
// keeps all bookkeeping (the fsync counter, stable-LSN advancement):
// crash-simulation tests kill the database without killing the process,
// so the page cache is exactly as durable as the tests need — and 200
// fuzz seeds do not serialize on a disk flush queue.
enum class FsyncMode : uint8_t { kFull, kNoop };

// WAL segment size. Records never split across segments; a segment
// rotates when the next record would overflow it, and whole segments
// below the checkpoint truncation point are recycled. Tests shrink this
// to force rotation with tiny logs.
inline constexpr uint64_t kWalSegmentBytes = 1ull << 20;

// Data backing for partition arenas (DESIGN.md §13). kMemory is the
// seed's model: the arena is plain RAM and every page is always
// resident. kDisk puts the arenas behind a DiskManager data file and a
// fixed-size frame BufferPool — only a bounded number of pages stay
// resident, evicted dirty pages are written back, and cold pages are
// fetched with a real pread. Orthogonal to Durability: the data file is
// an operational cache, not the durability root (checkpoint + WAL redo
// remain the recovery truth).
enum class DataBacking : uint8_t { kMemory, kDisk };

// Page (frame) size of the disk-backed data path. Must be a power of
// two; partition capacities must be a multiple of it. 4 KiB matches the
// OS page so a cold frame's memory can be returned to the kernel.
inline constexpr uint64_t kDataPageSize = 4096;

// Default buffer-pool budget: resident frames across ALL partitions.
// 256 x 4 KiB = 1 MiB — small on purpose, so the Fig-6 bench can run
// data several times larger than the pool. The pool refuses fewer than
// kBufferPoolMinFrames (eviction needs at least one victim candidate
// while another frame is pinned).
inline constexpr uint64_t kBufferPoolFrames = 256;
inline constexpr uint64_t kBufferPoolMinFrames = 2;

// CRC-32C (Castagnoli), reflected form — hardware-friendly and the
// polynomial every modern WAL uses (iSCSI, ext4, RocksDB).
inline constexpr uint32_t kCrcPolynomial = 0x82F63B78u;

// Randomized crash-recovery fuzzer: seeds per run unless
// BRAHMA_CRASH_FUZZ_SEEDS overrides (CI smoke blocks run fewer).
inline constexpr int kCrashFuzzDefaultSeeds = 200;

// How long a blocked Acquire waits before running detection, and then
// between detection passes. Cycles persist until broken, so a short grace
// only delays resolution by ~one slice while keeping detection off the
// uncontended path entirely.
inline constexpr std::chrono::milliseconds kDeadlockDetectGrace{5};

// Cap on the DFS walk through the merged waits-for graph. Cycles longer
// than this fall back to the lock-wait timeout (they are vanishingly rare:
// a k-cycle needs k transactions blocked in a ring).
inline constexpr uint32_t kDeadlockMaxDfsDepth = 64;

}  // namespace brahma

#endif  // BRAHMA_COMMON_PARAMS_H_
