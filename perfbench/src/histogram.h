#ifndef PERFBENCH_HISTOGRAM_H_
#define PERFBENCH_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

namespace perfbench {

// Fixed-memory log-linear histogram of non-negative integer samples
// (nanoseconds here), in the HdrHistogram style: values below 64 get a
// bucket each; above that every power-of-two octave is split into 32
// equal sub-buckets. A bucket's width is at most 1/32 of its lower bound,
// so a percentile read back as the bucket midpoint is within about 1.6%
// of the exact sample. One histogram is ~9.5 KiB whatever the sample
// count; it is kept per thread and merged after the threads stop.
class Histogram {
 public:
  static constexpr int kSubBits = 5;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;  // 32
  // Values at or above 2^40 ns (~18 minutes) land in the last bucket.
  static constexpr int kMaxBits = 40;
  static constexpr size_t kBuckets =
      (kMaxBits - kSubBits) * kSub + 2 * kSub;

  static size_t BucketOf(uint64_t v) {
    v = std::min<uint64_t>(v, (uint64_t{1} << kMaxBits) - 1);
    const int msb = std::bit_width(v) - 1;
    const int shift = msb > kSubBits ? msb - kSubBits : 0;
    return static_cast<size_t>(shift) * kSub + (v >> shift);
  }
  // Smallest value mapping to bucket i, and the bucket's width.
  static uint64_t BucketLow(size_t i) {
    if (i < 2 * kSub) return i;
    const uint64_t shift = i / kSub - 1;
    const uint64_t mant = i - shift * kSub;
    return mant << shift;
  }
  static uint64_t BucketWidth(size_t i) {
    return i < 2 * kSub ? 1 : uint64_t{1} << (i / kSub - 1);
  }

  void Add(uint64_t v) {
    ++counts_[BucketOf(v)];
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  void Merge(const Histogram& o) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
    sum_ += o.sum_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  double mean() const {
    return count_ > 0 ? static_cast<double>(sum_) / static_cast<double>(count_)
                      : 0.0;
  }

  // Nearest-rank percentile (q in [0, 1]), read back by interpolating
  // the rank's position linearly inside the bucket that holds it (a bare
  // bucket midpoint would read the same value run after run), clamped to
  // the observed range. 0 for an empty histogram.
  double Percentile(double q) const {
    if (count_ == 0) return 0.0;
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_));
    if (static_cast<double>(rank) < q * static_cast<double>(count_)) ++rank;
    rank = std::clamp<uint64_t>(rank, 1, count_);
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (seen + counts_[i] >= rank) {
        const double pos = (static_cast<double>(rank - seen) - 0.5) /
                           static_cast<double>(counts_[i]);
        const double v = static_cast<double>(BucketLow(i)) +
                         pos * static_cast<double>(BucketWidth(i));
        return std::clamp(v, static_cast<double>(min_),
                          static_cast<double>(max_));
      }
      seen += counts_[i];
    }
    return static_cast<double>(max_);
  }

 private:
  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HISTOGRAM_H_
