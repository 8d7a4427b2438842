#ifndef BRAHMA_COMMON_HISTOGRAM_H_
#define BRAHMA_COMMON_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

namespace brahma {

// Fixed-memory log-linear histogram of non-negative samples, in the
// HdrHistogram style. A sample is bucketed in ticks of 1e-6 of its unit
// (nanoseconds for the millisecond latencies recorded throughout): ticks
// below 64 get a bucket each; above that every power-of-two octave is
// split into 32 equal sub-buckets. A bucket's width is at most 1/32 of
// its lower bound, so a percentile read back from the buckets is within
// about 1.6% of the exact sample. One histogram is ~9.5 KiB whatever the
// sample count.
//
// Count, mean, standard deviation (Welford), min and max are exact.
// Percentiles and MeanOfTop are read from the buckets. Paper Table 2
// reports the average, maximum and standard deviation of response times.
//
// Not thread-safe: keep one per thread and Merge after the threads stop.
class Histogram {
 public:
  static constexpr double kTicksPerUnit = 1e6;
  static constexpr int kSubBits = 5;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;  // 32
  // Samples at or above 2^40 ticks (~18 minutes of milliseconds) land
  // in the last bucket; their exact value still counts for mean and max.
  static constexpr int kMaxBits = 40;
  static constexpr size_t kBuckets = (kMaxBits - kSubBits) * kSub + 2 * kSub;

  static size_t BucketOf(uint64_t ticks) {
    ticks = std::min<uint64_t>(ticks, (uint64_t{1} << kMaxBits) - 1);
    const int msb = std::bit_width(ticks) - 1;
    const int shift = msb > kSubBits ? msb - kSubBits : 0;
    return static_cast<size_t>(shift) * kSub + (ticks >> shift);
  }
  // Smallest tick mapping to bucket i, and the bucket's width in ticks.
  static uint64_t BucketLow(size_t i) {
    if (i < 2 * kSub) return i;
    const uint64_t shift = i / kSub - 1;
    return (i - shift * kSub) << shift;
  }
  static uint64_t BucketWidth(size_t i) {
    return i < 2 * kSub ? 1 : uint64_t{1} << (i / kSub - 1);
  }

  // Negative (and NaN) samples count as 0.
  void Add(double x) {
    if (!(x > 0)) x = 0;
    ++counts_[BucketOfValue(x)];
    if (count_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }

  // Takes back one earlier Add(x), for a sliding window. Count, mean,
  // variance and the buckets follow; min and max keep bounding every
  // sample ever added until the histogram empties.
  void Remove(double x) {
    if (!(x > 0)) x = 0;
    if (count_ <= 1) {
      *this = Histogram();
      return;
    }
    --counts_[BucketOfValue(x)];
    const double old_mean = mean_;
    --count_;
    mean_ = (old_mean * static_cast<double>(count_ + 1) - x) /
            static_cast<double>(count_);
    m2_ = std::max(0.0, m2_ - (x - mean_) * (x - old_mean));
  }

  void Merge(const Histogram& o) {
    if (o.count_ == 0) return;
    if (count_ == 0) {
      *this = o;
      return;
    }
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    // Chan et al.'s pairwise combination of the Welford moments.
    const double n = static_cast<double>(count_);
    const double m = static_cast<double>(o.count_);
    const double delta = o.mean_ - mean_;
    mean_ += delta * m / (n + m);
    m2_ += o.m2_ + delta * delta * n * m / (n + m);
    count_ += o.count_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

  uint64_t count() const { return count_; }
  double mean() const { return mean_; }
  // Sample (n - 1) standard deviation.
  double stddev() const {
    return count_ > 1 ? std::sqrt(m2_ / static_cast<double>(count_ - 1))
                      : 0.0;
  }
  double min() const { return min_; }
  double max() const { return max_; }

  // Nearest-rank percentile (q in [0, 1]). 0 for an empty histogram.
  double Percentile(double q) const {
    if (count_ == 0) return 0.0;
    const double exact = q * static_cast<double>(count_);
    uint64_t rank = static_cast<uint64_t>(std::max(exact, 0.0));
    if (static_cast<double>(rank) < exact) ++rank;
    return ValueAtRank(std::clamp<uint64_t>(rank, 1, count_));
  }

  // Mean of the k largest samples (the paper notes the trend holds for
  // "the average of the top 10 response times").
  double MeanOfTop(uint64_t k) const {
    k = std::min(k, count_);
    if (k == 0) return 0.0;
    double sum = 0;
    for (uint64_t r = count_ - k + 1; r <= count_; ++r) sum += ValueAtRank(r);
    return sum / static_cast<double>(k);
  }

 private:
  static size_t BucketOfValue(double x) {
    return BucketOf(static_cast<uint64_t>(
        std::min(x * kTicksPerUnit, static_cast<double>(uint64_t{1} << 62))));
  }

  // The rank-th smallest sample (1-based), read back by interpolating the
  // rank's position linearly inside the bucket that holds it (a bare
  // bucket midpoint would read the same value run after run), clamped to
  // the observed range.
  double ValueAtRank(uint64_t rank) const {
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (seen + counts_[i] >= rank) {
        const double pos = (static_cast<double>(rank - seen) - 0.5) /
                           static_cast<double>(counts_[i]);
        const double ticks = static_cast<double>(BucketLow(i)) +
                             pos * static_cast<double>(BucketWidth(i));
        return std::clamp(ticks / kTicksPerUnit, min_, max_);
      }
      seen += counts_[i];
    }
    return max_;
  }

  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace brahma

#endif  // BRAHMA_COMMON_HISTOGRAM_H_
