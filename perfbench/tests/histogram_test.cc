// Checks the benchmark's log-linear histogram against exact percentiles of
// the same samples: every read-back must lie within one bucket's relative
// error (1/32) of the nearest-rank sample.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "histogram.h"

namespace perfbench {
namespace {

double ExactNearestRank(std::vector<uint64_t> v, double q) {
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

void ExpectWithinBucketError(const std::vector<uint64_t>& samples) {
  Histogram h;
  for (uint64_t s : samples) h.Add(s);
  ASSERT_EQ(h.count(), samples.size());
  for (double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const double exact = ExactNearestRank(samples, q);
    const double got = h.Percentile(q);
    EXPECT_LE(std::abs(got - exact), exact / Histogram::kSub + 1.0)
        << "q=" << q << " exact=" << exact << " got=" << got;
  }
}

TEST(HistogramTest, BucketsAreContiguousAndBounded) {
  for (uint64_t v = 0; v < (uint64_t{1} << 16); ++v) {
    const size_t b = Histogram::BucketOf(v);
    ASSERT_LT(b, Histogram::kBuckets);
    ASSERT_GE(v, Histogram::BucketLow(b));
    ASSERT_LT(v, Histogram::BucketLow(b) + Histogram::BucketWidth(b));
    if (v >= 64) {
      ASSERT_LE(Histogram::BucketWidth(b) * Histogram::kSub,
                Histogram::BucketLow(b));
    }
  }
  EXPECT_LT(Histogram::BucketOf(UINT64_MAX), Histogram::kBuckets);
}

TEST(HistogramTest, UniformMicroseconds) {
  std::mt19937_64 rng(1);
  std::uniform_int_distribution<uint64_t> d(1000, 5000000);
  std::vector<uint64_t> v(100000);
  for (auto& x : v) x = d(rng);
  ExpectWithinBucketError(v);
}

TEST(HistogramTest, HeavyTailedLatencies) {
  std::mt19937_64 rng(2);
  std::lognormal_distribution<double> d(14.0, 1.0);  // ~1.2 ms median in ns
  std::vector<uint64_t> v(200000);
  for (auto& x : v) x = static_cast<uint64_t>(d(rng));
  ExpectWithinBucketError(v);
}

TEST(HistogramTest, SmallValuesStayInTheirUnitBucket) {
  std::vector<uint64_t> v;
  for (uint64_t i = 0; i < 64; ++i) v.push_back(i);
  Histogram h;
  for (uint64_t s : v) h.Add(s);
  // Unit-wide buckets: interpolation stays inside [v, v + 1).
  EXPECT_GE(h.Percentile(0.5), ExactNearestRank(v, 0.5));
  EXPECT_LT(h.Percentile(0.5), ExactNearestRank(v, 0.5) + 1);
  EXPECT_EQ(h.Percentile(1.0), 63.0);
}

TEST(HistogramTest, MergeEqualsSingleHistogram) {
  std::mt19937_64 rng(3);
  std::exponential_distribution<double> d(1e-6);
  Histogram all, a, b;
  std::vector<uint64_t> v(50000);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<uint64_t>(d(rng));
    all.Add(v[i]);
    (i % 2 == 0 ? a : b).Add(v[i]);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.sum(), all.sum());
  for (double q : {0.5, 0.99}) EXPECT_EQ(a.Percentile(q), all.Percentile(q));
  ExpectWithinBucketError(v);
}

TEST(HistogramTest, EmptyReadsZero) {
  Histogram h;
  EXPECT_EQ(h.Percentile(0.5), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
}

}  // namespace
}  // namespace perfbench
