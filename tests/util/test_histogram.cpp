#include "util/histogram.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace bpart {
namespace {

TEST(LogHistogram, PowersOfTwoBuckets) {
  LogHistogram h;
  h.add(0);   // bucket 0
  h.add(1);   // bucket 0 ([1,2))
  h.add(2);   // bucket 1
  h.add(3);   // bucket 1
  h.add(4);   // bucket 2
  h.add(1023);  // bucket 9
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(9), 1u);
  EXPECT_EQ(h.total(), 6u);
}

TEST(LogHistogram, MissingBucketsReadZero) {
  LogHistogram h;
  h.add(1);
  EXPECT_EQ(h.bucket_count(5), 0u);
  EXPECT_EQ(h.bucket_count(100), 0u);
}

TEST(LogHistogram, SlopeOfGeometricDecayIsNegative) {
  // counts halve per bucket -> slope of log2(count) vs bucket = -1.
  LogHistogram h;
  for (std::size_t b = 0; b < 10; ++b)
    h.add(std::uint64_t{1} << b, std::uint64_t{1} << (10 - b));
  EXPECT_NEAR(h.log_log_slope(), -1.0, 1e-9);
}

TEST(LogHistogram, SlopeNeedsTwoBuckets) {
  LogHistogram h;
  h.add(4, 100);
  EXPECT_DOUBLE_EQ(h.log_log_slope(), 0.0);
}

TEST(LogHistogram, QuantileInterpolatesInsideBucket) {
  LogHistogram h;
  h.add(700, 100);  // all samples in bucket 9 = [512, 1024)
  const double median = h.quantile(0.5);
  EXPECT_GE(median, 512.0);
  EXPECT_LE(median, 1024.0);
  // 50 of 100 samples -> halfway through the bucket's span.
  EXPECT_NEAR(median, 768.0, 1e-9);
}

TEST(LogHistogram, QuantileIsMonotoneAcrossBuckets) {
  LogHistogram h;
  h.add(10, 50);    // bucket 3 = [8, 16)
  h.add(1000, 40);  // bucket 9 = [512, 1024)
  h.add(5000, 10);  // bucket 12 = [4096, 8192)
  const double p10 = h.quantile(0.10);
  const double p50 = h.quantile(0.50);
  const double p95 = h.quantile(0.95);
  EXPECT_LE(p10, p50);
  EXPECT_LE(p50, p95);
  EXPECT_LT(p10, 16.0);
  EXPECT_GE(p95, 4096.0);
}

TEST(LogHistogram, QuantileEdgeCases) {
  LogHistogram empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

  LogHistogram zeros;
  zeros.add(0, 10);  // bucket 0 spans [0, 2)
  EXPECT_GE(zeros.quantile(0.99), 0.0);
  EXPECT_LE(zeros.quantile(0.99), 2.0);

  LogHistogram h;
  h.add(100, 4);
  EXPECT_THROW((void)h.quantile(-0.1), CheckError);
  EXPECT_THROW((void)h.quantile(1.1), CheckError);
}

}  // namespace
}  // namespace bpart
