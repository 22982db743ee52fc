#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "src/common/bit_util.h"
#include "src/common/metrics.h"
#include "src/common/random.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "tests/test_util.h"

namespace gpudb {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.message(), "");
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad input");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad input");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
}

TEST(StatusTest, CopyIsCheapAndEqualSemantics) {
  Status a = Status::Internal("boom");
  Status b = a;  // shared state
  EXPECT_EQ(b.message(), "boom");
  EXPECT_TRUE(b.IsInternal());
}

TEST(StatusTest, CodeNames) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotImplemented),
            "NotImplemented");
}

TEST(StatusTest, DropStatusCountsNonOkDropsByCode) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  MetricCounter& all = registry.counter("queries.dropped_status");
  MetricCounter& internal = registry.counter("queries.dropped_status.Internal");
  const uint64_t all_before = all.value();
  const uint64_t internal_before = internal.value();
  DropStatus(Status::OK(), "nothing to drop");
  DropStatus(Status::Internal("boom"), "test");
  EXPECT_EQ(all.value(), all_before + 1);
  EXPECT_EQ(internal.value(), internal_before + 1);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::OutOfRange("too big"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

Result<int> Doubled(Result<int> in) {
  GPUDB_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubled(21).ValueOrDie(), 42);
  Result<int> err = Doubled(Status::Internal("nope"));
  ASSERT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsInternal());
}

TEST(BitUtilTest, BitWidth) {
  EXPECT_EQ(bit_util::BitWidth(0), 0);
  EXPECT_EQ(bit_util::BitWidth(1), 1);
  EXPECT_EQ(bit_util::BitWidth(2), 2);
  EXPECT_EQ(bit_util::BitWidth(3), 2);
  EXPECT_EQ(bit_util::BitWidth(255), 8);
  EXPECT_EQ(bit_util::BitWidth(256), 9);
  EXPECT_EQ(bit_util::BitWidth((1u << 19) - 1), 19);
  EXPECT_EQ(bit_util::BitWidth(1u << 19), 20);
}

TEST(BitUtilTest, TestBit) {
  EXPECT_TRUE(bit_util::TestBit(0b1010, 1));
  EXPECT_FALSE(bit_util::TestBit(0b1010, 0));
  EXPECT_TRUE(bit_util::TestBit(0b1010, 3));
  EXPECT_FALSE(bit_util::TestBit(0b1010, 4));
}

TEST(BitUtilTest, CeilDiv) {
  EXPECT_EQ(bit_util::CeilDiv(10, 3), 4u);
  EXPECT_EQ(bit_util::CeilDiv(9, 3), 3u);
}

TEST(RandomTest, DeterministicForEqualSeeds) {
  Random a(7);
  Random b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1);
  Random b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RandomTest, BoundedValuesInRange) {
  Random rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(17), 17u);
  }
}

TEST(RandomTest, DoubleInUnitInterval) {
  Random rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, GaussianMomentsRoughlyStandard) {
  Random rng(4);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(RandomTest, LognormalPositive) {
  Random rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.NextLognormal(2.0, 1.0), 0.0);
  }
}

TEST(RandomTest, BoundedCoversDomain) {
  Random rng(6);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.NextUint64(8));
  EXPECT_EQ(seen.size(), 8u);
}

}  // namespace
}  // namespace gpudb
