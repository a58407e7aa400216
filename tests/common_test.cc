#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/io.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/time.h"

namespace insider {
namespace {

TEST(SimClockTest, StartsAtZero) {
  SimClock clock;
  EXPECT_EQ(clock.Now(), 0);
}

TEST(SimClockTest, AdvanceToMovesForward) {
  SimClock clock;
  clock.AdvanceTo(Seconds(3));
  EXPECT_EQ(clock.Now(), Seconds(3));
}

TEST(SimClockTest, AdvanceToNeverMovesBackwards) {
  SimClock clock;
  clock.AdvanceTo(Seconds(5));
  clock.AdvanceTo(Seconds(2));
  EXPECT_EQ(clock.Now(), Seconds(5));
}

TEST(SimClockTest, RelativeAdvance) {
  SimClock clock(Milliseconds(100));
  clock.Advance(Milliseconds(50));
  EXPECT_EQ(clock.Now(), Milliseconds(150));
}

TEST(TimeTest, UnitConversions) {
  EXPECT_EQ(Seconds(1), 1'000'000);
  EXPECT_EQ(Milliseconds(1), 1'000);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(7)), 7.0);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool differs = false;
  for (int i = 0; i < 10; ++i) {
    if (a() != b()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(13), 13u);
  }
}

TEST(RngTest, BetweenInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    std::int64_t v = rng.Between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(3);
  EXPECT_FALSE(rng.Chance(0.0));
  EXPECT_TRUE(rng.Chance(1.0));
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(5);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.3);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Gaussian(2.0, 3.0));
  EXPECT_NEAR(stats.Mean(), 2.0, 0.1);
  EXPECT_NEAR(stats.Stddev(), 3.0, 0.1);
}

TEST(RngTest, ParetoAtLeastScale) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.Pareto(2.0, 1.5), 2.0);
  }
}

TEST(RngTest, ForkDecorrelates) {
  Rng parent(9);
  Rng child = parent.Fork();
  // The child stream should differ from the parent's continuation.
  bool differs = false;
  for (int i = 0; i < 10; ++i) {
    if (parent() != child()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RunningStatsTest, EmptyHasNoFabricatedMoments) {
  // An empty accumulator used to report Mean()/Min()/Max() == 0.0, which is
  // indistinguishable from a real measurement of zero. NaN is unambiguous
  // (and bench/json_writer.h already serializes non-finite values as null).
  RunningStats s;
  EXPECT_EQ(s.Count(), 0u);
  EXPECT_TRUE(std::isnan(s.Mean()));
  EXPECT_TRUE(std::isnan(s.Min()));
  EXPECT_TRUE(std::isnan(s.Max()));
  EXPECT_DOUBLE_EQ(s.Variance(), 0.0);
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_NEAR(s.Variance(), 32.0 / 7.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
  EXPECT_DOUBLE_EQ(s.Sum(), 40.0);
}

TEST(RunningStatsTest, MergeMatchesCombinedStream) {
  RunningStats a, b, combined;
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Gaussian(0, 1);
    (i % 2 ? a : b).Add(v);
    combined.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.Count(), combined.Count());
  EXPECT_NEAR(a.Mean(), combined.Mean(), 1e-9);
  EXPECT_NEAR(a.Variance(), combined.Variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.Min(), combined.Min());
  EXPECT_DOUBLE_EQ(a.Max(), combined.Max());
}

// Property: merging any partition of a stream is equivalent to accumulating
// the stream in one pass, within 1e-9 on every moment. Randomizes the split
// count, split points, and value distribution across seeds.
TEST(RunningStatsTest, MergeOfArbitrarySplitsMatchesSinglePass) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 0x9E3779B97F4A7C15ull);
    const std::size_t n = 100 + rng.Below(2000);
    std::vector<double> values(n);
    for (double& v : values) {
      // Mix of scales so the parallel-variance path sees hostile data.
      v = rng.Chance(0.5) ? rng.Gaussian(1e6, 50.0) : rng.Exponential(3.0);
    }

    RunningStats single;
    for (double v : values) single.Add(v);

    const std::size_t parts = 2 + rng.Below(7);
    std::vector<RunningStats> splits(parts);
    for (double v : values) splits[rng.Below(parts)].Add(v);
    RunningStats merged;
    for (const RunningStats& s : splits) merged.Merge(s);

    ASSERT_EQ(merged.Count(), single.Count()) << "seed " << seed;
    EXPECT_NEAR(merged.Mean(), single.Mean(),
                1e-9 * std::abs(single.Mean()) + 1e-9)
        << "seed " << seed;
    EXPECT_NEAR(merged.Variance(), single.Variance(),
                1e-9 * single.Variance() + 1e-9)
        << "seed " << seed;
    EXPECT_DOUBLE_EQ(merged.Min(), single.Min()) << "seed " << seed;
    EXPECT_DOUBLE_EQ(merged.Max(), single.Max()) << "seed " << seed;
    EXPECT_NEAR(merged.Sum(), single.Sum(),
                1e-9 * std::abs(single.Sum()) + 1e-9)
        << "seed " << seed;
  }
}

TEST(PearsonCorrelationTest, PerfectPositive) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
}

TEST(PearsonCorrelationTest, PerfectNegative) {
  std::vector<double> x{1, 2, 3};
  std::vector<double> y{3, 2, 1};
  EXPECT_NEAR(PearsonCorrelation(x, y), -1.0, 1e-12);
}

TEST(PearsonCorrelationTest, ConstantSeriesIsZero) {
  std::vector<double> x{1, 1, 1};
  std::vector<double> y{1, 2, 3};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, y), 0.0);
}

TEST(IoRequestTest, EqualityAndDefaults) {
  IoRequest a{Seconds(1), 100, 8, IoMode::kWrite};
  IoRequest b = a;
  EXPECT_EQ(a, b);
  b.lba = 101;
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace insider
