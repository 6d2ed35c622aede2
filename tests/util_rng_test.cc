#include "util/rng.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

namespace veritas {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.Uniform() != b.Uniform()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(RngTest, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformCustomRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(RngTest, UniformIndexCoversRange) {
  Rng rng(11);
  std::set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformIndex(5));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 4u);
}

TEST(RngTest, UniformIndexSingleton) {
  Rng rng(1);
  EXPECT_EQ(rng.UniformIndex(1), 0u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, BernoulliClampsOutOfRange) {
  Rng rng(5);
  EXPECT_FALSE(rng.Bernoulli(-0.5));
  EXPECT_TRUE(rng.Bernoulli(1.5));
}

TEST(RngTest, NormalMoments) {
  Rng rng(9);
  double sum = 0.0, sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(2.0, 0.5);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.02);
  EXPECT_NEAR(var, 0.25, 0.02);
}

TEST(RngTest, NormalWithZeroDeviationReturnsTheMean) {
  // A zero deviation is defined (std::normal_distribution itself requires
  // stddev > 0) and consumes exactly the engine state of a standard draw.
  Rng rng(21);
  Rng twin(21);
  EXPECT_EQ(rng.Normal(0.7, 0.0), 0.7);
  twin.Normal(0.0, 1.0);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(rng.Uniform(), twin.Uniform()) << "draw " << i;
  }
  EXPECT_EQ(rng.Normal(-3.0, 0.0), -3.0);
  twin.Normal(0.0, 1.0);
  EXPECT_EQ(rng.Normal(2.0, 0.5), twin.Normal(2.0, 0.5));
}

TEST(RngTest, ParetoIsHeavyTailedAndAtLeastOne) {
  Rng rng(13);
  int huge = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.Pareto(0.7);
    EXPECT_GE(x, 1.0);
    if (x > 100.0) ++huge;
  }
  // A heavy tail must produce some very large draws.
  EXPECT_GT(huge, 0);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(17);
  const std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(RngTest, CategoricalAllZeroFallsBackToUniform) {
  Rng rng(19);
  const std::vector<double> w = {0.0, 0.0};
  int counts[2] = {0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.Categorical(w)];
  EXPECT_GT(counts[0], 3000);
  EXPECT_GT(counts[1], 3000);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ShuffleChangesOrderEventually) {
  Rng rng(29);
  std::vector<int> v(32);
  for (int i = 0; i < 32; ++i) v[i] = i;
  const std::vector<int> orig = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, orig);  // 32! permutations; identity is astronomically rare.
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.Fork();
  // Child must be deterministic given the parent seed...
  Rng parent2(31);
  Rng child2 = parent2.Fork();
  for (int i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(child.Uniform(), child2.Uniform());
  }
}

}  // namespace
}  // namespace veritas
