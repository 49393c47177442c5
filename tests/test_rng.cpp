#include "core/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace naas::core {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a() == b();
  EXPECT_LT(equal, 5);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  std::vector<std::uint32_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a());
  a.reseed(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a(), first[static_cast<std::size_t>(i)]);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) {
    const int v = rng.uniform_int(0, 4);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 4);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (int c : counts) EXPECT_GT(c, 5000 / 5 / 2);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(7, 7), 7);
}

TEST(Rng, NormalMomentsMatchStandardNormal) {
  Rng rng(17);
  const int n = 50000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalWithMeanAndStddev) {
  Rng rng(23);
  const int n = 30000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(31);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, BernoulliDegenerate) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(13);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[static_cast<std::size_t>(i)] = i;
  auto original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);  // probability of identity is ~1/50!
}

}  // namespace
}  // namespace naas::core
