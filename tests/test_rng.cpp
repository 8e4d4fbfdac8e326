#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

namespace dagsfc {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ZeroSeedIsUsable) {
  Rng r(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 50; ++i) seen.insert(r());
  EXPECT_GT(seen.size(), 45u);  // not a stuck all-zero state
}

TEST(Rng, UniformIntStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(-5, 9);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformIntSingletonRange) {
  Rng r(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.uniform_int(42, 42), 42);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng r(7);
  EXPECT_THROW((void)r.uniform_int(3, 2), ContractViolation);
}

TEST(Rng, UniformIntCoversWholeRange) {
  Rng r(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.uniform_int(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntIsRoughlyUniform) {
  Rng r(13);
  std::map<std::int64_t, int> counts;
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[r.uniform_int(0, 9)];
  for (const auto& [v, c] : counts) {
    EXPECT_NEAR(c, n / 10, n / 100) << "value " << v;
  }
}

TEST(Rng, UniformRealStaysInRange) {
  Rng r(17);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform_real(2.5, 3.5);
    EXPECT_GE(v, 2.5);
    EXPECT_LT(v, 3.5);
  }
}

TEST(Rng, UniformRealMeanIsCentered) {
  Rng r(19);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += r.uniform_real(0.0, 1.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BernoulliExtremes) {
  Rng r(23);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
    EXPECT_FALSE(r.bernoulli(-1.0));
    EXPECT_TRUE(r.bernoulli(2.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng r(29);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialIsPositiveWithTheRequestedMean) {
  Rng r(31);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = r.exponential(2.5);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Rng, ExponentialConsumesOneUniformDraw) {
  // The serve/shard/dynamic workload generators interleave exponential
  // draws with other draws on one stream; each must cost exactly one.
  Rng a(37);
  Rng b(37);
  (void)a.exponential(1.0);
  (void)b.uniform_real(0.0, 1.0);
  EXPECT_EQ(a(), b());
}

TEST(Rng, IndexBoundsAndEmptyRejected) {
  Rng r(31);
  for (int i = 0; i < 100; ++i) EXPECT_LT(r.index(5), 5u);
  EXPECT_THROW((void)r.index(0), ContractViolation);
}

TEST(Rng, PickReturnsElementFromVector) {
  Rng r(37);
  const std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 50; ++i) {
    const int x = r.pick(v);
    EXPECT_TRUE(x == 10 || x == 20 || x == 30);
  }
  const std::vector<int> empty;
  EXPECT_THROW((void)r.pick(empty), ContractViolation);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng r(41);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  std::vector<int> after = v;
  std::sort(after.begin(), after.end());
  EXPECT_EQ(after, sorted);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng r(43);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[i] = i;
  const auto before = v;
  r.shuffle(v);
  EXPECT_NE(v, before);  // astronomically unlikely to be identity
}

TEST(Rng, ForkSeedProducesIndependentStreams) {
  Rng parent(47);
  Rng a(parent.fork_seed());
  Rng b(parent.fork_seed());
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Splitmix64, KnownSequenceIsDeterministic) {
  std::uint64_t s1 = 0;
  std::uint64_t s2 = 0;
  for (int i = 0; i < 10; ++i) EXPECT_EQ(splitmix64(s1), splitmix64(s2));
}

}  // namespace
}  // namespace dagsfc
