#pragma once
/// \file rng.hpp
/// Deterministic random number generation.
///
/// All stochastic components of the library (network generator, SFC
/// generator, RANV baseline, Monte-Carlo harness) draw from dagsfc::Rng so
/// that every experiment is reproducible from a single 64-bit seed. The
/// engine is xoshiro256** seeded through splitmix64, which gives independent
/// high-quality streams from consecutive seeds — important because the trial
/// runner derives one child seed per trial.

#include <cstdint>
#include <limits>
#include <vector>

#include "util/check.hpp"

namespace dagsfc {

/// splitmix64 step; used for seeding and for deriving child seeds.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** PRNG. Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state by running splitmix64 on \p seed.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform index in [0, n). Requires n > 0.
  [[nodiscard]] std::size_t index(std::size_t n);

  /// Uniform real in [lo, hi). Requires lo <= hi.
  [[nodiscard]] double uniform_real(double lo, double hi);

  /// True with probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p);

  /// Exponentially distributed real with the given mean (inverse CDF over
  /// one uniform_real draw) — inter-arrival and holding times.
  [[nodiscard]] double exponential(double mean);

  /// Uniformly chosen element of \p v. Requires non-empty.
  template <typename T>
  [[nodiscard]] const T& pick(const std::vector<T>& v) {
    DAGSFC_CHECK_MSG(!v.empty(), "pick() from empty vector");
    return v[index(v.size())];
  }

  /// Fisher–Yates shuffle in place.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[index(i)]);
    }
  }

  /// Derives an independent child seed (for per-trial streams).
  [[nodiscard]] std::uint64_t fork_seed() noexcept;

 private:
  std::uint64_t s_[4];
};

}  // namespace dagsfc
