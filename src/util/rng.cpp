#include "util/rng.hpp"

#include <cmath>

namespace dagsfc {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  // xoshiro state must not be all-zero; splitmix64 of any seed guarantees it.
  for (auto& w : s_) w = splitmix64(seed);
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  DAGSFC_CHECK(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = max() - max() % span;
  std::uint64_t draw;
  do {
    draw = (*this)();
  } while (draw >= limit);
  return lo + static_cast<std::int64_t>(draw % span);
}

std::size_t Rng::index(std::size_t n) {
  DAGSFC_CHECK_MSG(n > 0, "index() over empty range");
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

double Rng::uniform_real(double lo, double hi) {
  DAGSFC_CHECK(lo <= hi);
  // 53-bit mantissa draw in [0,1).
  const double u =
      static_cast<double>((*this)() >> 11) * (1.0 / 9007199254740992.0);
  return lo + u * (hi - lo);
}

double Rng::exponential(double mean) {
  // uniform_real is in [0,1), so the argument of log stays > 0.
  return -mean * std::log(1.0 - uniform_real(0.0, 1.0));
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform_real(0.0, 1.0) < p;
}

std::uint64_t Rng::fork_seed() noexcept { return (*this)(); }

}  // namespace dagsfc
