#include "core/rng.hpp"

#include <cmath>

namespace naas::core {

void Rng::reseed(std::uint64_t seed) {
  // PCG initialization: fixed odd increment derived from the seed so that
  // different seeds select different streams as well as different states.
  inc_ = (seed << 1u) | 1u;
  state_ = 0u;
  (void)(*this)();
  state_ += 0x9e3779b97f4a7c15ULL + seed;
  (void)(*this)();
  has_cached_normal_ = false;
}

Rng::result_type Rng::operator()() {
  const std::uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  const auto xorshifted =
      static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
  const auto rot = static_cast<std::uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

double Rng::uniform() {
  // 53-bit mantissa from two 32-bit draws for full double resolution.
  const std::uint64_t hi = (*this)();
  const std::uint64_t lo = (*this)();
  const std::uint64_t bits53 = ((hi << 21u) ^ lo) & ((1ULL << 53u) - 1u);
  return static_cast<double>(bits53) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

int Rng::uniform_int(int lo, int hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1u;
  // Rejection-free Lemire reduction is overkill here; modulo bias for spans
  // this small (< 2^31) against a 64-bit draw is negligible for search use.
  const std::uint64_t draw =
      (static_cast<std::uint64_t>((*this)()) << 32u) | (*this)();
  return lo + static_cast<int>(draw % span);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller transform; u1 is bounded away from zero to avoid log(0).
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 1e-300);
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(theta);
  has_cached_normal_ = true;
  return radius * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) { return uniform() < p; }

}  // namespace naas::core
