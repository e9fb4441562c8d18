#include "common/rng.h"

#include <cmath>

#include "common/macros.h"

namespace nextmaint {

namespace {

/// SplitMix64 step; used only for seeding the main generator.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
  // xoshiro256** must not start from the all-zero state.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  NM_CHECK(lo <= hi);
  return lo + (hi - lo) * NextDouble();
}

uint64_t Rng::UniformInt(uint64_t n) {
  NM_CHECK(n > 0);
  // Rejection sampling: draw until the value falls below the largest
  // multiple of n representable in 64 bits.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  uint64_t v;
  do {
    v = NextUint64();
  } while (v >= limit);
  return v % n;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  NM_CHECK(lo <= hi);
  const uint64_t range =
      static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (range == 0) return static_cast<int64_t>(NextUint64());  // full range
  return lo + static_cast<int64_t>(UniformInt(range));
}

double Rng::Normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  // Box-Muller; u is kept away from 0 so log(u) is finite.
  double u, v;
  do {
    u = NextDouble();
  } while (u <= 1e-300);
  v = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u));
  const double theta = 2.0 * M_PI * v;
  spare_normal_ = r * std::sin(theta);
  has_spare_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::Exponential(double rate) {
  NM_CHECK(rate > 0.0);
  double u;
  do {
    u = NextDouble();
  } while (u <= 1e-300);
  return -std::log(u) / rate;
}

Rng Rng::Fork() { return Rng(NextUint64()); }

}  // namespace nextmaint
