#ifndef NEXTMAINT_COMMON_RNG_H_
#define NEXTMAINT_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

/// \file rng.h
/// Deterministic pseudo-random number generation.
///
/// Every stochastic component in the library (fleet simulator, bootstrap
/// sampling, feature subsampling, time-shift re-sampling) takes an explicit
/// seed so that experiments reproduce bit-for-bit across runs and platforms.
/// We implement xoshiro256** seeded through SplitMix64 rather than relying on
/// std::mt19937 + std::distributions, whose outputs are not specified to be
/// identical across standard-library implementations.

namespace nextmaint {

/// xoshiro256** generator with distribution helpers.
///
/// Not thread-safe; create one Rng per thread/component. Copyable so that a
/// component can fork an independent stream via `Fork()`.
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed. Two generators constructed
  /// with the same seed produce identical streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Returns the next raw 64-bit output.
  uint64_t NextUint64();

  /// Returns a double uniformly distributed in [0, 1).
  double NextDouble();

  /// Returns a double uniformly distributed in [lo, hi). Requires lo <= hi.
  double Uniform(double lo, double hi);

  /// Returns an integer uniformly distributed in [0, n). Requires n > 0.
  /// Uses rejection sampling to avoid modulo bias.
  uint64_t UniformInt(uint64_t n);

  /// Returns an integer uniformly distributed in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Returns a standard normal deviate (Box-Muller, cached spare).
  double Normal();

  /// Returns a normal deviate with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Returns true with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Returns a sample from Exponential(rate). Requires rate > 0.
  double Exponential(double rate);

  /// Fisher-Yates shuffles `values` in place.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    if (values->empty()) return;
    for (size_t i = values->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(static_cast<uint64_t>(i + 1)));
      std::swap((*values)[i], (*values)[j]);
    }
  }

  /// Returns a generator with an independent stream derived from this one.
  Rng Fork();

 private:
  uint64_t state_[4];
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace nextmaint

#endif  // NEXTMAINT_COMMON_RNG_H_
