#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hgp {

class LaneStreams;

namespace detail {
inline std::uint64_t rotl64(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace detail

/// Deterministic, seedable PRNG (xoshiro256++) plus the distribution helpers
/// used across the library. Every stochastic component takes an Rng& so that
/// whole experiments are reproducible from a single seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Derive an independent child stream from a base value (typically one
  /// next_u64() draw of a parent Rng) and a stream index. Used by the
  /// executor's parallel shot engine: each shot batch gets child(base, b),
  /// so results are bit-identical regardless of how batches are scheduled
  /// across threads.
  static Rng child(std::uint64_t base, std::uint64_t stream);

  std::uint64_t next_u64() {
    const std::uint64_t result = detail::rotl64(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = detail::rotl64(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): 53 random bits mapped exactly.
  double uniform() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Gaussian via Box-Muller (cached pair).
  double normal(double mean = 0.0, double stddev = 1.0);
  /// True with probability p (p clamped to [0, 1]; no draw when p <= 0 or
  /// p >= 1).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }
  /// Uniform integer in [lo, hi], inclusive.
  int uniform_int(int lo, int hi);
  /// Index sampled proportionally to non-negative weights.
  std::size_t discrete(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_int(0, static_cast<int>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  friend class LaneStreams;
  /// A stream resumed from its four xoshiro256++ state words.
  Rng(std::uint64_t s0, std::uint64_t s1, std::uint64_t s2, std::uint64_t s3)
      : s_{s0, s1, s2, s3} {}

  std::uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace hgp
