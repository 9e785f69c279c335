#include "common/rng.hpp"

#include <cmath>

#include "common/error.hpp"

namespace hgp {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Rng Rng::child(std::uint64_t base, std::uint64_t stream) {
  // Mix the stream index into the base with one splitmix round so adjacent
  // streams land far apart; the constructor's per-word splitmix then expands
  // the combined seed into a decorrelated xoshiro state.
  std::uint64_t x = base ^ (0x9e3779b97f4a7c15ull * (stream + 1));
  return Rng(splitmix64(x));
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

double Rng::normal(double mean, double stddev) {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

int Rng::uniform_int(int lo, int hi) {
  HGP_REQUIRE(lo <= hi, "uniform_int: empty range");
  const std::uint64_t span = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  std::uint64_t r = 0;
  do {
    r = next_u64();
  } while (r >= limit);
  return lo + static_cast<int>(r % span);
}

std::size_t Rng::discrete(const std::vector<double>& weights) {
  HGP_REQUIRE(!weights.empty(), "discrete: no weights");
  double total = 0.0;
  for (double w : weights) {
    HGP_REQUIRE(w >= 0.0, "discrete: negative weight");
    total += w;
  }
  HGP_REQUIRE(total > 0.0, "discrete: all weights zero");
  double x = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace hgp
