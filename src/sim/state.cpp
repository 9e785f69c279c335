#include "sim/state.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hgp::sim {

std::string bits_to_string(std::uint64_t bits, std::size_t num_qubits) {
  std::string s(num_qubits, '0');
  for (std::size_t q = 0; q < num_qubits; ++q)
    if ((bits >> q) & 1) s[num_qubits - 1 - q] = '1';
  return s;
}

Counts sample_from_probabilities(const std::vector<double>& p, std::size_t shots,
                                 Rng& rng) {
  HGP_REQUIRE(!p.empty(), "sample_from_probabilities: empty distribution");
  if (shots == 0) return {};
  double total = 0.0;
  for (double pi : p) total += pi;
  // Draw every shot first (the Rng stream is consumed in the same order as
  // before), then sort the draws so one accumulate pass over p emits all
  // outcomes — no materialized CDF and no per-shot binary search. Each draw
  // maps to the same outcome the previous lower_bound(cdf) implementation
  // produced: the first index whose running sum reaches it.
  std::vector<double> draws(shots);
  for (std::size_t s = 0; s < shots; ++s) draws[s] = rng.uniform() * total;
  std::sort(draws.begin(), draws.end());
  Counts counts;
  double acc = 0.0;
  std::size_t d = 0;
  for (std::size_t i = 0; i < p.size() && d < shots; ++i) {
    acc += p[i];
    const std::size_t start = d;
    while (d < shots && draws[d] <= acc) ++d;
    if (d > start) counts[i] += d - start;
  }
  if (d < shots) counts[p.size() - 1] += shots - d;  // rounding slack
  return counts;
}

}  // namespace hgp::sim
