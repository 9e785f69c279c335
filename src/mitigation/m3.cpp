#include "mitigation/m3.hpp"

#include <cmath>

#include "common/error.hpp"
#include "linalg/solve.hpp"

namespace hgp::mit {

double QuasiDistribution::expectation(
    const std::function<double(std::uint64_t)>& value) const {
  double e = 0.0;
  for (const auto& [bits, p] : probs) e += p * value(bits);
  return e;
}

M3Mitigator::M3Mitigator(std::vector<noise::ReadoutError> errors)
    : errors_(std::move(errors)) {
  HGP_REQUIRE(!errors_.empty(), "M3Mitigator: no confusion data");
  for (const auto& e : errors_) {
    HGP_REQUIRE(e.p1_given_0 >= 0 && e.p1_given_0 < 0.5 && e.p0_given_1 >= 0 &&
                    e.p0_given_1 < 0.5,
                "M3Mitigator: confusion probabilities must be in [0, 0.5)");
  }
}

QuasiDistribution M3Mitigator::mitigate(const sim::Counts& counts) const {
  QuasiDistribution out;
  HGP_REQUIRE(!counts.empty(), "M3Mitigator::mitigate: empty counts");

  std::vector<std::uint64_t> keys;
  keys.reserve(counts.size());
  double shots = 0.0;
  for (const auto& [bits, n] : counts) {
    keys.push_back(bits);
    shots += static_cast<double>(n);
  }
  const std::size_t k = keys.size();

  // Per-qubit single-bit assignment probabilities.
  auto bit_prob = [&](std::size_t q, bool measured, bool truth) -> double {
    const noise::ReadoutError& e = errors_[q];
    if (truth) return measured ? 1.0 - e.p0_given_1 : e.p0_given_1;
    return measured ? e.p1_given_0 : 1.0 - e.p1_given_0;
  };
  // A[i][j] = P(measure keys[i] | true keys[j]).
  auto assignment = [&](std::size_t i, std::size_t j) {
    double p = 1.0;
    for (std::size_t q = 0; q < errors_.size(); ++q)
      p *= bit_prob(q, (keys[i] >> q) & 1, (keys[j] >> q) & 1);
    return p;
  };

  // Column normalization within the observed subspace keeps Ā stochastic on
  // the restricted space (the M3 trick that controls the truncation bias).
  // Ā is built once, row-major, so each solver matvec is a plain k x k
  // product instead of re-deriving every entry from the per-bit
  // probabilities.
  std::vector<double> a_bar(k * k);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < k; ++j) a_bar[i * k + j] = assignment(i, j);
  std::vector<double> col_norm(k, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < k; ++i) col_norm[j] += a_bar[i * k + j];
    HGP_REQUIRE(col_norm[j] > 1e-12, "M3Mitigator: degenerate column");
  }
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < k; ++j) a_bar[i * k + j] /= col_norm[j];

  auto matvec = [&](const std::vector<double>& x) {
    std::vector<double> y(k, 0.0);
    for (std::size_t i = 0; i < k; ++i) {
      const double* row = &a_bar[i * k];
      double s = 0.0;
      for (std::size_t j = 0; j < k; ++j) s += row[j] * x[j];
      y[i] = s;
    }
    return y;
  };

  std::vector<double> p_noisy(k);
  for (std::size_t i = 0; i < k; ++i)
    p_noisy[i] = static_cast<double>(counts.at(keys[i])) / shots;

  const la::GmresResult sol =
      la::gmres(matvec, p_noisy, /*max_iter=*/300, /*tol=*/1e-10, /*restart=*/60);

  out.solver_iterations = sol.iterations;
  out.converged = sol.converged;
  out.overhead = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    out.probs[keys[i]] = sol.x[i];
    out.overhead += std::abs(sol.x[i]);
  }
  return out;
}

}  // namespace hgp::mit
