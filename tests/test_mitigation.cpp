#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "mitigation/cvar.hpp"
#include "mitigation/m3.hpp"
#include "linalg/solve.hpp"
#include "linalg/vec.hpp"

using namespace hgp;
using mit::M3Mitigator;
using noise::ReadoutError;
using sim::Counts;

namespace {

/// Push ideal counts through the confusion model many times to get noisy
/// counts for mitigation tests.
Counts corrupt(const Counts& ideal, const std::vector<ReadoutError>& errors, Rng& rng) {
  Counts noisy;
  for (const auto& [bits, n] : ideal)
    for (std::size_t s = 0; s < n; ++s) ++noisy[noise::apply_readout(bits, errors, rng)];
  return noisy;
}

/// Reference M3 solve with Ā applied entry by entry from the per-bit
/// confusion probabilities inside every matvec — the formula the mitigator's
/// precomputed matrix must reproduce bit for bit.
mit::QuasiDistribution m3_entrywise(const std::vector<ReadoutError>& errors,
                                    const Counts& counts) {
  std::vector<std::uint64_t> keys;
  double shots = 0.0;
  for (const auto& [bits, n] : counts) {
    keys.push_back(bits);
    shots += static_cast<double>(n);
  }
  const std::size_t k = keys.size();
  auto bit_prob = [&](std::size_t q, bool measured, bool truth) -> double {
    const ReadoutError& e = errors[q];
    if (truth) return measured ? 1.0 - e.p0_given_1 : e.p0_given_1;
    return measured ? e.p1_given_0 : 1.0 - e.p1_given_0;
  };
  auto assignment = [&](std::size_t i, std::size_t j) {
    double p = 1.0;
    for (std::size_t q = 0; q < errors.size(); ++q)
      p *= bit_prob(q, (keys[i] >> q) & 1, (keys[j] >> q) & 1);
    return p;
  };
  std::vector<double> col_norm(k, 0.0);
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t i = 0; i < k; ++i) col_norm[j] += assignment(i, j);
  auto matvec = [&](const std::vector<double>& x) {
    std::vector<double> y(k, 0.0);
    for (std::size_t i = 0; i < k; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < k; ++j) s += assignment(i, j) / col_norm[j] * x[j];
      y[i] = s;
    }
    return y;
  };
  std::vector<double> p_noisy(k);
  for (std::size_t i = 0; i < k; ++i)
    p_noisy[i] = static_cast<double>(counts.at(keys[i])) / shots;
  const la::GmresResult sol = la::gmres(matvec, p_noisy, 300, 1e-10, 60);
  mit::QuasiDistribution out;
  out.solver_iterations = sol.iterations;
  out.converged = sol.converged;
  out.overhead = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    out.probs[keys[i]] = sol.x[i];
    out.overhead += std::abs(sol.x[i]);
  }
  return out;
}

}  // namespace

TEST(M3, PrecomputedMatrixBitIdenticalToEntrywiseFormula) {
  for (const std::size_t n : {6u, 10u}) {
    Rng rng(1000 + n);
    std::vector<ReadoutError> errors(n);
    for (ReadoutError& e : errors) e = {rng.uniform(0.005, 0.05), rng.uniform(0.01, 0.08)};
    Counts counts;
    for (int s = 0; s < 1024; ++s)
      ++counts[static_cast<std::uint64_t>(rng.uniform_int(0, (1 << n) - 1))];
    const mit::QuasiDistribution got = M3Mitigator(errors).mitigate(counts);
    const mit::QuasiDistribution want = m3_entrywise(errors, counts);
    EXPECT_EQ(got.solver_iterations, want.solver_iterations) << n << " qubits";
    EXPECT_EQ(got.converged, want.converged) << n << " qubits";
    EXPECT_EQ(got.overhead, want.overhead) << n << " qubits";
    EXPECT_EQ(got.probs, want.probs) << n << " qubits";
  }
}

TEST(M3, AgreesWithDenseSolveOfTheRestrictedSystem) {
  // The GMRES solution against a dense LU solve of the same column-normalized
  // k x k system over the observed bitstrings.
  Rng rng(31);
  const std::size_t n = 6;
  std::vector<ReadoutError> errors(n);
  for (ReadoutError& e : errors) e = {rng.uniform(0.01, 0.06), rng.uniform(0.02, 0.09)};
  Counts counts;
  for (int s = 0; s < 2000; ++s) {
    std::uint64_t bits = 0;
    for (std::size_t q = 0; q < n; ++q)
      if (rng.bernoulli(q % 2 == 0 ? 0.2 : 0.7)) bits |= std::uint64_t{1} << q;
    ++counts[bits];
  }
  std::vector<std::uint64_t> keys;
  for (const auto& [bits, c] : counts) keys.push_back(bits);
  const std::size_t k = keys.size();
  la::CMat a(k, k);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < k; ++j) {
      double p = 1.0;
      for (std::size_t q = 0; q < n; ++q) {
        const bool measured = (keys[i] >> q) & 1, truth = (keys[j] >> q) & 1;
        const ReadoutError& e = errors[q];
        p *= truth ? (measured ? 1.0 - e.p0_given_1 : e.p0_given_1)
                   : (measured ? e.p1_given_0 : 1.0 - e.p1_given_0);
      }
      a(i, j) = p;
    }
  for (std::size_t j = 0; j < k; ++j) {
    double norm = 0.0;
    for (std::size_t i = 0; i < k; ++i) norm += a(i, j).real();
    for (std::size_t i = 0; i < k; ++i) a(i, j) /= norm;
  }
  la::CVec p_noisy(k);
  for (std::size_t i = 0; i < k; ++i) p_noisy[i] = counts.at(keys[i]) / 2000.0;
  const la::CVec dense = la::lu_solve(a, p_noisy);

  const mit::QuasiDistribution quasi = M3Mitigator(errors).mitigate(counts);
  EXPECT_TRUE(quasi.converged);
  for (std::size_t i = 0; i < k; ++i)
    EXPECT_NEAR(quasi.probs.at(keys[i]), dense[i].real(), 1e-9) << "key " << keys[i];
}

TEST(M3, IdentityWhenNoReadoutError) {
  const std::vector<ReadoutError> errors = {{0.0, 0.0}, {0.0, 0.0}};
  const M3Mitigator m3(errors);
  Counts counts = {{0b00, 500}, {0b11, 500}};
  const auto quasi = m3.mitigate(counts);
  EXPECT_TRUE(quasi.converged);
  EXPECT_NEAR(quasi.probs.at(0b00), 0.5, 1e-9);
  EXPECT_NEAR(quasi.probs.at(0b11), 0.5, 1e-9);
  EXPECT_NEAR(quasi.overhead, 1.0, 1e-9);
}

TEST(M3, RecoversExpectationUnderConfusion) {
  Rng rng(7);
  // Ideal: GHZ-like counts -> <Z0 Z1> = 1.
  Counts ideal = {{0b00, 6000}, {0b11, 6000}};
  const std::vector<ReadoutError> errors = {{0.04, 0.08}, {0.03, 0.06}};
  const Counts noisy = corrupt(ideal, errors, rng);

  auto zz = [](std::uint64_t bits) {
    const int parity = __builtin_popcountll(bits & 0b11) % 2;
    return parity == 0 ? 1.0 : -1.0;
  };
  // Noisy expectation is visibly biased.
  double noisy_zz = 0.0;
  std::size_t shots = 0;
  for (const auto& [bits, n] : noisy) {
    noisy_zz += zz(bits) * double(n);
    shots += n;
  }
  noisy_zz /= double(shots);
  EXPECT_LT(noisy_zz, 0.87);

  const M3Mitigator m3(errors);
  const auto quasi = m3.mitigate(noisy);
  EXPECT_TRUE(quasi.converged);
  const double mitigated = quasi.expectation(zz);
  EXPECT_NEAR(mitigated, 1.0, 0.03);
  EXPECT_GT(mitigated, noisy_zz);
  EXPECT_GE(quasi.overhead, 1.0);
}

TEST(M3, QuasiProbsSumToOne) {
  Rng rng(8);
  Counts ideal = {{0b000, 300}, {0b101, 500}, {0b010, 200}, {0b111, 24}};
  const std::vector<ReadoutError> errors = {{0.02, 0.05}, {0.03, 0.04}, {0.01, 0.06}};
  const Counts noisy = corrupt(ideal, errors, rng);
  const auto quasi = M3Mitigator(errors).mitigate(noisy);
  double sum = 0.0;
  for (const auto& [bits, p] : quasi.probs) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(M3, RejectsBadInput) {
  EXPECT_THROW(M3Mitigator({}), Error);
  EXPECT_THROW(M3Mitigator({{0.6, 0.1}}), Error);
  const M3Mitigator m3({{0.01, 0.02}});
  EXPECT_THROW(m3.mitigate({}), Error);
}

TEST(Cvar, AlphaOneIsMean) {
  Counts counts = {{0, 250}, {1, 750}};
  auto value = [](std::uint64_t b) { return b == 0 ? 4.0 : 8.0; };
  EXPECT_NEAR(mit::cvar_from_counts(counts, value, 1.0), 7.0, 1e-12);
}

TEST(Cvar, SmallAlphaPicksBestTail) {
  Counts counts = {{0, 700}, {1, 300}};
  auto value = [](std::uint64_t b) { return b == 0 ? 2.0 : 9.0; };
  // Best 30% of shots are exactly the 300 shots at value 9.
  EXPECT_NEAR(mit::cvar_from_counts(counts, value, 0.3), 9.0, 1e-12);
  // Minimization flips the tail.
  EXPECT_NEAR(mit::cvar_from_counts(counts, value, 0.3, /*maximize=*/false), 2.0, 1e-12);
}

TEST(Cvar, FractionalTailInterpolates) {
  Counts counts = {{0, 500}, {1, 500}};
  auto value = [](std::uint64_t b) { return b == 0 ? 0.0 : 10.0; };
  // alpha = 0.75: tail = 500 shots at 10 plus 250 shots at 0.
  EXPECT_NEAR(mit::cvar_from_counts(counts, value, 0.75), 10.0 * 500 / 750, 1e-12);
}

TEST(Cvar, QuasiDistributionIgnoresNegativeWeights) {
  mit::QuasiDistribution quasi;
  quasi.probs = {{0, 0.7}, {1, 0.4}, {2, -0.1}};
  auto value = [](std::uint64_t b) { return double(b); };
  // Best tail under maximize: bits=1 (value 1) has weight 0.4 >= alpha*1.1.
  EXPECT_NEAR(mit::cvar_from_quasi(quasi, value, 0.3), 1.0, 1e-9);
}

TEST(Cvar, RejectsBadAlpha) {
  Counts counts = {{0, 10}};
  auto value = [](std::uint64_t) { return 1.0; };
  EXPECT_THROW(mit::cvar_from_counts(counts, value, 0.0), Error);
  EXPECT_THROW(mit::cvar_from_counts(counts, value, 1.5), Error);
}
