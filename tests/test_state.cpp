// The state types side by side: noiseless parity between Statevector and
// DensityMatrix through the shared apply_circuit helper, the shared
// sampler, and the statevector's structured kernels against dense lifts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/pauli.hpp"
#include "linalg/vec.hpp"
#include "sim/density.hpp"
#include "sim/state.hpp"
#include "sim/statevector.hpp"

using namespace hgp;
using sim::DensityMatrix;
using sim::Statevector;

namespace {

qc::Circuit mixed_gate_circuit() {
  qc::Circuit c(4);
  c.h(0).cx(0, 1).ry(2, 0.8).rzz(1, 2, -0.6).sx(3).rz(3, 0.9).cz(2, 3).swap(0, 3).t(1);
  return c;
}

}  // namespace

TEST(BackendParity, NoiselessProbabilitiesAgree) {
  const qc::Circuit c = mixed_gate_circuit();
  Statevector sv(4);
  DensityMatrix dm(4);
  sim::apply_circuit(sv, c);
  sim::apply_circuit(dm, c);
  const auto pv = sv.probabilities();
  const auto pd = dm.probabilities();
  ASSERT_EQ(pv.size(), pd.size());
  for (std::size_t i = 0; i < pv.size(); ++i) EXPECT_NEAR(pv[i], pd[i], 1e-9) << i;
}

TEST(BackendParity, NoiselessPauliExpectationsAgree) {
  const qc::Circuit c = mixed_gate_circuit();
  Statevector sv(4);
  DensityMatrix dm(4);
  sim::apply_circuit(sv, c);
  sim::apply_circuit(dm, c);
  la::PauliSum obs(4);
  obs.add(1.0, "ZZII");
  obs.add(0.7, "XIXI");
  obs.add(-0.4, "IYZX");
  obs.add(0.2, "ZXYZ");
  EXPECT_NEAR(sv.expectation(obs), dm.expectation(obs), 1e-9);
}

TEST(BackendParity, SamplingAgreesUnderSharedSeed) {
  // Same probabilities + same inverse-CDF sampler + same seed = identical
  // counts across state types.
  qc::Circuit c(3);
  c.h(0).cx(0, 1).ry(2, 1.1);
  Statevector sv(3);
  DensityMatrix dm(3);
  sim::apply_circuit(sv, c);
  sim::apply_circuit(dm, c);
  Rng r1(12), r2(12);
  EXPECT_EQ(sv.sample(2000, r1), sim::sample_from_probabilities(dm.probabilities(), 2000, r2));
}

TEST(Density, SampleMatchesProbabilities) {
  DensityMatrix dm(2);
  dm.apply_matrix(qc::gate_matrix(qc::GateKind::H), {0});
  dm.apply_matrix(qc::gate_matrix(qc::GateKind::H), {1});
  dm.apply_depolarizing({0}, 0.2);  // mixing must not break sampling
  Rng rng(77);
  const sim::Counts counts = sim::sample_from_probabilities(dm.probabilities(), 40000, rng);
  for (const auto& [bits, n] : counts)
    EXPECT_NEAR(static_cast<double>(n) / 40000.0, 0.25, 0.02) << bits;
}

TEST(SampleFromProbabilities, SortedPassMatchesLowerBoundReference) {
  // The sorted-draw single-pass sampler must map every draw to the same
  // outcome as the previous materialized-CDF lower_bound implementation
  // (first index whose running sum reaches the draw), including interior
  // zero-probability entries and an unnormalized distribution.
  const std::vector<double> p = {0.1, 0.0, 0.25, 0.3, 0.0, 0.55, 0.0};
  Rng got_rng(7), ref_rng(7);
  const sim::Counts got = sim::sample_from_probabilities(p, 2000, got_rng);

  std::vector<double> cdf(p.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    acc += p[i];
    cdf[i] = acc;
  }
  sim::Counts ref;
  for (std::size_t s = 0; s < 2000; ++s) {
    const double x = ref_rng.uniform() * acc;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), x);
    const auto idx = static_cast<std::uint64_t>(it - cdf.begin());
    ++ref[std::min<std::uint64_t>(idx, p.size() - 1)];
  }
  EXPECT_EQ(got, ref);
  // Zero-probability entries never get a count.
  EXPECT_EQ(got.count(1), 0u);
  EXPECT_EQ(got.count(4), 0u);
  // The consumed stream length is shot-count-deterministic.
  EXPECT_EQ(got_rng.next_u64(), ref_rng.next_u64());
}

TEST(Kernels, SpecializedTwoQubitPathsMatchGenericLift) {
  // kron(u, I) listed on {0,1,2} reproduces u on {1,2} through the generic
  // k=3 path — pins the diagonal (RZZ/CZ) and permutation (CX/SWAP) kernels
  // to the dense reference.
  for (const auto& [kind, params] :
       std::vector<std::pair<qc::GateKind, std::vector<double>>>{
           {qc::GateKind::RZZ, {0.8}},
           {qc::GateKind::CZ, {}},
           {qc::GateKind::CX, {}},
           {qc::GateKind::SWAP, {}}}) {
    Statevector a(3), b(3);
    qc::Circuit prep(3);
    prep.h(0).ry(1, 0.7).cx(0, 2).rz(2, -0.3).ry(2, 0.4);
    sim::apply_circuit(a, prep);
    sim::apply_circuit(b, prep);
    const la::CMat u = qc::gate_matrix(kind, params);
    b.apply_matrix(u, {1, 2});
    a.apply_matrix(la::kron(u, la::CMat::identity(2)), {0, 1, 2});
    EXPECT_LT(la::max_abs_diff(a.data(), b.data()), 1e-12) << qc::gate_name(kind);
  }
}

TEST(Kernels, RejectsDuplicateQubits) {
  // kron(SX, SX) listed on {1, 1} would read and write the same amplitudes
  // as two different sub-indices (the norm ends at 1.5); the backend must
  // refuse it and leave the state untouched, as DensityMatrix does.
  Statevector sv(2);
  qc::Circuit prep(2);
  prep.sx(0).sx(1);
  sim::apply_circuit(sv, prep);
  const la::CVec before = sv.data();
  const la::CMat sx = qc::gate_matrix(qc::GateKind::SX);
  EXPECT_THROW(sv.apply_matrix(la::kron(sx, sx), {1, 1}), Error);
  EXPECT_THROW(sv.apply_matrix(la::kron(sx, la::kron(sx, sx)), {0, 1, 0}), Error);
  EXPECT_EQ(la::max_abs_diff(sv.data(), before), 0.0);
}

TEST(Kernels, DiagonalAndAntiDiagonalOneQubitPathsMatchGenericLift) {
  for (const auto& [kind, params] :
       std::vector<std::pair<qc::GateKind, std::vector<double>>>{
           {qc::GateKind::RZ, {0.6}},
           {qc::GateKind::S, {}},
           {qc::GateKind::X, {}},
           {qc::GateKind::Y, {}}}) {
    Statevector a(2), b(2);
    qc::Circuit prep(2);
    prep.h(0).ry(1, 1.2).cx(0, 1);
    sim::apply_circuit(a, prep);
    sim::apply_circuit(b, prep);
    const la::CMat u = qc::gate_matrix(kind, params);
    b.apply_matrix(u, {0});
    a.apply_matrix(la::kron(la::CMat::identity(2), u), {0, 1});
    EXPECT_LT(la::max_abs_diff(a.data(), b.data()), 1e-12) << qc::gate_name(kind);
  }
}
