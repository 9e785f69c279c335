// The scalar trajectory channels the executor's per-shot oracle runs
// (quantum-jump unraveling on an unnormalized statevector with a
// deferred-norm weight), plus readout confusion and the noise model.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "noise/channels.hpp"
#include "noise/model.hpp"
#include "linalg/vec.hpp"
#include "sim/statevector.hpp"

using namespace hgp;
using sim::Statevector;

namespace {

/// Amplitude damping alone: the relaxation constants with dephasing off.
noise::RelaxationConstants damping(double gamma) {
  noise::RelaxationConstants rc;
  rc.gamma = gamma;
  rc.damp = std::sqrt(1.0 - gamma);
  return rc;
}

/// |1> mass of qubit q over the state's weight (its squared norm).
double prob_one(const Statevector& sv, double weight, std::size_t q) {
  double m1 = 0.0;
  for (std::size_t i = 0; i < sv.data().size(); ++i)
    if ((i >> q) & 1) m1 += std::norm(sv.data()[i]);
  return m1 / weight;
}

}  // namespace

TEST(Depolarizing, ZeroProbabilityIsIdentity) {
  Rng rng(1);
  Statevector sv(2);
  qc::Circuit c(2);
  c.h(0).cx(0, 1);
  sim::apply_circuit(sv, c);
  const la::CVec before = sv.data();
  for (int i = 0; i < 50; ++i) noise::traj_depolarizing(sv, {0, 1}, 0.0, rng);
  EXPECT_LT(la::max_abs_diff(before, sv.data()), 1e-15);
}

TEST(Depolarizing, FullStrengthScramblesExpectation) {
  // <Z> of |0> under repeated p=1 single-qubit depolarizing over many
  // trajectories: each application picks X, Y, or Z uniformly; averaging
  // <Z> over shots gives (-1 -1 +1)/3 = -1/3 after one application.
  Rng rng(2);
  double sum = 0.0;
  const int trials = 30000;
  for (int t = 0; t < trials; ++t) {
    Statevector sv(1);
    noise::traj_depolarizing(sv, {0}, 1.0, rng);
    la::PauliSum z(1);
    z.add(1.0, "Z");
    sum += sv.expectation(z);
  }
  EXPECT_NEAR(sum / trials, -1.0 / 3.0, 0.02);
}

TEST(AmplitudeDamping, DecaysExcitedPopulation) {
  Rng rng(3);
  const double gamma = 0.3;
  double p1 = 0.0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    Statevector sv(1);
    sv.apply_matrix(qc::gate_matrix(qc::GateKind::X), {0});
    double weight = 1.0;
    noise::traj_thermal_relaxation(sv, weight, 0, damping(gamma), rng);
    p1 += prob_one(sv, weight, 0);
  }
  EXPECT_NEAR(p1 / trials, 1.0 - gamma, 0.01);
}

TEST(AmplitudeDamping, GroundStateIsFixedPoint) {
  Rng rng(4);
  Statevector sv(1);
  double weight = 1.0;
  for (int i = 0; i < 100; ++i) noise::traj_thermal_relaxation(sv, weight, 0, damping(0.5), rng);
  EXPECT_NEAR(prob_one(sv, weight, 0), 0.0, 1e-12);
}

TEST(ThermalRelaxation, T1DecayCurve) {
  Rng rng(5);
  const double t1 = 100.0, t2 = 150.0;  // µs (t2 < 2 t1)
  const double duration_ns = 30000.0;   // 30 µs
  const noise::RelaxationConstants rc = noise::relaxation_constants(t1, t2, duration_ns);
  double p1 = 0.0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    Statevector sv(1);
    sv.apply_matrix(qc::gate_matrix(qc::GateKind::X), {0});
    double weight = 1.0;
    noise::traj_thermal_relaxation(sv, weight, 0, rc, rng);
    p1 += prob_one(sv, weight, 0);
  }
  EXPECT_NEAR(p1 / trials, std::exp(-0.03e3 / t1), 0.01);
}

TEST(ThermalRelaxation, T2CoherenceDecay) {
  Rng rng(6);
  const double t1 = 100.0, t2 = 80.0;
  const double duration_ns = 40000.0;  // 40 µs
  const noise::RelaxationConstants rc = noise::relaxation_constants(t1, t2, duration_ns);
  double x = 0.0;
  const int trials = 40000;
  la::PauliSum obs(1);
  obs.add(1.0, "X");
  for (int t = 0; t < trials; ++t) {
    Statevector sv(1);
    sv.apply_matrix(qc::gate_matrix(qc::GateKind::H), {0});
    double weight = 1.0;
    noise::traj_thermal_relaxation(sv, weight, 0, rc, rng);
    x += sv.expectation(obs) / weight;
  }
  // <X> decays as exp(-t/T2).
  EXPECT_NEAR(x / trials, std::exp(-0.04e3 / t2), 0.015);
}

TEST(Readout, FlipRates) {
  Rng rng(7);
  std::vector<noise::ReadoutError> errors = {{0.10, 0.20}};
  int flips0 = 0, flips1 = 0;
  const int trials = 40000;
  for (int t = 0; t < trials; ++t) {
    if (noise::apply_readout(0b0, errors, rng) != 0) ++flips0;
    if (noise::apply_readout(0b1, errors, rng) != 1) ++flips1;
  }
  EXPECT_NEAR(double(flips0) / trials, 0.10, 0.01);
  EXPECT_NEAR(double(flips1) / trials, 0.20, 0.01);
}

TEST(Readout, MultiQubitIndependence) {
  Rng rng(8);
  std::vector<noise::ReadoutError> errors = {{0.5, 0.5}, {0.0, 0.0}};
  // Qubit 1 never flips, qubit 0 flips half the time.
  int q1_flips = 0;
  for (int t = 0; t < 5000; ++t) {
    const std::uint64_t out = noise::apply_readout(0b10, errors, rng);
    if (((out >> 1) & 1) != 1) ++q1_flips;
  }
  EXPECT_EQ(q1_flips, 0);
}

TEST(NoiseModel, ReadoutVectorExtraction) {
  noise::NoiseModel nm;
  nm.qubits.resize(3);
  nm.qubits[1].readout.p1_given_0 = 0.05;
  const auto v = nm.readout_errors();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[1].p1_given_0, 0.05);
}

TEST(Channels, RejectBadParameters) {
  Rng rng(9);
  Statevector sv(1);
  EXPECT_THROW(noise::traj_depolarizing(sv, {0}, 1.5, rng), Error);
  EXPECT_THROW(noise::relaxation_constants(1.0, -0.1, 10.0), Error);
  EXPECT_THROW(noise::relaxation_constants(-1.0, 1.0, 10.0), Error);
}

TEST(TrajectoryChannels, SampleOneMatchesSampleStatistics) {
  qc::Circuit c(3);
  c.h(0).cx(0, 1).ry(2, 0.7);
  Statevector sv(3);
  sim::apply_circuit(sv, c);
  Rng rng(5);
  sim::Counts one_at_a_time;
  for (int s = 0; s < 20000; ++s) ++one_at_a_time[noise::traj_sample_one(sv, 1.0, rng)];
  const auto p = sv.probabilities();
  for (const auto& [bits, n] : one_at_a_time)
    EXPECT_NEAR(static_cast<double>(n) / 20000.0, p[bits], 0.02) << bits;
}

TEST(TrajectoryChannels, RelaxationBranchesMatchKrausApply) {
  // The deferred-norm kernel fuses each amplitude-damping branch into one
  // half-pass; whichever branch a draw picks, the state must equal the
  // generic apply_matrix of that Kraus operator, and the weight must be
  // that branch's squared norm (K1 taken without its sqrt(gamma) factor,
  // which the jump draw already accounts for).
  qc::Circuit c(3);
  c.h(0).cx(0, 1).ry(2, 0.9);
  const double gamma = 0.3;
  const la::CMat k0{{1.0, 0.0}, {0.0, std::sqrt(1.0 - gamma)}};
  const la::CMat k1{{0.0, 1.0}, {0.0, 0.0}};
  Rng rng(11);
  int jumps = 0, no_jumps = 0;
  for (int t = 0; t < 64; ++t) {
    Statevector fused(3);
    sim::apply_circuit(fused, c);
    Statevector generic = fused;
    double weight = 1.0;
    noise::traj_thermal_relaxation(fused, weight, 1, damping(gamma), rng);
    // Only a jump empties the |1> subspace (the prepared state has mass
    // 1/2 there, which no-jump damping keeps non-zero).
    const bool jumped = prob_one(fused, weight, 1) == 0.0;
    (jumped ? jumps : no_jumps) += 1;
    generic.apply_matrix(jumped ? k1 : k0, {1});
    double norm2 = 0.0;
    for (const la::cxd& a : generic.data()) norm2 += std::norm(a);
    EXPECT_NEAR(weight, norm2, 1e-12);
    for (std::size_t i = 0; i < fused.data().size(); ++i) {
      const la::cxd want = generic.data()[i] / std::sqrt(norm2);
      const la::cxd got = fused.data()[i] / std::sqrt(weight);
      EXPECT_NEAR(got.real(), want.real(), 1e-12);
      EXPECT_NEAR(got.imag(), want.imag(), 1e-12);
    }
  }
  EXPECT_GT(jumps, 0);
  EXPECT_GT(no_jumps, 0);
}
