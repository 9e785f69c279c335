#include <gtest/gtest.h>

#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "circuit/gates.hpp"
#include "circuit/qasm.hpp"
#include "linalg/types.hpp"
#include "linalg/vec.hpp"
#include "sim/statevector.hpp"

using namespace hgp;
using qc::Circuit;
using qc::GateKind;
using qc::Param;

TEST(Gates, ArityAndParamCounts) {
  EXPECT_EQ(qc::gate_arity(GateKind::CX), 2u);
  EXPECT_EQ(qc::gate_arity(GateKind::H), 1u);
  EXPECT_EQ(qc::gate_num_params(GateKind::U3), 3u);
  EXPECT_EQ(qc::gate_num_params(GateKind::RZZ), 1u);
  EXPECT_EQ(qc::gate_num_params(GateKind::X), 0u);
}

class GateUnitarity : public ::testing::TestWithParam<double> {};

TEST_P(GateUnitarity, AllParameterizedGatesAreUnitary) {
  const double t = GetParam();
  for (GateKind k : {GateKind::RX, GateKind::RY, GateKind::RZ, GateKind::P, GateKind::RZZ,
                     GateKind::RXX}) {
    EXPECT_TRUE(qc::gate_matrix(k, {t}).is_unitary(1e-12)) << qc::gate_name(k) << " t=" << t;
  }
  EXPECT_TRUE(qc::gate_matrix(GateKind::U3, {t, t / 2, -t}).is_unitary(1e-12));
}

INSTANTIATE_TEST_SUITE_P(Angles, GateUnitarity,
                         ::testing::Values(-3.1, -1.0, -0.25, 0.0, 0.3, 1.57, 2.9, 6.3));

TEST(Gates, SxSquaredIsX) {
  const auto sx = qc::gate_matrix(GateKind::SX);
  const auto x = qc::gate_matrix(GateKind::X);
  EXPECT_LT((sx * sx).max_abs_diff(x), 1e-12);
}

TEST(Gates, RzzIsDiagonalWithCorrectPhases) {
  const auto m = qc::gate_matrix(GateKind::RZZ, {1.0});
  EXPECT_NEAR(std::arg(m(0, 0)), -0.5, 1e-12);
  EXPECT_NEAR(std::arg(m(1, 1)), 0.5, 1e-12);
  EXPECT_NEAR(std::arg(m(2, 2)), 0.5, 1e-12);
  EXPECT_NEAR(std::arg(m(3, 3)), -0.5, 1e-12);
}

TEST(Gates, U3CoversHadamard) {
  // H = U3(pi/2, 0, pi) up to global phase.
  const auto u = qc::gate_matrix(GateKind::U3, {la::kPi / 2, 0.0, la::kPi});
  const auto h = qc::gate_matrix(GateKind::H);
  EXPECT_LT(u.max_abs_diff(h), 1e-12);
}

TEST(Circuit, BuilderAndCounts) {
  Circuit c(3);
  c.h(0).cx(0, 1).cx(1, 2).rz(2, 0.5).barrier().rzz(0, 2, Param::symbol(0, 2.0));
  EXPECT_EQ(c.size(), 6u);
  EXPECT_EQ(c.count(GateKind::CX), 2u);
  EXPECT_EQ(c.count_2q(), 3u);
  EXPECT_EQ(c.num_parameters(), 1u);
}

TEST(Circuit, DepthWithBarrier) {
  Circuit c(2);
  c.h(0).h(1);
  EXPECT_EQ(c.depth(), 1u);
  c.barrier();
  c.h(0);
  EXPECT_EQ(c.depth(), 2u);
  c.cx(0, 1);
  EXPECT_EQ(c.depth(), 3u);
}

TEST(Circuit, ParamBinding) {
  Circuit c(1);
  c.rx(0, Param::symbol(0, 2.0, 0.5));  // angle = 0.5 + 2*theta0
  const Circuit b = c.bound({0.25});
  ASSERT_TRUE(b.ops()[0].params[0].is_constant());
  EXPECT_DOUBLE_EQ(b.ops()[0].params[0].value(), 1.0);
  EXPECT_EQ(b.num_parameters(), 0u);
}

TEST(Circuit, RejectsInvalidOps) {
  Circuit c(2);
  EXPECT_THROW(c.h(2), Error);
  EXPECT_THROW(c.cx(0, 0), Error);
  EXPECT_THROW(c.append(qc::Op{GateKind::RX, {0}, {}}), Error);
}

TEST(Circuit, InverseCancelsToIdentity) {
  Circuit c(3);
  c.h(0).cx(0, 1).t(1).s(2).rzz(1, 2, 0.7).u3(0, Param::constant(0.3), Param::constant(-0.4),
                                              Param::constant(1.1));
  Circuit full = c;
  full.compose(c.inverse());
  sim::Statevector sv(3);
  // Start from a non-trivial state.
  sv.apply_matrix(qc::gate_matrix(GateKind::H), {0});
  sv.apply_matrix(qc::gate_matrix(GateKind::RY, {0.9}), {2});
  const la::CVec before = sv.data();
  sim::apply_circuit(sv, full);
  EXPECT_LT(la::max_abs_diff(before, sv.data()), 1e-12);
}

TEST(Qasm, RoundTripPreservesSemantics) {
  Circuit c(3);
  c.h(0).cx(0, 1).rz(1, 0.375).rzz(1, 2, -1.25).sx(2).barrier();
  const std::string text = qc::to_qasm(c);
  EXPECT_NE(text.find("OPENQASM 2.0"), std::string::npos);
  EXPECT_NE(text.find("rzz(-1.25) q[1],q[2]"), std::string::npos);
  const Circuit parsed = qc::from_qasm(text);
  EXPECT_EQ(parsed.num_qubits(), 3u);

  sim::Statevector a(3), b(3);
  sim::apply_circuit(a, c);
  sim::apply_circuit(b, parsed);
  EXPECT_LT(la::max_abs_diff(a.data(), b.data()), 1e-12);
}

TEST(Qasm, ParsesPiLiterals) {
  const Circuit c = qc::from_qasm(
      "OPENQASM 2.0;\nqreg q[1];\nrx(pi/2) q[0];\nrz(-pi) q[0];\nrx(0.5*pi) q[0];\n");
  ASSERT_EQ(c.size(), 3u);
  EXPECT_NEAR(c.ops()[0].params[0].value(), la::kPi / 2, 1e-12);
  EXPECT_NEAR(c.ops()[1].params[0].value(), -la::kPi, 1e-12);
  EXPECT_NEAR(c.ops()[2].params[0].value(), la::kPi / 2, 1e-12);
}

TEST(Qasm, RejectsUnbound) {
  Circuit c(1);
  c.rx(0, Param::symbol(0));
  EXPECT_THROW(qc::to_qasm(c), Error);
}
