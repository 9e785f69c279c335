#pragma once

#include <cstdint>
#include <vector>

#include "common/lane_streams.hpp"
#include "common/rng.hpp"
#include "linalg/types.hpp"
#include "sim/statevector.hpp"

namespace hgp::noise {

/// Sample the depolarizing branch without applying it: returns 0 (identity,
/// probability 1-p) or the chosen Pauli-product code (2 bits per qubit,
/// 1..4^k-1, qubit i's Pauli in bits [2i, 2i+1]). Consumes the Rng exactly
/// like traj_depolarizing, so per-lane engines that draw one branch per
/// trajectory lane stay stream-compatible with the per-shot reference.
int sample_depolarizing(std::size_t num_qubits, double p, Rng& rng);

/// sample_depolarizing for the streams i < n of a lane-stream block with
/// mask[i] != 0 (mask == nullptr: all): picks[i] is the code that stream's
/// Rng would have returned, and each stream advances exactly as it would
/// (0 for masked-off streams, which do not move). All Bernoulli draws go in
/// one bulk pass; only the rare hits draw their Pauli, each from its own
/// stream. Codes fit 8 bits: num_qubits <= 3.
void sample_depolarizing(std::size_t num_qubits, double p, LaneStreams& streams, std::size_t n,
                         const std::uint8_t* mask, std::uint8_t* picks);

/// Derived constants of one thermal-relaxation application over duration_ns
/// — the quantities every engine (scalar trajectory kernel, lane-batched
/// kernel, exact density channel) must agree on exactly:
///   gamma = 1 - exp(-t/T1)      amplitude-damping probability scale
///   damp  = sqrt(1 - gamma)     no-jump damping of the |1> amplitudes
///   p_z   = (1 - exp(-t/Tphi))/2 phase-flip probability (when `dephase`;
///           Tphi from 1/Tphi = 1/T2 - 1/(2 T1), T2 clamped to <= 2 T1)
struct RelaxationConstants {
  double gamma = 0.0;
  double damp = 1.0;
  double p_z = 0.0;
  bool dephase = false;
};
RelaxationConstants relaxation_constants(double t1_us, double t2_us, double duration_ns);

// ---- scalar trajectory channels (quantum-jump unraveling) ------------------
//
// The executor's per-shot oracle keeps the statevector *unnormalized* and
// carries its squared norm in `weight`: every branch probability is measured
// against weight instead of renormalizing the vector after each Kraus
// branch, so thermal relaxation costs at most one half-pass over the
// |1>-subspace per call. The lane-batched walker samples the same branches
// from per-shot streams in the same per-shot draw order; both sides share
// relaxation_constants / sample_depolarizing so the branch probabilities
// agree to the bit.

/// Depolarizing with probability p on the listed qubits: with prob p, apply
/// a uniformly random non-identity Pauli (drawn by sample_depolarizing).
/// Unitary, so `weight` is unchanged.
void traj_depolarizing(sim::Statevector& sv, const std::vector<std::size_t>& qubits,
                       double p, Rng& rng);

/// Thermal relaxation of qubit q: amplitude damping with rc.gamma (jump iff
/// u·weight < gamma·m1, m1 the unnormalized |1> mass; the jump resets |1> to
/// |0> and sets weight = m1, the no-jump branch damps |1> by rc.damp and
/// subtracts gamma·m1), then a Z flip with probability rc.p_z when
/// rc.dephase.
void traj_thermal_relaxation(sim::Statevector& sv, double& weight, std::size_t q,
                             const RelaxationConstants& rc, Rng& rng);

/// diag(d0, d1) up to global phase (irrelevant within one trajectory):
/// multiply the |1> amplitudes by ratio = d1/d0 — a half-pass instead of a
/// full diagonal apply. Covers RZ drift and every virtual block.
void traj_phase(sim::Statevector& sv, std::size_t q, la::cxd ratio);
void traj_rz(sim::Statevector& sv, std::size_t q, double angle);

/// Single-outcome measurement of the unnormalized state: one uniform draw
/// scaled by weight, then the first basis index whose running mass exceeds
/// it.
std::uint64_t traj_sample_one(const sim::Statevector& sv, double weight, Rng& rng);

/// Asymmetric readout confusion of one qubit. Probabilities are
/// P(measured 1 | prepared 0) and P(measured 0 | prepared 1).
struct ReadoutError {
  double p1_given_0 = 0.0;
  double p0_given_1 = 0.0;
};

/// Flip the measured bits of `bits` according to each qubit's confusion.
std::uint64_t apply_readout(std::uint64_t bits, const std::vector<ReadoutError>& errors,
                            Rng& rng);

}  // namespace hgp::noise
