#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/types.hpp"

namespace hgp::sim {

/// B statevector trajectories evolved in lockstep: a structure-of-lanes
/// layout with separate real/imaginary planes, `re_[i * lanes + l]` holding
/// the real part of basis index i in lane l. Deterministic gates apply once
/// across all lanes instead of re-dispatching per shot. The 1q kernels and
/// the diagonal fast paths loop over the contiguous lane dimension with
/// scalar-broadcast matrix elements; the kernels that combine several rows
/// (permutation and dense 2q/3q, and the per-lane operators) work on one
/// tile of 8 lanes at a time, with the tile's input rows copied into
/// fixed-size local arrays the compiler keeps in vector registers.
///
/// Determinism contract: every kernel mirrors the scalar `Statevector`
/// kernel's complex arithmetic expression-for-expression (same products,
/// same association, structure dispatch shared via sim/kernel_structure.hpp)
/// and the build disables FP contraction, so a lane's amplitudes stay
/// bit-identical (up to the sign of zeros) to a scalar shot evolved through
/// the same operations — which is what lets the executor pin scalar-vs-
/// batched counts exactly for every lane count.
class BatchedStatevector {
 public:
  BatchedStatevector(std::size_t num_qubits, std::size_t lanes);

  std::size_t num_qubits() const { return num_qubits_; }
  /// Basis dimension 2^n.
  std::size_t dim() const { return dim_; }
  std::size_t lanes() const { return lanes_; }

  /// Every lane back to |0...0>.
  void reset();

  la::cxd amplitude(std::uint64_t i, std::size_t lane) const;

  /// Overwrite lane `lane` with lane `src_lane` of `src` (same register
  /// size): how a trajectory leaves the shared unbranched state for its own
  /// slot.
  void copy_lane_from(const BatchedStatevector& src, std::size_t src_lane, std::size_t lane);

  // ---- broadcast operations (same operator, every lane) ----

  /// Apply a dense k-qubit operator to every lane (first listed qubit =
  /// least significant sub-index bit, as in Statevector::apply_matrix).
  void apply_matrix(const la::CMat& u, const std::vector<std::size_t>& qubits);

  /// Multiply the |1>-subspace of qubit q by `ratio` in every lane — the
  /// half-pass virtual-Z / frame-drift kernel (diag(1, ratio) up to global
  /// phase). No-op when ratio == 1.
  void apply_phase_ratio(std::size_t q, la::cxd ratio);

  // ---- per-lane plumbing for the trajectory noise kernels ----

  /// m1[l] = unnormalized |1>-mass of qubit q in lane l (accumulated in
  /// ascending basis-index order, like the scalar kernel).
  void masses_one(std::size_t q, double* m1) const;

  /// Fused mass measurement + per-lane damping of qubit q's |1> amplitudes:
  /// m1[l] accumulates each lane's pre-damp |1> mass while the amplitudes
  /// are scaled by scale1[l] — the no-jump fast path of thermal relaxation
  /// (scale1 folds the dephasing sign flip when it fired).
  void fused_mass_damp(std::size_t q, const double* scale1, double* m1);

  /// Per-lane amplitude-damping branch on qubit q: lanes with jump[l] != 0
  /// take the K1 jump exactly as the scalar trajectory kernel does (each |1>
  /// amplitude moves to its |0> partner and becomes +0.0); then every lane's
  /// |1> amplitudes are scaled once by scale1[l]. The caller passes ±damp
  /// for a lane that did not jump, ±1.0 for one that did (or for the
  /// flip-only step of a gamma = 0 relaxation), the sign folding the
  /// dephasing flip — so each lane ends bitwise, signed zeros included, as
  /// noise::traj_thermal_relaxation leaves a scalar copy.
  void jump_and_scale(std::size_t q, const std::uint8_t* jump, const double* scale1);

  /// Apply a 1-qubit operator to one lane only (the rare Pauli-jump path of
  /// per-lane depolarizing branches): the broadcast 1q kernels run on that
  /// lane alone.
  void apply_matrix_lane(const la::CMat& u, std::size_t q, std::size_t lane);

  /// Grouped Pauli pass of the depolarizing channel: codes[l] in {0=I, 1=X,
  /// 2=Y, 3=Z} selects the Pauli applied to lane l on qubit q (code 0 leaves
  /// the lane untouched). One pair-base sweep replaces up to lanes() strided
  /// apply_matrix_lane calls when several lanes drew a charge at once; the
  /// per-lane arithmetic is the literal complex product with the 0 / ±1
  /// Pauli entries, so each lane is bitwise what apply_matrix_lane with the
  /// same Pauli would produce.
  void apply_pauli_lanes(std::size_t q, const std::uint8_t* codes);

  // ---- per-lane operators (candidate-lane batching) ----

  /// Apply a *different* operator per lane in one pass — the parameterized
  /// blocks of a candidate-lane batch, where every lane shares the circuit
  /// structure but carries its own rotation angle. us[l] acts on lane l
  /// (us.size() == lanes()). When all lanes share one structure class (all
  /// 1q diagonal / anti-diagonal / dense, or all 2q/3q diagonal / dense) the
  /// kernel runs one lane tile at a time with the tile's coefficients packed
  /// into local rows; mixed classes, permutations and k > 3 fall back to
  /// apply_matrix_one_lane per lane. Either way lane l ends up bitwise
  /// identical (up to zero signs) to a scalar
  /// Statevector::apply_matrix(us[l], qubits).
  void apply_matrix_per_lane(const std::vector<la::CMat>& us,
                             const std::vector<std::size_t>& qubits);

  /// Apply a k-qubit operator to one lane only: apply_matrix's structure
  /// dispatch and kernels, run on that lane alone (for the gather kernels,
  /// their 1-lane tail). The reference the full lane tiles are pinned
  /// against. Generalizes apply_matrix_lane beyond one qubit.
  void apply_matrix_one_lane(const la::CMat& u, const std::vector<std::size_t>& qubits,
                             std::size_t lane);

  // ---- lane-native objective reductions (no terminal sampling) ----

  /// One lane-major sweep over the [basis][lane] planes: num[l] +=
  /// values[i] * p and den[l] += p in ascending basis order, with p = re^2 +
  /// im^2 — the sampling-free expectation pass (values indexed by the local
  /// basis index). States may be unnormalized (trajectory lanes carry their
  /// squared norm); num[l] / den[l] is lane l's normalized expectation. The
  /// accumulation mirrors Statevector::weighted_mass term-for-term.
  void weighted_masses(const double* values, double* num, double* den) const;

  /// Mapped probability accumulation for the CVaR tail pass: for every basis
  /// index i (ascending), out[map[i] * lanes + l] += p. The caller zeroes
  /// `out` (num_mapped x lanes entries) and owns any normalization.
  void accumulate_mapped(const std::uint32_t* map, double* out) const;

  // ---- terminal sampling ----

  /// One probability pass for all lanes: out[l] = first basis index i with
  /// x[l] < sum_{j<=i} |amp_j(l)|^2 (fall-through to dim()-1), matching the
  /// scalar trajectory sampler. Lanes with active[l] == 0 are skipped
  /// (their out entry is left untouched); pass active == nullptr for all.
  void sample_lanes(const double* x, const std::uint8_t* active,
                    std::uint64_t* out) const;

  /// Shared-state sampling for lanes that took no stochastic branch (their
  /// amplitudes are bitwise identical): `draws` is (x, lane) sorted
  /// ascending by x; one accumulate pass over ref_lane emits every outcome.
  void sample_sorted(std::size_t ref_lane,
                     const std::pair<double, std::size_t>* draws, std::size_t count,
                     std::uint64_t* out) const;

 private:
  /// Reject a matrix of the wrong size and out-of-range or repeated qubits;
  /// `what` prefixes the error message.
  void check_operator(const la::CMat& u, const std::vector<std::size_t>& qubits,
                      const char* what) const;
  /// The 1q kernels of apply_to_lanes on qubit q.
  void apply_1q_to_lanes(const la::CMat& u, std::size_t q, std::size_t lb, std::size_t le);
  /// apply_matrix restricted to the lanes [lb, le), after check_operator.
  void apply_to_lanes(const la::CMat& u, const std::vector<std::size_t>& qubits,
                      std::size_t lb, std::size_t le);

  std::size_t num_qubits_ = 0;
  std::size_t dim_ = 0;
  std::size_t lanes_ = 0;
  std::vector<double> re_, im_;
  // Sampling scratch, allocated once so the hot loop never touches the
  // allocator. Instances are used from one thread at a time (the engine
  // keeps one per worker), so mutable scratch in const methods is safe.
  mutable std::vector<double> acc_;
  mutable std::vector<std::uint8_t> done_;
};

}  // namespace hgp::sim
