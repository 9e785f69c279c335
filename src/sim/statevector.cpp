#include "sim/statevector.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "linalg/vec.hpp"
#include "sim/kernel_structure.hpp"

namespace hgp::sim {

using la::cxd;
using la::CMat;
using la::CVec;
using detail::for_each_pair_base;
using detail::for_each_quad_base;
using detail::is_zero;

Statevector::Statevector(std::size_t num_qubits)
    : num_qubits_(num_qubits), amp_(std::size_t{1} << num_qubits, cxd{0.0, 0.0}) {
  HGP_REQUIRE(num_qubits <= 26, "Statevector: too many qubits");
  amp_[0] = 1.0;
}

void Statevector::reset() {
  std::fill(amp_.begin(), amp_.end(), cxd{0.0, 0.0});
  amp_[0] = 1.0;
}

void Statevector::apply_matrix(const CMat& u, const std::vector<std::size_t>& qubits) {
  const std::size_t k = qubits.size();
  HGP_REQUIRE(u.rows() == (std::size_t{1} << k) && u.cols() == u.rows(),
              "apply_matrix: matrix size does not match qubit count");
  for (std::size_t q : qubits) HGP_REQUIRE(q < num_qubits_, "apply_matrix: qubit out of range");
  HGP_REQUIRE(!detail::has_duplicate_qubit(qubits), "apply_matrix: duplicate qubit");

  if (k == 1) {
    const std::uint64_t bit = std::uint64_t{1} << qubits[0];
    const cxd u00 = u(0, 0), u01 = u(0, 1), u10 = u(1, 0), u11 = u(1, 1);
    if (is_zero(u01) && is_zero(u10)) {
      // Diagonal (RZ/Z/S/T/P and fused virtual-RZ blocks): pure per-amplitude
      // phases, no pairing pass.
      for (std::uint64_t i = 0; i < amp_.size(); ++i)
        amp_[i] *= (i & bit) ? u11 : u00;
      return;
    }
    if (is_zero(u00) && is_zero(u11)) {
      // Anti-diagonal (X/Y-like): a paired swap with phases.
      for_each_pair_base(amp_.size(), bit, [&](std::uint64_t i) {
        const cxd a0 = amp_[i];
        amp_[i] = u01 * amp_[i | bit];
        amp_[i | bit] = u10 * a0;
      });
      return;
    }
    for_each_pair_base(amp_.size(), bit, [&](std::uint64_t i) {
      const cxd a0 = amp_[i];
      const cxd a1 = amp_[i | bit];
      amp_[i] = u00 * a0 + u01 * a1;
      amp_[i | bit] = u10 * a0 + u11 * a1;
    });
    return;
  }
  if (k == 2) {
    const std::uint64_t b0 = std::uint64_t{1} << qubits[0];
    const std::uint64_t b1 = std::uint64_t{1} << qubits[1];

    if (detail::is_diagonal4(u)) {
      // Diagonal (RZZ/CZ/CPhase): one phase multiply per amplitude.
      const cxd d[4] = {u(0, 0), u(1, 1), u(2, 2), u(3, 3)};
      for (std::uint64_t i = 0; i < amp_.size(); ++i) {
        const std::size_t sub = ((i & b0) ? 1u : 0u) | ((i & b1) ? 2u : 0u);
        amp_[i] *= d[sub];
      }
      return;
    }

    // Generalized permutation (CX/SWAP/X⊗X...): exactly one non-zero per
    // column, all target rows distinct — a gather/scatter with phases
    // instead of a dense 4x4 product. (A non-unitary operator repeating a
    // target row must fall through to the dense path.)
    detail::Perm4 p4;
    if (detail::as_permutation4(u, p4)) {
      const std::uint64_t sub_bit[2] = {b0, b1};
      std::uint64_t offset[4];
      for (std::size_t s = 0; s < 4; ++s)
        offset[s] = ((s & 1) ? sub_bit[0] : 0) | ((s & 2) ? sub_bit[1] : 0);
      for_each_quad_base(amp_.size(), b0, b1, [&](std::uint64_t i) {
        cxd a[4];
        for (std::size_t s = 0; s < 4; ++s) a[s] = amp_[i | offset[s]];
        for (std::size_t s = 0; s < 4; ++s) amp_[i | offset[p4.perm[s]]] = p4.phase[s] * a[s];
      });
      return;
    }

    for_each_quad_base(amp_.size(), b0, b1, [&](std::uint64_t i) {
      const std::uint64_t i0 = i, i1 = i | b0, i2 = i | b1, i3 = i | b0 | b1;
      const cxd a0 = amp_[i0], a1 = amp_[i1], a2 = amp_[i2], a3 = amp_[i3];
      amp_[i0] = u(0, 0) * a0 + u(0, 1) * a1 + u(0, 2) * a2 + u(0, 3) * a3;
      amp_[i1] = u(1, 0) * a0 + u(1, 1) * a1 + u(1, 2) * a2 + u(1, 3) * a3;
      amp_[i2] = u(2, 0) * a0 + u(2, 1) * a1 + u(2, 2) * a2 + u(2, 3) * a3;
      amp_[i3] = u(3, 0) * a0 + u(3, 1) * a1 + u(3, 2) * a2 + u(3, 3) * a3;
    });
    return;
  }

  if (k == 3) {
    // Dense 3q kernel for width-3 fused blocks. Same structure dispatch as
    // the batched backend (kernel_structure.hpp) and the same arithmetic as
    // the generic path below: acc += u(r,s) * a[s], products rounded first,
    // sums associated left-to-right.
    const std::uint64_t b0 = std::uint64_t{1} << qubits[0];
    const std::uint64_t b1 = std::uint64_t{1} << qubits[1];
    const std::uint64_t b2 = std::uint64_t{1} << qubits[2];

    if (detail::is_diagonal_n(u)) {
      // Diagonal 8x8 (fused RZZ/CZ/virtual-RZ chains): one phase per amp.
      cxd d[8];
      for (std::size_t s = 0; s < 8; ++s) d[s] = u(s, s);
      for (std::uint64_t i = 0; i < amp_.size(); ++i) {
        const std::size_t sub =
            ((i & b0) ? 1u : 0u) | ((i & b1) ? 2u : 0u) | ((i & b2) ? 4u : 0u);
        amp_[i] *= d[sub];
      }
      return;
    }

    std::uint64_t offset[8];
    for (std::size_t s = 0; s < 8; ++s)
      offset[s] = ((s & 1) ? b0 : 0) | ((s & 2) ? b1 : 0) | ((s & 4) ? b2 : 0);
    detail::for_each_oct_base(amp_.size(), b0, b1, b2, [&](std::uint64_t i) {
      cxd a[8];
      for (std::size_t s = 0; s < 8; ++s) a[s] = amp_[i | offset[s]];
      for (std::size_t r = 0; r < 8; ++r) {
        cxd acc{0.0, 0.0};
        for (std::size_t s = 0; s < 8; ++s) acc += u(r, s) * a[s];
        amp_[i | offset[r]] = acc;
      }
    });
    return;
  }

  // Generic k-qubit path: enumerate the 2^(n-k) block-base indices directly
  // (insert a zero bit at each target position, ascending — same trick as
  // for_each_pair_base) instead of a skip test over all 2^n indices, so a
  // 3q+ operator no longer pays a full-register iteration tax.
  const std::size_t dim = std::size_t{1} << k;
  std::vector<std::uint64_t> masks(k);
  for (std::size_t j = 0; j < k; ++j) masks[j] = std::uint64_t{1} << qubits[j];
  std::vector<std::uint64_t> sorted_masks = masks;
  std::sort(sorted_masks.begin(), sorted_masks.end());

  std::vector<cxd> local(dim);
  const std::uint64_t num_bases = amp_.size() >> k;
  for (std::uint64_t t = 0; t < num_bases; ++t) {
    const std::uint64_t i = detail::expand_base(t, sorted_masks.data(), k);
    for (std::uint64_t s = 0; s < dim; ++s) {
      std::uint64_t idx = i;
      for (std::size_t j = 0; j < k; ++j)
        if ((s >> j) & 1) idx |= masks[j];
      local[s] = amp_[idx];
    }
    for (std::uint64_t r = 0; r < dim; ++r) {
      cxd acc{0.0, 0.0};
      for (std::uint64_t s = 0; s < dim; ++s) acc += u(r, s) * local[s];
      std::uint64_t idx = i;
      for (std::size_t j = 0; j < k; ++j)
        if ((r >> j) & 1) idx |= masks[j];
      amp_[idx] = acc;
    }
  }
}

std::vector<double> Statevector::probabilities() const {
  std::vector<double> p(amp_.size());
  for (std::size_t i = 0; i < amp_.size(); ++i) p[i] = std::norm(amp_[i]);
  return p;
}

Counts Statevector::sample(std::size_t shots, Rng& rng) const {
  return sample_from_probabilities(probabilities(), shots, rng);
}

void Statevector::weighted_mass(const double* values, double& num, double& den) const {
  num = 0.0;
  den = 0.0;
  for (std::uint64_t i = 0; i < amp_.size(); ++i) {
    const double ar = amp_[i].real(), ai = amp_[i].imag();
    const double p = ar * ar + ai * ai;
    num += values[i] * p;
    den += p;
  }
}

double Statevector::expectation(const la::PauliSum& obs) const {
  HGP_REQUIRE(obs.num_qubits() == num_qubits_, "expectation: observable width mismatch");
  return obs.expectation(amp_);
}

}  // namespace hgp::sim
