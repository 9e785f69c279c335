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

Statevector Statevector::from_amplitudes(CVec amplitudes) {
  std::size_t n = 0;
  while ((std::size_t{1} << n) < amplitudes.size()) ++n;
  HGP_REQUIRE((std::size_t{1} << n) == amplitudes.size(),
              "Statevector: amplitude count is not a power of two");
  Statevector sv(n);
  sv.amp_ = std::move(amplitudes);
  return sv;
}

void Statevector::reset() {
  std::fill(amp_.begin(), amp_.end(), cxd{0.0, 0.0});
  amp_[0] = 1.0;
}

std::unique_ptr<QuantumState> Statevector::clone() const {
  return std::make_unique<Statevector>(*this);
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

std::uint64_t Statevector::sample_one(Rng& rng) const {
  // One shot: a single accumulate-and-compare pass, no CDF materialization.
  // The state is unit-norm (trajectory branches renormalize), so the draw is
  // against 1 with a fall-through to the last amplitude for rounding slack.
  const double x = rng.uniform();
  double acc = 0.0;
  for (std::uint64_t i = 0; i < amp_.size(); ++i) {
    acc += std::norm(amp_[i]);
    if (x < acc) return i;
  }
  return amp_.size() - 1;
}

double Statevector::expectation(const la::PauliSum& obs) const {
  HGP_REQUIRE(obs.num_qubits() == num_qubits_, "expectation: observable width mismatch");
  return obs.expectation(amp_);
}

double Statevector::prob_one(std::size_t q) const {
  HGP_REQUIRE(q < num_qubits_, "prob_one: qubit out of range");
  const std::uint64_t bit = std::uint64_t{1} << q;
  double p = 0.0;
  for (std::uint64_t i = 0; i < amp_.size(); ++i)
    if (i & bit) p += std::norm(amp_[i]);
  return p;
}

double Statevector::collapse(std::size_t q, bool outcome) {
  const double p1 = prob_one(q);
  const double p = outcome ? p1 : 1.0 - p1;
  HGP_REQUIRE(p > 1e-15, "collapse: outcome has (near-)zero probability");
  const std::uint64_t bit = std::uint64_t{1} << q;
  const double scale = 1.0 / std::sqrt(p);
  for (std::uint64_t i = 0; i < amp_.size(); ++i) {
    const bool one = (i & bit) != 0;
    if (one == outcome)
      amp_[i] *= scale;
    else
      amp_[i] = cxd{0.0, 0.0};
  }
  return p;
}

void Statevector::normalize() {
  double norm2 = 0.0;
  for (const cxd& a : amp_) norm2 += std::norm(a);
  HGP_REQUIRE(norm2 > 1e-300, "normalize: zero state");
  const double scale = 1.0 / std::sqrt(norm2);
  for (cxd& a : amp_) a *= scale;
}

void Statevector::apply_kraus_branch(const CMat& k,
                                     const std::vector<std::size_t>& qubits) {
  // Single-qubit diagonal Kraus branch (the amplitude-damping no-jump
  // operator): fuse the damp and the norm accumulation into one pass.
  if (qubits.size() == 1 && is_zero(k(0, 1)) && is_zero(k(1, 0))) {
    const std::uint64_t bit = std::uint64_t{1} << qubits[0];
    const cxd k0 = k(0, 0), k1 = k(1, 1);
    double norm2 = 0.0;
    for (std::uint64_t i = 0; i < amp_.size(); ++i) {
      amp_[i] *= (i & bit) ? k1 : k0;
      norm2 += std::norm(amp_[i]);
    }
    HGP_REQUIRE(norm2 > 1e-300, "apply_kraus_branch: branch has zero weight");
    const double scale = 1.0 / std::sqrt(norm2);
    for (cxd& a : amp_) a *= scale;
    return;
  }
  QuantumState::apply_kraus_branch(k, qubits);
}

}  // namespace hgp::sim
