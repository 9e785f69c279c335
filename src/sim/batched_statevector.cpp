#include "sim/batched_statevector.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "sim/kernel_structure.hpp"

namespace hgp::sim {

using la::cxd;
using la::CMat;
using detail::for_each_one;
using detail::for_each_pair_base;
using detail::for_each_quad_base;
using detail::is_zero;

// Every arithmetic expression in this file mirrors the corresponding scalar
// Statevector / executor kernel term-for-term (products first, then the same
// association of sums) so that, with FP contraction disabled, a lane evolves
// bit-identically to a scalar shot. Do not "simplify" the arithmetic here
// without changing the scalar kernels in lockstep.

BatchedStatevector::BatchedStatevector(std::size_t num_qubits, std::size_t lanes)
    : num_qubits_(num_qubits), dim_(std::size_t{1} << num_qubits), lanes_(lanes) {
  HGP_REQUIRE(num_qubits <= 26, "BatchedStatevector: too many qubits");
  HGP_REQUIRE(lanes >= 1, "BatchedStatevector: need at least one lane");
  re_.assign(dim_ * lanes_, 0.0);
  im_.assign(dim_ * lanes_, 0.0);
  for (std::size_t l = 0; l < lanes_; ++l) re_[l] = 1.0;
  scratch_re_.resize(8 * lanes_);
  scratch_im_.resize(8 * lanes_);
  acc_.resize(lanes_);
  done_.resize(lanes_);
}

void BatchedStatevector::reset() {
  std::fill(re_.begin(), re_.end(), 0.0);
  std::fill(im_.begin(), im_.end(), 0.0);
  for (std::size_t l = 0; l < lanes_; ++l) re_[l] = 1.0;
}

cxd BatchedStatevector::amplitude(std::uint64_t i, std::size_t lane) const {
  return {re_[i * lanes_ + lane], im_[i * lanes_ + lane]};
}

void BatchedStatevector::copy_lane_from(const BatchedStatevector& src, std::size_t src_lane,
                                        std::size_t lane) {
  HGP_REQUIRE(src.dim_ == dim_ && src_lane < src.lanes_ && lane < lanes_,
              "copy_lane_from: out of range");
  const std::size_t L = lanes_, SL = src.lanes_;
  for (std::uint64_t i = 0; i < dim_; ++i) {
    re_[i * L + lane] = src.re_[i * SL + src_lane];
    im_[i * L + lane] = src.im_[i * SL + src_lane];
  }
}

namespace {

/// row *= c for every lane (mirror of amp[i] *= c).
inline void mul_row(double* __restrict__ re, double* __restrict__ im, std::size_t L,
                    double cr, double ci) {
  for (std::size_t l = 0; l < L; ++l) {
    const double ar = re[l], ai = im[l];
    re[l] = cr * ar - ci * ai;
    im[l] = cr * ai + ci * ar;
  }
}

}  // namespace

void BatchedStatevector::apply_matrix(const CMat& u,
                                      const std::vector<std::size_t>& qubits) {
  const std::size_t k = qubits.size();
  HGP_REQUIRE(u.rows() == (std::size_t{1} << k) && u.cols() == u.rows(),
              "BatchedStatevector::apply_matrix: matrix size mismatch");
  for (std::size_t q : qubits)
    HGP_REQUIRE(q < num_qubits_, "BatchedStatevector::apply_matrix: qubit out of range");
  const std::size_t L = lanes_;

  if (k == 1) {
    const std::uint64_t bit = std::uint64_t{1} << qubits[0];
    const cxd u00 = u(0, 0), u01 = u(0, 1), u10 = u(1, 0), u11 = u(1, 1);
    if (is_zero(u01) && is_zero(u10)) {
      // Diagonal: pure per-amplitude phases, broadcast over lanes.
      const double d0r = u00.real(), d0i = u00.imag();
      const double d1r = u11.real(), d1i = u11.imag();
      for_each_pair_base(dim_, bit, [&](std::uint64_t i) {
        mul_row(&re_[i * L], &im_[i * L], L, d0r, d0i);
        mul_row(&re_[(i | bit) * L], &im_[(i | bit) * L], L, d1r, d1i);
      });
      return;
    }
    if (is_zero(u00) && is_zero(u11)) {
      // Anti-diagonal: paired swap with phases.
      const double p01r = u01.real(), p01i = u01.imag();
      const double p10r = u10.real(), p10i = u10.imag();
      for_each_pair_base(dim_, bit, [&](std::uint64_t i) {
        double* __restrict__ r0 = &re_[i * L];
        double* __restrict__ m0 = &im_[i * L];
        double* __restrict__ r1 = &re_[(i | bit) * L];
        double* __restrict__ m1 = &im_[(i | bit) * L];
        for (std::size_t l = 0; l < L; ++l) {
          const double ar0 = r0[l], ai0 = m0[l];
          const double ar1 = r1[l], ai1 = m1[l];
          r0[l] = p01r * ar1 - p01i * ai1;
          m0[l] = p01r * ai1 + p01i * ar1;
          r1[l] = p10r * ar0 - p10i * ai0;
          m1[l] = p10r * ai0 + p10i * ar0;
        }
      });
      return;
    }
    const double u00r = u00.real(), u00i = u00.imag();
    const double u01r = u01.real(), u01i = u01.imag();
    const double u10r = u10.real(), u10i = u10.imag();
    const double u11r = u11.real(), u11i = u11.imag();
    for_each_pair_base(dim_, bit, [&](std::uint64_t i) {
      double* __restrict__ r0 = &re_[i * L];
      double* __restrict__ m0 = &im_[i * L];
      double* __restrict__ r1 = &re_[(i | bit) * L];
      double* __restrict__ m1 = &im_[(i | bit) * L];
      for (std::size_t l = 0; l < L; ++l) {
        const double ar0 = r0[l], ai0 = m0[l];
        const double ar1 = r1[l], ai1 = m1[l];
        r0[l] = (u00r * ar0 - u00i * ai0) + (u01r * ar1 - u01i * ai1);
        m0[l] = (u00r * ai0 + u00i * ar0) + (u01r * ai1 + u01i * ar1);
        r1[l] = (u10r * ar0 - u10i * ai0) + (u11r * ar1 - u11i * ai1);
        m1[l] = (u10r * ai0 + u10i * ar0) + (u11r * ai1 + u11i * ar1);
      }
    });
    return;
  }

  if (k == 2) {
    const std::uint64_t b0 = std::uint64_t{1} << qubits[0];
    const std::uint64_t b1 = std::uint64_t{1} << qubits[1];
    std::uint64_t offset[4];
    for (std::size_t s = 0; s < 4; ++s)
      offset[s] = ((s & 1) ? b0 : 0) | ((s & 2) ? b1 : 0);

    if (detail::is_diagonal4(u)) {
      const cxd d[4] = {u(0, 0), u(1, 1), u(2, 2), u(3, 3)};
      for_each_quad_base(dim_, b0, b1, [&](std::uint64_t i) {
        for (std::size_t s = 0; s < 4; ++s)
          mul_row(&re_[(i | offset[s]) * L], &im_[(i | offset[s]) * L], L, d[s].real(),
                  d[s].imag());
      });
      return;
    }

    detail::Perm4 p4;
    if (detail::as_permutation4(u, p4)) {
      std::vector<double>& sr = scratch_re_;
      std::vector<double>& si = scratch_im_;
      for_each_quad_base(dim_, b0, b1, [&](std::uint64_t i) {
        for (std::size_t s = 0; s < 4; ++s) {
          const double* __restrict__ r = &re_[(i | offset[s]) * L];
          const double* __restrict__ m = &im_[(i | offset[s]) * L];
          for (std::size_t l = 0; l < L; ++l) {
            sr[s * L + l] = r[l];
            si[s * L + l] = m[l];
          }
        }
        for (std::size_t s = 0; s < 4; ++s) {
          const double pr = p4.phase[s].real(), pi = p4.phase[s].imag();
          double* __restrict__ r = &re_[(i | offset[p4.perm[s]]) * L];
          double* __restrict__ m = &im_[(i | offset[p4.perm[s]]) * L];
          const double* __restrict__ ar = &sr[s * L];
          const double* __restrict__ ai = &si[s * L];
          for (std::size_t l = 0; l < L; ++l) {
            r[l] = pr * ar[l] - pi * ai[l];
            m[l] = pr * ai[l] + pi * ar[l];
          }
        }
      });
      return;
    }

    double ur[4][4], ui[4][4];
    for (std::size_t r = 0; r < 4; ++r)
      for (std::size_t c = 0; c < 4; ++c) {
        ur[r][c] = u(r, c).real();
        ui[r][c] = u(r, c).imag();
      }
    std::vector<double>& sr = scratch_re_;
    std::vector<double>& si = scratch_im_;
    for_each_quad_base(dim_, b0, b1, [&](std::uint64_t i) {
      for (std::size_t s = 0; s < 4; ++s) {
        const double* __restrict__ r = &re_[(i | offset[s]) * L];
        const double* __restrict__ m = &im_[(i | offset[s]) * L];
        for (std::size_t l = 0; l < L; ++l) {
          sr[s * L + l] = r[l];
          si[s * L + l] = m[l];
        }
      }
      // Mirror of the scalar row expression u(r,0)*a0 + u(r,1)*a1 + ... :
      // each product rounded first, sums associated left-to-right.
      for (std::size_t r = 0; r < 4; ++r) {
        double* __restrict__ outr = &re_[(i | offset[r]) * L];
        double* __restrict__ outm = &im_[(i | offset[r]) * L];
        for (std::size_t l = 0; l < L; ++l) {
          const double p0r = ur[r][0] * sr[0 * L + l] - ui[r][0] * si[0 * L + l];
          const double p0i = ur[r][0] * si[0 * L + l] + ui[r][0] * sr[0 * L + l];
          const double p1r = ur[r][1] * sr[1 * L + l] - ui[r][1] * si[1 * L + l];
          const double p1i = ur[r][1] * si[1 * L + l] + ui[r][1] * sr[1 * L + l];
          const double p2r = ur[r][2] * sr[2 * L + l] - ui[r][2] * si[2 * L + l];
          const double p2i = ur[r][2] * si[2 * L + l] + ui[r][2] * sr[2 * L + l];
          const double p3r = ur[r][3] * sr[3 * L + l] - ui[r][3] * si[3 * L + l];
          const double p3i = ur[r][3] * si[3 * L + l] + ui[r][3] * sr[3 * L + l];
          outr[l] = ((p0r + p1r) + p2r) + p3r;
          outm[l] = ((p0i + p1i) + p2i) + p3i;
        }
      }
    });
    return;
  }

  if (k == 3) {
    // Dense 3q kernel for width-3 fused blocks: same dispatch as the scalar
    // backend, lane-major unit-stride inner loops, and the generic path's
    // summation order (products rounded first, accumulated in s order).
    const std::uint64_t b0 = std::uint64_t{1} << qubits[0];
    const std::uint64_t b1 = std::uint64_t{1} << qubits[1];
    const std::uint64_t b2 = std::uint64_t{1} << qubits[2];
    std::uint64_t offset[8];
    for (std::size_t s = 0; s < 8; ++s)
      offset[s] = ((s & 1) ? b0 : 0) | ((s & 2) ? b1 : 0) | ((s & 4) ? b2 : 0);

    if (detail::is_diagonal_n(u)) {
      cxd d[8];
      for (std::size_t s = 0; s < 8; ++s) d[s] = u(s, s);
      detail::for_each_oct_base(dim_, b0, b1, b2, [&](std::uint64_t i) {
        for (std::size_t s = 0; s < 8; ++s)
          mul_row(&re_[(i | offset[s]) * L], &im_[(i | offset[s]) * L], L, d[s].real(),
                  d[s].imag());
      });
      return;
    }

    std::vector<double>& sr = scratch_re_;
    std::vector<double>& si = scratch_im_;
    detail::for_each_oct_base(dim_, b0, b1, b2, [&](std::uint64_t i) {
      for (std::size_t s = 0; s < 8; ++s) {
        const double* __restrict__ r = &re_[(i | offset[s]) * L];
        const double* __restrict__ m = &im_[(i | offset[s]) * L];
        for (std::size_t l = 0; l < L; ++l) {
          sr[s * L + l] = r[l];
          si[s * L + l] = m[l];
        }
      }
      for (std::size_t r = 0; r < 8; ++r) {
        double* __restrict__ outr = &re_[(i | offset[r]) * L];
        double* __restrict__ outm = &im_[(i | offset[r]) * L];
        for (std::size_t l = 0; l < L; ++l) {
          outr[l] = 0.0;
          outm[l] = 0.0;
        }
        for (std::size_t s = 0; s < 8; ++s) {
          const double cr = u(r, s).real(), ci = u(r, s).imag();
          const double* __restrict__ ar = &sr[s * L];
          const double* __restrict__ ai = &si[s * L];
          for (std::size_t l = 0; l < L; ++l) {
            const double pr = cr * ar[l] - ci * ai[l];
            const double pi = cr * ai[l] + ci * ar[l];
            outr[l] += pr;
            outm[l] += pi;
          }
        }
      }
    });
    return;
  }

  // Generic k-qubit path: block enumeration of the 2^(n-k) base indices,
  // same as the scalar backend.
  const std::size_t dim = std::size_t{1} << k;
  std::vector<std::uint64_t> masks(k);
  for (std::size_t j = 0; j < k; ++j) masks[j] = std::uint64_t{1} << qubits[j];
  std::vector<std::uint64_t> sorted_masks = masks;
  std::sort(sorted_masks.begin(), sorted_masks.end());

  std::vector<double> lr(dim * L), li(dim * L);
  std::vector<std::uint64_t> idx(dim);
  const std::uint64_t num_bases = dim_ >> k;
  for (std::uint64_t t = 0; t < num_bases; ++t) {
    const std::uint64_t base = detail::expand_base(t, sorted_masks.data(), k);
    for (std::uint64_t s = 0; s < dim; ++s) {
      std::uint64_t i = base;
      for (std::size_t j = 0; j < k; ++j)
        if ((s >> j) & 1) i |= masks[j];
      idx[s] = i;
      const double* __restrict__ r = &re_[i * L];
      const double* __restrict__ m = &im_[i * L];
      for (std::size_t l = 0; l < L; ++l) {
        lr[s * L + l] = r[l];
        li[s * L + l] = m[l];
      }
    }
    for (std::uint64_t r = 0; r < dim; ++r) {
      double* __restrict__ outr = &re_[idx[r] * L];
      double* __restrict__ outm = &im_[idx[r] * L];
      for (std::size_t l = 0; l < L; ++l) {
        outr[l] = 0.0;
        outm[l] = 0.0;
      }
      // acc += u(r,s) * local[s], product rounded before the accumulate —
      // the scalar path's exact summation order.
      for (std::uint64_t s = 0; s < dim; ++s) {
        const double cr = u(r, s).real(), ci = u(r, s).imag();
        const double* __restrict__ ar = &lr[s * L];
        const double* __restrict__ ai = &li[s * L];
        for (std::size_t l = 0; l < L; ++l) {
          const double pr = cr * ar[l] - ci * ai[l];
          const double pi = cr * ai[l] + ci * ar[l];
          outr[l] += pr;
          outm[l] += pi;
        }
      }
    }
  }
}

void BatchedStatevector::apply_phase_ratio(std::size_t q, cxd ratio) {
  if (ratio == cxd{1.0, 0.0}) return;
  HGP_REQUIRE(q < num_qubits_, "apply_phase_ratio: qubit out of range");
  const std::uint64_t bit = std::uint64_t{1} << q;
  const double rr = ratio.real(), ri = ratio.imag();
  const std::size_t L = lanes_;
  for_each_one(dim_, bit, [&](std::uint64_t i) { mul_row(&re_[i * L], &im_[i * L], L, rr, ri); });
}

void BatchedStatevector::masses_one(std::size_t q, double* m1) const {
  HGP_REQUIRE(q < num_qubits_, "masses_one: qubit out of range");
  const std::uint64_t bit = std::uint64_t{1} << q;
  const std::size_t L = lanes_;
  for (std::size_t l = 0; l < L; ++l) m1[l] = 0.0;
  for_each_one(dim_, bit, [&](std::uint64_t i) {
    const double* __restrict__ r = &re_[i * L];
    const double* __restrict__ m = &im_[i * L];
    for (std::size_t l = 0; l < L; ++l) m1[l] += r[l] * r[l] + m[l] * m[l];
  });
}

void BatchedStatevector::fused_mass_damp(std::size_t q, const double* scale1, double* m1) {
  HGP_REQUIRE(q < num_qubits_, "fused_mass_damp: qubit out of range");
  const std::uint64_t bit = std::uint64_t{1} << q;
  const std::size_t L = lanes_;
  for (std::size_t l = 0; l < L; ++l) m1[l] = 0.0;
  for_each_one(dim_, bit, [&](std::uint64_t i) {
    double* __restrict__ r = &re_[i * L];
    double* __restrict__ m = &im_[i * L];
    for (std::size_t l = 0; l < L; ++l) {
      const double ar = r[l], ai = m[l];
      m1[l] += ar * ar + ai * ai;
      r[l] = ar * scale1[l];
      m[l] = ai * scale1[l];
    }
  });
}

void BatchedStatevector::damp_or_jump(std::size_t q, const double* take,
                                      const double* scale1) {
  HGP_REQUIRE(q < num_qubits_, "damp_or_jump: qubit out of range");
  const std::uint64_t bit = std::uint64_t{1} << q;
  const std::size_t L = lanes_;
  for_each_one(dim_, bit, [&](std::uint64_t i) {
    double* __restrict__ r1 = &re_[i * L];
    double* __restrict__ m1p = &im_[i * L];
    double* __restrict__ r0 = &re_[(i ^ bit) * L];
    double* __restrict__ m0 = &im_[(i ^ bit) * L];
    for (std::size_t l = 0; l < L; ++l) {
      const double t = take[l];
      const double keep = 1.0 - t;
      r0[l] = keep * r0[l] + t * r1[l];
      m0[l] = keep * m0[l] + t * m1p[l];
      r1[l] *= scale1[l];
      m1p[l] *= scale1[l];
    }
  });
}

void BatchedStatevector::apply_matrix_lane(const CMat& u, std::size_t q, std::size_t lane) {
  HGP_REQUIRE(u.rows() == 2 && u.cols() == 2, "apply_matrix_lane: expected a 2x2 operator");
  HGP_REQUIRE(q < num_qubits_ && lane < lanes_, "apply_matrix_lane: out of range");
  const std::uint64_t bit = std::uint64_t{1} << q;
  const std::size_t L = lanes_;
  const cxd u00 = u(0, 0), u01 = u(0, 1), u10 = u(1, 0), u11 = u(1, 1);
  auto at = [&](std::uint64_t i) -> cxd { return {re_[i * L + lane], im_[i * L + lane]}; };
  auto put = [&](std::uint64_t i, cxd a) {
    re_[i * L + lane] = a.real();
    im_[i * L + lane] = a.imag();
  };
  // Same dispatch and arithmetic as the scalar 1q kernels, restricted to one
  // lane (strided access — this is the rare per-lane Pauli-branch path).
  if (is_zero(u01) && is_zero(u10)) {
    for (std::uint64_t i = 0; i < dim_; ++i) put(i, at(i) * ((i & bit) ? u11 : u00));
    return;
  }
  if (is_zero(u00) && is_zero(u11)) {
    for_each_pair_base(dim_, bit, [&](std::uint64_t i) {
      const cxd a0 = at(i);
      put(i, u01 * at(i | bit));
      put(i | bit, u10 * a0);
    });
    return;
  }
  for_each_pair_base(dim_, bit, [&](std::uint64_t i) {
    const cxd a0 = at(i);
    const cxd a1 = at(i | bit);
    put(i, u00 * a0 + u01 * a1);
    put(i | bit, u10 * a0 + u11 * a1);
  });
}

void BatchedStatevector::apply_pauli_lanes(std::size_t q, const std::uint8_t* codes) {
  HGP_REQUIRE(q < num_qubits_, "apply_pauli_lanes: qubit out of range");
  const std::uint64_t bit = std::uint64_t{1} << q;
  const std::size_t L = lanes_;
  // Literal complex products with the 0 / ±1 Pauli entries, in the exact
  // operand order of the scalar kernels (u * a for the anti-diagonal X/Y
  // paths, a * u for the diagonal Z path) — without fast-math the compiler
  // cannot fold 0.0 * x, so each lane rounds like apply_matrix_lane.
  for_each_pair_base(dim_, bit, [&](std::uint64_t i) {
    double* __restrict__ r0 = &re_[i * L];
    double* __restrict__ m0 = &im_[i * L];
    double* __restrict__ r1 = &re_[(i | bit) * L];
    double* __restrict__ m1 = &im_[(i | bit) * L];
    for (std::size_t l = 0; l < L; ++l) {
      const double ar0 = r0[l], ai0 = m0[l];
      const double ar1 = r1[l], ai1 = m1[l];
      switch (codes[l]) {
        case 1:  // X: u01 = u10 = 1
          r0[l] = 1.0 * ar1 - 0.0 * ai1;
          m0[l] = 1.0 * ai1 + 0.0 * ar1;
          r1[l] = 1.0 * ar0 - 0.0 * ai0;
          m1[l] = 1.0 * ai0 + 0.0 * ar0;
          break;
        case 2:  // Y: u01 = -i, u10 = i
          r0[l] = 0.0 * ar1 - (-1.0) * ai1;
          m0[l] = 0.0 * ai1 + (-1.0) * ar1;
          r1[l] = 0.0 * ar0 - 1.0 * ai0;
          m1[l] = 0.0 * ai0 + 1.0 * ar0;
          break;
        case 3:  // Z: u00 = 1, u11 = -1
          r0[l] = ar0 * 1.0 - ai0 * 0.0;
          m0[l] = ar0 * 0.0 + ai0 * 1.0;
          r1[l] = ar1 * -1.0 - ai1 * 0.0;
          m1[l] = ar1 * 0.0 + ai1 * -1.0;
          break;
        default:  // I: lane untouched
          break;
      }
    }
  });
}

void BatchedStatevector::apply_matrix_per_lane(const std::vector<CMat>& us,
                                               const std::vector<std::size_t>& qubits) {
  const std::size_t k = qubits.size();
  const std::size_t L = lanes_;
  HGP_REQUIRE(us.size() == L, "apply_matrix_per_lane: one operator per lane");
  const std::size_t rows = std::size_t{1} << k;
  for (const CMat& u : us)
    HGP_REQUIRE(u.rows() == rows && u.cols() == rows,
                "apply_matrix_per_lane: matrix size mismatch");
  for (std::size_t q : qubits)
    HGP_REQUIRE(q < num_qubits_, "apply_matrix_per_lane: qubit out of range");

  if (k == 1) {
    const std::uint64_t bit = std::uint64_t{1} << qubits[0];
    bool all_diag = true, all_anti = true;
    for (const CMat& u : us) {
      if (!detail::is_diagonal2(u)) all_diag = false;
      if (!detail::is_antidiagonal2(u)) all_anti = false;
    }
    if (all_diag) {
      // Per-lane diagonal phases: d0/d1 coefficient rows in the gather
      // scratch, one mul_row-shaped pass per half.
      double* __restrict__ d0r = &scratch_re_[0];
      double* __restrict__ d1r = &scratch_re_[L];
      double* __restrict__ d0i = &scratch_im_[0];
      double* __restrict__ d1i = &scratch_im_[L];
      for (std::size_t l = 0; l < L; ++l) {
        d0r[l] = us[l](0, 0).real();
        d0i[l] = us[l](0, 0).imag();
        d1r[l] = us[l](1, 1).real();
        d1i[l] = us[l](1, 1).imag();
      }
      for_each_pair_base(dim_, bit, [&](std::uint64_t i) {
        double* __restrict__ r0 = &re_[i * L];
        double* __restrict__ m0 = &im_[i * L];
        double* __restrict__ r1 = &re_[(i | bit) * L];
        double* __restrict__ m1 = &im_[(i | bit) * L];
        for (std::size_t l = 0; l < L; ++l) {
          const double ar0 = r0[l], ai0 = m0[l];
          const double ar1 = r1[l], ai1 = m1[l];
          r0[l] = d0r[l] * ar0 - d0i[l] * ai0;
          m0[l] = d0r[l] * ai0 + d0i[l] * ar0;
          r1[l] = d1r[l] * ar1 - d1i[l] * ai1;
          m1[l] = d1r[l] * ai1 + d1i[l] * ar1;
        }
      });
      return;
    }
    if (all_anti) {
      double* __restrict__ p01r = &scratch_re_[0];
      double* __restrict__ p10r = &scratch_re_[L];
      double* __restrict__ p01i = &scratch_im_[0];
      double* __restrict__ p10i = &scratch_im_[L];
      for (std::size_t l = 0; l < L; ++l) {
        p01r[l] = us[l](0, 1).real();
        p01i[l] = us[l](0, 1).imag();
        p10r[l] = us[l](1, 0).real();
        p10i[l] = us[l](1, 0).imag();
      }
      for_each_pair_base(dim_, bit, [&](std::uint64_t i) {
        double* __restrict__ r0 = &re_[i * L];
        double* __restrict__ m0 = &im_[i * L];
        double* __restrict__ r1 = &re_[(i | bit) * L];
        double* __restrict__ m1 = &im_[(i | bit) * L];
        for (std::size_t l = 0; l < L; ++l) {
          const double ar0 = r0[l], ai0 = m0[l];
          const double ar1 = r1[l], ai1 = m1[l];
          r0[l] = p01r[l] * ar1 - p01i[l] * ai1;
          m0[l] = p01r[l] * ai1 + p01i[l] * ar1;
          r1[l] = p10r[l] * ar0 - p10i[l] * ai0;
          m1[l] = p10r[l] * ai0 + p10i[l] * ar0;
        }
      });
      return;
    }
    bool all_dense = true;
    for (const CMat& u : us)
      if (detail::is_diagonal2(u) || detail::is_antidiagonal2(u)) all_dense = false;
    if (all_dense) {
      std::vector<double> cr(4 * L), ci(4 * L);
      for (std::size_t l = 0; l < L; ++l)
        for (std::size_t e = 0; e < 4; ++e) {
          cr[e * L + l] = us[l](e >> 1, e & 1).real();
          ci[e * L + l] = us[l](e >> 1, e & 1).imag();
        }
      const double* __restrict__ u00r = &cr[0 * L];
      const double* __restrict__ u01r = &cr[1 * L];
      const double* __restrict__ u10r = &cr[2 * L];
      const double* __restrict__ u11r = &cr[3 * L];
      const double* __restrict__ u00i = &ci[0 * L];
      const double* __restrict__ u01i = &ci[1 * L];
      const double* __restrict__ u10i = &ci[2 * L];
      const double* __restrict__ u11i = &ci[3 * L];
      for_each_pair_base(dim_, bit, [&](std::uint64_t i) {
        double* __restrict__ r0 = &re_[i * L];
        double* __restrict__ m0 = &im_[i * L];
        double* __restrict__ r1 = &re_[(i | bit) * L];
        double* __restrict__ m1 = &im_[(i | bit) * L];
        for (std::size_t l = 0; l < L; ++l) {
          const double ar0 = r0[l], ai0 = m0[l];
          const double ar1 = r1[l], ai1 = m1[l];
          r0[l] = (u00r[l] * ar0 - u00i[l] * ai0) + (u01r[l] * ar1 - u01i[l] * ai1);
          m0[l] = (u00r[l] * ai0 + u00i[l] * ar0) + (u01r[l] * ai1 + u01i[l] * ar1);
          r1[l] = (u10r[l] * ar0 - u10i[l] * ai0) + (u11r[l] * ar1 - u11i[l] * ai1);
          m1[l] = (u10r[l] * ai0 + u10i[l] * ar0) + (u11r[l] * ai1 + u11i[l] * ar1);
        }
      });
      return;
    }
    // Mixed structure classes: each lane takes its own scalar dispatch.
    for (std::size_t l = 0; l < L; ++l) apply_matrix_lane(us[l], qubits[0], l);
    return;
  }

  if (k == 2) {
    const std::uint64_t b0 = std::uint64_t{1} << qubits[0];
    const std::uint64_t b1 = std::uint64_t{1} << qubits[1];
    std::uint64_t offset[4];
    for (std::size_t s = 0; s < 4; ++s)
      offset[s] = ((s & 1) ? b0 : 0) | ((s & 2) ? b1 : 0);

    bool all_diag = true;
    for (const CMat& u : us)
      if (!detail::is_diagonal4(u)) all_diag = false;
    if (all_diag) {
      // The per-lane-theta RZZ kernel: four per-lane phase rows, one
      // quad-base sweep.
      for (std::size_t l = 0; l < L; ++l)
        for (std::size_t s = 0; s < 4; ++s) {
          scratch_re_[s * L + l] = us[l](s, s).real();
          scratch_im_[s * L + l] = us[l](s, s).imag();
        }
      for_each_quad_base(dim_, b0, b1, [&](std::uint64_t i) {
        for (std::size_t s = 0; s < 4; ++s) {
          const double* __restrict__ dr = &scratch_re_[s * L];
          const double* __restrict__ di = &scratch_im_[s * L];
          double* __restrict__ r = &re_[(i | offset[s]) * L];
          double* __restrict__ m = &im_[(i | offset[s]) * L];
          for (std::size_t l = 0; l < L; ++l) {
            const double ar = r[l], ai = m[l];
            r[l] = dr[l] * ar - di[l] * ai;
            m[l] = dr[l] * ai + di[l] * ar;
          }
        }
      });
      return;
    }

    bool any_structured = false;
    detail::Perm4 p4;
    for (const CMat& u : us)
      if (detail::is_diagonal4(u) || detail::as_permutation4(u, p4)) any_structured = true;
    if (!any_structured) {
      // All-dense: per-lane 4x4 coefficient rows, gather scratch as in the
      // broadcast kernel, the same product/association order per lane.
      std::vector<double> cr(16 * L), ci(16 * L);
      for (std::size_t l = 0; l < L; ++l)
        for (std::size_t r = 0; r < 4; ++r)
          for (std::size_t c = 0; c < 4; ++c) {
            cr[(r * 4 + c) * L + l] = us[l](r, c).real();
            ci[(r * 4 + c) * L + l] = us[l](r, c).imag();
          }
      std::vector<double>& sr = scratch_re_;
      std::vector<double>& si = scratch_im_;
      for_each_quad_base(dim_, b0, b1, [&](std::uint64_t i) {
        for (std::size_t s = 0; s < 4; ++s) {
          const double* __restrict__ r = &re_[(i | offset[s]) * L];
          const double* __restrict__ m = &im_[(i | offset[s]) * L];
          for (std::size_t l = 0; l < L; ++l) {
            sr[s * L + l] = r[l];
            si[s * L + l] = m[l];
          }
        }
        for (std::size_t r = 0; r < 4; ++r) {
          double* __restrict__ outr = &re_[(i | offset[r]) * L];
          double* __restrict__ outm = &im_[(i | offset[r]) * L];
          const double* __restrict__ ur0 = &cr[(r * 4 + 0) * L];
          const double* __restrict__ ur1 = &cr[(r * 4 + 1) * L];
          const double* __restrict__ ur2 = &cr[(r * 4 + 2) * L];
          const double* __restrict__ ur3 = &cr[(r * 4 + 3) * L];
          const double* __restrict__ ui0 = &ci[(r * 4 + 0) * L];
          const double* __restrict__ ui1 = &ci[(r * 4 + 1) * L];
          const double* __restrict__ ui2 = &ci[(r * 4 + 2) * L];
          const double* __restrict__ ui3 = &ci[(r * 4 + 3) * L];
          for (std::size_t l = 0; l < L; ++l) {
            const double p0r = ur0[l] * sr[0 * L + l] - ui0[l] * si[0 * L + l];
            const double p0i = ur0[l] * si[0 * L + l] + ui0[l] * sr[0 * L + l];
            const double p1r = ur1[l] * sr[1 * L + l] - ui1[l] * si[1 * L + l];
            const double p1i = ur1[l] * si[1 * L + l] + ui1[l] * sr[1 * L + l];
            const double p2r = ur2[l] * sr[2 * L + l] - ui2[l] * si[2 * L + l];
            const double p2i = ur2[l] * si[2 * L + l] + ui2[l] * sr[2 * L + l];
            const double p3r = ur3[l] * sr[3 * L + l] - ui3[l] * si[3 * L + l];
            const double p3i = ur3[l] * si[3 * L + l] + ui3[l] * sr[3 * L + l];
            outr[l] = ((p0r + p1r) + p2r) + p3r;
            outm[l] = ((p0i + p1i) + p2i) + p3i;
          }
        }
      });
      return;
    }
  }

  if (k == 3) {
    bool all_diag = true;
    for (const CMat& u : us)
      if (!detail::is_diagonal_n(u)) all_diag = false;
    if (all_diag) {
      // Width-3 fused diagonal chains with per-lane parameters: eight
      // per-lane phase rows, one oct-base sweep.
      const std::uint64_t b0 = std::uint64_t{1} << qubits[0];
      const std::uint64_t b1 = std::uint64_t{1} << qubits[1];
      const std::uint64_t b2 = std::uint64_t{1} << qubits[2];
      std::uint64_t offset[8];
      for (std::size_t s = 0; s < 8; ++s)
        offset[s] = ((s & 1) ? b0 : 0) | ((s & 2) ? b1 : 0) | ((s & 4) ? b2 : 0);
      for (std::size_t l = 0; l < L; ++l)
        for (std::size_t s = 0; s < 8; ++s) {
          scratch_re_[s * L + l] = us[l](s, s).real();
          scratch_im_[s * L + l] = us[l](s, s).imag();
        }
      detail::for_each_oct_base(dim_, b0, b1, b2, [&](std::uint64_t i) {
        for (std::size_t s = 0; s < 8; ++s) {
          const double* __restrict__ dr = &scratch_re_[s * L];
          const double* __restrict__ di = &scratch_im_[s * L];
          double* __restrict__ r = &re_[(i | offset[s]) * L];
          double* __restrict__ m = &im_[(i | offset[s]) * L];
          for (std::size_t l = 0; l < L; ++l) {
            const double ar = r[l], ai = m[l];
            r[l] = dr[l] * ar - di[l] * ai;
            m[l] = dr[l] * ai + di[l] * ar;
          }
        }
      });
      return;
    }

    bool any_diag = false;
    for (const CMat& u : us)
      if (detail::is_diagonal_n(u)) any_diag = true;
    if (!any_diag) {
      // All-dense width-3 fused blocks with per-lane parameters: per-lane
      // 8x8 coefficient rows, gather scratch, and the broadcast dense
      // kernel's product/association order per lane (products rounded
      // first, summed in ascending s).
      const std::uint64_t b0 = std::uint64_t{1} << qubits[0];
      const std::uint64_t b1 = std::uint64_t{1} << qubits[1];
      const std::uint64_t b2 = std::uint64_t{1} << qubits[2];
      std::uint64_t offset[8];
      for (std::size_t s = 0; s < 8; ++s)
        offset[s] = ((s & 1) ? b0 : 0) | ((s & 2) ? b1 : 0) | ((s & 4) ? b2 : 0);
      std::vector<double> cr(64 * L), ci(64 * L);
      for (std::size_t l = 0; l < L; ++l)
        for (std::size_t r = 0; r < 8; ++r)
          for (std::size_t c = 0; c < 8; ++c) {
            cr[(r * 8 + c) * L + l] = us[l](r, c).real();
            ci[(r * 8 + c) * L + l] = us[l](r, c).imag();
          }
      std::vector<double>& sr = scratch_re_;
      std::vector<double>& si = scratch_im_;
      detail::for_each_oct_base(dim_, b0, b1, b2, [&](std::uint64_t i) {
        for (std::size_t s = 0; s < 8; ++s) {
          const double* __restrict__ r = &re_[(i | offset[s]) * L];
          const double* __restrict__ m = &im_[(i | offset[s]) * L];
          for (std::size_t l = 0; l < L; ++l) {
            sr[s * L + l] = r[l];
            si[s * L + l] = m[l];
          }
        }
        for (std::size_t r = 0; r < 8; ++r) {
          double* __restrict__ outr = &re_[(i | offset[r]) * L];
          double* __restrict__ outm = &im_[(i | offset[r]) * L];
          for (std::size_t l = 0; l < L; ++l) {
            outr[l] = 0.0;
            outm[l] = 0.0;
          }
          for (std::size_t s = 0; s < 8; ++s) {
            const double* __restrict__ ur = &cr[(r * 8 + s) * L];
            const double* __restrict__ ui = &ci[(r * 8 + s) * L];
            const double* __restrict__ ar = &sr[s * L];
            const double* __restrict__ ai = &si[s * L];
            for (std::size_t l = 0; l < L; ++l) {
              const double pr = ur[l] * ar[l] - ui[l] * ai[l];
              const double pi = ur[l] * ai[l] + ui[l] * ar[l];
              outr[l] += pr;
              outm[l] += pi;
            }
          }
        }
      });
      return;
    }
  }

  // Mixed structure, permutation, or k > 2: per-lane strided applies with
  // the scalar dispatch.
  for (std::size_t l = 0; l < L; ++l) apply_matrix_one_lane(us[l], qubits, l);
}

void BatchedStatevector::apply_matrix_one_lane(const CMat& u,
                                               const std::vector<std::size_t>& qubits,
                                               std::size_t lane) {
  const std::size_t k = qubits.size();
  HGP_REQUIRE(u.rows() == (std::size_t{1} << k) && u.cols() == u.rows(),
              "apply_matrix_one_lane: matrix size mismatch");
  HGP_REQUIRE(lane < lanes_, "apply_matrix_one_lane: lane out of range");
  for (std::size_t q : qubits)
    HGP_REQUIRE(q < num_qubits_, "apply_matrix_one_lane: qubit out of range");
  if (k == 1) {
    apply_matrix_lane(u, qubits[0], lane);
    return;
  }
  const std::size_t L = lanes_;
  auto at = [&](std::uint64_t i) -> cxd { return {re_[i * L + lane], im_[i * L + lane]}; };
  auto put = [&](std::uint64_t i, cxd a) {
    re_[i * L + lane] = a.real();
    im_[i * L + lane] = a.imag();
  };

  if (k == 2) {
    const std::uint64_t b0 = std::uint64_t{1} << qubits[0];
    const std::uint64_t b1 = std::uint64_t{1} << qubits[1];
    if (detail::is_diagonal4(u)) {
      const cxd d[4] = {u(0, 0), u(1, 1), u(2, 2), u(3, 3)};
      for (std::uint64_t i = 0; i < dim_; ++i) {
        const std::size_t sub = ((i & b0) ? 1u : 0u) | ((i & b1) ? 2u : 0u);
        put(i, at(i) * d[sub]);
      }
      return;
    }
    detail::Perm4 p4;
    if (detail::as_permutation4(u, p4)) {
      std::uint64_t offset[4];
      for (std::size_t s = 0; s < 4; ++s)
        offset[s] = ((s & 1) ? b0 : 0) | ((s & 2) ? b1 : 0);
      for_each_quad_base(dim_, b0, b1, [&](std::uint64_t i) {
        cxd a[4];
        for (std::size_t s = 0; s < 4; ++s) a[s] = at(i | offset[s]);
        for (std::size_t s = 0; s < 4; ++s) put(i | offset[p4.perm[s]], p4.phase[s] * a[s]);
      });
      return;
    }
    for_each_quad_base(dim_, b0, b1, [&](std::uint64_t i) {
      const std::uint64_t i0 = i, i1 = i | b0, i2 = i | b1, i3 = i | b0 | b1;
      const cxd a0 = at(i0), a1 = at(i1), a2 = at(i2), a3 = at(i3);
      put(i0, u(0, 0) * a0 + u(0, 1) * a1 + u(0, 2) * a2 + u(0, 3) * a3);
      put(i1, u(1, 0) * a0 + u(1, 1) * a1 + u(1, 2) * a2 + u(1, 3) * a3);
      put(i2, u(2, 0) * a0 + u(2, 1) * a1 + u(2, 2) * a2 + u(2, 3) * a3);
      put(i3, u(3, 0) * a0 + u(3, 1) * a1 + u(3, 2) * a2 + u(3, 3) * a3);
    });
    return;
  }

  if (k == 3 && detail::is_diagonal_n(u)) {
    // Mirror of the scalar backend's diagonal-8 fast path, one lane's stride.
    const std::uint64_t b0 = std::uint64_t{1} << qubits[0];
    const std::uint64_t b1 = std::uint64_t{1} << qubits[1];
    const std::uint64_t b2 = std::uint64_t{1} << qubits[2];
    cxd d[8];
    for (std::size_t s = 0; s < 8; ++s) d[s] = u(s, s);
    for (std::uint64_t i = 0; i < dim_; ++i) {
      const std::size_t sub =
          ((i & b0) ? 1u : 0u) | ((i & b1) ? 2u : 0u) | ((i & b2) ? 4u : 0u);
      put(i, at(i) * d[sub]);
    }
    return;
  }

  // Generic k: the scalar backend's block enumeration, one lane's stride.
  const std::size_t dim = std::size_t{1} << k;
  std::vector<std::uint64_t> masks(k);
  for (std::size_t j = 0; j < k; ++j) masks[j] = std::uint64_t{1} << qubits[j];
  std::vector<std::uint64_t> sorted_masks = masks;
  std::sort(sorted_masks.begin(), sorted_masks.end());
  std::vector<cxd> local(dim);
  const std::uint64_t num_bases = dim_ >> k;
  for (std::uint64_t t = 0; t < num_bases; ++t) {
    const std::uint64_t base = detail::expand_base(t, sorted_masks.data(), k);
    for (std::uint64_t s = 0; s < dim; ++s) {
      std::uint64_t idx = base;
      for (std::size_t j = 0; j < k; ++j)
        if ((s >> j) & 1) idx |= masks[j];
      local[s] = at(idx);
    }
    for (std::uint64_t r = 0; r < dim; ++r) {
      cxd acc{0.0, 0.0};
      for (std::uint64_t s = 0; s < dim; ++s) acc += u(r, s) * local[s];
      std::uint64_t idx = base;
      for (std::size_t j = 0; j < k; ++j)
        if ((r >> j) & 1) idx |= masks[j];
      put(idx, acc);
    }
  }
}

void BatchedStatevector::weighted_masses(const double* values, double* num,
                                         double* den) const {
  const std::size_t L = lanes_;
  for (std::size_t l = 0; l < L; ++l) {
    num[l] = 0.0;
    den[l] = 0.0;
  }
  for (std::uint64_t i = 0; i < dim_; ++i) {
    const double* __restrict__ r = &re_[i * L];
    const double* __restrict__ m = &im_[i * L];
    const double v = values[i];
    for (std::size_t l = 0; l < L; ++l) {
      const double p = r[l] * r[l] + m[l] * m[l];
      num[l] += v * p;
      den[l] += p;
    }
  }
}

void BatchedStatevector::accumulate_mapped(const std::uint32_t* map, double* out) const {
  const std::size_t L = lanes_;
  for (std::uint64_t i = 0; i < dim_; ++i) {
    const double* __restrict__ r = &re_[i * L];
    const double* __restrict__ m = &im_[i * L];
    double* __restrict__ o = &out[static_cast<std::size_t>(map[i]) * L];
    for (std::size_t l = 0; l < L; ++l) o[l] += r[l] * r[l] + m[l] * m[l];
  }
}

void BatchedStatevector::sample_lanes(const double* x, const std::uint8_t* active,
                                      std::uint64_t* out) const {
  const std::size_t L = lanes_;
  std::vector<double>& acc = acc_;
  std::vector<std::uint8_t>& done = done_;
  std::fill(acc.begin(), acc.end(), 0.0);
  std::size_t remaining = 0;
  for (std::size_t l = 0; l < L; ++l) {
    done[l] = active != nullptr && !active[l];
    if (!done[l]) {
      out[l] = dim_ - 1;  // rounding-slack fall-through, as in the scalar scan
      ++remaining;
    }
  }
  if (remaining == 0) return;
  for (std::uint64_t i = 0; i < dim_; ++i) {
    const double* __restrict__ r = &re_[i * L];
    const double* __restrict__ m = &im_[i * L];
    for (std::size_t l = 0; l < L; ++l) acc[l] += r[l] * r[l] + m[l] * m[l];
    for (std::size_t l = 0; l < L; ++l) {
      if (!done[l] && x[l] < acc[l]) {
        out[l] = i;
        done[l] = 1;
        --remaining;
      }
    }
    if (remaining == 0) return;
  }
}

void BatchedStatevector::sample_sorted(std::size_t ref_lane,
                                       const std::pair<double, std::size_t>* draws,
                                       std::size_t count, std::uint64_t* out) const {
  if (count == 0) return;
  const std::size_t L = lanes_;
  double acc = 0.0;
  std::size_t d = 0;
  for (std::uint64_t i = 0; i < dim_ && d < count; ++i) {
    const double ar = re_[i * L + ref_lane], ai = im_[i * L + ref_lane];
    acc += ar * ar + ai * ai;
    while (d < count && draws[d].first < acc) {
      out[draws[d].second] = i;
      ++d;
    }
  }
  for (; d < count; ++d) out[draws[d].second] = dim_ - 1;
}

}  // namespace hgp::sim
