#include "sim/batched_statevector.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <type_traits>
#include <utility>

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
// without changing the scalar kernels in lockstep. Products are spelled out
// in real arithmetic on split planes, never as std::complex: in this
// -march=native file GCC 12 can compile a std::complex product to a fused
// vfmaddsub despite -ffp-contract=off (seen in the ASan/UBSan build).

BatchedStatevector::BatchedStatevector(std::size_t num_qubits, std::size_t lanes)
    : num_qubits_(num_qubits), dim_(std::size_t{1} << num_qubits), lanes_(lanes) {
  HGP_REQUIRE(num_qubits <= 26, "BatchedStatevector: too many qubits");
  HGP_REQUIRE(lanes >= 1, "BatchedStatevector: need at least one lane");
  re_.assign(dim_ * lanes_, 0.0);
  im_.assign(dim_ * lanes_, 0.0);
  for (std::size_t l = 0; l < lanes_; ++l) re_[l] = 1.0;
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

// ---- lane-tiled gather kernels ----
//
// The kernels that combine several rows of a group (broadcast permutation
// and dense 2q/3q, every per-lane operator) work on one tile of lanes at a
// time. The tile's R input rows are copied into function-local
// double[R][W] arrays of compile-time shape, so the compiler keeps them in
// vector registers across all R output rows, and each output row is summed
// in a W-wide local accumulator and stored once.

/// Lane-tile width: 8 doubles, one AVX-512 or two AVX2 registers per row.
constexpr std::size_t kTile = 8;

template <std::size_t W>
using TileWidth = std::integral_constant<std::size_t, W>;

/// body(TileWidth<W>{}, l0) for each lane tile [l0, l0 + W) of [0, L): full
/// tiles of width kTile, then a width-1 tail over the last L % kTile lanes.
template <typename Body>
inline void for_each_lane_tile(std::size_t L, Body&& body) {
  std::size_t l0 = 0;
  for (; l0 + kTile <= L; l0 += kTile) body(TileWidth<kTile>{}, l0);
  for (; l0 < L; ++l0) body(TileWidth<1>{}, l0);
}

/// offset[s] spreads the sub-index s onto the target qubits' bits (first
/// listed qubit = least significant sub-index bit).
template <std::size_t R>
inline void group_offsets(const std::vector<std::size_t>& qubits, std::uint64_t (&offset)[R]) {
  for (std::size_t s = 0; s < R; ++s) {
    offset[s] = 0;
    for (std::size_t j = 0; j < qubits.size(); ++j)
      if ((s >> j) & 1) offset[s] |= std::uint64_t{1} << qubits[j];
  }
}

/// f(i) for every group base i (all target bits clear) of an R-row kernel.
template <std::size_t R, typename F>
inline void for_each_group_base(std::uint64_t dim, const std::uint64_t (&offset)[R], F&& f) {
  if constexpr (R == 2)
    for_each_pair_base(dim, offset[1], f);
  else if constexpr (R == 4)
    for_each_quad_base(dim, offset[1], offset[2], f);
  else
    detail::for_each_oct_base(dim, offset[1], offset[2], offset[4], f);
}

/// The tile helper: lanes [l0, l0 + W) of the group at base i. Gathers the
/// tile's R input rows into local arrays, then row(r, sr, si, outr, outm)
/// writes output row r, whose W lanes start at outr / outm.
template <std::size_t R, std::size_t W, typename Row>
inline void apply_tile(double* re, double* im, std::size_t L, std::uint64_t i,
                       const std::uint64_t (&offset)[R], std::size_t l0, Row&& row) {
  // Not zero-filled: the gather below writes every element before any read,
  // and a fill per tile measured ~40% slower on the per-lane dense 3q kernel.
  double sr[R][W], si[R][W];
  for (std::size_t s = 0; s < R; ++s) {
    const double* __restrict__ r = re + (i | offset[s]) * L + l0;
    const double* __restrict__ m = im + (i | offset[s]) * L + l0;
    for (std::size_t l = 0; l < W; ++l) {
      sr[s][l] = r[l];
      si[s][l] = m[l];
    }
  }
  for (std::size_t r = 0; r < R; ++r)
    row(r, sr, si, re + (i | offset[r]) * L + l0, im + (i | offset[r]) * L + l0);
}

/// One term per output row (permutation, diagonal, anti-diagonal):
/// out[l] = coef(l) * a_s[l], the scalar kernels' `phase * a`.
template <std::size_t R, std::size_t W, typename Coef>
inline void term_row(std::size_t s, const double (&sr)[R][W], const double (&si)[R][W],
                     Coef&& coef, double* __restrict__ outr, double* __restrict__ outm) {
  for (std::size_t l = 0; l < W; ++l) {
    const cxd c = coef(l);
    outr[l] = c.real() * sr[s][l] - c.imag() * si[s][l];
    outm[l] = c.real() * si[s][l] + c.imag() * sr[s][l];
  }
}

/// Dense output row: out[l] = sum_s coef(s, l) * a_s[l], each product
/// rounded first and the sums associated left to right in ascending s —
/// starting from the first product for R <= 4 (the scalar 1q/2q kernels'
/// u(r,0) * a0 + u(r,1) * a1 + ...) and from a 0.0 accumulator for R = 8
/// (the 3q kernels' acc += u(r,s) * a[s]).
template <std::size_t R, std::size_t W, typename Coef>
inline void dense_row(const double (&sr)[R][W], const double (&si)[R][W], Coef&& coef,
                      double* __restrict__ outr, double* __restrict__ outm) {
  auto product = [&](std::size_t s, std::size_t l) {
    const cxd c = coef(s, l);
    return std::pair{c.real() * sr[s][l] - c.imag() * si[s][l],
                     c.real() * si[s][l] + c.imag() * sr[s][l]};
  };
  double accr[W] = {}, acci[W] = {};
  for (std::size_t l = 0; l < W; ++l) {
    const auto [pr, pi] = product(0, l);
    accr[l] = R > 4 ? 0.0 + pr : pr;
    acci[l] = R > 4 ? 0.0 + pi : pi;
  }
  // Fully unrolled, the s loop leaves one straight-line block the compiler
  // vectorizes at full register width; as a loop it mixes vector widths
  // between the tile's stores and loads (5x slower per-lane dense 3q).
#pragma GCC unroll 8
  for (std::size_t s = 1; s < R; ++s)
    for (std::size_t l = 0; l < W; ++l) {
      const auto [pr, pi] = product(s, l);
      accr[l] += pr;
      acci[l] += pi;
    }
  for (std::size_t l = 0; l < W; ++l) {
    outr[l] = accr[l];
    outm[l] = acci[l];
  }
}

/// Broadcast kernel (one operator for lanes 0..n-1 of rows with stride L):
/// group by group, and tile by tile within a group, so each group's rows
/// are read once.
template <std::size_t R, typename Row>
inline void broadcast_tiles(double* re, double* im, std::uint64_t dim, std::size_t L,
                            std::size_t n, const std::uint64_t (&offset)[R], Row&& row) {
  for_each_group_base<R>(dim, offset, [&](std::uint64_t i) {
    for_each_lane_tile(n, [&](auto w, std::size_t l0) {
      apply_tile<R, decltype(w)::value>(re, im, L, i, offset, l0, row);
    });
  });
}

/// Per-lane kernel (us[l] acts on lane l): tile by tile, so the coefficients
/// need no lanes-long buffer. Each tile first packs entry(e) = {row, col} of
/// its lanes' operators into local rows cr[e][l] / ci[e][l], then sweeps
/// every group with row(r, cr, ci, sr, si, outr, outm).
template <std::size_t R, std::size_t E, typename Entry, typename Row>
inline void per_lane_tiles(double* re, double* im, std::uint64_t dim, std::size_t L,
                           const std::uint64_t (&offset)[R], const std::vector<CMat>& us,
                           Entry&& entry, Row&& row) {
  for_each_lane_tile(L, [&](auto w, std::size_t l0) {
    constexpr std::size_t W = decltype(w)::value;
    double cr[E][W] = {}, ci[E][W] = {};
    for (std::size_t e = 0; e < E; ++e) {
      const auto [r, c] = entry(e);
      for (std::size_t l = 0; l < W; ++l) {
        cr[e][l] = us[l0 + l](r, c).real();
        ci[e][l] = us[l0 + l](r, c).imag();
      }
    }
    for_each_group_base<R>(dim, offset, [&](std::uint64_t i) {
      apply_tile<R, W>(re, im, L, i, offset, l0,
                       [&](std::size_t r, const auto& sr, const auto& si, double* outr,
                           double* outm) { row(r, cr, ci, sr, si, outr, outm); });
    });
  });
}

/// Per-lane operators with one non-zero per row: lane l's output row r is
/// us[l](r, r ^ flip) * a_{r ^ flip} (diagonal: flip 0; 1q anti-diagonal:
/// flip 1).
template <std::size_t R>
void per_lane_term(double* re, double* im, std::uint64_t dim, std::size_t L,
                   const std::uint64_t (&offset)[R], const std::vector<CMat>& us,
                   std::size_t flip) {
  per_lane_tiles<R, R>(
      re, im, dim, L, offset, us, [&](std::size_t e) { return std::pair{e, e ^ flip}; },
      [&](std::size_t r, const auto& cr, const auto& ci, const auto& sr, const auto& si,
          double* outr, double* outm) {
        term_row(r ^ flip, sr, si, [&](std::size_t l) { return cxd{cr[r][l], ci[r][l]}; },
                 outr, outm);
      });
}

/// Per-lane dense operators: lane l's output row r is sum_s us[l](r, s) * a_s.
template <std::size_t R>
void per_lane_dense(double* re, double* im, std::uint64_t dim, std::size_t L,
                    const std::uint64_t (&offset)[R], const std::vector<CMat>& us) {
  per_lane_tiles<R, R * R>(
      re, im, dim, L, offset, us, [](std::size_t e) { return std::pair{e / R, e % R}; },
      [](std::size_t r, const auto& cr, const auto& ci, const auto& sr, const auto& si,
         double* outr, double* outm) {
        dense_row(
            sr, si,
            [&](std::size_t s, std::size_t l) { return cxd{cr[r * R + s][l], ci[r * R + s][l]}; },
            outr, outm);
      });
}

/// Diagonal broadcast kernel: row s *= u(s, s) in every lane, in place.
template <std::size_t R>
void broadcast_diagonal(double* re, double* im, std::uint64_t dim, std::size_t L,
                        std::size_t n, const std::uint64_t (&offset)[R], const CMat& u) {
  cxd d[R];
  for (std::size_t s = 0; s < R; ++s) d[s] = u(s, s);
  for_each_group_base(dim, offset, [&](std::uint64_t i) {
    for (std::size_t s = 0; s < R; ++s)
      mul_row(re + (i | offset[s]) * L, im + (i | offset[s]) * L, n, d[s].real(),
              d[s].imag());
  });
}

/// Dense broadcast kernel: output row r is sum_s u(r, s) * a_s in every lane.
template <std::size_t R>
void broadcast_dense(double* re, double* im, std::uint64_t dim, std::size_t L, std::size_t n,
                     const std::uint64_t (&offset)[R], const CMat& u) {
  cxd c[R][R];
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t s = 0; s < R; ++s) c[r][s] = u(r, s);
  broadcast_tiles(re, im, dim, L, n, offset,
                  [&](std::size_t r, const auto& sr, const auto& si, double* outr,
                      double* outm) {
                    dense_row(sr, si, [&](std::size_t s, std::size_t) { return c[r][s]; },
                              outr, outm);
                  });
}

}  // namespace

void BatchedStatevector::check_operator(const CMat& u, const std::vector<std::size_t>& qubits,
                                        const char* what) const {
  HGP_REQUIRE(u.rows() == (std::size_t{1} << qubits.size()) && u.cols() == u.rows(),
              std::string(what) + ": matrix size mismatch");
  for (std::size_t q : qubits)
    HGP_REQUIRE(q < num_qubits_, std::string(what) + ": qubit out of range");
  HGP_REQUIRE(!detail::has_duplicate_qubit(qubits), std::string(what) + ": duplicate qubit");
}

void BatchedStatevector::apply_matrix(const CMat& u,
                                      const std::vector<std::size_t>& qubits) {
  check_operator(u, qubits, "BatchedStatevector::apply_matrix");
  apply_to_lanes(u, qubits, 0, lanes_);
}

void BatchedStatevector::apply_matrix_lane(const CMat& u, std::size_t q, std::size_t lane) {
  HGP_REQUIRE(u.rows() == 2 && u.cols() == 2, "apply_matrix_lane: expected a 2x2 operator");
  HGP_REQUIRE(q < num_qubits_ && lane < lanes_, "apply_matrix_lane: out of range");
  apply_to_lanes(u, {q}, lane, lane + 1);
}

void BatchedStatevector::apply_matrix_one_lane(const CMat& u,
                                               const std::vector<std::size_t>& qubits,
                                               std::size_t lane) {
  check_operator(u, qubits, "apply_matrix_one_lane");
  HGP_REQUIRE(lane < lanes_, "apply_matrix_one_lane: lane out of range");
  apply_to_lanes(u, qubits, lane, lane + 1);
}

void BatchedStatevector::apply_to_lanes(const CMat& u, const std::vector<std::size_t>& qubits,
                                        std::size_t lb, std::size_t le) {
  const std::size_t k = qubits.size();
  const std::size_t L = lanes_;
  // Row i of the lanes [lb, le) starts at re[i * L] / im[i * L].
  double* re = re_.data() + lb;
  double* im = im_.data() + lb;
  const std::size_t n = le - lb;

  if (k == 1) {
    const std::uint64_t bit = std::uint64_t{1} << qubits[0];
    const cxd u00 = u(0, 0), u01 = u(0, 1), u10 = u(1, 0), u11 = u(1, 1);
    if (is_zero(u01) && is_zero(u10)) {
      // Diagonal: pure per-amplitude phases, broadcast over lanes.
      const double d0r = u00.real(), d0i = u00.imag();
      const double d1r = u11.real(), d1i = u11.imag();
      for_each_pair_base(dim_, bit, [&](std::uint64_t i) {
        mul_row(re + i * L, im + i * L, n, d0r, d0i);
        mul_row(re + (i | bit) * L, im + (i | bit) * L, n, d1r, d1i);
      });
      return;
    }
    if (is_zero(u00) && is_zero(u11)) {
      // Anti-diagonal: paired swap with phases.
      const double p01r = u01.real(), p01i = u01.imag();
      const double p10r = u10.real(), p10i = u10.imag();
      for_each_pair_base(dim_, bit, [&](std::uint64_t i) {
        double* __restrict__ r0 = re + i * L;
        double* __restrict__ m0 = im + i * L;
        double* __restrict__ r1 = re + (i | bit) * L;
        double* __restrict__ m1 = im + (i | bit) * L;
        for (std::size_t l = 0; l < n; ++l) {
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
      double* __restrict__ r0 = re + i * L;
      double* __restrict__ m0 = im + i * L;
      double* __restrict__ r1 = re + (i | bit) * L;
      double* __restrict__ m1 = im + (i | bit) * L;
      for (std::size_t l = 0; l < n; ++l) {
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
    std::uint64_t offset[4];
    group_offsets(qubits, offset);
    detail::Perm4 p4;
    if (detail::is_diagonal4(u)) {
      broadcast_diagonal(re, im, dim_, L, n, offset, u);
    } else if (detail::as_permutation4(u, p4)) {
      // Output row perm[s] is phase[s] * row s.
      std::size_t src[4];
      for (std::size_t s = 0; s < 4; ++s) src[p4.perm[s]] = s;
      broadcast_tiles(re, im, dim_, L, n, offset,
                      [&](std::size_t r, const auto& sr, const auto& si, double* outr,
                          double* outm) {
                        const cxd phase = p4.phase[src[r]];
                        term_row(src[r], sr, si, [&](std::size_t) { return phase; }, outr,
                                 outm);
                      });
    } else {
      broadcast_dense(re, im, dim_, L, n, offset, u);
    }
    return;
  }

  if (k == 3) {
    // Width-3 fused blocks: same dispatch as the scalar backend.
    std::uint64_t offset[8];
    group_offsets(qubits, offset);
    if (detail::is_diagonal_n(u))
      broadcast_diagonal(re, im, dim_, L, n, offset, u);
    else
      broadcast_dense(re, im, dim_, L, n, offset, u);
    return;
  }

  // Generic k-qubit path: block enumeration of the 2^(n-k) base indices,
  // same as the scalar backend.
  const std::size_t dim = std::size_t{1} << k;
  std::vector<std::uint64_t> masks(k);
  for (std::size_t j = 0; j < k; ++j) masks[j] = std::uint64_t{1} << qubits[j];
  std::vector<std::uint64_t> sorted_masks = masks;
  std::sort(sorted_masks.begin(), sorted_masks.end());

  std::vector<double> lr(dim * n), li(dim * n);
  std::vector<std::uint64_t> idx(dim);
  const std::uint64_t num_bases = dim_ >> k;
  for (std::uint64_t t = 0; t < num_bases; ++t) {
    const std::uint64_t base = detail::expand_base(t, sorted_masks.data(), k);
    for (std::uint64_t s = 0; s < dim; ++s) {
      std::uint64_t i = base;
      for (std::size_t j = 0; j < k; ++j)
        if ((s >> j) & 1) i |= masks[j];
      idx[s] = i;
      const double* __restrict__ r = re + i * L;
      const double* __restrict__ m = im + i * L;
      for (std::size_t l = 0; l < n; ++l) {
        lr[s * n + l] = r[l];
        li[s * n + l] = m[l];
      }
    }
    for (std::uint64_t r = 0; r < dim; ++r) {
      double* __restrict__ outr = re + idx[r] * L;
      double* __restrict__ outm = im + idx[r] * L;
      for (std::size_t l = 0; l < n; ++l) {
        outr[l] = 0.0;
        outm[l] = 0.0;
      }
      // acc += u(r,s) * local[s], product rounded before the accumulate —
      // the scalar path's exact summation order.
      for (std::uint64_t s = 0; s < dim; ++s) {
        const double cr = u(r, s).real(), ci = u(r, s).imag();
        const double* __restrict__ ar = &lr[s * n];
        const double* __restrict__ ai = &li[s * n];
        for (std::size_t l = 0; l < n; ++l) {
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
  for (const CMat& u : us) check_operator(u, qubits, "apply_matrix_per_lane");

  auto all_lanes = [&](auto&& pred) { return std::all_of(us.begin(), us.end(), pred); };
  auto no_lane = [&](auto&& pred) { return std::none_of(us.begin(), us.end(), pred); };
  double* re = re_.data();
  double* im = im_.data();

  if (k == 1) {
    std::uint64_t offset[2];
    group_offsets(qubits, offset);
    if (all_lanes(detail::is_diagonal2)) {
      per_lane_term(re, im, dim_, L, offset, us, 0);
      return;
    }
    if (all_lanes(detail::is_antidiagonal2)) {
      per_lane_term(re, im, dim_, L, offset, us, 1);
      return;
    }
    if (no_lane(detail::is_diagonal2) && no_lane(detail::is_antidiagonal2)) {
      per_lane_dense(re, im, dim_, L, offset, us);
      return;
    }
  }

  if (k == 2) {
    std::uint64_t offset[4];
    group_offsets(qubits, offset);
    // The per-lane-theta RZZ kernel.
    if (all_lanes(detail::is_diagonal4)) {
      per_lane_term(re, im, dim_, L, offset, us, 0);
      return;
    }
    detail::Perm4 p4;
    if (no_lane([&](const CMat& u) {
          return detail::is_diagonal4(u) || detail::as_permutation4(u, p4);
        })) {
      per_lane_dense(re, im, dim_, L, offset, us);
      return;
    }
  }

  if (k == 3) {
    std::uint64_t offset[8];
    group_offsets(qubits, offset);
    // Width-3 fused diagonal chains and dense blocks with per-lane parameters.
    if (all_lanes(detail::is_diagonal_n)) {
      per_lane_term(re, im, dim_, L, offset, us, 0);
      return;
    }
    if (no_lane(detail::is_diagonal_n)) {
      per_lane_dense(re, im, dim_, L, offset, us);
      return;
    }
  }

  // Mixed structure classes, permutations, or k > 3: each lane takes its own
  // structure dispatch.
  for (std::size_t l = 0; l < L; ++l) apply_to_lanes(us[l], qubits, l, l + 1);
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
