#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/types.hpp"

namespace hgp::sim::detail {

/// Operator-structure detection and basis-index iteration shared by the
/// scalar `Statevector` kernels and the lane-batched `BatchedStatevector`
/// kernels. Both backends MUST dispatch identically (and then perform the
/// same complex arithmetic) for the trajectory engines to produce
/// bit-identical counts, so the detection logic lives here exactly once.

inline bool is_zero(const la::cxd& x) { return x.real() == 0.0 && x.imag() == 0.0; }

/// True when a target list names some qubit twice. Every backend rejects
/// such a list: the kernels would read and write the same amplitude as two
/// different sub-indices.
inline bool has_duplicate_qubit(const std::vector<std::size_t>& qubits) {
  for (std::size_t a = 0; a < qubits.size(); ++a)
    for (std::size_t b = a + 1; b < qubits.size(); ++b)
      if (qubits[a] == qubits[b]) return true;
  return false;
}

/// Iterate f(i) over all basis indices with bit `b` clear — nested block
/// iteration touches exactly size/2 indices instead of a skip-test over all.
template <typename F>
inline void for_each_pair_base(std::uint64_t size, std::uint64_t b, F&& f) {
  for (std::uint64_t base = 0; base < size; base += 2 * b)
    for (std::uint64_t i = base; i < base + b; ++i) f(i);
}

/// Iterate f(i) over all basis indices with both bits clear (size/4 visits).
template <typename F>
inline void for_each_quad_base(std::uint64_t size, std::uint64_t b0, std::uint64_t b1,
                               F&& f) {
  const std::uint64_t blo = std::min(b0, b1);
  const std::uint64_t bhi = std::max(b0, b1);
  for (std::uint64_t outer = 0; outer < size; outer += 2 * bhi)
    for (std::uint64_t mid = outer; mid < outer + bhi; mid += 2 * blo)
      for (std::uint64_t i = mid; i < mid + blo; ++i) f(i);
}

/// Iterate f(i) over all basis indices with all three bits clear (size/8
/// visits) — the block-base walk of the dense 3q fusion kernels.
template <typename F>
inline void for_each_oct_base(std::uint64_t size, std::uint64_t b0, std::uint64_t b1,
                              std::uint64_t b2, F&& f) {
  std::uint64_t m[3] = {b0, b1, b2};
  std::sort(m, m + 3);
  for (std::uint64_t outer = 0; outer < size; outer += 2 * m[2])
    for (std::uint64_t mid = outer; mid < outer + m[2]; mid += 2 * m[1])
      for (std::uint64_t inner = mid; inner < mid + m[1]; inner += 2 * m[0])
        for (std::uint64_t i = inner; i < inner + m[0]; ++i) f(i);
}

/// Iterate f(i) over all basis indices with bit `b` set (size/2 visits,
/// ascending) — the |1>-subspace walk of the trajectory noise kernels.
template <typename F>
inline void for_each_one(std::uint64_t size, std::uint64_t b, F&& f) {
  for (std::uint64_t base = b; base < size; base += 2 * b)
    for (std::uint64_t i = base; i < base + b; ++i) f(i);
}

/// True when the 2x2 operator is diagonal (RZ/Z-frame blocks).
inline bool is_diagonal2(const la::CMat& u) {
  return u.rows() == 2 && is_zero(u(0, 1)) && is_zero(u(1, 0));
}

/// True when the 2x2 operator is anti-diagonal (X/Y-like).
inline bool is_antidiagonal2(const la::CMat& u) {
  return u.rows() == 2 && is_zero(u(0, 0)) && is_zero(u(1, 1));
}

/// True when the 4x4 operator is diagonal (RZZ/CZ/CPhase).
inline bool is_diagonal4(const la::CMat& u) {
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      if (r != c && !is_zero(u(r, c))) return false;
  return true;
}

/// True when a square operator of any width is diagonal — the structure test
/// of the 8x8 fused-block fast path (and any wider future specialization).
inline bool is_diagonal_n(const la::CMat& u) {
  for (std::size_t r = 0; r < u.rows(); ++r)
    for (std::size_t c = 0; c < u.cols(); ++c)
      if (r != c && !is_zero(u(r, c))) return false;
  return true;
}

/// A generalized 4x4 permutation: exactly one non-zero per column, all
/// target rows distinct. column c scatters to row perm[c] with phase[c].
struct Perm4 {
  std::size_t perm[4];
  la::cxd phase[4];
};

/// Extract the generalized-permutation structure (CX/SWAP/X⊗X...). Returns
/// false for anything that must take the dense path — including non-unitary
/// operators that repeat a target row.
inline bool as_permutation4(const la::CMat& u, Perm4& out) {
  bool row_used[4] = {false, false, false, false};
  for (std::size_t c = 0; c < 4; ++c) {
    std::size_t nonzero = 0, row = 0;
    for (std::size_t r = 0; r < 4; ++r)
      if (!is_zero(u(r, c))) {
        ++nonzero;
        row = r;
      }
    if (nonzero != 1 || row_used[row]) return false;
    row_used[row] = true;
    out.perm[c] = row;
    out.phase[c] = u(row, c);
  }
  return true;
}

/// Expand a compressed base index (k target bits removed) back to a full
/// basis index with zeros at every target-bit position. `sorted_masks` must
/// be the target bit masks in ascending order.
inline std::uint64_t expand_base(std::uint64_t t, const std::uint64_t* sorted_masks,
                                 std::size_t k) {
  std::uint64_t i = t;
  for (std::size_t j = 0; j < k; ++j) {
    const std::uint64_t m = sorted_masks[j];
    i = ((i & ~(m - 1)) << 1) | (i & (m - 1));
  }
  return i;
}

}  // namespace hgp::sim::detail
