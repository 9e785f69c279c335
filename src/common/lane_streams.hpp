#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace hgp {

/// A block of xoshiro256++ streams in structure-of-arrays layout (word w of
/// stream i at s_[w][i]), drawn from in bulk: one pass advances many
/// streams at once and vectorizes over them. A masked draw advances exactly
/// the streams whose mask entry is nonzero and leaves the others as they
/// were, so every stream yields the same sequence as the Rng it was loaded
/// from, whatever the other streams draw. The trajectory walker keeps one
/// block for its pool slots and one for its unbranched shots.
class LaneStreams {
 public:
  /// Keep the first n streams (fewer when the block holds fewer); new
  /// streams are all-zero until set.
  void resize(std::size_t n);

  /// Stream i takes rng's state (Rng::normal's cached pair is not carried).
  void set(std::size_t i, const Rng& rng) {
    for (std::size_t w = 0; w < 4; ++w) s_[w][i] = rng.s_[w];
  }
  /// A copy of stream i: drawing from it leaves the block unchanged.
  Rng get(std::size_t i) const { return Rng(s_[0][i], s_[1][i], s_[2][i], s_[3][i]); }
  /// Stream dst takes the state of stream i of src (src may be *this).
  void copy(std::size_t dst, const LaneStreams& src, std::size_t i) {
    for (std::size_t w = 0; w < 4; ++w) s_[w][dst] = src.s_[w][i];
  }

  /// out[i] = stream i's next uniform() for every i < n with mask[i] != 0
  /// (mask == nullptr: every i < n). Masked-off streams and their out
  /// entries are untouched.
  void uniform(std::size_t n, const std::uint8_t* mask, double* out);
  /// hit[i] = stream i's next bernoulli(p) for the masked streams, 0 for the
  /// others. Like Rng::bernoulli, p <= 0 and p >= 1 draw nothing.
  void bernoulli(std::size_t n, double p, const std::uint8_t* mask, std::uint8_t* hit);

 private:
  std::array<std::vector<std::uint64_t>, 4> s_;
};

}  // namespace hgp
