#include "common/lane_streams.hpp"

#include <cstring>

namespace hgp {

void LaneStreams::resize(std::size_t n) {
  for (auto& w : s_) w.resize(n);
}

namespace {

// The bulk draws run on tiles of 8 streams in GCC vector types: one AVX-512
// register per state word (two AVX2 or four SSE registers elsewhere; the
// compiler splits them). Auto-vectorized loops over the byte-wide masks and
// hits would take 64 streams per iteration, more than a pool holds, and run
// a pool's draws scalar.
constexpr std::size_t kTile = 8;
using U64x8 = std::uint64_t __attribute__((vector_size(64)));
using I64x8 = std::int64_t __attribute__((vector_size(64)));
using F64x8 = double __attribute__((vector_size(64)));
using U8x8 = std::uint8_t __attribute__((vector_size(8)));

template <typename V, typename T>
inline V load(const T* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <typename V, typename T>
inline void store(T* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

/// The bits of v as vector type V (same size).
template <typename V, typename T>
inline V bits(const T& v) {
  return load<V>(&v);
}

inline U64x8 rotl(U64x8 x, int k) { return (x << k) | (x >> (64 - k)); }

/// Rng::next_u64 on streams [i, i + 8) of the word planes, then
/// Rng::uniform's exact mapping of the top 53 bits. Lanes whose `keep` word
/// is all-ones keep their state (a bitwise blend, no branch).
inline F64x8 step_tile(std::uint64_t* const* s, std::size_t i, U64x8 keep) {
  const U64x8 a = load<U64x8>(s[0] + i), b = load<U64x8>(s[1] + i);
  const U64x8 c = load<U64x8>(s[2] + i), d = load<U64x8>(s[3] + i);
  const U64x8 result = rotl(a + d, 23) + a;
  const U64x8 c1 = c ^ a, d1 = d ^ b;
  const U64x8 b1 = b ^ c1, a1 = a ^ d1;
  const U64x8 c2 = c1 ^ (b << 17), d2 = rotl(d1, 45);
  store(s[0] + i, (a1 & ~keep) | (a & keep));
  store(s[1] + i, (b1 & ~keep) | (b & keep));
  store(s[2] + i, (c2 & ~keep) | (c & keep));
  store(s[3] + i, (d2 & ~keep) | (d & keep));
  return __builtin_convertvector(result >> 11, F64x8) * 0x1.0p-53;
}

/// All-ones for the streams of the tile at i whose mask byte is 0.
inline U64x8 keep_of(const std::uint8_t* mask, std::size_t i) {
  if (mask == nullptr) return U64x8{};
  return bits<U64x8>(__builtin_convertvector(load<U8x8>(mask + i), U64x8) == 0);
}

}  // namespace

void LaneStreams::uniform(std::size_t n, const std::uint8_t* mask, double* out) {
  std::uint64_t* s[4] = {s_[0].data(), s_[1].data(), s_[2].data(), s_[3].data()};
  std::size_t i = 0;
  for (; i + kTile <= n; i += kTile) {
    const U64x8 keep = keep_of(mask, i);
    const U64x8 u = bits<U64x8>(step_tile(s, i, keep));
    store(out + i, (u & ~keep) | (load<U64x8>(out + i) & keep));
  }
  for (; i < n; ++i) {  // tail: one stream at a time
    if (mask && !mask[i]) continue;
    Rng rng = get(i);
    out[i] = rng.uniform();
    set(i, rng);
  }
}

void LaneStreams::bernoulli(std::size_t n, double p, const std::uint8_t* mask,
                            std::uint8_t* hit) {
  if (p <= 0.0 || p >= 1.0) {
    const bool sure = p >= 1.0;
    for (std::size_t i = 0; i < n; ++i) hit[i] = sure && (mask == nullptr || mask[i] != 0);
    return;
  }
  std::uint64_t* s[4] = {s_[0].data(), s_[1].data(), s_[2].data(), s_[3].data()};
  std::size_t i = 0;
  for (; i + kTile <= n; i += kTile) {
    const U64x8 keep = keep_of(mask, i);
    const I64x8 below = step_tile(s, i, keep) < p;
    const U64x8 h = bits<U64x8>(below) & ~keep & 1;
    store(hit + i, __builtin_convertvector(h, U8x8));
  }
  for (; i < n; ++i) {
    hit[i] = 0;
    if (mask && !mask[i]) continue;
    Rng rng = get(i);
    hit[i] = rng.bernoulli(p);
    set(i, rng);
  }
}

}  // namespace hgp
