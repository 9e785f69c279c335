// Bulk lane-stream draws against per-stream Rng: every masked draw must give
// each stream exactly the value its own Rng gives, and leave masked-off
// streams where they were — for every block width (full vector tiles and
// the odd tail), random masks, and the edge probabilities where Bernoulli
// draws nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/lane_streams.hpp"
#include "common/rng.hpp"
#include "noise/channels.hpp"

using namespace hgp;

namespace {

bool same_bits(double a, double b) {
  std::uint64_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

/// A block of n streams and the per-stream Rng each was loaded from.
struct Mirror {
  LaneStreams streams;
  std::vector<Rng> ref;

  Mirror(std::size_t n, std::uint64_t base) {
    streams.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      ref.push_back(Rng::child(base, i));
      streams.set(i, ref.back());
    }
  }

  /// Every stream of the block is where its Rng is: the next draws agree.
  void expect_in_step() const {
    for (std::size_t i = 0; i < ref.size(); ++i) {
      Rng got = streams.get(i), want = ref[i];
      for (int d = 0; d < 3; ++d) ASSERT_EQ(got.next_u64(), want.next_u64()) << "stream " << i;
    }
  }
};

/// nullptr (every stream) on round 0, all-off on round 1, random otherwise.
std::vector<std::uint8_t> make_mask(std::size_t n, int round, Rng& pick) {
  std::vector<std::uint8_t> mask(n, round == 1 ? 0 : 1);
  if (round >= 2)
    for (auto& m : mask) m = pick.bernoulli(0.5);
  return mask;
}

}  // namespace

TEST(LaneStreams, MaskedUniformsMatchPerStreamRng) {
  Rng pick(11);
  for (std::size_t n = 1; n <= 64; ++n) {
    Mirror mir(n, 1000 + n);
    for (int round = 0; round < 6; ++round) {
      const std::vector<std::uint8_t> mask = make_mask(n, round, pick);
      const std::uint8_t* m = round == 0 ? nullptr : mask.data();
      std::vector<double> out(n, -1.0);
      mir.streams.uniform(n, m, out.data());
      for (std::size_t i = 0; i < n; ++i) {
        if (mask[i])
          ASSERT_TRUE(same_bits(out[i], mir.ref[i].uniform())) << "n " << n << " stream " << i;
        else
          ASSERT_TRUE(same_bits(out[i], -1.0)) << "masked-off out written, n " << n;
      }
      mir.expect_in_step();
    }
  }
}

TEST(LaneStreams, BernoulliAndDepolarizingPicksMatchPerStreamDraws) {
  Rng pick(12);
  for (const double p : {0.0, 1e-6, 0.5, 1.0}) {
    for (std::size_t n = 1; n <= 64; ++n) {
      Mirror mir(n, 5000 + n);
      for (int round = 0; round < 6; ++round) {
        const std::vector<std::uint8_t> mask = make_mask(n, round, pick);
        const std::uint8_t* m = round == 0 ? nullptr : mask.data();
        std::vector<std::uint8_t> hit(n, 7);
        mir.streams.bernoulli(n, p, m, hit.data());
        for (std::size_t i = 0; i < n; ++i) {
          const bool want = mask[i] && mir.ref[i].bernoulli(p);
          ASSERT_EQ(hit[i], want ? 1 : 0) << "p " << p << " n " << n << " stream " << i;
        }
        mir.expect_in_step();

        for (std::size_t nq = 1; nq <= 2; ++nq) {
          std::vector<std::uint8_t> picks(n, 99);
          noise::sample_depolarizing(nq, p, mir.streams, n, m, picks.data());
          for (std::size_t i = 0; i < n; ++i) {
            const int want = mask[i] ? noise::sample_depolarizing(nq, p, mir.ref[i]) : 0;
            ASSERT_EQ(picks[i], want) << "p " << p << " nq " << nq << " n " << n << " stream " << i;
          }
          mir.expect_in_step();
        }
      }
    }
  }
}

TEST(LaneStreams, CopyMovesOneStreamAndGetLeavesTheBlockAlone) {
  Mirror mir(5, 77);
  Rng drawn = mir.streams.get(2);
  drawn.next_u64();
  mir.expect_in_step();  // get() hands out a copy

  mir.streams.copy(0, mir.streams, 3);
  mir.ref[0] = mir.ref[3];
  LaneStreams other;
  other.resize(2);
  other.copy(1, mir.streams, 4);
  mir.expect_in_step();
  Rng a = other.get(1), b = mir.ref[4];
  EXPECT_EQ(a.next_u64(), b.next_u64());

  mir.streams.resize(2);  // shrinking keeps the prefix
  mir.ref.resize(2);
  mir.expect_in_step();
}
