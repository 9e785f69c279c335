// The lane-batched trajectory engine: scalar-vs-batched count bit-identity
// for arbitrary lane counts, per-lane Kraus-branch parity against the scalar
// statevector, broadcast-kernel parity, lane/thread determinism interaction,
// and the sorted terminal sampler.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "backend/presets.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/executor.hpp"
#include "core/models.hpp"
#include "graph/instances.hpp"
#include "noise/channels.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sim/batched_statevector.hpp"
#include "sim/statevector.hpp"

using namespace hgp;
using core::ExecOp;
using core::Executor;
using core::ExecutorOptions;
using core::Program;

namespace {

const backend::FakeBackend& toronto() {
  static const backend::FakeBackend dev = backend::make_toronto();
  return dev;
}

/// n-qubit GHZ-style ladder in the native basis (RZ/SX/RZ frame per qubit
/// plus a CX chain) — enough structure to exercise virtual folding, dense
/// blocks, relaxation, and depolarizing charges.
Program ladder_program(std::size_t n) {
  // A simple path through ibmq_toronto's heavy-hex coupling map, so every CX
  // pair has a CR calibration.
  static const std::vector<std::size_t> chain = {6, 7, 4, 1, 2, 3, 5, 8};
  Program prog;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t q = chain[i];
    prog.ops.push_back(
        ExecOp::from_gate(qc::Op{qc::GateKind::RZ, {q}, {qc::Param::constant(0.3 + 0.05 * i)}}));
    prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::SX, {q}, {}}));
    prog.ops.push_back(
        ExecOp::from_gate(qc::Op{qc::GateKind::RZ, {q}, {qc::Param::constant(-0.2)}}));
  }
  for (std::size_t i = 0; i + 1 < n; ++i)
    prog.ops.push_back(
        ExecOp::from_gate(qc::Op{qc::GateKind::CX, {chain[i], chain[i + 1]}, {}}));
  for (std::size_t i = 0; i < n; ++i) prog.measure_qubits.push_back(chain[i]);
  return prog;
}

sim::Counts run_with(const Program& prog, std::size_t lanes, std::size_t threads,
                     std::size_t shots, std::uint64_t seed,
                     std::shared_ptr<serve::BlockCache> cache = nullptr,
                     bool noise = true) {
  ExecutorOptions opts;
  opts.noise = noise;
  opts.shot_batch_lanes = lanes;
  opts.num_threads = threads;
  opts.block_cache = std::move(cache);
  Executor ex(toronto(), opts);
  Rng rng(seed);
  return ex.run(prog, shots, rng);
}

std::size_t total_shots(const sim::Counts& counts) {
  std::size_t t = 0;
  for (const auto& [bits, c] : counts) t += c;
  return t;
}

/// 2x2 real rotation by theta — a dense 1q operator whose angle can vary per
/// lane so lanes genuinely diverge in magnitude, not just phase.
la::CMat rotation(double theta) {
  la::CMat r(2, 2);
  r(0, 0) = std::cos(theta);
  r(0, 1) = -std::sin(theta);
  r(1, 0) = std::sin(theta);
  r(1, 1) = std::cos(theta);
  return r;
}

/// Everything one evaluation configuration yields for a program: run()
/// counts plus the trajectory expectation and CVaR objectives.
struct Evaluation {
  sim::Counts counts;
  double expectation = 0.0;
  double cvar = 0.0;
};

Evaluation evaluate(const backend::FakeBackend& dev, const Program& prog,
                    const graph::Graph& g, std::size_t lanes, std::size_t threads,
                    std::size_t shots, std::shared_ptr<serve::BlockCache> cache) {
  ExecutorOptions opts;
  opts.shot_batch_lanes = lanes;
  opts.num_threads = threads;
  opts.block_cache = std::move(cache);
  Executor ex(dev, opts);
  core::ObjectiveSpec spec;
  spec.value = [&g](std::uint64_t bits) { return g.cut_value(bits); };
  Evaluation e;
  Rng rng(2024);
  e.counts = ex.run(prog, shots, rng);
  spec.kind = core::ObjectiveKind::Expectation;
  e.expectation = ex.run_expectation(prog, shots, rng, spec);
  spec.kind = core::ObjectiveKind::CVaR;
  e.cvar = ex.run_expectation(prog, shots, rng, spec);
  return e;
}

/// The walker's configurations against the scalar per-shot oracle
/// (lanes = 1, one thread), bit for bit.
void expect_matches_oracle(const backend::FakeBackend& dev, const Program& prog,
                           const graph::Graph& g, std::size_t shots,
                           const std::vector<std::size_t>& lane_counts,
                           const std::vector<std::size_t>& thread_counts,
                           const std::string& label) {
  auto cache = std::make_shared<serve::BlockCache>(512);
  const Evaluation oracle = evaluate(dev, prog, g, 1, 1, shots, cache);
  ASSERT_EQ(total_shots(oracle.counts), shots) << label;
  for (std::size_t lanes : lane_counts)
    for (std::size_t threads : thread_counts) {
      const Evaluation e = evaluate(dev, prog, g, lanes, threads, shots, cache);
      EXPECT_EQ(e.counts, oracle.counts) << label << " lanes=" << lanes << " threads=" << threads;
      EXPECT_EQ(e.expectation, oracle.expectation)
          << label << " lanes=" << lanes << " threads=" << threads;
      EXPECT_EQ(e.cvar, oracle.cvar) << label << " lanes=" << lanes << " threads=" << threads;
    }
}

}  // namespace

// ---- engine-level bit-identity ---------------------------------------------

TEST(BatchedTrajectories, CountsBitIdenticalToScalarAcrossLaneCounts) {
  // 600 shots span two full 256-shot thread batches plus a partial tail, so
  // lane counts that do not divide the batch exercise tail lane groups too.
  const Program prog = ladder_program(5);
  auto cache = std::make_shared<serve::BlockCache>(256);
  const sim::Counts reference = run_with(prog, 1, 1, 600, 123, cache);
  EXPECT_EQ(total_shots(reference), 600u);
  for (std::size_t lanes : {4u, 7u, 32u}) {
    const sim::Counts counts = run_with(prog, lanes, 1, 600, 123, cache);
    EXPECT_EQ(counts, reference) << "lanes=" << lanes;
  }
}

TEST(BatchedTrajectories, NoiselessCountsUnaffectedByLanes) {
  const Program prog = ladder_program(4);
  const sim::Counts reference = run_with(prog, 1, 1, 400, 9, nullptr, false);
  const sim::Counts batched = run_with(prog, 8, 1, 400, 9, nullptr, false);
  EXPECT_EQ(batched, reference);
}

TEST(BatchedTrajectories, ZeroStochasticNoiseSharesOneSortedSamplingPass) {
  // Strip every stochastic channel so no lane ever diverges: the batched
  // engine then samples every lane through the shared sorted pass, and must
  // still match the scalar per-shot scans exactly.
  backend::FakeBackend dev = backend::make_toronto();
  for (auto& q : dev.mutable_noise_model().qubits) {
    q.t1_us = 1e9;
    q.t2_us = 1e9;
    q.readout = {};
    q.freq_drift_ghz = 0.0;
  }
  dev.mutable_noise_model().dep_per_1q_pulse = 0.0;
  dev.mutable_noise_model().dep_per_2q_block = 0.0;

  const Program prog = ladder_program(4);
  auto run_lanes = [&](std::size_t lanes) {
    ExecutorOptions opts;
    opts.shot_batch_lanes = lanes;
    opts.num_threads = 1;
    Executor ex(dev, opts);
    Rng rng(41);
    return ex.run(prog, 500, rng);
  };
  const sim::Counts reference = run_lanes(1);
  EXPECT_EQ(run_lanes(8), reference);
  EXPECT_EQ(run_lanes(16), reference);
}

TEST(BatchedTrajectories, LanesAndThreadsAreIndependentOfCounts) {
  // The shot_batch_lanes knob composes with the threaded batch grid: any
  // (threads, lanes) pair must reproduce the single-threaded scalar counts.
  const Program prog = ladder_program(4);
  auto cache = std::make_shared<serve::BlockCache>(256);
  const sim::Counts reference = run_with(prog, 1, 1, 1500, 77, cache);
  for (std::size_t threads : {2u, 4u}) {
    for (std::size_t lanes : {1u, 7u, 16u}) {
      const sim::Counts counts = run_with(prog, lanes, threads, 1500, 77, cache);
      EXPECT_EQ(counts, reference) << "threads=" << threads << " lanes=" << lanes;
    }
  }
}

TEST(BatchedTrajectories, CallerRngAdvanceIsShotAndLaneIndependent) {
  const Program prog = ladder_program(3);
  Rng r1(3), r2(3);
  {
    ExecutorOptions opts;
    opts.shot_batch_lanes = 1;
    Executor ex(toronto(), opts);
    ex.run(prog, 100, r1);
  }
  {
    ExecutorOptions opts;
    opts.shot_batch_lanes = 16;
    Executor ex(toronto(), opts);
    ex.run(prog, 2000, r2);
  }
  EXPECT_EQ(r1.next_u64(), r2.next_u64());
}

// ---- kernel-level parity ----------------------------------------------------

TEST(BatchedKernels, BroadcastMatrixMatchesScalarPerLane) {
  constexpr std::size_t kLanes = 5;
  sim::BatchedStatevector bsv(3, kLanes);
  std::vector<sim::Statevector> ref(kLanes, sim::Statevector(3));

  // Diverge the lanes first with per-lane rotations, then broadcast the full
  // kernel zoo: dense 1q, diagonal 1q, anti-diagonal 1q, permutation 2q,
  // diagonal 2q, dense 2q, generic 3q.
  for (std::size_t l = 0; l < kLanes; ++l) {
    const la::CMat r = rotation(0.2 + 0.17 * static_cast<double>(l));
    bsv.apply_matrix_lane(r, 0, l);
    ref[l].apply_matrix(r, {0});
    bsv.apply_matrix_lane(rotation(0.4 * static_cast<double>(l)), 2, l);
    ref[l].apply_matrix(rotation(0.4 * static_cast<double>(l)), {2});
  }
  const la::CMat sx = qc::gate_matrix(qc::GateKind::SX);
  const la::CMat rz = qc::gate_matrix(qc::GateKind::RZ, {0.7});
  const la::CMat x = qc::gate_matrix(qc::GateKind::X);
  const la::CMat cx = qc::gate_matrix(qc::GateKind::CX);
  const la::CMat rzz = qc::gate_matrix(qc::GateKind::RZZ, {0.31});
  const la::CMat dense2 = la::kron(sx, rotation(0.9));
  const la::CMat generic3 = la::kron(rz, la::kron(sx, rotation(0.5)));

  auto broadcast = [&](const la::CMat& u, const std::vector<std::size_t>& qs) {
    bsv.apply_matrix(u, qs);
    for (auto& sv : ref) sv.apply_matrix(u, qs);
  };
  broadcast(sx, {1});
  broadcast(rz, {0});
  broadcast(x, {2});
  broadcast(cx, {0, 2});
  broadcast(rzz, {1, 2});
  broadcast(dense2, {2, 0});
  broadcast(generic3, {0, 1, 2});

  for (std::size_t l = 0; l < kLanes; ++l)
    for (std::uint64_t i = 0; i < 8; ++i) {
      const la::cxd got = bsv.amplitude(i, l);
      const la::cxd want = ref[l].data()[i];
      EXPECT_NEAR(got.real(), want.real(), 1e-12) << "lane " << l << " i " << i;
      EXPECT_NEAR(got.imag(), want.imag(), 1e-12) << "lane " << l << " i " << i;
    }
}

TEST(BatchedKernels, TiledKernelsBitIdenticalAcrossLaneCounts) {
  // The gather kernels run 8-lane tiles plus a 1-lane tail: lane counts on
  // both sides of every tile boundary. Each broadcast and per-lane kernel
  // must leave every lane exactly (==) where the strided single-lane
  // reference puts it.
  constexpr std::size_t kQubits = 4;
  Rng rng(2718);
  auto random_dense = [&](std::size_t dim) {
    la::CMat u(dim, dim);
    for (std::size_t r = 0; r < dim; ++r)
      for (std::size_t c = 0; c < dim; ++c)
        u(r, c) = la::cxd{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)} /
                  static_cast<double>(dim);
    return u;
  };
  auto random_diagonal = [&](std::size_t dim) {
    la::CMat u(dim, dim);
    for (std::size_t s = 0; s < dim; ++s)
      u(s, s) = la::cxd{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    return u;
  };
  // Column c scatters to row perm[c] with a random weight; the 1q case is
  // the anti-diagonal swap.
  auto random_permutation = [&](std::size_t dim) {
    std::vector<std::size_t> perm(dim);
    for (std::size_t c = 0; c < dim; ++c) perm[c] = c;
    if (dim == 2)
      std::swap(perm[0], perm[1]);
    else
      rng.shuffle(perm);
    la::CMat u(dim, dim);
    for (std::size_t c = 0; c < dim; ++c)
      u(perm[c], c) = la::cxd{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    return u;
  };
  const std::vector<std::vector<std::size_t>> targets = {{2}, {3, 1}, {0, 3, 1}};

  for (std::size_t lanes : {1, 7, 8, 9, 16, 17, 32}) {
    sim::BatchedStatevector bsv(kQubits, lanes);
    // The scalar backend (built without -march=native) evolves each lane
    // alongside: the determinism contract itself, independent of this file.
    std::vector<sim::Statevector> scalar(lanes, sim::Statevector(kQubits));
    for (std::size_t l = 0; l < lanes; ++l)
      for (std::size_t q = 0; q < kQubits; ++q) {
        const la::CMat r = random_dense(2);
        bsv.apply_matrix_lane(r, q, l);
        scalar[l].apply_matrix(r, {q});
      }

    auto expect_lanes_match = [&](const sim::BatchedStatevector& ref, const char* what,
                                  std::size_t k) {
      for (std::size_t l = 0; l < lanes; ++l)
        for (std::uint64_t i = 0; i < bsv.dim(); ++i) {
          const la::cxd got = bsv.amplitude(i, l);
          const la::cxd want = ref.amplitude(i, l);
          const la::cxd oracle = scalar[l].data()[i];
          ASSERT_TRUE(got.real() == want.real() && got.imag() == want.imag() &&
                      got.real() == oracle.real() && got.imag() == oracle.imag())
              << what << " k=" << k << " lanes=" << lanes << " lane " << l << " i " << i
              << ": tiled " << got << ", one lane " << want << ", scalar " << oracle;
        }
    };
    for (const auto& qubits : targets) {
      const std::size_t dim = std::size_t{1} << qubits.size();
      for (int kind = 0; kind < 3; ++kind) {
        auto make = [&] {
          return kind == 0 ? random_dense(dim)
                           : kind == 1 ? random_diagonal(dim) : random_permutation(dim);
        };
        const char* what = kind == 0 ? "dense" : kind == 1 ? "diagonal" : "permutation";

        const la::CMat u = make();
        sim::BatchedStatevector ref = bsv;
        bsv.apply_matrix(u, qubits);
        for (std::size_t l = 0; l < lanes; ++l) {
          ref.apply_matrix_one_lane(u, qubits, l);
          scalar[l].apply_matrix(u, qubits);
        }
        expect_lanes_match(ref, what, qubits.size());

        std::vector<la::CMat> us;
        for (std::size_t l = 0; l < lanes; ++l) us.push_back(make());
        ref = bsv;
        bsv.apply_matrix_per_lane(us, qubits);
        for (std::size_t l = 0; l < lanes; ++l) {
          ref.apply_matrix_one_lane(us[l], qubits, l);
          scalar[l].apply_matrix(us[l], qubits);
        }
        expect_lanes_match(ref, what, qubits.size());
      }
    }
  }
}

TEST(BatchedKernels, RejectsDuplicateQubits) {
  // A repeated target would read and write the same amplitudes as two
  // different sub-indices; every entry point refuses it and leaves the
  // lanes untouched, like the scalar and density backends.
  constexpr std::size_t kLanes = 3;
  sim::BatchedStatevector bsv(2, kLanes);
  const la::CMat sx = qc::gate_matrix(qc::GateKind::SX);
  for (std::size_t q = 0; q < 2; ++q) bsv.apply_matrix(sx, {q});
  const sim::BatchedStatevector before = bsv;
  const la::CMat sx2 = la::kron(sx, sx);
  EXPECT_THROW(bsv.apply_matrix(sx2, {1, 1}), Error);
  EXPECT_THROW(bsv.apply_matrix_per_lane(std::vector<la::CMat>(kLanes, sx2), {0, 0}), Error);
  EXPECT_THROW(bsv.apply_matrix_one_lane(sx2, {1, 1}, 0), Error);
  for (std::size_t l = 0; l < kLanes; ++l)
    for (std::uint64_t i = 0; i < bsv.dim(); ++i)
      EXPECT_EQ(bsv.amplitude(i, l), before.amplitude(i, l)) << "lane " << l << " i " << i;
}

TEST(BatchedKernels, LaneMaskedKrausBranchesMatchPerShotReference) {
  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kQ = 1;
  sim::BatchedStatevector bsv(3, kLanes);
  std::vector<sim::Statevector> ref(kLanes, sim::Statevector(3));

  for (std::size_t l = 0; l < kLanes; ++l) {
    const la::CMat r = rotation(0.3 + 0.25 * static_cast<double>(l));
    bsv.apply_matrix_lane(r, kQ, l);
    ref[l].apply_matrix(r, {kQ});
    bsv.apply_matrix_lane(rotation(0.6), 0, l);
    ref[l].apply_matrix(rotation(0.6), {0});
  }

  // Per-lane |1> masses against a direct scalar accumulation.
  double m1[kLanes];
  bsv.masses_one(kQ, m1);
  const std::uint64_t bit = std::uint64_t{1} << kQ;
  for (std::size_t l = 0; l < kLanes; ++l) {
    double want = 0.0;
    for (std::uint64_t i = 0; i < 8; ++i)
      if (i & bit) want += std::norm(ref[l].data()[i]);
    EXPECT_NEAR(m1[l], want, 1e-12) << "lane " << l;
  }

  // Mixed per-lane branches: lane 0 jumps, lane 1 damps, lane 2 damps with a
  // dephasing flip, lane 3 keeps amplitude but flips. The scalar reference
  // applies the same quantum-jump updates the executor's scalar kernel does.
  const double damp = 0.8;
  const std::uint8_t jump[kLanes] = {1, 0, 0, 0};
  const double scale1[kLanes] = {1.0, damp, -damp, -1.0};
  bsv.jump_and_scale(kQ, jump, scale1);
  for (std::size_t l = 0; l < kLanes; ++l) {
    la::CVec& amp = ref[l].data();
    for (std::uint64_t i = 0; i < 8; ++i) {
      if (!(i & bit)) continue;
      if (jump[l]) {
        amp[i ^ bit] = amp[i];
        amp[i] = la::cxd{0.0, 0.0};
      } else {
        amp[i] *= scale1[l];
      }
    }
  }
  for (std::size_t l = 0; l < kLanes; ++l)
    for (std::uint64_t i = 0; i < 8; ++i) {
      const la::cxd got = bsv.amplitude(i, l);
      EXPECT_NEAR(got.real(), ref[l].data()[i].real(), 1e-12) << "lane " << l << " i " << i;
      EXPECT_NEAR(got.imag(), ref[l].data()[i].imag(), 1e-12) << "lane " << l << " i " << i;
    }

  // Fused mass + damp on another qubit: masses are the pre-damp masses and
  // the amplitudes end scaled, exactly as two separate passes would give.
  std::vector<sim::Statevector> before;
  before.reserve(kLanes);
  for (auto& sv : ref) before.push_back(sv);
  const double scales[kLanes] = {0.9, -0.9, 1.0, 0.5};
  double fused[kLanes];
  bsv.fused_mass_damp(0, scales, fused);
  const std::uint64_t bit0 = 1;
  for (std::size_t l = 0; l < kLanes; ++l) {
    double want_mass = 0.0;
    for (std::uint64_t i = 0; i < 8; ++i)
      if (i & bit0) want_mass += std::norm(before[l].data()[i]);
    EXPECT_NEAR(fused[l], want_mass, 1e-12) << "lane " << l;
    for (std::uint64_t i = 0; i < 8; ++i) {
      const la::cxd want =
          (i & bit0) ? before[l].data()[i] * scales[l] : before[l].data()[i];
      const la::cxd got = bsv.amplitude(i, l);
      EXPECT_NEAR(got.real(), want.real(), 1e-12) << "lane " << l << " i " << i;
      EXPECT_NEAR(got.imag(), want.imag(), 1e-12) << "lane " << l << " i " << i;
    }
  }
}

namespace {

bool same_bits(double a, double b) {
  std::uint64_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

/// -1 on qubit q: every amplitude negated, exact zeros turned into -0.0.
la::CMat minus_identity() {
  la::CMat m(2, 2);
  m(0, 0) = -1.0;
  m(1, 1) = -1.0;
  return m;
}

}  // namespace

TEST(BatchedKernels, JumpAndScaleMatchesScalarRelaxationBitForBit) {
  // Each lane takes one relaxation step through the walker's pool path
  // (masses_one, the jump decision, jump_and_scale) and must end bitwise —
  // signed zeros included — where noise::traj_thermal_relaxation leaves a
  // scalar copy of it drawing from the same stream. The lanes mix jump,
  // jump + flip, plain damp and damp + flip branches on states whose zeros
  // carry both signs; then a gamma = 0 step mixes flipped and untouched
  // lanes. 11 lanes: one full vector tile plus an odd tail.
  constexpr std::size_t kLanes = 11, kQubits = 3, kQ = 1;
  constexpr std::uint64_t kDim = 8;
  enum class State { Generic, QuietOne, MinusZeros, FlippedZeros };
  struct Want {
    State state;
    bool jump, flip;
  };
  const Want want[kLanes] = {
      {State::Generic, true, false},      {State::Generic, true, true},
      {State::Generic, false, false},     {State::Generic, false, true},
      {State::FlippedZeros, false, false}, {State::FlippedZeros, false, true},
      {State::FlippedZeros, true, false}, {State::QuietOne, false, false},
      {State::QuietOne, false, true},     {State::MinusZeros, true, true},
      {State::MinusZeros, false, false}};

  sim::BatchedStatevector bsv(kQubits, kLanes);
  const la::CMat x = qc::gate_matrix(qc::GateKind::X);
  for (std::size_t l = 0; l < kLanes; ++l) {
    const double a = 0.3 + 0.17 * static_cast<double>(l);
    switch (want[l].state) {
      case State::Generic:  // dense, with negative entries
        for (std::size_t q = 0; q < kQubits; ++q) bsv.apply_matrix_lane(rotation(a + q), q, l);
        break;
      case State::QuietOne:  // qubit kQ untouched: its |1> half is exactly +0.0
        bsv.apply_matrix_lane(rotation(a), 0, l);
        bsv.apply_matrix_lane(rotation(a + 1.0), 2, l);
        break;
      case State::MinusZeros:  // qubit 2 untouched, zeros flipped to -0.0
        bsv.apply_matrix_lane(rotation(a), kQ, l);
        bsv.apply_matrix_lane(rotation(a + 1.0), 0, l);
        bsv.apply_matrix_lane(minus_identity(), 2, l);
        break;
      case State::FlippedZeros:  // all mass in |1> of kQ, |0> half -0.0
        bsv.apply_matrix_lane(x, kQ, l);
        bsv.apply_matrix_lane(rotation(a), 0, l);
        bsv.apply_matrix_lane(minus_identity(), 2, l);
        break;
    }
  }

  auto scalar_copy = [&](std::size_t l) {
    sim::Statevector sv(kQubits);
    for (std::uint64_t i = 0; i < kDim; ++i) sv.data()[i] = bsv.amplitude(i, l);
    return sv;
  };
  auto norm2 = [](const sim::Statevector& sv) {
    double w = 0.0;
    for (const la::cxd& a : sv.data()) w += std::norm(a);
    return w;
  };
  auto expect_lanes_match = [&](const std::vector<sim::Statevector>& ref, const char* step) {
    for (std::size_t l = 0; l < kLanes; ++l)
      for (std::uint64_t i = 0; i < kDim; ++i) {
        const la::cxd got = bsv.amplitude(i, l), want_amp = ref[l].data()[i];
        EXPECT_TRUE(same_bits(got.real(), want_amp.real()) &&
                    same_bits(got.imag(), want_amp.imag()))
            << step << " lane " << l << " i " << i << ": " << got << " vs " << want_amp;
      }
  };

  // gamma > 0: find per lane a stream whose scalar draws take its branch.
  noise::RelaxationConstants rc;
  rc.gamma = 0.45;
  rc.damp = std::sqrt(1.0 - rc.gamma);
  rc.dephase = true;
  rc.p_z = 0.5;
  double m1[kLanes];
  bsv.masses_one(kQ, m1);
  std::vector<sim::Statevector> ref;
  std::uint8_t jump[kLanes];
  double scale1[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    sim::Statevector sv = scalar_copy(l);
    const double w = norm2(sv);
    bool found = false;
    for (std::uint64_t seed = 1; seed < 100000 && !found; ++seed) {
      Rng draw(seed);
      const double u = draw.uniform() * w;
      const bool jumps = u < rc.gamma * w && u < rc.gamma * m1[l];
      const bool flips = draw.bernoulli(rc.p_z);
      if (jumps != want[l].jump || flips != want[l].flip) continue;
      found = true;
      Rng stream(seed);
      double weight = w;
      noise::traj_thermal_relaxation(sv, weight, kQ, rc, stream);
      // The walker's weight bookkeeping agrees with the oracle's bit for bit.
      const double walker_weight = jumps ? m1[l] : w - rc.gamma * m1[l];
      EXPECT_TRUE(same_bits(weight, walker_weight)) << "lane " << l;
      jump[l] = jumps;
      scale1[l] = jumps ? (flips ? -1.0 : 1.0) : (flips ? -rc.damp : rc.damp);
    }
    ASSERT_TRUE(found) << "no stream takes lane " << l << "'s branch";
    ref.push_back(sv);
  }
  bsv.jump_and_scale(kQ, jump, scale1);
  expect_lanes_match(ref, "gamma > 0");

  // gamma = 0: flip-only, jump never set.
  noise::RelaxationConstants flip_only;
  flip_only.dephase = true;
  flip_only.p_z = 0.5;
  for (std::size_t l = 0; l < kLanes; ++l) {
    const bool flips = l % 3 != 1;
    bool found = false;
    for (std::uint64_t seed = 1; seed < 1000 && !found; ++seed) {
      Rng draw(seed);
      if (draw.bernoulli(flip_only.p_z) != flips) continue;
      found = true;
      Rng stream(seed);
      double weight = 1.0;
      noise::traj_thermal_relaxation(ref[l], weight, kQ, flip_only, stream);
      jump[l] = 0;
      scale1[l] = flips ? -1.0 : 1.0;
    }
    ASSERT_TRUE(found);
  }
  bsv.jump_and_scale(kQ, jump, scale1);
  expect_lanes_match(ref, "gamma = 0");
}

TEST(BatchedKernels, SampleLanesMatchesScalarScan) {
  constexpr std::size_t kLanes = 3;
  sim::BatchedStatevector bsv(2, kLanes);
  std::vector<sim::Statevector> ref(kLanes, sim::Statevector(2));
  for (std::size_t l = 0; l < kLanes; ++l) {
    const la::CMat r = rotation(0.5 + 0.4 * static_cast<double>(l));
    bsv.apply_matrix_lane(r, 0, l);
    ref[l].apply_matrix(r, {0});
    bsv.apply_matrix_lane(rotation(1.1), 1, l);
    ref[l].apply_matrix(rotation(1.1), {1});
  }
  const double x[kLanes] = {0.05, 0.5, 0.93};
  std::uint64_t got[kLanes];
  bsv.sample_lanes(x, nullptr, got);
  for (std::size_t l = 0; l < kLanes; ++l) {
    double acc = 0.0;
    std::uint64_t want = 3;
    for (std::uint64_t i = 0; i < 4; ++i) {
      acc += std::norm(ref[l].data()[i]);
      if (x[l] < acc) {
        want = i;
        break;
      }
    }
    EXPECT_EQ(got[l], want) << "lane " << l;
  }

  // The sorted shared pass must agree with scanning each draw against the
  // reference lane individually.
  const std::pair<double, std::size_t> draws[kLanes] = {{0.05, 2}, {0.5, 0}, {0.93, 1}};
  std::uint64_t sorted_out[kLanes];
  bsv.sample_sorted(1, draws, kLanes, sorted_out);
  for (std::size_t d = 0; d < kLanes; ++d) {
    double acc = 0.0;
    std::uint64_t want = 3;
    for (std::uint64_t i = 0; i < 4; ++i) {
      acc += std::norm(ref[1].data()[i]);
      if (draws[d].first < acc) {
        want = i;
        break;
      }
    }
    EXPECT_EQ(sorted_out[draws[d].second], want) << "draw " << d;
  }
}

// ---- grouped depolarizing charges -------------------------------------------

TEST(BatchedTrajectories, LargeDepolarizingRatesStayBitIdenticalToScalar) {
  // At production dep rates a lane group rarely charges more than one lane
  // per block, so the grouped Pauli pass's multi-lane path barely runs.
  // Crank the rates until most blocks charge several lanes at once: the
  // lane-grouped walk (one pass over the block's qubits, apply_pauli_lanes
  // for every multi-lane Pauli) must still reproduce the scalar per-shot
  // counts bit for bit.
  backend::FakeBackend dev = backend::make_toronto();
  dev.mutable_noise_model().dep_per_1q_pulse = 0.2;
  dev.mutable_noise_model().dep_per_2q_block = 0.35;

  const Program prog = ladder_program(5);
  auto run = [&](std::size_t lanes) {
    ExecutorOptions opts;
    opts.shot_batch_lanes = lanes;
    opts.num_threads = 1;
    Executor ex(dev, opts);
    Rng rng(321);
    return ex.run(prog, 600, rng);
  };
  const sim::Counts reference = run(1);
  EXPECT_EQ(total_shots(reference), 600u);
  for (std::size_t lanes : {4u, 7u, 32u})
    EXPECT_EQ(run(lanes), reference) << "lanes=" << lanes;
}

// ---- the batch walker: trunk, pool and resume points -------------------------

TEST(BatchedTrajectories, PaperTask1ProgramsBitIdenticalToScalarOracle) {
  // The paper's task-1 programs on every preset, gate-level and hybrid, with
  // and without gate optimization: run() counts and both trajectory
  // objectives of the batch walker match the scalar per-shot oracle.
  const auto inst = graph::paper_task1();
  for (const char* name : {"ibm_auckland", "ibmq_toronto", "ibmq_guadalupe"}) {
    const backend::FakeBackend dev = backend::make_backend(name);
    for (const core::ModelKind kind : {core::ModelKind::GateLevel, core::ModelKind::Hybrid})
      for (const bool go : {false, true}) {
        core::ModelConfig mcfg;
        mcfg.gate_optimization = go;
        const core::QaoaModel model = core::QaoaModel::build(inst.graph, dev, kind, mcfg);
        const Program prog = model.instantiate(model.initial_parameters());
        expect_matches_oracle(dev, prog, inst.graph, 1024, {4, 7, 16}, {1, 4},
                              std::string(name) + "/" + core::model_name(kind) +
                                  (go ? "/go" : "/raw"));
      }
  }
}

TEST(BatchedTrajectories, PoolOverflowResumesBitIdentically) {
  // One CX charged at a 0.9 depolarizing rate: most of a batch's shots take
  // their first branch at that one op, far more than the pool holds, so the
  // walker freezes the trunk there, runs the full pool out and resumes
  // again and again — and still reproduces the oracle.
  backend::FakeBackend dev = backend::make_toronto();
  dev.mutable_noise_model().dep_per_2q_block = 0.9;
  const Program prog = ladder_program(2);
  graph::Graph g(2);
  g.add_edge(0, 1);

  obs::Counter& resumes = obs::Registry::global().counter("executor.pool_resumes");
  obs::Counter& trunk = obs::Registry::global().counter("executor.trunk_shots");
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const std::uint64_t resumes_before = resumes.value();
  const std::uint64_t trunk_before = trunk.value();
  expect_matches_oracle(dev, prog, g, 600, {4, 7, 16}, {1, 4}, "overflow");
  obs::set_enabled(was_enabled);
  // The telemetry saw the overflows, and the shots that never branched.
  EXPECT_GT(resumes.value() - resumes_before, 0u);
  EXPECT_GT(trunk.value() - trunk_before, 0u);
}

TEST(BatchedTrajectories, TailBatchesBitIdenticalToScalarOracle) {
  // Shot counts that leave a partial last batch, including one smaller than
  // every pool width tried.
  const auto inst = graph::paper_task1();
  const backend::FakeBackend dev = backend::make_toronto();
  const core::QaoaModel model =
      core::QaoaModel::build(inst.graph, dev, core::ModelKind::Hybrid, core::ModelConfig{});
  const Program prog = model.instantiate(model.initial_parameters());
  for (std::size_t shots : {261u, 300u, 5u})
    expect_matches_oracle(dev, prog, inst.graph, shots, {4, 7, 16}, {1, 2},
                          "shots=" + std::to_string(shots));
}
