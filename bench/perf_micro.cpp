// Microbenchmarks (google-benchmark) for the performance-critical kernels:
// statevector gate application (specialized vs dense reference), the
// executor's trajectory/density engines, pulse-propagator stepping, SABRE
// routing, M3 mitigation solves, and the Hermitian eigensolver.
#include <benchmark/benchmark.h>

#include <chrono>

#include "backend/presets.hpp"
#include "bench_util.hpp"
#include "common/lane_streams.hpp"
#include "common/rng.hpp"
#include "core/executor.hpp"
#include "core/fusion.hpp"
#include "core/qaoa.hpp"
#include "graph/instances.hpp"
#include "linalg/eig.hpp"
#include "mitigation/m3.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "pulsesim/simulator.hpp"
#include "sim/batched_statevector.hpp"
#include "sim/statevector.hpp"
#include "transpile/sabre.hpp"

using namespace hgp;

namespace {

/// The seed's generic dense 2-qubit apply (pre-specialization): the baseline
/// the diagonal/permutation kernels are measured against.
void dense_apply_2q(sim::Statevector& sv, const la::CMat& u, std::size_t q0, std::size_t q1) {
  la::CVec& amp = sv.data();
  const std::uint64_t b0 = std::uint64_t{1} << q0;
  const std::uint64_t b1 = std::uint64_t{1} << q1;
  for (std::uint64_t i = 0; i < amp.size(); ++i) {
    if ((i & b0) || (i & b1)) continue;
    const std::uint64_t i0 = i, i1 = i | b0, i2 = i | b1, i3 = i | b0 | b1;
    const la::cxd a0 = amp[i0], a1 = amp[i1], a2 = amp[i2], a3 = amp[i3];
    amp[i0] = u(0, 0) * a0 + u(0, 1) * a1 + u(0, 2) * a2 + u(0, 3) * a3;
    amp[i1] = u(1, 0) * a0 + u(1, 1) * a1 + u(1, 2) * a2 + u(1, 3) * a3;
    amp[i2] = u(2, 0) * a0 + u(2, 1) * a1 + u(2, 2) * a2 + u(2, 3) * a3;
    amp[i3] = u(3, 0) * a0 + u(3, 1) * a1 + u(3, 2) * a2 + u(3, 3) * a3;
  }
}

using benchutil::toronto_ladder_program;

}  // namespace

// ---- specialized statevector kernels vs the dense baseline -----------------

static void BM_KernelRzzDense(benchmark::State& state) {
  sim::Statevector sv(static_cast<std::size_t>(state.range(0)));
  const la::CMat rzz = qc::gate_matrix(qc::GateKind::RZZ, {0.37});
  for (auto _ : state) {
    dense_apply_2q(sv, rzz, 0, 1);
    benchmark::DoNotOptimize(sv.data().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelRzzDense)->Arg(12)->Arg(16);

static void BM_KernelRzzDiagonal(benchmark::State& state) {
  sim::Statevector sv(static_cast<std::size_t>(state.range(0)));
  const la::CMat rzz = qc::gate_matrix(qc::GateKind::RZZ, {0.37});
  for (auto _ : state) {
    sv.apply_matrix(rzz, {0, 1});  // auto-dispatches to the diagonal kernel
    benchmark::DoNotOptimize(sv.data().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelRzzDiagonal)->Arg(12)->Arg(16);

static void BM_KernelCxDense(benchmark::State& state) {
  sim::Statevector sv(static_cast<std::size_t>(state.range(0)));
  const la::CMat cx = qc::gate_matrix(qc::GateKind::CX);
  for (auto _ : state) {
    dense_apply_2q(sv, cx, 0, 1);
    benchmark::DoNotOptimize(sv.data().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelCxDense)->Arg(12)->Arg(16);

static void BM_KernelCxPermutation(benchmark::State& state) {
  sim::Statevector sv(static_cast<std::size_t>(state.range(0)));
  const la::CMat cx = qc::gate_matrix(qc::GateKind::CX);
  for (auto _ : state) {
    sv.apply_matrix(cx, {0, 1});  // auto-dispatches to the permutation kernel
    benchmark::DoNotOptimize(sv.data().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelCxPermutation)->Arg(12)->Arg(16);

// ---- width-3 fusion kernels ------------------------------------------------
//
// The fusion pass's currency is the dense 3-qubit block: a run of 1q/2q
// gates composed into one 8x8. The first pair measures the dense 3q apply
// itself, scalar vs lane-batched per-lane (the candidate-batch path);
// the second pair measures a fused run against applying its constituent
// sequence gate by gate — the per-shot win the pass buys.

namespace {

/// An 8-gate dense run on qubits {0,1,2}: the RZZ/RX alternation a QAOA
/// layer produces, composed with the fusion pass's own composition.
std::vector<std::pair<la::CMat, std::vector<std::size_t>>> fused_run_parts(double theta) {
  std::vector<std::pair<la::CMat, std::vector<std::size_t>>> parts;
  parts.emplace_back(qc::gate_matrix(qc::GateKind::RZZ, {theta}), std::vector<std::size_t>{0, 1});
  parts.emplace_back(qc::gate_matrix(qc::GateKind::RX, {0.5 * theta}), std::vector<std::size_t>{0});
  parts.emplace_back(qc::gate_matrix(qc::GateKind::RZZ, {1.3 * theta}), std::vector<std::size_t>{1, 2});
  parts.emplace_back(qc::gate_matrix(qc::GateKind::RX, {0.7 * theta}), std::vector<std::size_t>{1});
  parts.emplace_back(qc::gate_matrix(qc::GateKind::CX), std::vector<std::size_t>{0, 2});
  parts.emplace_back(qc::gate_matrix(qc::GateKind::RZ, {0.9 * theta}), std::vector<std::size_t>{2});
  parts.emplace_back(qc::gate_matrix(qc::GateKind::RZZ, {0.4 * theta}), std::vector<std::size_t>{0, 1});
  parts.emplace_back(qc::gate_matrix(qc::GateKind::RX, {1.1 * theta}), std::vector<std::size_t>{2});
  return parts;
}

la::CMat dense_3q_unitary(double theta) {
  const auto parts = fused_run_parts(theta);
  std::vector<core::FusePartView> views(parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i)
    views[i] = core::FusePartView{&parts[i].first, &parts[i].second};
  return core::compose_fused(views.data(), views.size(), {0, 1, 2});
}

}  // namespace

static void BM_Kernel3qDenseScalar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  const la::CMat u = dense_3q_unitary(0.37);
  std::vector<sim::Statevector> svs(lanes, sim::Statevector(n));
  for (auto _ : state) {
    for (auto& sv : svs) sv.apply_matrix(u, {0, 1, 2});
    benchmark::DoNotOptimize(svs[0].data().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_Kernel3qDenseScalar)->Args({12, 16});

static void BM_Kernel3qDenseBatched(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  std::vector<la::CMat> us;
  us.reserve(lanes);
  for (std::size_t l = 0; l < lanes; ++l)
    us.push_back(dense_3q_unitary(0.37 + 0.01 * static_cast<double>(l)));
  sim::BatchedStatevector bsv(n, lanes);
  for (auto _ : state) {
    bsv.apply_matrix_per_lane(us, {0, 1, 2});
    benchmark::DoNotOptimize(&bsv);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_Kernel3qDenseBatched)->Args({12, 16});

static void BM_KernelUnfusedSequence(benchmark::State& state) {
  sim::Statevector sv(static_cast<std::size_t>(state.range(0)));
  const auto parts = fused_run_parts(0.37);
  for (auto _ : state) {
    for (const auto& [u, qubits] : parts) sv.apply_matrix(u, qubits);
    benchmark::DoNotOptimize(sv.data().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelUnfusedSequence)->Arg(12)->Arg(16);

static void BM_KernelFusedRun(benchmark::State& state) {
  sim::Statevector sv(static_cast<std::size_t>(state.range(0)));
  const la::CMat u = dense_3q_unitary(0.37);
  for (auto _ : state) {
    sv.apply_matrix(u, {0, 1, 2});
    benchmark::DoNotOptimize(sv.data().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelFusedRun)->Arg(12)->Arg(16);

// ---- lane-batched kernels vs a per-shot scalar loop ------------------------
//
// Each pair applies the same operator to L independent trajectories: the
// scalar row loops over L separate statevectors (the pre-batching per-shot
// cost), the batched row applies once across the L lanes of a
// BatchedStatevector. items/sec counts trajectories, so the ratio of a pair
// is the per-kernel lane-batching speedup — regressions here are
// attributable to a single kernel.

static void scalar_lanes_loop(benchmark::State& state, const la::CMat& u,
                              const std::vector<std::size_t>& qubits) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  std::vector<sim::Statevector> svs(lanes, sim::Statevector(n));
  for (auto _ : state) {
    for (auto& sv : svs) sv.apply_matrix(u, qubits);
    benchmark::DoNotOptimize(svs[0].data().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lanes));
  state.SetLabel(std::to_string(n) + "q x" + std::to_string(lanes) + " lanes");
}

static void batched_lanes_apply(benchmark::State& state, const la::CMat& u,
                                const std::vector<std::size_t>& qubits) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  sim::BatchedStatevector bsv(n, lanes);
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    bsv.apply_matrix(u, qubits);
    benchmark::DoNotOptimize(&bsv);
  }
  const std::chrono::duration<double, std::nano> elapsed = std::chrono::steady_clock::now() - t0;
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lanes));
  // Wall ns per amplitude-lane: the kernel's cost independent of register
  // size and lane count (items/sec counts whole trajectories).
  state.counters["ns_per_amp"] =
      elapsed.count() / (static_cast<double>(state.iterations()) *
                         static_cast<double>(bsv.dim() * lanes));
  state.SetLabel(std::to_string(n) + "q x" + std::to_string(lanes) + " lanes");
}

static void BM_Lanes1qDiagonalScalar(benchmark::State& state) {
  scalar_lanes_loop(state, qc::gate_matrix(qc::GateKind::RZ, {0.37}), {0});
}
static void BM_Lanes1qDiagonalBatched(benchmark::State& state) {
  batched_lanes_apply(state, qc::gate_matrix(qc::GateKind::RZ, {0.37}), {0});
}
static void BM_Lanes1qDenseScalar(benchmark::State& state) {
  scalar_lanes_loop(state, qc::gate_matrix(qc::GateKind::SX), {0});
}
static void BM_Lanes1qDenseBatched(benchmark::State& state) {
  batched_lanes_apply(state, qc::gate_matrix(qc::GateKind::SX), {0});
}
static void BM_Lanes2qRzzDiagonalScalar(benchmark::State& state) {
  scalar_lanes_loop(state, qc::gate_matrix(qc::GateKind::RZZ, {0.37}), {0, 1});
}
static void BM_Lanes2qRzzDiagonalBatched(benchmark::State& state) {
  batched_lanes_apply(state, qc::gate_matrix(qc::GateKind::RZZ, {0.37}), {0, 1});
}
static void BM_Lanes2qDenseScalar(benchmark::State& state) {
  scalar_lanes_loop(
      state, la::kron(qc::gate_matrix(qc::GateKind::SX), qc::gate_matrix(qc::GateKind::SX)),
      {0, 1});
}
static void BM_Lanes2qDenseBatched(benchmark::State& state) {
  batched_lanes_apply(
      state, la::kron(qc::gate_matrix(qc::GateKind::SX), qc::gate_matrix(qc::GateKind::SX)),
      {0, 1});
}
BENCHMARK(BM_Lanes1qDiagonalScalar)->Args({12, 16});
BENCHMARK(BM_Lanes1qDiagonalBatched)->Args({12, 16});
BENCHMARK(BM_Lanes1qDenseScalar)->Args({12, 16});
BENCHMARK(BM_Lanes1qDenseBatched)->Args({12, 16});
BENCHMARK(BM_Lanes2qRzzDiagonalScalar)->Args({12, 16});
BENCHMARK(BM_Lanes2qRzzDiagonalBatched)->Args({12, 16});
BENCHMARK(BM_Lanes2qDenseScalar)->Args({12, 16});
// 6q x 16 lanes is the paper's task 1 with the state L1-resident; 13q x 13
// lanes (paper task 3) has a 5-lane tail after one full 8-lane tile.
BENCHMARK(BM_Lanes2qDenseBatched)->Args({12, 16})->Args({6, 16})->Args({13, 13});

// ---- trajectory walker bookkeeping -----------------------------------------
//
// The per-step work of the walker around the gate kernels, at the paper's
// task-1 size. KernelLaneDraws is one relaxation step's draws over a block
// of streams: a bulk uniform pass, then a dephasing Bernoulli pass — masked
// for a 16-slot pool with 12 active slots, unmasked for 256 unbranched
// shots. KernelLaneDrawsScalar makes the same draws one Rng at a time (the
// per-shot loop the bulk passes replace). items/sec counts stream draws.
// KernelJumpAndScale is the pool's relaxation branch on 6q x 16 lanes with
// one lane jumping.

static std::vector<std::uint8_t> active_slots(std::size_t n, bool masked) {
  std::vector<std::uint8_t> mask(n, 1);
  if (masked)
    for (std::size_t i = 3; i < n; i += 4) mask[i] = 0;
  return mask;
}

static void BM_KernelLaneDraws(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool masked = state.range(1) != 0;
  LaneStreams streams;
  streams.resize(n);
  for (std::size_t i = 0; i < n; ++i) streams.set(i, Rng::child(7, i));
  const std::vector<std::uint8_t> mask = active_slots(n, masked);
  const std::uint8_t* m = masked ? mask.data() : nullptr;
  std::vector<double> u(n);
  std::vector<std::uint8_t> flip(n);
  for (auto _ : state) {
    streams.uniform(n, m, u.data());
    streams.bernoulli(n, 0.01, m, flip.data());
    benchmark::DoNotOptimize(u.data());
    benchmark::DoNotOptimize(flip.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KernelLaneDraws)->Args({16, 1})->Args({256, 0});

static void BM_KernelLaneDrawsScalar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool masked = state.range(1) != 0;
  std::vector<Rng> streams;
  for (std::size_t i = 0; i < n; ++i) streams.push_back(Rng::child(7, i));
  const std::vector<std::uint8_t> mask = active_slots(n, masked);
  std::vector<double> u(n);
  std::vector<std::uint8_t> flip(n);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i)
      if (mask[i]) u[i] = streams[i].uniform();
    for (std::size_t i = 0; i < n; ++i) flip[i] = mask[i] && streams[i].bernoulli(0.01);
    benchmark::DoNotOptimize(u.data());
    benchmark::DoNotOptimize(flip.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KernelLaneDrawsScalar)->Args({16, 1})->Args({256, 0});

static void BM_KernelJumpAndScale(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  sim::BatchedStatevector bsv(n, lanes);
  const la::CMat sx = qc::gate_matrix(qc::GateKind::SX);
  for (std::size_t q = 0; q < n; ++q) bsv.apply_matrix(sx, {q});
  // Lane 0 jumps; the others take a sign-flip scale of magnitude 1, so
  // repeated iterations keep the amplitudes away from subnormals.
  std::vector<std::uint8_t> jump(lanes, 0);
  jump[0] = 1;
  std::vector<double> scale1(lanes);
  for (std::size_t l = 0; l < lanes; ++l) scale1[l] = l % 2 ? -1.0 : 1.0;
  for (auto _ : state) {
    bsv.jump_and_scale(1, jump.data(), scale1.data());
    benchmark::DoNotOptimize(&bsv);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lanes));
  state.SetLabel(std::to_string(n) + "q x" + std::to_string(lanes) + " lanes");
}
BENCHMARK(BM_KernelJumpAndScale)->Args({6, 16});

// ---- candidate-lane kernels: each lane carries its own parameters ----------
//
// Candidate-lane batching (run_expectation_batch) evolves K parameter
// candidates as lanes, so parameterized blocks apply a *different* unitary
// per lane. The per-lane-theta RZZ pair isolates that kernel: scalar row =
// K statevectors each applying its own RZZ(theta_k), batched row = one
// apply_matrix_per_lane over the K lanes.

static void BM_LanesPerLaneThetaRzzScalar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  std::vector<sim::Statevector> svs(lanes, sim::Statevector(n));
  std::vector<la::CMat> us;
  for (std::size_t l = 0; l < lanes; ++l)
    us.push_back(qc::gate_matrix(qc::GateKind::RZZ, {0.37 + 0.01 * static_cast<double>(l)}));
  for (auto _ : state) {
    for (std::size_t l = 0; l < lanes; ++l) svs[l].apply_matrix(us[l], {0, 1});
    benchmark::DoNotOptimize(svs[0].data().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lanes));
  state.SetLabel(std::to_string(n) + "q x" + std::to_string(lanes) + " lanes");
}
static void BM_LanesPerLaneThetaRzzBatched(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  sim::BatchedStatevector bsv(n, lanes);
  std::vector<la::CMat> us;
  for (std::size_t l = 0; l < lanes; ++l)
    us.push_back(qc::gate_matrix(qc::GateKind::RZZ, {0.37 + 0.01 * static_cast<double>(l)}));
  for (auto _ : state) {
    bsv.apply_matrix_per_lane(us, {0, 1});
    benchmark::DoNotOptimize(&bsv);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lanes));
  state.SetLabel(std::to_string(n) + "q x" + std::to_string(lanes) + " lanes");
}
BENCHMARK(BM_LanesPerLaneThetaRzzScalar)->Args({12, 16});
BENCHMARK(BM_LanesPerLaneThetaRzzBatched)->Args({12, 16});

// The lane expectation pass: the sampling-free objective reduction
// sum_i v[i]*|amp_i|^2 per lane. Scalar row = per-statevector amplitude
// walk, batched row = one weighted_masses sweep over the lane-major layout.

static void BM_LanesExpectationScalar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  const std::size_t dim = std::size_t{1} << n;
  std::vector<sim::Statevector> svs(lanes, sim::Statevector(n));
  for (auto& sv : svs) sv.apply_matrix(qc::gate_matrix(qc::GateKind::SX), {0});
  std::vector<double> values(dim);
  for (std::size_t i = 0; i < dim; ++i) values[i] = static_cast<double>(i % 7);
  double sink = 0.0;
  for (auto _ : state) {
    for (auto& sv : svs) {
      double num = 0.0, den = 0.0;
      for (std::size_t i = 0; i < dim; ++i) {
        const double m = std::norm(sv.data()[i]);
        num += values[i] * m;
        den += m;
      }
      sink += num / den;
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lanes));
  state.SetLabel(std::to_string(n) + "q x" + std::to_string(lanes) + " lanes");
}
static void BM_LanesExpectationBatched(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  const std::size_t dim = std::size_t{1} << n;
  sim::BatchedStatevector bsv(n, lanes);
  bsv.apply_matrix(qc::gate_matrix(qc::GateKind::SX), {0});
  std::vector<double> values(dim);
  for (std::size_t i = 0; i < dim; ++i) values[i] = static_cast<double>(i % 7);
  std::vector<double> num(lanes), den(lanes);
  for (auto _ : state) {
    bsv.weighted_masses(values.data(), num.data(), den.data());
    benchmark::DoNotOptimize(num.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lanes));
  state.SetLabel(std::to_string(n) + "q x" + std::to_string(lanes) + " lanes");
}
BENCHMARK(BM_LanesExpectationScalar)->Args({12, 16});
BENCHMARK(BM_LanesExpectationBatched)->Args({12, 16});

// ---- executor engines: the per-evaluation hot path --------------------------

static void BM_ExecutorTrajectory(benchmark::State& state) {
  const backend::FakeBackend dev = backend::make_toronto();
  core::ExecutorOptions opts;
  opts.num_threads = static_cast<std::size_t>(state.range(1));
  core::Executor ex(dev, opts);
  const core::Program prog = toronto_ladder_program(static_cast<std::size_t>(state.range(0)));
  Rng rng(17);
  ex.run(prog, 1, rng);  // warm the unitary cache outside the timed region
  // 1024 shots = 4 batches of the parallel grid, so the threads=0 rows
  // actually exercise multi-threaded batch scheduling.
  for (auto _ : state) benchmark::DoNotOptimize(ex.run(prog, 1024, rng));
  state.SetLabel(std::to_string(state.range(0)) + "q, threads=" +
                 std::to_string(state.range(1)));
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ExecutorTrajectory)
    ->Args({12, 1})
    ->Args({12, 0})
    ->Args({14, 1})
    ->Args({14, 0})
    ->Unit(benchmark::kMillisecond);

static void BM_ExecutorExactDensity(benchmark::State& state) {
  const backend::FakeBackend dev = backend::make_toronto();
  core::ExecutorOptions opts;
  opts.engine = core::Engine::ExactDensity;
  core::Executor ex(dev, opts);
  const core::Program prog = toronto_ladder_program(static_cast<std::size_t>(state.range(0)));
  Rng rng(19);
  ex.run(prog, 1, rng);
  for (auto _ : state) benchmark::DoNotOptimize(ex.run(prog, 256, rng));
  state.SetLabel(std::to_string(state.range(0)) + "q exact");
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_ExecutorExactDensity)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

static void BM_StatevectorCx(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::Statevector sv(n);
  const la::CMat cx = qc::gate_matrix(qc::GateKind::CX);
  std::size_t q = 0;
  for (auto _ : state) {
    sv.apply_matrix(cx, {q, (q + 1) % n});
    q = (q + 1) % (n - 1);
    benchmark::DoNotOptimize(sv.data().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatevectorCx)->Arg(6)->Arg(10)->Arg(14)->Arg(18);

static void BM_StatevectorSample(benchmark::State& state) {
  sim::Statevector sv(static_cast<std::size_t>(state.range(0)));
  qc::Circuit c(sv.num_qubits());
  for (std::size_t q = 0; q < sv.num_qubits(); ++q) c.h(q);
  sim::apply_circuit(sv, c);
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(sv.sample(1024, rng));
}
BENCHMARK(BM_StatevectorSample)->Arg(6)->Arg(10);

static void BM_PulsePropagatorCx(benchmark::State& state) {
  const backend::FakeBackend dev = backend::make_toronto();
  const auto sub = dev.subsystem({0, 1}, true);
  const pulse::Schedule sched =
      backend::FakeBackend::remap_schedule(dev.calibrations().cx(0, 1), sub.remap);
  for (auto _ : state) {
    psim::PulseSystem sys = dev.subsystem({0, 1}, true).system;
    const psim::PulseSimulator sim(std::move(sys), psim::Integrator::Exact, 1,
                                   static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(sim.unitary(sched));
  }
  state.SetLabel("stride=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_PulsePropagatorCx)->Arg(1)->Arg(4);

static void BM_SabreRouting(benchmark::State& state) {
  const auto inst = graph::paper_task1();
  const qc::Circuit qaoa = core::qaoa_circuit(inst.graph, 1).bound({0.6, 0.4});
  const auto coupling = backend::heavy_hex_27();
  Rng rng(7);
  for (auto _ : state)
    benchmark::DoNotOptimize(transpile::sabre_route(qaoa, coupling, rng, 1, {0, 1, 4, 7, 10, 12}));
}
BENCHMARK(BM_SabreRouting);

static void BM_M3Mitigate(benchmark::State& state) {
  Rng rng(11);
  std::vector<noise::ReadoutError> errors(6, {0.02, 0.04});
  sim::Counts counts;
  for (int i = 0; i < state.range(0); ++i)
    counts[static_cast<std::uint64_t>(rng.uniform_int(0, 63))] += 16;
  const mit::M3Mitigator m3(errors);
  for (auto _ : state) benchmark::DoNotOptimize(m3.mitigate(counts));
  state.SetLabel(std::to_string(counts.size()) + " strings");
}
BENCHMARK(BM_M3Mitigate)->Arg(16)->Arg(48);

// ---- hgp::obs instruments: the telemetry-on vs -off cost per call ----------
//
// Each pair measures one instrument in both gate states. The Off rows are
// the price every uninstrumented run pays (one relaxed flag load); the On
// rows are the live cost (sharded fetch_add for a counter; two clock reads,
// an id, and a ring write for a span). The Off rows should be within noise
// of an empty loop.

static void BM_ObsCounterIncOn(benchmark::State& state) {
  obs::set_enabled(true);
  obs::Counter c;
  for (auto _ : state) {
    c.inc();
    benchmark::DoNotOptimize(&c);
  }
  obs::set_enabled(false);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterIncOn);

static void BM_ObsCounterIncOff(benchmark::State& state) {
  obs::set_enabled(false);
  obs::Counter c;
  for (auto _ : state) {
    c.inc();
    benchmark::DoNotOptimize(&c);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterIncOff);

static void BM_ObsSpanOn(benchmark::State& state) {
  obs::set_enabled(true);
  obs::Histogram h(obs::default_latency_bounds_ns());
  for (auto _ : state) {
    obs::Span span("perf_micro.span", &h);
    benchmark::DoNotOptimize(&span);
  }
  obs::set_enabled(false);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpanOn);

static void BM_ObsSpanOff(benchmark::State& state) {
  obs::set_enabled(false);
  for (auto _ : state) {
    obs::Span span("perf_micro.span");
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpanOff);

static void BM_Eigh(benchmark::State& state) {
  Rng rng(3);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  la::CMat a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = rng.normal();
    for (std::size_t j = i + 1; j < n; ++j) {
      a(i, j) = la::cxd{rng.normal(), rng.normal()};
      a(j, i) = std::conj(a(i, j));
    }
  }
  for (auto _ : state) benchmark::DoNotOptimize(la::eigh(a));
}
BENCHMARK(BM_Eigh)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

BENCHMARK_MAIN();
