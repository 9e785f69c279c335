// Compiled templates: every evaluation binds its program to the template of
// its structure and re-lowers only the slots whose parameters changed. The
// bound program must equal a full compile field for field, the calibration
// constants behind the schedules must equal their integrating definitions,
// a recalibrated backend must get a fresh template, and concurrent binds of
// one template must agree with serial ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "backend/presets.hpp"
#include "common/rng.hpp"
#include "core/executor.hpp"
#include "core/models.hpp"
#include "graph/instances.hpp"
#include "pulse/calibration.hpp"
#include "serve/block_cache.hpp"

using namespace hgp;
using core::BoundProgram;
using core::CompiledBlock;
using core::CompiledProgram;
using core::ExecOp;
using core::Executor;
using core::ExecutorOptions;
using core::ModelKind;
using core::ObjectiveKind;
using core::ObjectiveSpec;
using core::Program;

namespace {

const backend::FakeBackend& toronto() {
  static const backend::FakeBackend dev = backend::make_toronto();
  return dev;
}

/// Static because QaoaModel keeps a pointer to the graph it was built over.
const graph::Instance& task1() {
  static const graph::Instance inst = graph::paper_task1();
  return inst;
}

ObjectiveSpec cut_spec() {
  ObjectiveSpec spec;
  spec.kind = ObjectiveKind::Expectation;
  spec.value = [](std::uint64_t bits) { return task1().graph.cut_value(bits); };
  return spec;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_same_matrix(const la::CMat& a, const la::CMat& b, const std::string& where) {
  ASSERT_EQ(a.rows(), b.rows()) << where;
  ASSERT_EQ(a.cols(), b.cols()) << where;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    EXPECT_TRUE(same_bits(a.data()[i].real(), b.data()[i].real()) &&
                same_bits(a.data()[i].imag(), b.data()[i].imag()))
        << where << " entry " << i;
  }
}

void expect_same_program(const CompiledProgram& a, const CompiledProgram& b,
                         const std::string& where) {
  ASSERT_EQ(a.timeline.size(), b.timeline.size()) << where;
  for (std::size_t s = 0; s < a.timeline.size(); ++s) {
    const std::string at = where + " slot " + std::to_string(s);
    const CompiledBlock& x = a.timeline[s].block;
    const CompiledBlock& y = b.timeline[s].block;
    expect_same_matrix(x.unitary, y.unitary, at);
    EXPECT_EQ(x.qubits, y.qubits) << at;
    EXPECT_EQ(x.duration_dt, y.duration_dt) << at;
    EXPECT_EQ(x.drive_plays, y.drive_plays) << at;
    EXPECT_EQ(x.cr_halves, y.cr_halves) << at;
    EXPECT_EQ(x.virtual_only, y.virtual_only) << at;
    EXPECT_EQ(x.explicit_idle, y.explicit_idle) << at;
    EXPECT_EQ(x.structure_key, y.structure_key) << at;
    EXPECT_EQ(a.timeline[s].local, b.timeline[s].local) << at;
    EXPECT_EQ(a.timeline[s].idle_before_dt, b.timeline[s].idle_before_dt) << at;
  }
  EXPECT_EQ(a.touched, b.touched) << where;
  EXPECT_EQ(a.measure_phys, b.measure_phys) << where;
  EXPECT_EQ(a.measure_local, b.measure_local) << where;
  EXPECT_EQ(a.clock, b.clock) << where;
  EXPECT_EQ(a.op_slot, b.op_slot) << where;
  EXPECT_EQ(a.makespan_dt, b.makespan_dt) << where;
}

/// Parameter vectors around the initial point, inside the model bounds (the
/// optimizer's regime; far-off CR angles would exceed full amplitude).
std::vector<std::vector<double>> nearby_points(const core::QaoaModel& model, std::size_t n,
                                               unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> step(-0.2, 0.2);
  std::vector<std::vector<double>> out;
  for (std::size_t k = 0; k < n; ++k) {
    std::vector<double> x = model.initial_parameters();
    for (double& v : x) v = std::clamp(v + step(gen), -1.0, 1.0);
    out.push_back(std::move(x));
  }
  return out;
}

/// A one-qubit pulse step on qubit 0 of `plays` equal Gaussian plays filling
/// 64 dt (same duration, different drive-charge metadata).
Program pulse_program(int plays, double amp) {
  pulse::Schedule s("steps");
  const pulse::Channel d = pulse::Channel::drive(0);
  const int dur = 64 / plays;
  for (int i = 0; i < plays; ++i)
    s.append(pulse::Play{pulse::PulseShape::gaussian(dur, amp, dur / 4.0), d});
  Program prog;
  prog.ops.push_back(ExecOp::from_pulse({0}, s));
  prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::SX, {1}, {}}));
  prog.measure_qubits = {0, 1};
  return prog;
}

}  // namespace

TEST(CompiledTemplate, BindEqualsCompileFieldForField) {
  for (const ModelKind kind : {ModelKind::GateLevel, ModelKind::Hybrid, ModelKind::PulseLevel}) {
    for (const bool go : {false, true}) {
      core::ModelConfig mcfg;
      mcfg.gate_optimization = go;
      const core::QaoaModel model = core::QaoaModel::build(task1().graph, toronto(), kind, mcfg);
      const auto points = nearby_points(model, 3, 17u + static_cast<unsigned>(kind) + 5u * go);
      // One cache for every width: blocks are shared, templates are keyed
      // by the fusion width.
      auto cache = std::make_shared<serve::BlockCache>(4096);
      for (std::size_t width = 0; width <= 3; ++width) {
        ExecutorOptions opts;
        opts.noise = false;
        opts.fusion_max_qubits = width;
        opts.num_threads = 1;
        ExecutorOptions bound_opts = opts;
        bound_opts.block_cache = cache;
        Executor ex(toronto(), bound_opts);
        ex.bind(model.instantiate(model.initial_parameters()), 14);  // builds the template
        for (std::size_t k = 0; k < points.size(); ++k) {
          const std::string where = core::model_name(kind) + (go ? " GO" : "") + " width " +
                                    std::to_string(width) + " point " + std::to_string(k);
          const Program prog = model.instantiate(points[k]);
          const BoundProgram bound = ex.bind(prog, 14);
          ASSERT_NE(bound.tmpl, nullptr) << where;
          expect_same_program(bound.program, ex.compile_program(prog, 14), where);

          // The fused path: a bound evaluation equals one on a fresh
          // executor whose template is this very program (one point of the
          // pulse-level model, whose every block is a pulse simulation).
          if (kind == ModelKind::PulseLevel && k > 0) continue;
          Executor fresh(toronto(), opts);
          Rng r1(3), r2(3);
          EXPECT_TRUE(same_bits(ex.run_expectation(prog, 1, r1, cut_spec()),
                                fresh.run_expectation(prog, 1, r2, cut_spec())))
              << where;
        }
      }
    }
  }
}

TEST(CompiledTemplate, NoisyBindEqualsCompile) {
  // The coherent (pulse-simulated) lowering: gate blocks carry the device's
  // miscalibration, and the timeline feeds the noise walk.
  core::ModelConfig mcfg;
  const core::QaoaModel model =
      core::QaoaModel::build(task1().graph, toronto(), ModelKind::Hybrid, mcfg);
  ExecutorOptions opts;
  opts.num_threads = 1;
  Executor ex(toronto(), opts);
  ex.bind(model.instantiate(model.initial_parameters()), 14);
  for (const std::vector<double>& x : nearby_points(model, 2, 99u)) {
    const Program prog = model.instantiate(x);
    for (const std::size_t cap : {std::size_t{10}, std::size_t{14}})
      expect_same_program(ex.bind(prog, cap).program, ex.compile_program(prog, cap),
                          "cap " + std::to_string(cap));
  }
}

TEST(CompiledTemplate, MetadataChangeFallsBackToFullCompile) {
  ExecutorOptions opts;
  opts.noise = false;
  Executor ex(toronto(), opts);
  ex.bind(pulse_program(1, 0.2), 14);
  // Same structure and duration, but two drive plays instead of one.
  const Program split = pulse_program(2, 0.2);
  const BoundProgram bound = ex.bind(split, 14);
  EXPECT_EQ(bound.tmpl, nullptr);
  EXPECT_EQ(bound.dirty, std::vector<std::uint8_t>(bound.program.timeline.size(), 1));
  expect_same_program(bound.program, ex.compile_program(split, 14), "fallback");
  EXPECT_EQ(bound.program.timeline[0].block.drive_plays, 2u);
}

TEST(CompiledTemplate, NoisyAndNoiselessTemplatesAreKeptApart) {
  // A noisy executor lowering gates exactly (coherent_noise off) and a
  // noiseless one with fusion off share every block key, but only the
  // noiseless template carries a fused timeline, so they must not share one.
  core::ModelConfig mcfg;
  const core::QaoaModel model =
      core::QaoaModel::build(task1().graph, toronto(), ModelKind::Hybrid, mcfg);
  const Program prog = model.instantiate(nearby_points(model, 1, 21u)[0]);
  auto cache = std::make_shared<serve::BlockCache>(1024);
  ExecutorOptions noisy_opts;
  noisy_opts.coherent_noise = false;
  noisy_opts.num_threads = 1;
  noisy_opts.block_cache = cache;
  Executor noisy(toronto(), noisy_opts);
  noisy.bind(prog, 14);

  ExecutorOptions opts;
  opts.noise = false;
  opts.fusion_max_qubits = 0;
  opts.num_threads = 1;
  ExecutorOptions shared_opts = opts;
  shared_opts.block_cache = cache;
  Executor noiseless(toronto(), shared_opts);
  Executor fresh(toronto(), opts);
  Rng r1(4), r2(4);
  EXPECT_TRUE(same_bits(noiseless.run_expectation(prog, 1, r1, cut_spec()),
                        fresh.run_expectation(prog, 1, r2, cut_spec())));
  EXPECT_EQ(cache->stats().template_misses, 2u);
  EXPECT_EQ(cache->stats().templates, 2u);
}

TEST(CompiledTemplate, OnlyChangedSlotsAreRelowered) {
  auto cache = std::make_shared<serve::BlockCache>(256);
  ExecutorOptions opts;
  opts.noise = false;
  opts.block_cache = cache;
  Executor ex(toronto(), opts);
  ex.bind(pulse_program(1, 0.2), 14);
  const serve::BlockCache::Stats before = cache->stats();
  const BoundProgram bound = ex.bind(pulse_program(1, 0.3), 14);
  ASSERT_NE(bound.tmpl, nullptr);
  EXPECT_EQ(bound.dirty, (std::vector<std::uint8_t>{1, 0}));  // pulse slot only
  const serve::BlockCache::Stats after = cache->stats();
  EXPECT_EQ(after.pulse_misses, before.pulse_misses + 1);
  EXPECT_EQ(after.gate_hits + after.gate_misses, before.gate_hits + before.gate_misses);
  EXPECT_EQ(after.template_hits, before.template_hits + 1);
}

TEST(Calibration, UnitAreasMatchTheIntegratingDefinition) {
  pulse::CalibrationSet cal;
  pulse::QubitCalibration q;
  q.drive_rate_ghz = 0.107;
  q.sx_sigma = 38.5;
  q.drag_beta = 0.3;
  cal.set_qubit(0, q);
  pulse::CrCalibration cr;
  cr.mu_zx_ghz = 0.0031;
  cal.set_cr(0, 1, 0, cr);

  auto expect_defs = [&](const pulse::QubitCalibration& qc, const pulse::CrCalibration& crc) {
    const double drag_area =
        pulse::PulseShape::drag(qc.sx_duration, 1.0, qc.sx_sigma, qc.drag_beta).area_ns();
    EXPECT_TRUE(same_bits(cal.sx_amp(0), 0.25 / (qc.drive_rate_ghz * drag_area)));
    const double cr_area =
        pulse::PulseShape::gaussian_square(crc.cr_duration, 1.0, crc.cr_sigma, crc.cr_width)
            .area_ns();
    for (const double theta : {la::kPi / 2.0, -0.7, 0.0123})
      EXPECT_TRUE(same_bits(cal.cr_amp(0, 1, theta),
                            std::abs(theta) / (4.0 * la::kPi * crc.mu_zx_ghz * cr_area)));
  };
  expect_defs(q, cr);

  // A later overwrite re-derives the stored areas.
  q.sx_duration = 96;
  q.sx_sigma = 24.0;
  cal.set_qubit(0, q);
  cr.cr_duration = 512;
  cr.cr_width = 256.0;
  cal.set_cr(0, 1, 0, cr);
  expect_defs(q, cr);
}

TEST(CompiledTemplate, MutatedBackendGetsFreshTemplate) {
  core::ModelConfig mcfg;
  const core::QaoaModel model =
      core::QaoaModel::build(task1().graph, toronto(), ModelKind::Hybrid, mcfg);
  const Program prog = model.instantiate(nearby_points(model, 1, 5u)[0]);

  backend::FakeBackend dev = backend::make_toronto();
  auto cache = std::make_shared<serve::BlockCache>(1024);
  ExecutorOptions opts;
  opts.num_threads = 1;
  opts.block_cache = cache;
  Executor ex(dev, opts);
  Rng r0(8);
  ex.run(prog, 64, r0);
  EXPECT_EQ(cache->stats().template_misses, 1u);

  // Recalibrate the same backend object under the executor.
  dev.mutable_noise_model().qubits[1].freq_drift_ghz += 2e-4;
  Rng r1(8);
  const sim::Counts drifted = ex.run(prog, 256, r1);
  EXPECT_EQ(cache->stats().template_misses, 2u);
  EXPECT_EQ(cache->stats().templates, 2u);

  ExecutorOptions fresh_opts;
  fresh_opts.num_threads = 1;
  Executor fresh(dev, fresh_opts);
  Rng r2(8);
  EXPECT_EQ(drifted, fresh.run(prog, 256, r2));
}

TEST(CompiledTemplate, FourThreadsBindOneTemplate) {
  core::ModelConfig mcfg;
  const core::QaoaModel model =
      core::QaoaModel::build(task1().graph, toronto(), ModelKind::Hybrid, mcfg);
  const auto points = nearby_points(model, 8, 23u);
  ExecutorOptions opts;
  opts.noise = false;
  opts.num_threads = 1;

  std::vector<double> serial(points.size());
  {
    Executor ex(toronto(), opts);
    for (std::size_t k = 0; k < points.size(); ++k) {
      Rng rng(1);
      serial[k] = ex.run_expectation(model.instantiate(points[k]), 1, rng, cut_spec());
    }
  }

  auto cache = std::make_shared<serve::BlockCache>(1024);
  ExecutorOptions shared = opts;
  shared.block_cache = cache;
  {
    Executor warm(toronto(), shared);
    warm.bind(model.instantiate(model.initial_parameters()), 14);
  }
  std::vector<std::vector<double>> got(4, std::vector<double>(points.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      Executor ex(toronto(), shared);
      for (std::size_t k = 0; k < points.size(); ++k) {
        const std::size_t j = (k + 2 * t) % points.size();
        Rng rng(1);
        got[t][j] = ex.run_expectation(model.instantiate(points[j]), 1, rng, cut_spec());
      }
    });
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < 4; ++t)
    for (std::size_t k = 0; k < points.size(); ++k)
      EXPECT_TRUE(same_bits(got[t][k], serial[k])) << "thread " << t << " point " << k;
  EXPECT_EQ(cache->stats().template_misses, 1u);
  EXPECT_EQ(cache->stats().template_hits, 4 * points.size());
}

TEST(CompiledTemplate, StreamedBatchEqualsVectorBatch) {
  core::ModelConfig mcfg;
  const core::QaoaModel model =
      core::QaoaModel::build(task1().graph, toronto(), ModelKind::PulseLevel, mcfg);
  const auto points = nearby_points(model, 6, 31u);
  std::vector<Program> progs;
  for (const auto& x : points) progs.push_back(model.instantiate(x));
  ExecutorOptions opts;
  opts.noise = false;
  opts.num_threads = 1;
  auto cache = std::make_shared<serve::BlockCache>(4096);
  opts.block_cache = cache;
  Executor ex(toronto(), opts);
  const std::vector<double> batched = ex.run_expectation_batch(progs, cut_spec());

  // One reused buffer for every lane after the first.
  std::size_t calls = 0;
  Program later;
  const std::vector<double> streamed = ex.run_expectation_batch(
      progs.size(),
      [&](std::size_t l) -> const Program& {
        EXPECT_EQ(l, calls++);  // each lane once, in order
        if (l == 0) return progs[0];
        later = model.instantiate(points[l]);
        return later;
      },
      cut_spec());
  EXPECT_EQ(calls, progs.size());
  ASSERT_EQ(streamed.size(), batched.size());
  for (std::size_t l = 0; l < batched.size(); ++l)
    EXPECT_TRUE(same_bits(streamed[l], batched[l])) << "lane " << l;
}
