// Compile-path cost of the hybrid model's block pipeline: the same hybrid
// QAOA layer (problem segment + trainable pulse mixers) is compiled cold
// (empty cache — every gate and pulse block runs the pulse-ODE simulator)
// and warm (every block served from the shared serve::BlockCache), plus a
// simulator-level measurement of CompiledSchedule reuse (compile-once IR vs.
// re-lowering the schedule per call). Verifies counts are bit-identical
// cache-on vs. cache-off and emits BENCH_pulse.json.
//
// The template case times the lowering of 50 warm noiseless evaluations of
// the same model at nearby parameter vectors: bound against the compiled
// template (re-lowering only the slots whose parameters changed) vs a fresh
// full compile of every op, with every block already in the cache, and
// checks the two lowerings agree bit for bit.
//
// The instantiate case times the schedule rebuild of 50 warm pulse-level
// task-1 evaluations (every physical pulse free, each evaluation moving one
// parameter): QaoaModel::instantiate alone, reported in us per evaluation
// and not gated (absolute time).
//
// When HGP_BLOCK_STORE names a file, it also measures the cross-process
// persistent-store path: a fresh cache warm-starts from the store another
// invocation wrote (zero pulse-ODE compilations for the same calibration)
// and writes through for the next one — run the binary twice with the same
// store to get a disk-warmed second run.
//
//   bench_pulse_compile [warm_iters]   (default 5)
//   HGP_SHOTS                          shots for the bit-identical check
//   HGP_BLOCK_STORE                    persistent store path ("" = off)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "backend/presets.hpp"
#include "bench_util.hpp"
#include "core/models.hpp"
#include "graph/instances.hpp"
#include "pulsesim/simulator.hpp"
#include "serve/block_cache.hpp"

using namespace hgp;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

bool same_matrix_bits(const la::CMat& a, const la::CMat& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(), a.data().size() * sizeof(la::cxd)) == 0;
}

/// Every field an engine reads, unitaries by bit pattern.
bool same_program(const core::CompiledProgram& a, const core::CompiledProgram& b) {
  if (a.timeline.size() != b.timeline.size() || a.touched != b.touched ||
      a.measure_local != b.measure_local || a.clock != b.clock || a.op_slot != b.op_slot ||
      a.makespan_dt != b.makespan_dt)
    return false;
  for (std::size_t s = 0; s < a.timeline.size(); ++s) {
    const core::Scheduled& x = a.timeline[s];
    const core::Scheduled& y = b.timeline[s];
    if (!same_matrix_bits(x.block.unitary, y.block.unitary) || x.local != y.local ||
        x.idle_before_dt != y.idle_before_dt || x.block.structure_key != y.block.structure_key ||
        x.block.duration_dt != y.block.duration_dt || x.block.drive_plays != y.block.drive_plays ||
        x.block.cr_halves != y.block.cr_halves || x.block.virtual_only != y.block.virtual_only)
      return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t warm_iters = argc > 1 ? std::stoul(argv[1]) : 5;
  const std::size_t shots = benchutil::env_or("HGP_SHOTS", 256);

  const backend::FakeBackend dev = backend::make_toronto();
  const graph::Instance inst = graph::paper_task1();
  core::ModelConfig mcfg;
  const core::QaoaModel model =
      core::QaoaModel::build(inst.graph, dev, core::ModelKind::Hybrid, mcfg);
  const core::Program prog = model.instantiate(model.initial_parameters());

  benchutil::header("block-compilation pipeline — hybrid layer, cold vs. warm cache");
  std::printf("%zu ops (%zu pulse-block plays), %zu warm iterations\n\n", prog.ops.size(),
              prog.pulse_block_play_count(), warm_iters);

  auto cache = std::make_shared<serve::BlockCache>(4096);
  core::ExecutorOptions opts;
  opts.block_cache = cache;
  opts.num_threads = 1;
  core::Executor ex(dev, opts);

  // Cold: every block compiles through the pulse simulator. One shot keeps
  // the measurement compile-dominated.
  Rng rng(1);
  const auto t_cold = std::chrono::steady_clock::now();
  ex.run(prog, 1, rng);
  const double cold_s = seconds_since(t_cold);

  // Warm: the identical program (a repeated candidate angle) — every gate
  // and pulse block is served from the cache.
  const auto t_warm = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < warm_iters; ++i) ex.run(prog, 1, rng);
  const double warm_s = seconds_since(t_warm) / static_cast<double>(warm_iters);
  const double speedup = warm_s > 0.0 ? cold_s / warm_s : 0.0;
  const serve::BlockCache::Stats cache_stats = ex.cache_stats();

  // Bit-identical check: warm shared cache vs. fresh private caches.
  Rng warm_rng(42), cold_rng(42);
  const sim::Counts warm_counts = ex.run(prog, shots, warm_rng);
  core::ExecutorOptions fresh_opts;
  fresh_opts.num_threads = 1;
  core::Executor fresh(dev, fresh_opts);
  const sim::Counts cold_counts = fresh.run(prog, shots, cold_rng);
  bool identical = warm_counts == cold_counts;

  // Cross-process persistence: a fresh cache attached to HGP_BLOCK_STORE.
  // First invocation compiles cold and writes the store; a second invocation
  // (fresh process) loads it and must compile zero pulse blocks.
  const std::string store_path = benchutil::env_or_str("HGP_BLOCK_STORE", "");
  const bool store_enabled = !store_path.empty();
  double store_s = 0.0;
  bool store_warm = false, store_identical = true;
  serve::BlockCache::Stats store_stats;
  if (store_enabled) {
    core::ExecutorOptions sopts;
    sopts.num_threads = 1;
    sopts.block_store_path = store_path;
    Rng srng(1);
    // The timer covers executor construction too: attaching the store —
    // parsing and deserializing every record — is the cost the warm path
    // pays instead of compiling, so it belongs inside the measurement.
    const auto t_store = std::chrono::steady_clock::now();
    core::Executor store_ex(dev, sopts);
    store_ex.run(prog, 1, srng);
    store_s = seconds_since(t_store);
    store_warm = store_ex.cache_stats().store_loaded > 0;
    Rng check_rng(42);
    store_identical = store_ex.run(prog, shots, check_rng) == cold_counts;
    identical = identical && store_identical;
    store_stats = store_ex.cache_stats();
  }

  // Template binding: 50 nearby parameter vectors (every knob moved, as a
  // simplex or SPSA step moves them), lowered once to warm the cache, then
  // timed bound vs fully compiled.
  constexpr int kTemplateEvals = 50;
  core::ExecutorOptions topts;
  topts.noise = false;
  topts.num_threads = 1;
  core::Executor tex(dev, topts);
  std::mt19937 gen(7);
  std::uniform_real_distribution<double> step(-0.05, 0.05);
  std::vector<core::Program> tprogs;
  for (int i = 0; i < kTemplateEvals; ++i) {
    std::vector<double> x = model.initial_parameters();
    for (double& v : x) v = std::clamp(v + step(gen), -1.0, 1.0);
    tprogs.push_back(model.instantiate(x));
  }
  tex.bind(prog, 14);  // the template
  for (const core::Program& p : tprogs) tex.bind(p, 14);
  std::vector<core::BoundProgram> bound(kTemplateEvals);
  std::vector<core::CompiledProgram> full(kTemplateEvals);
  const auto t_bound = std::chrono::steady_clock::now();
  for (int i = 0; i < kTemplateEvals; ++i) bound[i] = tex.bind(tprogs[i], 14);
  const double bound_s = seconds_since(t_bound) / kTemplateEvals;
  const auto t_full = std::chrono::steady_clock::now();
  for (int i = 0; i < kTemplateEvals; ++i) full[i] = tex.compile_program(tprogs[i], 14);
  const double full_s = seconds_since(t_full) / kTemplateEvals;
  const double template_speedup = bound_s > 0.0 ? full_s / bound_s : 0.0;
  bool template_identical = true;
  for (int i = 0; i < kTemplateEvals; ++i)
    template_identical = template_identical && bound[i].tmpl != nullptr &&
                         same_program(bound[i].program, full[i]);
  identical = identical && template_identical;

  // Pulse-level instantiate: rebuild every free pulse schedule per
  // evaluation, one parameter moved each time, as a coordinate step does.
  constexpr int kInstantiateEvals = 50;
  const core::QaoaModel pulse_model =
      core::QaoaModel::build(inst.graph, dev, core::ModelKind::PulseLevel, mcfg);
  std::vector<double> px = pulse_model.initial_parameters();
  std::size_t instantiated_ops = pulse_model.instantiate(px).ops.size();  // warm-up
  const auto t_inst = std::chrono::steady_clock::now();
  for (int i = 0; i < kInstantiateEvals; ++i) {
    double& v = px[(37 * static_cast<std::size_t>(i)) % px.size()];
    v = std::clamp(v + 0.01, -1.0, 1.0);
    instantiated_ops += pulse_model.instantiate(px).ops.size();
  }
  const double instantiate_s = seconds_since(t_inst) / kInstantiateEvals;

  // CompiledSchedule reuse at the simulator layer: lower a mixer-style
  // schedule (frame knobs around a 320dt Gaussian, as QaoaModel emits) once
  // and reuse the IR vs. re-lowering per evolve.
  pulse::Schedule mixer("mixer");
  const pulse::Channel d0 = pulse::Channel::drive(0);
  mixer.append(pulse::ShiftPhase{0.1, d0});
  mixer.append(pulse::ShiftFrequency{0.01, d0});
  mixer.append(pulse::Play{
      pulse::PulseShape::gaussian(mcfg.mixer_duration_dt, 0.2, mcfg.mixer_duration_dt / 4.0),
      d0});
  mixer.append(pulse::ShiftFrequency{-0.01, d0});
  mixer.append(pulse::ShiftPhase{-0.1, d0});
  backend::FakeBackend::Subsystem sub = dev.subsystem({0}, true);
  const pulse::Schedule local = backend::FakeBackend::remap_schedule(mixer, sub.remap);
  const psim::PulseSimulator sim(std::move(sub.system));
  la::CVec psi0(2, la::cxd{0.0, 0.0});
  psi0[0] = 1.0;
  constexpr int kEvolves = 50;

  const auto t_percall = std::chrono::steady_clock::now();
  for (int i = 0; i < kEvolves; ++i) sim.evolve(local, psi0);
  const double percall_s = seconds_since(t_percall) / kEvolves;

  const psim::CompiledSchedule cs = sim.compile(local);
  const auto t_reuse = std::chrono::steady_clock::now();
  for (int i = 0; i < kEvolves; ++i) sim.evolve(cs, psi0);
  const double reuse_s = seconds_since(t_reuse) / kEvolves;
  const double ir_speedup = reuse_s > 0.0 ? percall_s / reuse_s : 0.0;

  std::printf("cold compile  %.4f s\nwarm compile  %.4f s  (%.1fx)\n", cold_s, warm_s,
              speedup);
  std::printf("pulse blocks: %llu hits / %llu misses (hit rate %.1f%%); gate blocks: "
              "%llu hits / %llu misses\n",
              static_cast<unsigned long long>(cache_stats.pulse_hits),
              static_cast<unsigned long long>(cache_stats.pulse_misses),
              100.0 * cache_stats.pulse_hit_rate(),
              static_cast<unsigned long long>(cache_stats.gate_hits),
              static_cast<unsigned long long>(cache_stats.gate_misses));
  std::printf("CompiledSchedule reuse: %.1f us/evolve vs %.1f us re-lowered (%.1fx)\n",
              1e6 * reuse_s, 1e6 * percall_s, ir_speedup);
  std::printf("template bind: %.1f us/eval vs %.1f us full compile (%.1fx), "
              "bit-identical %s\n",
              1e6 * bound_s, 1e6 * full_s, template_speedup, template_identical ? "yes" : "NO");
  std::printf("pulse-level instantiate: %.1f us/eval (%zu params, %zu ops built)\n",
              1e6 * instantiate_s, px.size(), instantiated_ops);
  if (store_enabled) {
    std::printf("persistent store (%s): %s start, %.4f s (%.1fx vs cold), "
                "%llu loaded, store hits %llu / misses %llu (rate %.1f%%), "
                "pulse compiles %llu\n",
                store_path.c_str(), store_warm ? "WARM" : "cold", store_s,
                store_s > 0.0 ? cold_s / store_s : 0.0,
                static_cast<unsigned long long>(store_stats.store_loaded),
                static_cast<unsigned long long>(store_stats.store_hits),
                static_cast<unsigned long long>(store_stats.store_misses),
                100.0 * store_stats.store_hit_rate(),
                static_cast<unsigned long long>(store_stats.pulse_misses));
  }
  std::printf("counts bit-identical cache-on vs cache-off: %s\n", identical ? "yes" : "NO");

  std::ofstream json("BENCH_pulse.json");
  json << "{\n"
       << "  \"bench\": \"pulse_compile\",\n"
       << "  \"ops\": " << prog.ops.size() << ",\n"
       << "  \"warm_iters\": " << warm_iters << ",\n"
       << "  \"cold_s\": " << cold_s << ",\n"
       << "  \"warm_s\": " << warm_s << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"ir_evolve_reused_s\": " << reuse_s << ",\n"
       << "  \"ir_evolve_relowered_s\": " << percall_s << ",\n"
       << "  \"ir_speedup\": " << ir_speedup << ",\n"
       << "  \"template_speedup\": " << template_speedup << ",\n"
       << "  \"template\": {\"evals\": " << kTemplateEvals << ", \"bound_s\": " << bound_s
       << ", \"full_s\": " << full_s
       << ", \"bit_identical\": " << (template_identical ? "true" : "false") << "},\n"
       << "  \"instantiate\": {\"evals\": " << kInstantiateEvals
       << ", \"params\": " << px.size() << ", \"us_per_eval\": " << 1e6 * instantiate_s
       << "},\n"
       << "  \"bit_identical\": " << (identical ? "true" : "false") << ",\n"
       << "  \"cache\": {\"pulse_hits\": " << cache_stats.pulse_hits
       << ", \"pulse_misses\": " << cache_stats.pulse_misses
       << ", \"gate_hits\": " << cache_stats.gate_hits
       << ", \"gate_misses\": " << cache_stats.gate_misses
       << ", \"pulse_hit_rate\": " << cache_stats.pulse_hit_rate() << "},\n"
       << "  \"store\": {\"enabled\": " << (store_enabled ? "true" : "false")
       << ", \"warm_start\": " << (store_warm ? "true" : "false")
       << ", \"loaded\": " << store_stats.store_loaded
       << ", \"store_hits\": " << store_stats.store_hits
       << ", \"store_misses\": " << store_stats.store_misses
       << ", \"store_hit_rate\": " << store_stats.store_hit_rate()
       << ", \"pulse_misses\": " << store_stats.pulse_misses
       << ", \"store_s\": " << store_s
       << ", \"store_speedup\": " << (store_s > 0.0 ? cold_s / store_s : 0.0)
       << ", \"bit_identical\": " << (store_identical ? "true" : "false") << "}\n"
       << "}\n";
  std::printf("wrote BENCH_pulse.json\n");
  return identical ? 0 : 1;
}
