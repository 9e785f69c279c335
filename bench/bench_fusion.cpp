// Timeline block fusion: fewer, bigger unitaries per shot. A 12-qubit path
// QAOA at p=2 is run noiseless with the fusion pass off and on (width 3, the
// widest kernel), timing the repeated-sampling shot loop and the
// candidate-lane expectation batch — the two deterministic-unitary engine
// paths the pass accelerates. Verifies parity while it measures: fused
// expectations within 1e-9 of unfused, batched candidate lanes bit-identical
// to scalar fused runs, and noisy counts bit-identical whether the knob is on
// or off (fusion must be a semantic no-op under noise). Emits
// BENCH_fusion.json (best-of-reps, both speedups, parity block) for
// tools/check_bench.py.
//
//   bench_fusion [num_nodes] [candidates] [shots] [reps]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "backend/presets.hpp"
#include "common/rng.hpp"
#include "core/executor.hpp"
#include "core/models.hpp"
#include "core/qaoa.hpp"
#include "graph/graph.hpp"

using namespace hgp;

namespace {

double best_of(int reps, const std::function<double()>& body) {
  double best_s = 1e300;
  for (int r = 0; r < reps; ++r) best_s = std::min(best_s, body());
  return best_s;
}

double timed(const std::function<void()>& body) {
  const auto t0 = std::chrono::steady_clock::now();
  body();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

double total_variation(const sim::Counts& a, const sim::Counts& b, std::size_t shots) {
  double tv = 0.0;
  for (const auto& [bits, n] : a) {
    const auto it = b.find(bits);
    const double nb = it == b.end() ? 0.0 : static_cast<double>(it->second);
    tv += std::abs(static_cast<double>(n) - nb);
  }
  for (const auto& [bits, n] : b)
    if (a.find(bits) == a.end()) tv += static_cast<double>(n);
  return tv / (2.0 * static_cast<double>(shots));
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::stoul(argv[1]) : 12;
  const std::size_t k = argc > 2 ? std::stoul(argv[2]) : 32;
  const std::size_t shots = argc > 3 ? std::stoul(argv[3]) : 1024;
  const int reps = argc > 4 ? std::stoi(argv[4]) : 7;
  const std::size_t width = 3;  // widest fused kernel
  const int loop_iters = 8;     // run() calls per timed shot-loop sample

  // The weighted heavy-hex path of bench_gradient: routes with few swaps,
  // non-degenerate cut landscape.
  graph::Graph g(n);
  for (std::size_t i = 0; i + 1 < n; ++i)
    g.add_edge(i, i + 1, 1.0 + 0.1 * static_cast<double>(i % 3));

  const backend::FakeBackend dev = backend::make_toronto();
  core::ModelConfig mcfg;
  mcfg.p = 2;
  static const std::vector<std::size_t> chain = {6,  7,  4,  1,  2,  3,  5, 8,
                                                 11, 14, 13, 12, 15, 18, 17};
  mcfg.initial_layout.assign(chain.begin(), chain.begin() + static_cast<long>(n));
  const core::QaoaModel model =
      core::QaoaModel::build(g, dev, core::ModelKind::GateLevel, mcfg);
  const core::Program prog = model.instantiate(model.initial_parameters());

  core::ObjectiveSpec spec;
  spec.kind = core::ObjectiveKind::Expectation;
  spec.value = [&g](std::uint64_t bits) { return g.cut_value(bits); };

  std::vector<std::vector<double>> xs(k, model.initial_parameters());
  for (std::size_t c = 0; c < k; ++c)
    for (std::size_t j = 0; j < xs[c].size(); ++j)
      xs[c][j] += 0.01 * static_cast<double>(c) - 0.005 * static_cast<double>(j);
  auto instantiate_all = [&]() {
    std::vector<core::Program> progs;
    progs.reserve(k);
    for (const auto& x : xs) progs.push_back(model.instantiate(x));
    return progs;
  };

  auto make_ex = [&](std::size_t fusion_width, bool noise = false) {
    core::ExecutorOptions opts;
    opts.noise = noise;
    opts.num_threads = 1;
    opts.fusion_max_qubits = fusion_width;
    return core::Executor(dev, opts);
  };
  core::Executor unfused_ex = make_ex(0);
  core::Executor fused_ex = make_ex(width);

  // Warm both compiled-block caches (gate blocks AND fused compositions) so
  // the timings compare evaluation, not first-touch compilation.
  {
    Rng warm(1);
    unfused_ex.run(prog, 1, warm);
    fused_ex.run(prog, 1, warm);
    const std::vector<core::Program> progs = instantiate_all();
    (void)unfused_ex.run_expectation_batch(progs, spec);
    (void)fused_ex.run_expectation_batch(progs, spec);
  }
  const std::size_t blocks_unfused = fused_ex.last_report().block_count;
  const std::size_t blocks_fused = fused_ex.last_report().fused_block_count;

  // ---- noiseless shot loop: repeated run() ---------------------------------
  auto shotloop = [&](core::Executor& ex) {
    return best_of(reps, [&]() {
      return timed([&]() {
        Rng rng(17);
        for (int i = 0; i < loop_iters; ++i) (void)ex.run(prog, shots, rng);
      });
    });
  };
  const double unfused_s = shotloop(unfused_ex);
  const double fused_s = shotloop(fused_ex);
  const double shotloop_speedup = fused_s > 0.0 ? unfused_s / fused_s : 0.0;

  // ---- candidate-lane expectation batch ------------------------------------
  // Programs are instantiated outside the timed region: instantiation is
  // identical input-preparation work on both paths, and the metric is the
  // engine (template bind + lane evolve), which is what fusion changes.
  const std::vector<core::Program> batch_progs = instantiate_all();
  std::vector<double> batch_vals;
  auto batchloop = [&](core::Executor& ex) {
    return best_of(reps, [&]() {
      return timed([&]() { batch_vals = ex.run_expectation_batch(batch_progs, spec); });
    });
  };
  const double batch_unfused_s = batchloop(unfused_ex);
  const double batch_fused_s = batchloop(fused_ex);
  const double batch_speedup = batch_fused_s > 0.0 ? batch_unfused_s / batch_fused_s : 0.0;

  // ---- parity gates ---------------------------------------------------------
  // Fused vs unfused expectation: numerically equal up to the FP rounding of
  // the composed products (NOT bitwise — a different but equally valid
  // rounding of the same unitary product).
  double max_abs_gap = 0.0;
  {
    Rng r0(5), r1(5);
    for (const std::size_t w : {std::size_t{2}, width}) {
      core::Executor ex = make_ex(w);
      const double a = ex.run_expectation(prog, 8, r0, spec);
      const double b = unfused_ex.run_expectation(prog, 8, r1, spec);
      max_abs_gap = std::max(max_abs_gap, std::abs(a - b));
    }
  }
  const bool parity_ok = max_abs_gap <= 1e-9;

  // Batched candidate lanes vs scalar fused runs: bit-identical.
  std::vector<double> scalar_vals(k);
  {
    const std::vector<core::Program> progs = instantiate_all();
    batch_vals = fused_ex.run_expectation_batch(progs, spec);
    core::Executor scalar_ex = make_ex(width);
    for (std::size_t c = 0; c < k; ++c) {
      Rng rng(3);
      scalar_vals[c] = scalar_ex.run_expectation(progs[c], 8, rng, spec);
    }
  }
  const bool batch_identical = batch_vals == scalar_vals;

  // Sampled counts, fused vs unfused, same seed: informational TV distance
  // (amplitudes agree to ~1e-12; a CDF-boundary draw may flip one sample).
  double counts_tv = 0.0;
  {
    Rng r0(11), r1(11);
    counts_tv = total_variation(unfused_ex.run(prog, shots, r0),
                                fused_ex.run(prog, shots, r1), shots);
  }

  // Noisy trajectory counts: the knob must be a semantic no-op — fusion
  // never touches a noisy timeline, so counts are bit-identical.
  bool noisy_identical = false;
  {
    core::Executor noff = make_ex(0, /*noise=*/true);
    core::Executor non = make_ex(width, /*noise=*/true);
    Rng r0(23), r1(23);
    noisy_identical = noff.run(prog, 256, r0) == non.run(prog, 256, r1);
  }

  std::printf("%zu-node path QAOA p=2, width-%zu fusion: %zu -> %zu blocks\n", n, width,
              blocks_unfused, blocks_fused);
  std::printf("shot loop (%d x %zu shots): unfused %.4f s, fused %.4f s  ->  %.2fx\n",
              loop_iters, shots, unfused_s, fused_s, shotloop_speedup);
  std::printf("expectation batch (%zu lanes): unfused %.4f s, fused %.4f s  ->  %.2fx\n",
              k, batch_unfused_s, batch_fused_s, batch_speedup);
  std::printf("parity: |fused - unfused| expectation gap %.2e (<= 1e-9: %s)\n",
              max_abs_gap, parity_ok ? "yes" : "NO");
  std::printf("        batched lanes bit-identical to scalar fused runs: %s\n",
              batch_identical ? "yes" : "NO");
  std::printf("        fused-vs-unfused sampled counts TV distance %.4f\n", counts_tv);
  std::printf("        noisy counts bit-identical across the knob: %s\n",
              noisy_identical ? "yes" : "NO");

  std::ofstream json("BENCH_fusion.json");
  json << "{\n"
       << "  \"bench\": \"fusion\",\n"
       << "  \"qubits\": " << n << ",\n"
       << "  \"candidates\": " << k << ",\n"
       << "  \"shots\": " << shots << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"fusion_width\": " << width << ",\n"
       << "  \"blocks_unfused\": " << blocks_unfused << ",\n"
       << "  \"blocks_fused\": " << blocks_fused << ",\n"
       << "  \"shotloop_unfused_s\": " << unfused_s << ",\n"
       << "  \"shotloop_fused_s\": " << fused_s << ",\n"
       << "  \"shotloop_speedup\": " << shotloop_speedup << ",\n"
       << "  \"batch_unfused_s\": " << batch_unfused_s << ",\n"
       << "  \"batch_fused_s\": " << batch_fused_s << ",\n"
       << "  \"batch_speedup\": " << batch_speedup << ",\n"
       << "  \"parity\": {\"parity_ok\": " << (parity_ok ? "true" : "false")
       << ", \"max_abs_gap\": " << max_abs_gap << ", \"counts_tv\": " << counts_tv
       << "},\n"
       << "  \"batch\": {\"bit_identical\": " << (batch_identical ? "true" : "false")
       << "},\n"
       << "  \"noisy\": {\"bit_identical\": " << (noisy_identical ? "true" : "false")
       << "}\n"
       << "}\n";
  std::printf("wrote BENCH_fusion.json\n");
  return parity_ok && batch_identical && noisy_identical ? 0 : 1;
}
