// Wall-clock timing of the executor's noisy shot loop — the per-evaluation
// hot path of the machine-in-loop workflow. Times the scalar per-shot engine
// (shot_batch_lanes = 1) against the batch walker on two programs, verifies
// their counts are bit-identical at equal seeds, and emits
// BENCH_shotloop.json (best-of-reps, speedup, bit-identical flag per case):
//   - the shared heavy-hex ladder program at `num_qubits` / `shots`;
//   - "task1": the paper's task-1 QAOA program on ibmq_toronto, hybrid model
//     with gate optimization, at 1024 shots (the Table II workload).
//
//   bench_shotloop_timing [num_qubits] [shots] [reps] [threads] [lanes]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "backend/presets.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/executor.hpp"
#include "core/models.hpp"
#include "graph/instances.hpp"

using namespace hgp;

namespace {

struct CaseResult {
  double scalar_s = 0.0;
  double batched_s = 0.0;
  double speedup = 0.0;
  bool identical = false;
};

// Best-of-reps with a fresh seed-17 Rng per rep, so every rep (and both
// engines) executes the identical shot grid and the counts comparison is
// exact rather than statistical.
CaseResult time_case(const backend::FakeBackend& dev, const core::Program& prog,
                     std::size_t shots, int reps, std::size_t threads, std::size_t lanes) {
  auto time_engine = [&](std::size_t engine_lanes, sim::Counts* counts_out) {
    core::ExecutorOptions opts;
    opts.num_threads = threads;
    opts.shot_batch_lanes = engine_lanes;
    core::Executor ex(dev, opts);
    Rng warm(1);
    ex.run(prog, 1, warm);  // warm the compiled-block cache
    double best_s = 1e300;
    for (int r = 0; r < reps; ++r) {
      Rng rng(17);
      const auto t0 = std::chrono::steady_clock::now();
      *counts_out = ex.run(prog, shots, rng);
      const auto t1 = std::chrono::steady_clock::now();
      best_s = std::min(best_s, std::chrono::duration<double>(t1 - t0).count());
    }
    return best_s;
  };
  sim::Counts scalar_counts, batched_counts;
  CaseResult r;
  r.scalar_s = time_engine(1, &scalar_counts);
  r.batched_s = time_engine(lanes, &batched_counts);
  r.speedup = r.batched_s > 0.0 ? r.scalar_s / r.batched_s : 0.0;
  r.identical = scalar_counts == batched_counts;
  return r;
}

void print_case(const char* name, const CaseResult& r, std::size_t shots, std::size_t lanes) {
  std::printf("[%s] scalar  engine: best %.3f s (%.1f shots/s)\n", name, r.scalar_s,
              shots / r.scalar_s);
  std::printf("[%s] batched engine: best %.3f s (%.1f shots/s), %zu lanes  ->  %.2fx\n", name,
              r.batched_s, shots / r.batched_s, lanes, r.speedup);
  std::printf("[%s] counts bit-identical scalar vs batched: %s\n", name,
              r.identical ? "yes" : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::stoul(argv[1]) : 12;
  const std::size_t shots = argc > 2 ? std::stoul(argv[2]) : 256;
  const int reps = argc > 3 ? std::stoi(argv[3]) : 5;
  const std::size_t threads = argc > 4 ? std::stoul(argv[4]) : 1;
  const std::size_t lanes = argc > 5 ? std::stoul(argv[5]) : core::ExecutorOptions{}.shot_batch_lanes;

  const backend::FakeBackend dev = backend::make_toronto();
  const CaseResult ladder =
      time_case(dev, benchutil::toronto_ladder_program(n), shots, reps, threads, lanes);

  constexpr std::size_t kTask1Shots = 1024;
  core::ModelConfig mcfg;
  mcfg.gate_optimization = true;
  const core::QaoaModel model = core::QaoaModel::build(graph::paper_task1().graph, dev,
                                                       core::ModelKind::Hybrid, mcfg);
  const CaseResult task1 = time_case(dev, model.instantiate(model.initial_parameters()),
                                     kTask1Shots, reps, threads, lanes);

  std::printf("%zu qubits, %zu shots, %zu threads\n", n, shots, threads);
  print_case("ladder", ladder, shots, lanes);
  print_case("task1", task1, kTask1Shots, lanes);

  std::ofstream json("BENCH_shotloop.json");
  json << "{\n"
       << "  \"bench\": \"shotloop\",\n"
       << "  \"qubits\": " << n << ",\n"
       << "  \"shots\": " << shots << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"lanes\": " << lanes << ",\n"
       << "  \"scalar_s\": " << ladder.scalar_s << ",\n"
       << "  \"batched_s\": " << ladder.batched_s << ",\n"
       << "  \"scalar_shots_per_s\": " << shots / ladder.scalar_s << ",\n"
       << "  \"batched_shots_per_s\": " << shots / ladder.batched_s << ",\n"
       << "  \"speedup\": " << ladder.speedup << ",\n"
       << "  \"bit_identical\": " << (ladder.identical ? "true" : "false") << ",\n"
       << "  \"task1\": {\n"
       << "    \"program\": \"paper task 1, ibmq_toronto, hybrid, gate optimization\",\n"
       << "    \"shots\": " << kTask1Shots << ",\n"
       << "    \"scalar_s\": " << task1.scalar_s << ",\n"
       << "    \"batched_s\": " << task1.batched_s << ",\n"
       << "    \"speedup\": " << task1.speedup << ",\n"
       << "    \"bit_identical\": " << (task1.identical ? "true" : "false") << "\n"
       << "  }\n"
       << "}\n";
  std::printf("wrote BENCH_shotloop.json\n");
  return ladder.identical && task1.identical ? 0 : 1;
}
