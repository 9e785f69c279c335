// Telemetry overhead on the executor's hot path: times the lane-batched
// noisy shot loop with hgp::obs disabled and enabled, verifies the counts
// are bit-identical (telemetry must never perturb results), and emits
// BENCH_obs.json (best-of-reps, overhead ratio, registry snapshot). The
// off and on runs interleave — one of each per rep, their order alternating
// — so host drift over the measurement lands on both sides of the ratio.
// The committed baseline gates the on/off ratio.
//
//   bench_obs [num_qubits] [shots] [reps] [threads] [lanes]
//     reps = interleaved off/on pairs (CI: 20, ~1 s at 12 qubits/256 shots)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "backend/presets.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/executor.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

using namespace hgp;

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::stoul(argv[1]) : 12;
  const std::size_t shots = argc > 2 ? std::stoul(argv[2]) : 256;
  const int reps = argc > 3 ? std::stoi(argv[3]) : 5;
  const std::size_t threads = argc > 4 ? std::stoul(argv[4]) : 1;
  const std::size_t lanes =
      argc > 5 ? std::stoul(argv[5]) : core::ExecutorOptions{}.shot_batch_lanes;

  const core::Program prog = benchutil::toronto_ladder_program(n);
  const backend::FakeBackend dev = backend::make_toronto();

  // One warm executor for both telemetry states; every rep runs each state
  // once with a fresh seed-17 Rng, so both execute the identical shot grid
  // on the same compiled blocks and the counts comparison is exact.
  core::ExecutorOptions opts;
  opts.num_threads = threads;
  opts.shot_batch_lanes = lanes;
  core::Executor ex(dev, opts);
  Rng warm(1);
  ex.run(prog, 1, warm);  // warm the compiled-block cache and the template
  sim::Counts off_counts, on_counts;
  auto time_run = [&](bool telemetry) {
    obs::set_enabled(telemetry);
    Rng rng(17);
    const auto t0 = std::chrono::steady_clock::now();
    (telemetry ? on_counts : off_counts) = ex.run(prog, shots, rng);
    const auto t1 = std::chrono::steady_clock::now();
    obs::set_enabled(false);
    return std::chrono::duration<double>(t1 - t0).count();
  };
  double off_s = 1e300, on_s = 1e300;
  for (int r = 0; r < reps; ++r) {
    const bool on_first = r % 2 == 1;
    const double first = time_run(on_first);
    const double second = time_run(!on_first);
    off_s = std::min(off_s, on_first ? second : first);
    on_s = std::min(on_s, on_first ? first : second);
  }
  const double overhead = off_s > 0.0 ? on_s / off_s : 0.0;
  const bool identical = off_counts == on_counts;

  const obs::Registry& reg = obs::Registry::global();
  const std::uint64_t spans = obs::Tracer::global().total_recorded();

  std::printf("%zu qubits, %zu shots, %zu threads, %zu lanes\n", n, shots, threads, lanes);
  std::printf("telemetry off: best %.3f s (%.1f shots/s)\n", off_s, shots / off_s);
  std::printf("telemetry on:  best %.3f s (%.1f shots/s)  ->  %.4fx overhead\n", on_s,
              shots / on_s, overhead);
  std::printf("counts bit-identical on vs off: %s\n", identical ? "yes" : "NO");
  std::printf("spans recorded: %llu\n", static_cast<unsigned long long>(spans));
  std::printf("registry snapshot: %s\n", reg.to_json().c_str());

  std::ofstream json("BENCH_obs.json");
  json << "{\n"
       << "  \"bench\": \"obs\",\n"
       << "  \"qubits\": " << n << ",\n"
       << "  \"shots\": " << shots << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"lanes\": " << lanes << ",\n"
       << "  \"off_s\": " << off_s << ",\n"
       << "  \"on_s\": " << on_s << ",\n"
       << "  \"overhead_ratio\": " << overhead << ",\n"
       << "  \"spans_recorded\": " << spans << ",\n"
       << "  \"bit_identical\": " << (identical ? "true" : "false") << "\n"
       << "}\n";
  std::printf("wrote BENCH_obs.json\n");
  // Overhead is gated against the committed baseline by tools/check_bench.py;
  // only a result-perturbing telemetry bug fails the bench itself.
  return identical ? 0 : 1;
}
