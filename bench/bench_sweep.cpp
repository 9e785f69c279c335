// Throughput of the serve layer on a Table II-style grid: the same 3-config
// sweep runs once sequentially (plain run_qaoa per cell, private caches) and
// once through a JobService pool sharing one compiled-block cache. Reports
// wall-clock speedup, verifies the results are bit-identical, and emits a
// BENCH_sweep.json baseline with the cache hit rate across optimizer
// iterations.
//
//   bench_sweep [workers]            (default 4)
//   HGP_SHOTS / HGP_EVALS            scale the per-run budget (smoke mode)
//   HGP_BLOCK_STORE                  persistent compiled-block store path
//                                    ("" = off); the JSON's store counters
//                                    then separate disk-warmed hits from
//                                    in-process ones
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "backend/presets.hpp"
#include "bench_util.hpp"
#include "serve/job.hpp"
#include "serve/job_service.hpp"

using namespace hgp;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

bool same_result(const core::RunResult& a, const core::RunResult& b) {
  return a.ar == b.ar && a.final_cost == b.final_cost &&
         a.optimizer.value == b.optimizer.value && a.optimizer.x == b.optimizer.x &&
         a.optimizer.history == b.optimizer.history;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t workers = argc > 1 ? std::stoul(argv[1]) : 4;

  const backend::FakeBackend dev = backend::make_toronto();
  core::RunConfig base = benchutil::base_config();
  base.executor_threads = 1;  // parallelism comes from the service pool here

  std::vector<serve::JobRequest> jobs;
  core::RunConfig cobyla = base;
  jobs.push_back({{"task1/gate/cobyla", graph::paper_task1(), &dev,
                   core::ModelKind::GateLevel, cobyla}});
  core::RunConfig spsa = base;
  spsa.optimizer = "spsa";
  jobs.push_back({{"task1/hybrid/spsa", graph::paper_task1(), &dev,
                   core::ModelKind::Hybrid, spsa}});
  core::RunConfig nm = base;
  nm.optimizer = "neldermead";
  jobs.push_back({{"task2/gate/neldermead", graph::paper_task2(), &dev,
                   core::ModelKind::GateLevel, nm}});

  benchutil::header("serve::JobService — batched evaluation service throughput");
  std::printf("%zu configs, %zu workers, %zu shots, %d evals per run\n\n", jobs.size(),
              workers, base.shots, base.max_evaluations);

  // Sequential baseline: one run at a time, no shared service.
  const auto t_seq = std::chrono::steady_clock::now();
  std::vector<core::RunResult> sequential;
  for (const serve::JobRequest& request : jobs)
    sequential.push_back(core::run_qaoa(request.run.instance, *request.run.dev,
                                        request.run.kind, request.run.config));
  const double seq_s = seconds_since(t_seq);

  // The service: shared pool + shared compiled-block cache (persisted to
  // HGP_BLOCK_STORE when set — a second invocation then starts disk-warm).
  serve::JobService svc(serve::JobService::Options{
      workers, 8192, benchutil::env_or_str("HGP_BLOCK_STORE", "")});
  const auto t_par = std::chrono::steady_clock::now();
  const std::vector<serve::JobOutcome> outcomes = svc.run_all(jobs);
  const double par_s = seconds_since(t_par);

  bool identical = outcomes.size() == sequential.size();
  for (std::size_t i = 0; identical && i < jobs.size(); ++i)
    identical = outcomes[i].state == serve::JobState::Completed &&
                same_result(outcomes[i].result, sequential[i]);

  const serve::BlockCache::Stats cache = svc.cache_stats();
  const double speedup = par_s > 0.0 ? seq_s / par_s : 0.0;

  for (std::size_t i = 0; i < jobs.size(); ++i)
    std::printf("  %-24s AR %.1f%%  (%d evals)\n", jobs[i].run.label.c_str(),
                100.0 * outcomes[i].result.ar, outcomes[i].result.optimizer.evaluations);
  std::printf("\nsequential %.3f s | sweep %.3f s | speedup %.2fx | bit-identical: %s\n",
              seq_s, par_s, speedup, identical ? "yes" : "NO");
  std::printf("block cache: %llu hits / %llu misses (hit rate %.1f%%), %llu evictions\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses), 100.0 * cache.hit_rate(),
              static_cast<unsigned long long>(cache.evictions));
  std::printf("  by kind: gate %llu/%llu, pulse %llu/%llu (hybrid mixers)\n",
              static_cast<unsigned long long>(cache.gate_hits),
              static_cast<unsigned long long>(cache.gate_misses),
              static_cast<unsigned long long>(cache.pulse_hits),
              static_cast<unsigned long long>(cache.pulse_misses));
  if (cache.store_loaded > 0 || cache.store_hits > 0 || cache.store_misses > 0)
    std::printf("  persistent store: %llu loaded, disk-warmed hits %llu / misses %llu "
                "(rate %.1f%%)\n",
                static_cast<unsigned long long>(cache.store_loaded),
                static_cast<unsigned long long>(cache.store_hits),
                static_cast<unsigned long long>(cache.store_misses),
                100.0 * cache.store_hit_rate());

  std::ofstream json("BENCH_sweep.json");
  json << "{\n"
       << "  \"bench\": \"sweep\",\n"
       << "  \"configs\": " << jobs.size() << ",\n"
       << "  \"workers\": " << workers << ",\n"
       << "  \"shots\": " << base.shots << ",\n"
       << "  \"evals\": " << base.max_evaluations << ",\n"
       << "  \"sequential_s\": " << seq_s << ",\n"
       << "  \"sweep_s\": " << par_s << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"bit_identical\": " << (identical ? "true" : "false") << ",\n"
       << "  \"cache\": {\"hits\": " << cache.hits << ", \"misses\": " << cache.misses
       << ", \"evictions\": " << cache.evictions << ", \"hit_rate\": " << cache.hit_rate()
       << ", \"gate_hits\": " << cache.gate_hits << ", \"gate_misses\": " << cache.gate_misses
       << ", \"pulse_hits\": " << cache.pulse_hits
       << ", \"pulse_misses\": " << cache.pulse_misses
       << ", \"store_hits\": " << cache.store_hits
       << ", \"store_misses\": " << cache.store_misses
       << ", \"store_loaded\": " << cache.store_loaded
       << ", \"store_hit_rate\": " << cache.store_hit_rate() << "}\n"
       << "}\n";
  std::printf("wrote BENCH_sweep.json\n");
  return identical ? 0 : 1;
}
