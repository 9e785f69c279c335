// Ablation A3: which noise source produces the hybrid model's advantage?
// Toggle each modeled error channel off in turn and re-train both models.
#include <cstdio>
#include <string>
#include <vector>

#include "backend/presets.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "graph/instances.hpp"

namespace {

using namespace hgp;

backend::FakeBackend variant(const std::string& which) {
  backend::FakeBackend dev = backend::make_toronto();
  auto& nm = dev.mutable_noise_model();
  if (which == "no coherent drift/gain") {
    for (auto& q : nm.qubits) {
      q.freq_drift_ghz = 0.0;
      q.drive_gain = 1.0;
    }
  } else if (which == "no depolarizing") {
    nm.dep_per_1q_pulse = 0.0;
    nm.dep_per_2q_block = 0.0;
  } else if (which == "no T1/T2") {
    for (auto& q : nm.qubits) {
      q.t1_us = 1e9;
      q.t2_us = 1e9;
    }
  } else if (which == "no readout error") {
    for (auto& q : nm.qubits) q.readout = noise::ReadoutError{};
  }
  return dev;
}

}  // namespace

int main() {
  using namespace hgp;
  benchutil::header("Ablation A3: error-source decomposition of the hybrid advantage");

  const graph::Instance inst = graph::paper_task1();
  const std::vector<std::string> models = {"full model", "no coherent drift/gain",
                                           "no depolarizing", "no T1/T2", "no readout error"};
  Table t({"noise model", "gate AR", "hybrid AR", "hybrid gain"});
  std::vector<double> gain_pp;
  for (const std::string& which : models) {
    std::fprintf(stderr, "[A3] %s...\n", which.c_str());
    const backend::FakeBackend dev = variant(which);
    core::RunConfig cfg = benchutil::base_config();
    cfg.gate_optimization = true;
    const auto gate = core::run_qaoa(inst, dev, core::ModelKind::GateLevel, cfg);
    const auto hybrid = core::run_qaoa(inst, dev, core::ModelKind::Hybrid, cfg);
    gain_pp.push_back(100.0 * (hybrid.ar - gate.ar));
    t.add_row({which, Table::pct(gate.ar), Table::pct(hybrid.ar),
               Table::num(gain_pp.back(), 1) + " pp"});
  }
  std::printf("%s\n", t.str().c_str());

  // The measured verdict: the full-model gain, then how each ablation moves
  // it. Each cell is one training run, so a difference here is not a
  // significance test.
  const double full = gain_pp[0];
  std::printf("measured: full-model hybrid gain %+.1f pp; change under each ablation:\n", full);
  std::size_t biggest_cut = 0;
  for (std::size_t i = 1; i < models.size(); ++i) {
    std::printf("  %-24s %+.1f pp\n", models[i].c_str(), gain_pp[i] - full);
    if (biggest_cut == 0 || gain_pp[i] < gain_pp[biggest_cut]) biggest_cut = i;
  }
  if (full <= 0.0)
    std::printf("verdict: no hybrid edge on the full model, so there is none for an\n"
                "ablation to remove.\n");
  else if (gain_pp[biggest_cut] >= full)
    std::printf("verdict: no ablation reduces the hybrid's %+.1f pp edge.\n", full);
  else
    std::printf("verdict: removing %s cuts the hybrid's edge most, by %.1f pp\n"
                "(%.0f%% of the full-model gain).\n",
                models[biggest_cut].substr(3).c_str(), full - gain_pp[biggest_cut],
                100.0 * (full - gain_pp[biggest_cut]) / full);
  return 0;
}
