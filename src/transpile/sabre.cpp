#include "transpile/sabre.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "common/error.hpp"

namespace hgp::transpile {

namespace {

constexpr double kExtendedWeight = 0.5;
constexpr double kDecayRate = 0.001;
constexpr std::size_t kExtendedSetSize = 20;

/// Routing state: layout maps virtual -> physical; inverse the other way.
struct Layout {
  std::vector<std::size_t> v2p;
  std::vector<std::size_t> p2v;

  void swap_physical(std::size_t pa, std::size_t pb) {
    const std::size_t va = p2v[pa], vb = p2v[pb];
    std::swap(p2v[pa], p2v[pb]);
    if (va != SIZE_MAX) v2p[va] = pb;
    if (vb != SIZE_MAX) v2p[vb] = pa;
  }
};

struct TwoQubitGate {
  std::size_t index;  // into the op list
  std::size_t a, b;   // virtual qubits
};

/// Dependency structure over the 2-qubit gates only; 1-qubit gates are
/// emitted eagerly once their predecessors have been routed.
struct GateDag {
  std::vector<TwoQubitGate> gates;
  std::vector<std::vector<std::size_t>> successors;  // gate -> gates
  std::vector<int> in_degree;
};

GateDag build_dag(const qc::Circuit& circuit) {
  GateDag dag;
  std::vector<int> last_gate_on_qubit(circuit.num_qubits(), -1);
  for (std::size_t i = 0; i < circuit.ops().size(); ++i) {
    const qc::Op& op = circuit.ops()[i];
    if (op.qubits.size() != 2) continue;
    const std::size_t g = dag.gates.size();
    dag.gates.push_back(TwoQubitGate{i, op.qubits[0], op.qubits[1]});
    dag.successors.emplace_back();
    dag.in_degree.push_back(0);
    for (std::size_t q : op.qubits) {
      const int prev = last_gate_on_qubit[q];
      if (prev >= 0) {
        dag.successors[static_cast<std::size_t>(prev)].push_back(g);
        ++dag.in_degree[g];
      }
      last_gate_on_qubit[q] = static_cast<int>(g);
    }
  }
  return dag;
}

struct RouteOutcome {
  std::vector<qc::Op> ops;  // physical ops
  Layout final_layout;
  std::size_t swaps = 0;
};

RouteOutcome route(const qc::Circuit& circuit, const backend::CouplingMap& map, Layout layout,
                   Rng& rng) {
  const std::size_t nv = circuit.num_qubits();
  GateDag dag = build_dag(circuit);

  // For interleaving: for each op index, how many 2q gates precede it.
  // 1-qubit ops are emitted as soon as all earlier 2q gates on their qubit
  // are routed; we process the op list lazily per qubit.
  std::vector<std::size_t> next_op(1, 0);  // single cursor over ops
  std::vector<bool> gate_done(dag.gates.size(), false);
  std::vector<std::size_t> gate_of_op(circuit.ops().size(), SIZE_MAX);
  for (std::size_t g = 0; g < dag.gates.size(); ++g) gate_of_op[dag.gates[g].index] = g;

  RouteOutcome out;
  out.swaps = 0;

  std::vector<double> decay(map.num_qubits(), 1.0);
  std::vector<std::size_t> front;
  for (std::size_t g = 0; g < dag.gates.size(); ++g)
    if (dag.in_degree[g] == 0) front.push_back(g);

  std::size_t cursor = 0;
  auto flush_ready_ops = [&]() {
    // Emit every op (1q, barrier) up to the first unrouted 2q gate.
    while (cursor < circuit.ops().size()) {
      const qc::Op& op = circuit.ops()[cursor];
      const std::size_t g = gate_of_op[cursor];
      if (g != SIZE_MAX && !gate_done[g]) break;
      if (g == SIZE_MAX) {
        qc::Op mapped = op;
        for (std::size_t& q : mapped.qubits) q = layout.v2p[q];
        out.ops.push_back(std::move(mapped));
      }
      ++cursor;
    }
  };

  std::vector<std::size_t> newly_ready;
  auto emit_gate = [&](std::size_t g) {
    const TwoQubitGate& gate = dag.gates[g];
    qc::Op mapped = circuit.ops()[gate.index];
    for (std::size_t& q : mapped.qubits) q = layout.v2p[q];
    gate_done[g] = true;
    out.ops.push_back(std::move(mapped));
    for (std::size_t s : dag.successors[g])
      if (--dag.in_degree[s] == 0) newly_ready.push_back(s);
  };

  flush_ready_ops();
  std::size_t stall_guard = 0;
  while (!front.empty()) {
    // Execute every front gate that is already adjacent (gates unblocked by
    // an emission join the front on the next sweep).
    bool progress = false;
    std::vector<std::size_t> still_blocked;
    for (std::size_t g : front) {
      const TwoQubitGate& gate = dag.gates[g];
      if (map.connected(layout.v2p[gate.a], layout.v2p[gate.b])) {
        emit_gate(g);
        progress = true;
      } else {
        still_blocked.push_back(g);
      }
    }
    front = std::move(still_blocked);
    front.insert(front.end(), newly_ready.begin(), newly_ready.end());
    newly_ready.clear();
    if (progress) {
      flush_ready_ops();
      std::fill(decay.begin(), decay.end(), 1.0);
      stall_guard = 0;
      continue;
    }
    if (front.empty()) break;

    // Extended set: successors of the front, breadth-first, for lookahead.
    std::vector<std::size_t> extended;
    {
      std::vector<std::size_t> frontier = front;
      while (extended.size() < kExtendedSetSize && !frontier.empty()) {
        std::vector<std::size_t> next;
        for (std::size_t g : frontier)
          for (std::size_t s : dag.successors[g]) {
            extended.push_back(s);
            next.push_back(s);
            if (extended.size() >= kExtendedSetSize) break;
          }
        frontier = std::move(next);
      }
    }

    // Candidate swaps: edges touching any qubit of a front gate.
    std::vector<std::pair<std::size_t, std::size_t>> candidates;
    for (std::size_t g : front) {
      for (std::size_t vq : {dag.gates[g].a, dag.gates[g].b}) {
        const std::size_t p = layout.v2p[vq];
        for (std::size_t nb : map.neighbors(p)) candidates.emplace_back(p, nb);
      }
    }

    auto score = [&](const std::pair<std::size_t, std::size_t>& sw) {
      Layout trial = layout;
      trial.swap_physical(sw.first, sw.second);
      double h = 0.0;
      for (std::size_t g : front)
        h += static_cast<double>(
            map.distance(trial.v2p[dag.gates[g].a], trial.v2p[dag.gates[g].b]));
      h /= static_cast<double>(front.size());
      if (!extended.empty()) {
        double e = 0.0;
        for (std::size_t g : extended)
          e += static_cast<double>(
              map.distance(trial.v2p[dag.gates[g].a], trial.v2p[dag.gates[g].b]));
        h += kExtendedWeight * e / static_cast<double>(extended.size());
      }
      return std::max(decay[sw.first], decay[sw.second]) * h;
    };

    double best_score = 0.0;
    std::vector<std::pair<std::size_t, std::size_t>> best;
    for (const auto& sw : candidates) {
      const double s = score(sw);
      if (best.empty() || s < best_score - 1e-12) {
        best_score = s;
        best = {sw};
      } else if (s < best_score + 1e-12) {
        best.push_back(sw);
      }
    }
    HGP_REQUIRE(!best.empty(), "sabre: no candidate swaps (disconnected device?)");
    const auto chosen = best[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(best.size()) - 1))];

    layout.swap_physical(chosen.first, chosen.second);
    decay[chosen.first] += kDecayRate;
    decay[chosen.second] += kDecayRate;
    out.ops.push_back(qc::Op{qc::GateKind::SWAP, {chosen.first, chosen.second}, {}});
    ++out.swaps;
    HGP_REQUIRE(++stall_guard < 10000, "sabre: routing did not converge");
  }
  flush_ready_ops();
  HGP_REQUIRE(cursor == circuit.ops().size(), "sabre: not all ops were routed");
  (void)nv;
  out.final_layout = std::move(layout);
  return out;
}

/// The physical qubits the first `count` entries of a fixed layout claim.
/// Each entry must be a distinct qubit below np: the routers index per-qubit
/// tables by them.
std::vector<bool> claim_fixed(const std::vector<std::size_t>& fixed, std::size_t count,
                              std::size_t np, const std::string& router) {
  std::vector<bool> used(np, false);
  for (std::size_t v = 0; v < count; ++v) {
    HGP_REQUIRE(fixed[v] < np && !used[fixed[v]],
                router + ": fixed layout entry " + std::to_string(fixed[v]) +
                    " is out of range or repeated");
    used[fixed[v]] = true;
  }
  return used;
}

Layout make_layout(std::size_t nv, std::size_t np, const std::vector<std::size_t>& v2p) {
  Layout l;
  l.v2p = v2p;
  l.p2v.assign(np, SIZE_MAX);
  for (std::size_t v = 0; v < nv; ++v) l.p2v[v2p[v]] = v;
  return l;
}

}  // namespace

SabreResult sabre_route(const qc::Circuit& circuit, const backend::CouplingMap& coupling,
                        Rng& rng, int layout_trials,
                        const std::vector<std::size_t>& fixed_layout) {
  const std::size_t nv = circuit.num_qubits();
  const std::size_t np = coupling.num_qubits();
  HGP_REQUIRE(nv <= np, "sabre_route: circuit wider than device");

  qc::Circuit wide(np);
  for (const qc::Op& op : circuit.ops()) wide.append(op);

  auto run_with = [&](const std::vector<std::size_t>& v2p) {
    return route(wide, coupling, make_layout(np, np, v2p), rng);
  };

  std::vector<std::size_t> init(np);
  if (!fixed_layout.empty()) {
    HGP_REQUIRE(fixed_layout.size() >= nv, "sabre_route: fixed layout too small");
    const std::size_t placed = std::min(fixed_layout.size(), np);
    std::vector<bool> used = claim_fixed(fixed_layout, placed, np, "sabre_route");
    // Place virtual qubits as requested; fill remaining identities greedily.
    std::copy_n(fixed_layout.begin(), placed, init.begin());
    std::size_t next_free = 0;
    for (std::size_t v = fixed_layout.size(); v < np; ++v) {
      while (next_free < np && used[next_free]) ++next_free;
      HGP_REQUIRE(next_free < np, "sabre_route: fixed layout collision");
      init[v] = next_free;
      used[next_free] = true;
    }
    // Routing is stochastic (tie-breaks): keep the best of a few attempts.
    RouteOutcome outcome = run_with(init);
    for (int trial = 1; trial < std::max(1, layout_trials); ++trial) {
      RouteOutcome alt = run_with(init);
      if (alt.swaps < outcome.swaps) outcome = std::move(alt);
    }
    SabreResult result;
    result.circuit = qc::Circuit(np);
    for (qc::Op& op : outcome.ops) result.circuit.append(std::move(op));
    result.initial_layout = init;
    result.final_layout.resize(np);
    for (std::size_t v = 0; v < np; ++v) result.final_layout[v] = outcome.final_layout.v2p[v];
    result.swap_count = outcome.swaps;
    return result;
  }

  // SABRE layout search: random starts refined by forward/backward sweeps;
  // keep the trial with the fewest SWAPs.
  const qc::Circuit reversed = [&] {
    qc::Circuit r(np);
    for (auto it = wide.ops().rbegin(); it != wide.ops().rend(); ++it) r.append(*it);
    return r;
  }();

  SabreResult best;
  bool have_best = false;
  for (int trial = 0; trial < layout_trials; ++trial) {
    std::vector<std::size_t> v2p(np);
    std::iota(v2p.begin(), v2p.end(), 0);
    rng.shuffle(v2p);
    // Forward-backward refinement.
    for (int sweep = 0; sweep < 2; ++sweep) {
      RouteOutcome fwd = route(wide, coupling, make_layout(np, np, v2p), rng);
      RouteOutcome bwd = route(reversed, coupling, fwd.final_layout, rng);
      v2p = bwd.final_layout.v2p;
    }
    RouteOutcome outcome = route(wide, coupling, make_layout(np, np, v2p), rng);
    if (!have_best || outcome.swaps < best.swap_count) {
      best.circuit = qc::Circuit(np);
      for (qc::Op& op : outcome.ops) best.circuit.append(std::move(op));
      best.initial_layout = v2p;
      best.final_layout.resize(np);
      for (std::size_t v = 0; v < np; ++v) best.final_layout[v] = outcome.final_layout.v2p[v];
      best.swap_count = outcome.swaps;
      have_best = true;
    }
  }
  return best;
}

SabreResult greedy_route(const qc::Circuit& circuit, const backend::CouplingMap& coupling,
                         const std::vector<std::size_t>& fixed_layout) {
  const std::size_t nv = circuit.num_qubits();
  const std::size_t np = coupling.num_qubits();
  HGP_REQUIRE(nv <= np, "greedy_route: circuit wider than device");
  HGP_REQUIRE(fixed_layout.size() >= nv, "greedy_route: need a full layout");

  Layout layout = make_layout(np, np, [&] {
    std::vector<std::size_t> v2p(np);
    std::vector<bool> used = claim_fixed(fixed_layout, nv, np, "greedy_route");
    std::copy_n(fixed_layout.begin(), nv, v2p.begin());
    std::size_t next_free = 0;
    for (std::size_t v = nv; v < np; ++v) {
      while (next_free < np && used[next_free]) ++next_free;
      HGP_REQUIRE(next_free < np, "greedy_route: fixed layout collision");
      v2p[v] = next_free;
      used[next_free] = true;
    }
    return v2p;
  }());

  SabreResult out;
  out.circuit = qc::Circuit(np);
  for (std::size_t v = 0; v < np; ++v) out.initial_layout.push_back(layout.v2p[v]);

  for (const qc::Op& op : circuit.ops()) {
    if (op.qubits.size() == 2) {
      std::size_t pa = layout.v2p[op.qubits[0]];
      const std::size_t pb = layout.v2p[op.qubits[1]];
      // Swap pa along a shortest path until adjacent to pb.
      while (!coupling.connected(pa, pb)) {
        std::size_t best = pa;
        for (std::size_t nb : coupling.neighbors(pa))
          if (coupling.distance(nb, pb) < coupling.distance(best, pb)) best = nb;
        HGP_REQUIRE(best != pa, "greedy_route: no progress (disconnected device?)");
        out.circuit.append(qc::Op{qc::GateKind::SWAP, {pa, best}, {}});
        layout.swap_physical(pa, best);
        ++out.swap_count;
        pa = best;
      }
    }
    qc::Op mapped = op;
    for (std::size_t& q : mapped.qubits) q = layout.v2p[q];
    out.circuit.append(std::move(mapped));
  }
  for (std::size_t v = 0; v < np; ++v) out.final_layout.push_back(layout.v2p[v]);
  return out;
}

}  // namespace hgp::transpile
