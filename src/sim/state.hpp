#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace hgp::sim {

/// Measurement counts keyed by the basis-state bitmask (bit q = outcome of
/// qubit q). Ordered map so printouts are deterministic.
using Counts = std::map<std::uint64_t, std::size_t>;

/// Render a bitmask as the conventional big-endian bitstring ("q_{n-1}..q_0").
std::string bits_to_string(std::uint64_t bits, std::size_t num_qubits);

/// Multinomial shot sampling from a (possibly un-normalized) probability
/// vector via inverse-CDF draws — the one sampler every state type and the
/// executor's exact-density engine share.
Counts sample_from_probabilities(const std::vector<double>& p, std::size_t shots, Rng& rng);

/// Run a bound circuit on a state type with `num_qubits()` and
/// `apply_matrix(u, qubits)` (Statevector, DensityMatrix). Barrier/I/Delay
/// are no-ops; Measure is rejected — sample the probabilities instead.
template <class State>
void apply_circuit(State& state, const qc::Circuit& circuit) {
  HGP_REQUIRE(circuit.num_qubits() == state.num_qubits(), "apply_circuit: width mismatch");
  for (const qc::Op& op : circuit.ops()) {
    if (op.kind == qc::GateKind::Barrier || op.kind == qc::GateKind::I ||
        op.kind == qc::GateKind::Delay)
      continue;
    HGP_REQUIRE(op.kind != qc::GateKind::Measure,
                "apply_circuit: sample the probabilities for measurement");
    state.apply_matrix(qc::gate_matrix(op.kind, op.constant_params()), op.qubits);
  }
}

}  // namespace hgp::sim
