#pragma once

#include <cstddef>
#include <vector>

#include "core/compiled_block.hpp"

namespace hgp::core {

/// One block placed on the ASAP timeline in local qubit coordinates.
struct Scheduled {
  CompiledBlock block;
  std::vector<std::size_t> local;   // local qubit indices
  std::vector<int> idle_before_dt;  // per local qubit of the block
};

/// A program compiled down to the engine-independent representation: the
/// block timeline over the compressed (touched-only) register plus the
/// measurement maps. Every engine — scalar trajectory, lane-batched
/// trajectory, exact density — walks this same structure.
struct CompiledProgram {
  std::vector<Scheduled> timeline;
  std::vector<std::size_t> touched;        // sorted physical qubits
  std::vector<std::size_t> measure_phys;   // physical qubit per measured bit
  std::vector<std::size_t> measure_local;  // local qubit per measured bit
  std::vector<int> clock;                  // per-local end time
  /// Timeline slot each program op landed in (-1 for barriers/measures).
  /// Consecutive virtual blocks fold, so several ops may map to one slot —
  /// this is what lets Executor::bind re-lower a program against its
  /// compiled template: an op whose parameter values changed re-lowers
  /// exactly its slot, every other slot is copied.
  std::vector<long> op_slot;
  int makespan_dt = 0;
};

}  // namespace hgp::core
