#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/compiled_program.hpp"
#include "serve/block_cache.hpp"
#include "transpile/pass_report.hpp"

namespace hgp::core {

/// Post-compile timeline block fusion: greedily merge adjacent Scheduled
/// blocks whose combined qubit support stays within a width bound into single
/// dense unitaries, so the engines dispatch one kernel where they used to
/// dispatch a run of small ones. Order-preserving — blocks are only merged
/// with their timeline neighbors, never commuted past each other — so the
/// fused state equals the unfused state up to FP rounding of the composed
/// products. The executor therefore only fuses deterministic-unitary paths
/// (noiseless sampling, expectation, candidate-lane batches); noisy runs keep
/// the original timeline so every depolarizing charge, idle-relaxation window
/// and RNG draw stays at its original position, bit for bit.

struct FusionOptions {
  /// Widest fused support. 2 = the default (runs of 1q blocks collapse to
  /// 2x2/4x4, 1q blocks absorb into 2q neighbors); 3 additionally fuses 2q
  /// neighborhoods into 8x8 through the dense 3q kernels. 0 or 1 disables
  /// the pass. Values above 3 are clamped by the executor (no wider kernel).
  std::size_t max_qubits = 2;
};

/// One fused timeline slot's provenance: the original timeline slots it
/// merged, in apply order. Single-element = the block passed through
/// untouched. This is what lets a program bound to a compiled template
/// route through the template's fused timeline: only the fused slots with a
/// re-lowered constituent are re-composed (compose_run).
struct FusedSlot {
  std::vector<std::size_t> sources;
};

struct FusionStats : transpile::PassStats {
  std::size_t cache_hits = 0;    // fused unitaries served from the BlockCache
  std::size_t cache_misses = 0;  // fused unitaries composed by matmul
};

struct FusionResult {
  /// The fused program: same touched register, measurement maps, clock and
  /// makespan as the input, shorter timeline, op_slot remapped to fused
  /// slots.
  CompiledProgram program;
  /// Parallel to program.timeline.
  std::vector<FusedSlot> slots;
  FusionStats stats;
};

/// Embed a k-qubit operator into the basis of `support` (sorted local qubit
/// indices): constituent sub-index bit j (qubit local[j]) maps to the support
/// position holding local[j]; support qubits outside `local` act as identity.
la::CMat embed_on_support(const la::CMat& u, const std::vector<std::size_t>& local,
                          const std::vector<std::size_t>& support);

/// A constituent of a fused product, by reference: `u` acts on `local`.
struct FusePartView {
  const la::CMat* u;
  const std::vector<std::size_t>* local;
};

/// Compose parts[n-1] * ... * parts[0] on `support` (timeline apply order:
/// parts[0] acts first). Deterministic — the bound-program recompose path
/// calls this with re-lowered constituent unitaries and must reproduce
/// bitwise what fusing that program's own full compile would produce.
la::CMat compose_fused(const FusePartView* parts, std::size_t n,
                       const std::vector<std::size_t>& support);

/// Structure key of a fused run of `cp`'s timeline slots `sources`:
/// "fuse[" + the constituent keys joined by ';' + "]", or "" when a
/// constituent carries no key.
std::string fused_run_key(const CompiledProgram& cp, const std::vector<std::size_t>& sources);

/// The fused block of a multi-slot run of `cp` (timeline slots `sources`, in
/// apply order) on the sorted local `support`: the composed unitary, the
/// support's physical qubits, virtual_only when every constituent is, and
/// the structure key `key`. fuse_program builds every uncached run with it.
CompiledBlock compose_run(const CompiledProgram& cp, const std::vector<std::size_t>& sources,
                          const std::vector<std::size_t>& support, std::string key);

/// Run the fusion pass. When `cache` is non-null, fused unitaries (from runs
/// whose constituents all carry structure keys) are looked up / inserted
/// under `key_prefix` + "fuse[" + joined constituent keys + "]" with
/// BlockKind::Fused, so repeated compiles — and, through the write-through
/// BlockStore, warm-started processes — skip the composition matmuls.
FusionResult fuse_program(const CompiledProgram& cp, const FusionOptions& opt,
                          serve::BlockCache* cache, const std::string& key_prefix,
                          std::uint64_t fingerprint);

}  // namespace hgp::core
