#include "core/fusion.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hgp::core {

using la::CMat;

namespace {

/// Sorted union of two sorted index lists.
std::vector<std::size_t> support_union(const std::vector<std::size_t>& a,
                                       const std::vector<std::size_t>& b) {
  std::vector<std::size_t> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

std::vector<std::size_t> sorted(std::vector<std::size_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace

CMat embed_on_support(const CMat& u, const std::vector<std::size_t>& local,
                      const std::vector<std::size_t>& support) {
  const std::size_t k = local.size();
  const std::size_t m = support.size();
  HGP_REQUIRE(u.rows() == (std::size_t{1} << k), "embed_on_support: size mismatch");
  if (local == support) return u;  // already in the fused basis

  // pos[j] = support position of the constituent's sub-index bit j.
  std::size_t pos[8];
  std::uint64_t target_mask = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const auto it = std::lower_bound(support.begin(), support.end(), local[j]);
    HGP_REQUIRE(it != support.end() && *it == local[j],
                "embed_on_support: constituent qubit outside the support");
    pos[j] = static_cast<std::size_t>(it - support.begin());
    target_mask |= std::uint64_t{1} << pos[j];
  }

  const std::size_t dim = std::size_t{1} << m;
  CMat big = CMat::zeros(dim, dim);
  for (std::uint64_t r = 0; r < dim; ++r) {
    std::uint64_t tr = 0;
    for (std::size_t j = 0; j < k; ++j) tr |= ((r >> pos[j]) & 1u) << j;
    const std::uint64_t rest = r & ~target_mask;
    for (std::uint64_t ts = 0; ts < (std::uint64_t{1} << k); ++ts) {
      std::uint64_t s = rest;
      for (std::size_t j = 0; j < k; ++j) s |= ((ts >> j) & 1u) << pos[j];
      big(r, s) = u(tr, ts);
    }
  }
  return big;
}

CMat compose_fused(const FusePartView* parts, std::size_t n,
                   const std::vector<std::size_t>& support) {
  HGP_REQUIRE(n >= 1, "compose_fused: empty run");
  CMat acc = embed_on_support(*parts[0].u, *parts[0].local, support);
  const std::size_t m = support.size();
  const std::size_t dim = std::size_t{1} << m;
  for (std::size_t i = 1; i < n; ++i) {
    const CMat& u = *parts[i].u;
    const std::vector<std::size_t>& local = *parts[i].local;
    const std::size_t k = local.size();
    if (local == support) {  // full-width part: plain left-multiply
      acc = u * acc;
      continue;
    }
    // Narrow part: apply it to each column of the accumulator in place —
    // the left-multiply E(u)·acc without materializing the embedded matrix
    // (every evaluation bound to a template re-composes its re-lowered
    // slots through here).
    std::size_t pos[8];
    std::uint64_t target_mask = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const auto it = std::lower_bound(support.begin(), support.end(), local[j]);
      HGP_REQUIRE(it != support.end() && *it == local[j],
                  "compose_fused: constituent qubit outside the support");
      pos[j] = static_cast<std::size_t>(it - support.begin());
      target_mask |= std::uint64_t{1} << pos[j];
    }
    const std::size_t pdim = std::size_t{1} << k;
    la::cxd a[8];
    std::uint64_t idx[8];
    for (std::uint64_t base = 0; base < dim; ++base) {
      if ((base & target_mask) != 0) continue;
      for (std::uint64_t t = 0; t < pdim; ++t) {
        std::uint64_t r = base;
        for (std::size_t j = 0; j < k; ++j) r |= ((t >> j) & 1u) << pos[j];
        idx[t] = r;
      }
      for (std::size_t c = 0; c < dim; ++c) {
        for (std::uint64_t t = 0; t < pdim; ++t) a[t] = acc(idx[t], c);
        for (std::uint64_t r = 0; r < pdim; ++r) {
          la::cxd s = u(r, 0) * a[0];
          for (std::uint64_t t = 1; t < pdim; ++t) s += u(r, t) * a[t];
          acc(idx[r], c) = s;
        }
      }
    }
  }
  return acc;
}

std::string fused_run_key(const CompiledProgram& cp, const std::vector<std::size_t>& sources) {
  std::string key = "fuse[";
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const std::string& part_key = cp.timeline[sources[i]].block.structure_key;
    if (part_key.empty()) return std::string();
    if (i) key += ';';
    key += part_key;
  }
  key += ']';
  return key;
}

CompiledBlock compose_run(const CompiledProgram& cp, const std::vector<std::size_t>& sources,
                          const std::vector<std::size_t>& support, std::string key) {
  std::vector<FusePartView> parts;
  parts.reserve(sources.size());
  for (std::size_t src : sources) {
    const Scheduled& s = cp.timeline[src];
    parts.push_back(FusePartView{&s.block.unitary, &s.local});
  }
  CompiledBlock block;
  block.unitary = compose_fused(parts.data(), parts.size(), support);
  block.qubits.reserve(support.size());
  for (std::size_t lq : support) block.qubits.push_back(cp.touched[lq]);
  block.virtual_only = std::all_of(sources.begin(), sources.end(), [&](std::size_t src) {
    return cp.timeline[src].block.virtual_only;
  });
  block.structure_key = std::move(key);
  return block;
}

FusionResult fuse_program(const CompiledProgram& cp, const FusionOptions& opt,
                          serve::BlockCache* cache, const std::string& key_prefix,
                          std::uint64_t fingerprint) {
  FusionResult out;
  out.stats.ops_in = cp.timeline.size();

  // Carry everything but the timeline over unchanged: fusion only reshapes
  // which unitaries apply, not the register, measurement maps, or timing.
  out.program.touched = cp.touched;
  out.program.measure_phys = cp.measure_phys;
  out.program.measure_local = cp.measure_local;
  out.program.clock = cp.clock;
  out.program.makespan_dt = cp.makespan_dt;

  // Greedy order-preserving grouping: extend the current run while the
  // support union stays within the width bound, flush otherwise. No
  // commutation analysis — apply order is preserved exactly.
  std::vector<FusedSlot> groups;
  std::vector<std::vector<std::size_t>> group_support;
  if (opt.max_qubits >= 2) {
    for (std::size_t s = 0; s < cp.timeline.size(); ++s) {
      const std::vector<std::size_t> local = sorted(cp.timeline[s].local);
      if (!groups.empty()) {
        std::vector<std::size_t> u = support_union(group_support.back(), local);
        if (u.size() <= opt.max_qubits) {
          groups.back().sources.push_back(s);
          group_support.back() = std::move(u);
          continue;
        }
      }
      groups.push_back(FusedSlot{{s}});
      group_support.push_back(local);
    }
  } else {
    for (std::size_t s = 0; s < cp.timeline.size(); ++s) {
      groups.push_back(FusedSlot{{s}});
      group_support.push_back(sorted(cp.timeline[s].local));
    }
  }

  // Materialize fused slots and the original-slot -> fused-slot remap.
  std::vector<long> slot_remap(cp.timeline.size(), -1);
  out.program.timeline.reserve(groups.size());
  out.slots.reserve(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const FusedSlot& grp = groups[g];
    for (std::size_t src : grp.sources) slot_remap[src] = static_cast<long>(g);

    if (grp.sources.size() == 1) {
      out.program.timeline.push_back(cp.timeline[grp.sources[0]]);
      out.slots.push_back(grp);
      continue;
    }

    out.stats.merged_runs += 1;
    out.stats.max_run_len = std::max(out.stats.max_run_len, grp.sources.size());
    const std::vector<std::size_t>& support = group_support[g];

    // Cache key: the concatenation of the constituent structure keys under
    // the caller's backend-fingerprint prefix. Only usable when every
    // constituent was stamped; an unstamped part (shouldn't happen in the
    // executor pipeline) just composes uncached.
    std::string fuse_key = cache != nullptr ? fused_run_key(cp, grp.sources) : std::string();
    const bool keyed = !fuse_key.empty();

    Scheduled fused;
    fused.local = support;
    fused.idle_before_dt.assign(support.size(), 0);

    std::shared_ptr<const CompiledBlock> cached;
    if (keyed) cached = cache->find(key_prefix + fuse_key, serve::BlockKind::Fused);
    if (cached) {
      out.stats.cache_hits += 1;
      fused.block = *cached;
      fused.block.structure_key = fuse_key;
    } else {
      out.stats.cache_misses += 1;
      fused.block = compose_run(cp, grp.sources, support, fuse_key);
      if (keyed)
        cache->insert(key_prefix + fuse_key, fused.block, serve::BlockKind::Fused,
                      fingerprint);
    }
    out.program.timeline.push_back(std::move(fused));
    out.slots.push_back(grp);
  }
  out.stats.ops_out = out.program.timeline.size();

  // Remap op -> slot through the fused slots (the fused slot each op's block
  // landed in).
  out.program.op_slot.reserve(cp.op_slot.size());
  for (long s : cp.op_slot)
    out.program.op_slot.push_back(s < 0 ? -1 : slot_remap[static_cast<std::size_t>(s)]);
  return out;
}

}  // namespace hgp::core
