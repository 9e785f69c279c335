#include "core/executor.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "common/lane_streams.hpp"
#include "core/fusion.hpp"
#include "mitigation/cvar.hpp"
#include "noise/channels.hpp"
#include "obs/trace.hpp"
#include "pulsesim/simulator.hpp"
#include "sim/kernel_structure.hpp"

namespace hgp::core {

using la::CMat;

namespace {

/// The executor's process-wide "executor.*" telemetry series, resolved from
/// the registry once. Stage histograms are fed by RAII spans (so the same
/// event lands in the run-lifecycle trace); the Kraus-branch and trunk
/// counters are flushed once per shot batch, never per draw, keeping the hot
/// loop clean.
struct ExecMetrics {
  obs::Counter& shots;
  obs::Counter& lane_groups;
  obs::Counter& kraus_jumps;
  obs::Counter& dephase_flips;
  obs::Counter& pauli_charges;
  /// Shots that never branched (terminated straight off the batch trunk),
  /// and pool passes that resumed from a trunk step after a full pool.
  obs::Counter& trunk_shots;
  obs::Counter& pool_resumes;
  obs::Counter& blocks_compiled;
  obs::Counter& expectation_batches;
  obs::Counter& fusion_blocks_in;
  obs::Counter& fusion_blocks_out;
  obs::Counter& fusion_runs;
  obs::Gauge& trajectory_shots_per_s;
  obs::Gauge& lane_groups_per_s;
  obs::Histogram& run_ns;
  obs::Histogram& compile_ns;
  obs::Histogram& block_compile_ns;
  obs::Histogram& lane_evolve_ns;
  obs::Histogram& sample_ns;
  obs::Histogram& aggregate_ns;
  /// Lengths of the merged runs (constituents per fused slot, >= 2 only);
  /// explicit bounds because run lengths live far below the default
  /// log-spaced nanosecond buckets.
  obs::Histogram& fusion_run_len;

  static ExecMetrics& get() {
    static ExecMetrics m = [] {
      obs::Registry& reg = obs::Registry::global();
      return ExecMetrics{reg.counter("executor.shots"),
                         reg.counter("executor.lane_groups"),
                         reg.counter("executor.kraus_jumps"),
                         reg.counter("executor.dephase_flips"),
                         reg.counter("executor.pauli_charges"),
                         reg.counter("executor.trunk_shots"),
                         reg.counter("executor.pool_resumes"),
                         reg.counter("executor.blocks_compiled"),
                         reg.counter("executor.expectation_batches"),
                         reg.counter("executor.fusion.blocks_in"),
                         reg.counter("executor.fusion.blocks_out"),
                         reg.counter("executor.fusion.runs"),
                         reg.gauge("executor.trajectory_shots_per_s"),
                         reg.gauge("executor.lane_groups_per_s"),
                         reg.histogram("executor.run_ns"),
                         reg.histogram("executor.compile_ns"),
                         reg.histogram("executor.block_compile_ns"),
                         reg.histogram("executor.lane_evolve_ns"),
                         reg.histogram("executor.sample_ns"),
                         reg.histogram("executor.aggregate_ns"),
                         reg.histogram("executor.fusion.run_len",
                                       {1, 2, 3, 4, 6, 8, 12, 16})};
    }();
    return m;
  }
};

/// Shots per work unit of the parallel trajectory engine. The batch grid is
/// fixed (independent of thread count) and each batch draws from its own
/// child RNG stream, so the merged counts are bit-identical no matter how
/// many workers run or how the OS schedules them.
constexpr std::size_t kShotsPerBatch = 256;

/// Virtual gates are the single-qubit diagonals — realized as Z-frame
/// updates, zero duration, no pulse. Same diagonal vocabulary as the
/// transpiler's commutation scans (qc::gate_is_diagonal); the 2q diagonals
/// (CZ, RZZ) are excluded because they do cost a cross-resonance pulse.
bool is_virtual_gate(qc::GateKind k) {
  return qc::gate_is_diagonal(k) && qc::gate_arity(k) == 1;
}

/// Charge one evaluation's fusion pass to the executor.fusion.* series.
void record_fusion(const FusionResult& fr) {
  ExecMetrics& em = ExecMetrics::get();
  em.fusion_blocks_in.inc(fr.stats.ops_in);
  em.fusion_blocks_out.inc(fr.stats.ops_out);
  em.fusion_runs.inc(fr.stats.merged_runs);
  for (const FusedSlot& s : fr.slots)
    if (s.sources.size() >= 2) em.fusion_run_len.record(s.sources.size());
}

/// Run the post-compile fusion pass for a deterministic-unitary engine path.
/// A disabled width (0/1) still routes through fuse_program's pass-through
/// mode so the engines walk one code path, but touches no fused cache
/// entries.
FusionResult fuse_for_engine(const CompiledProgram& cp, std::size_t width,
                             serve::BlockCache* cache, const std::string& key_prefix,
                             std::uint64_t fingerprint) {
  FusionOptions opt;
  opt.max_qubits = width;
  return fuse_program(cp, opt, width >= 2 ? cache : nullptr, key_prefix, fingerprint);
}

/// Single source of truth for the schedule-derived block bookkeeping shared
/// by the gate and pulse lowering paths: timeline duration plus the noise
/// charge units (drive-channel and control-channel play counts).
void fill_schedule_metadata(CompiledBlock& block, const pulse::Schedule& sched) {
  block.duration_dt = sched.duration();
  block.drive_plays = 0;
  block.cr_halves = 0;
  for (const pulse::TimedInstruction& ti : sched.instructions()) {
    if (const auto* play = std::get_if<pulse::Play>(&ti.inst)) {
      if (play->channel.type == pulse::ChannelType::Drive) ++block.drive_plays;
      if (play->channel.type == pulse::ChannelType::Control) ++block.cr_halves;
    }
  }
}

bool has_frequency_instruction(const pulse::Schedule& sched) {
  for (const pulse::TimedInstruction& ti : sched.instructions())
    if (std::holds_alternative<pulse::ShiftFrequency>(ti.inst) ||
        std::holds_alternative<pulse::SetFrequency>(ti.inst))
      return true;
  return false;
}

using sim::detail::is_diagonal2;

/// The canonical noise-timeline walk of every executor engine: idle
/// relaxation + frame drift before each block, the foldable virtual-diagonal
/// shortcut, block application, per-block relaxation, and the drive/CR
/// depolarizing charges, ending with the idle-to-readout relaxation. The
/// scalar trajectory, lane-batched trajectory, and exact-density engines all
/// traverse through here, so the schedule and charge policy have a single
/// source of truth; only the kernels differ.
///   relax(lq, duration_dt), drift(lq, duration_dt),
///   phase(lq, ratio, unitary)  — 1q virtual diagonal block; trajectory
///     engines drop the global phase and multiply by ratio, the density
///     engine applies the full unitary,
///   apply(unitary, locals), depolarize(qubits, num_qubits, p) — the charged
///     qubits as a pointer into the block's own qubit list, so a charge
///     never builds a container
template <typename Relax, typename Drift, typename Phase, typename Apply, typename Depol>
void walk_noise_timeline(const CompiledProgram& cp, double dep1, double dep2,
                         int readout_dt, Relax&& relax, Drift&& drift, Phase&& phase,
                         Apply&& apply, Depol&& depolarize) {
  for (const Scheduled& s : cp.timeline) {
    for (std::size_t i = 0; i < s.local.size(); ++i) {
      relax(s.local[i], s.idle_before_dt[i]);
      drift(s.local[i], s.idle_before_dt[i]);
    }
    if (s.block.virtual_only && s.local.size() == 1 && is_diagonal2(s.block.unitary)) {
      // Virtual Z-frame blocks are diagonal: half-pass, global phase dropped.
      phase(s.local[0], s.block.unitary(1, 1) / s.block.unitary(0, 0), s.block.unitary);
      continue;
    }
    apply(s.block.unitary, s.local);
    if (s.block.virtual_only) continue;
    for (std::size_t lq : s.local) relax(lq, s.block.duration_dt);
    if (s.block.explicit_idle) {
      for (std::size_t lq : s.local) drift(lq, s.block.duration_dt);
      continue;
    }
    if (s.block.drive_plays > 0) {
      // Charge 1q depolarizing per drive pulse, spread over the block's
      // qubits (exact for 1q blocks; even split for multi-qubit blocks).
      const double p = dep1 * static_cast<double>(s.block.drive_plays) /
                       static_cast<double>(s.local.size());
      for (const std::size_t& lq : s.local) depolarize(&lq, std::size_t{1}, p);
    }
    if (s.block.cr_halves > 0 && s.local.size() >= 2) {
      const double p = dep2 * static_cast<double>(s.block.cr_halves) / 2.0;
      depolarize(s.local.data(), std::size_t{2}, p);
    }
  }
  // Idle to the end of the circuit, then decohere through readout.
  for (std::size_t lq = 0; lq < cp.touched.size(); ++lq)
    relax(lq, cp.makespan_dt - cp.clock[lq] + readout_dt);
}

/// The trajectory noise walk of a compiled program, recorded once per run
/// from walk_noise_timeline: the batch walker resumes at any step by index,
/// and relaxation constants and drift phases are computed once per (slot,
/// qubit) with the same function and arguments as the per-shot walk. A step
/// is its kind, its qubits and an index into that kind's table, so the
/// recording stays a few kilobytes per program.
struct NoiseWalk {
  enum class Kind : std::uint8_t { Apply, Phase, Relax, Depolarize };
  struct Step {
    Kind kind = Kind::Apply;
    /// Depolarize charges q[0 .. nq); Phase and Relax act on q[0].
    std::uint8_t nq = 0;
    std::array<std::uint8_t, 2> q{};
    /// Index into the table of the step's kind.
    std::uint32_t arg = 0;
  };
  /// Block application; both point into the recorded CompiledProgram.
  struct Apply {
    const la::CMat* unitary;
    const std::vector<std::size_t>* locals;
  };
  std::vector<Step> steps;
  std::vector<Apply> applies;
  std::vector<la::cxd> ratios;
  std::vector<noise::RelaxationConstants> relax;
  std::vector<double> dep_p;
};

/// Record the trajectory noise walk of `cp`, which must outlive the result.
NoiseWalk record_noise_walk(const CompiledProgram& cp, const noise::NoiseModel& nm,
                            int readout_dt, bool coherent_noise) {
  NoiseWalk w;
  auto add = [&](NoiseWalk::Kind kind, std::size_t arg, std::size_t lq) {
    NoiseWalk::Step st;
    st.kind = kind;
    st.q[0] = static_cast<std::uint8_t>(lq);
    st.arg = static_cast<std::uint32_t>(arg);
    w.steps.push_back(st);
  };
  auto phase = [&](std::size_t lq, la::cxd ratio) {
    add(NoiseWalk::Kind::Phase, w.ratios.size(), lq);
    w.ratios.push_back(ratio);
  };
  auto relax = [&](std::size_t lq, int duration_dt) {
    if (duration_dt <= 0) return;
    const noise::QubitNoise& qn = nm.qubits[cp.touched[lq]];
    add(NoiseWalk::Kind::Relax, w.relax.size(), lq);
    w.relax.push_back(
        noise::relaxation_constants(qn.t1_us, qn.t2_us, duration_dt * pulse::kDtNs));
  };
  auto idle_drift = [&](std::size_t lq, int duration_dt) {
    if (duration_dt <= 0 || !coherent_noise) return;
    const double drift = nm.qubits[cp.touched[lq]].freq_drift_ghz;
    if (drift == 0.0) return;
    const double angle = 2.0 * la::kPi * drift * duration_dt * pulse::kDtNs;
    phase(lq, std::polar(1.0, angle));
  };
  walk_noise_timeline(
      cp, nm.dep_per_1q_pulse, nm.dep_per_2q_block, readout_dt, relax, idle_drift,
      [&](std::size_t lq, la::cxd ratio, const la::CMat&) { phase(lq, ratio); },
      [&](const la::CMat& u, const std::vector<std::size_t>& locals) {
        add(NoiseWalk::Kind::Apply, w.applies.size(), 0);
        w.applies.push_back({&u, &locals});
      },
      [&](const std::size_t* qubits, std::size_t n, double p) {
        add(NoiseWalk::Kind::Depolarize, w.dep_p.size(), qubits[0]);
        NoiseWalk::Step& st = w.steps.back();
        st.nq = static_cast<std::uint8_t>(n);
        if (n > 1) st.q[1] = static_cast<std::uint8_t>(qubits[1]);
        w.dep_p.push_back(p);
      });
  return w;
}

/// The shot-batch walker of the trajectory engine (shot_batch_lanes >= 2).
///
/// Until a shot takes its first stochastic branch (a jump, a phase flip or a
/// Pauli pick) its amplitudes are bit-identical to those of every other shot
/// that has not branched yet. One walk over a shot batch therefore keeps:
///  - the trunk: one single-lane state plus its squared norm, the state every
///    unbranched shot shares, evolved once per step with the lane kernels;
///  - the pool: up to `lanes` slots. A shot gets a slot only when it
///    branches: the pre-step trunk is copied in and the shot takes its
///    branch in the pool's per-slot step;
///  - a resume point, for a branching shot that finds the pool full: the
///    trunk stays frozen before that step and the still-unbranched shots
///    keep their draws of it. The full pool runs to the end and terminates,
///    then a new pool resumes from that step, placing the shots those draws
///    branch without drawing again.
/// Unbranched shots still make every draw from their own child stream in the
/// scalar per-shot order and decide jumps against the trunk's weight and
/// |1>-mass, so each shot draws, branches and evolves exactly as in the
/// scalar engine. State memory is the pool plus the one trunk lane.
class BatchWalker {
 public:
  BatchWalker(const NoiseWalk& walk, std::size_t num_qubits, std::size_t lanes)
      : trunk(num_qubits, 1),
        pool(num_qubits, lanes),
        active(lanes, 0),
        slot_shot(lanes, 0),
        weight(lanes, 1.0),
        walk_(walk),
        lanes_(lanes),
        x_(lanes),
        m1_(lanes),
        scale1_(lanes),
        precheck_(lanes),
        flip_(lanes),
        jump_(lanes),
        codes_(lanes),
        picks_(lanes) {
    slot_rng.resize(lanes);
  }

  std::size_t lanes() const { return lanes_; }

  /// Walk shots first .. first+count-1 of the child-stream grid of `base`.
  /// pool_done(*this) runs after every pool pass (slots with active[l] hold
  /// terminal states, weight[l] their squared norms, slot_rng[l] their
  /// streams); trunk_done(*this) runs once at the end for the shots that
  /// never branched (free_shot / free_rng, all sharing `trunk` and
  /// trunk_weight). Returns the number of pool passes.
  template <typename PoolDone, typename TrunkDone>
  std::size_t walk(std::uint64_t base, std::size_t first, std::size_t count,
                   const CancelToken* tok, PoolDone&& pool_done, TrunkDone&& trunk_done) {
    trunk.reset();
    trunk_weight = 1.0;
    free_shot.clear();
    free_rng.resize(count);
    for (std::size_t s = 0; s < count; ++s) {
      free_shot.push_back(s);
      free_rng.set(s, Rng::child(base, first + s));
    }
    fx_.resize(count);
    fpick_.resize(count);
    fprecheck_.resize(count);
    fflip_.resize(count);
    branch_.resize(count);

    // Kraus-branch telemetry: plain locals bumped inside the branch
    // decisions (no atomics, no clock), flushed once per batch.
    n_jumps_ = n_flips_ = n_pauli_ = 0;
    std::size_t passes = 0, start = 0;
    redo_ = walk_.steps.size();
    ExecMetrics& em = ExecMetrics::get();
    for (;;) {
      if (tok) tok->check();
      std::fill(active.begin(), active.end(), 0);
      n_active_ = 0;
      frozen_ = false;
      obs::Span evolve_span("executor.lane_evolve", &em.lane_evolve_ns);
      for (std::size_t k = start; k < walk_.steps.size(); ++k) step(k);
      evolve_span.finish();
      ++passes;
      if (n_active_ != 0) pool_done(*this);
      if (!frozen_) break;
      start = redo_ = resume_;
    }
    if (!free_shot.empty()) trunk_done(*this);

    if (obs::enabled()) {
      if (n_jumps_) em.kraus_jumps.inc(n_jumps_);
      if (n_flips_) em.dephase_flips.inc(n_flips_);
      if (n_pauli_) em.pauli_charges.inc(n_pauli_);
      if (!free_shot.empty()) em.trunk_shots.inc(free_shot.size());
      if (passes > 1) em.pool_resumes.inc(passes - 1);
    }
    return passes;
  }

  sim::BatchedStatevector trunk;
  double trunk_weight = 1.0;
  /// Batch positions (ascending) and streams of the shots still on the trunk.
  std::vector<std::size_t> free_shot;
  LaneStreams free_rng;
  sim::BatchedStatevector pool;
  std::vector<std::uint8_t> active;
  std::vector<std::size_t> slot_shot;
  LaneStreams slot_rng;
  /// Squared norms of the (deferred-normalization) slot states.
  std::vector<double> weight;

 private:
  void step(std::size_t k) {
    const NoiseWalk::Step& st = walk_.steps[k];
    switch (st.kind) {
      case NoiseWalk::Kind::Apply: {
        const NoiseWalk::Apply& a = walk_.applies[st.arg];
        if (n_active_ != 0) pool.apply_matrix(*a.unitary, *a.locals);
        if (!frozen_) trunk.apply_matrix(*a.unitary, *a.locals);
        return;
      }
      case NoiseWalk::Kind::Phase:
        if (n_active_ != 0) pool.apply_phase_ratio(st.q[0], walk_.ratios[st.arg]);
        if (!frozen_) trunk.apply_phase_ratio(st.q[0], walk_.ratios[st.arg]);
        return;
      case NoiseWalk::Kind::Relax:
        relax(walk_.relax[st.arg], st.q[0], k);
        return;
      case NoiseWalk::Kind::Depolarize:
        depolarize(st, walk_.dep_p[st.arg], k);
        return;
    }
  }

  /// Move the unbranched shots with branch_[i] set into free pool slots, in
  /// shot order; take(i, slot) hands over the step's draws. When they do not
  /// all fit, the trunk freezes before step k and the rest of the unbranched
  /// shots keep their step-k draws and branch flags for the resumed pass.
  template <typename Take>
  void place(std::size_t k, std::size_t n_branch, Take&& take) {
    const std::size_t room = lanes_ - n_active_;
    const bool overflow = n_branch > room;
    std::size_t kept = 0, placed = 0, slot = 0;
    for (std::size_t i = 0; i < free_shot.size(); ++i) {
      if (branch_[i] && placed < room) {
        while (active[slot]) ++slot;
        pool.copy_lane_from(trunk, 0, slot);
        weight[slot] = trunk_weight;
        slot_rng.copy(slot, free_rng, i);
        slot_shot[slot] = free_shot[i];
        active[slot] = 1;
        take(i, slot);
        ++placed;
        continue;
      }
      free_shot[kept] = free_shot[i];
      free_rng.copy(kept, free_rng, i);
      if (overflow) {
        fx_[kept] = fx_[i];
        fpick_[kept] = fpick_[i];
        fprecheck_[kept] = fprecheck_[i];
        fflip_[kept] = fflip_[i];
        branch_[kept] = branch_[i];
      }
      ++kept;
    }
    free_shot.resize(kept);
    free_rng.resize(kept);
    n_active_ += placed;
    if (overflow) {
      frozen_ = true;
      resume_ = k;
    }
  }

  std::size_t count_branches() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < free_shot.size(); ++i) n += branch_[i];
    return n;
  }

  void relax(const noise::RelaxationConstants& rc, std::size_t lq, std::size_t k) {
    const bool damping = rc.gamma > 0.0;
    // Draw phase: every stream makes the scalar per-shot draws of this step —
    // one uniform for the damping branch when gamma > 0, then one bernoulli
    // for dephasing — in two bulk passes (all uniforms, then all dephasing
    // draws). The jump shortcut is the scalar one: u >= gamma * weight
    // settles "no jump" without the mass; only shots inside the window need
    // m1 before deciding.
    if (damping) {
      slot_rng.uniform(lanes_, active.data(), x_.data());
      for (std::size_t l = 0; l < lanes_; ++l) {
        x_[l] *= weight[l];
        precheck_[l] = active[l] && x_[l] < rc.gamma * weight[l];
      }
    } else {
      std::fill(precheck_.begin(), precheck_.end(), 0);
    }
    draw_flips(rc, slot_rng, lanes_, active.data(), flip_.data());
    if (!frozen_) {
      if (k != redo_) {
        const std::size_t nf = free_shot.size();
        const double w = trunk_weight;
        bool any_precheck = false;
        if (damping) {
          free_rng.uniform(nf, nullptr, fx_.data());
          for (std::size_t i = 0; i < nf; ++i) {
            fx_[i] *= w;
            fprecheck_[i] = fx_[i] < rc.gamma * w;
            any_precheck |= fprecheck_[i] != 0;
          }
        } else {
          std::fill_n(fprecheck_.begin(), nf, 0);
        }
        draw_flips(rc, free_rng, nf, nullptr, fflip_.data());
        double m1 = 0.0;
        if (any_precheck) trunk.masses_one(lq, &m1);
        for (std::size_t i = 0; i < free_shot.size(); ++i)
          branch_[i] = fflip_[i] || (fprecheck_[i] && fx_[i] < rc.gamma * m1);
      }
      const std::size_t n_branch = count_branches();
      if (n_branch != 0)
        place(k, n_branch, [&](std::size_t i, std::size_t l) {
          x_[l] = fx_[i];
          precheck_[l] = fprecheck_[i];
          flip_[l] = fflip_[i];
        });
    }
    if (n_active_ != 0) relax_pool(rc, lq);
    if (!frozen_ && damping) {
      // The trunk takes the no-branch step: damp |1>, measuring its mass.
      double m1 = 0.0;
      const double scale = rc.damp;
      trunk.fused_mass_damp(lq, &scale, &m1);
      trunk_weight -= rc.gamma * m1;
    }
  }

  /// flip[i] = the dephasing draw of stream i (when rc.dephase; no draw and
  /// no flip otherwise).
  static void draw_flips(const noise::RelaxationConstants& rc, LaneStreams& streams,
                         std::size_t n, const std::uint8_t* mask, std::uint8_t* flip) {
    if (rc.dephase)
      streams.bernoulli(n, rc.p_z, mask, flip);
    else
      std::fill_n(flip, n, 0);
  }

  /// The pool's relaxation step on its drawn x_ / precheck_ / flip_; empty
  /// slots carry no precheck or flip and are merely damped.
  void relax_pool(const noise::RelaxationConstants& rc, std::size_t lq) {
    bool any_precheck = false, any_flip = false;
    for (std::size_t l = 0; l < lanes_; ++l) {
      any_precheck |= precheck_[l] != 0;
      if (flip_[l]) {
        any_flip = true;
        ++n_flips_;
      }
    }
    if (rc.gamma > 0.0) {
      if (!any_precheck) {
        // No slot can jump: fused mass + damp pass (dephasing sign folded —
        // amp * (-damp) rounds identically to -(amp * damp)).
        for (std::size_t l = 0; l < lanes_; ++l) scale1_[l] = flip_[l] ? -rc.damp : rc.damp;
        pool.fused_mass_damp(lq, scale1_.data(), m1_.data());
        for (std::size_t l = 0; l < lanes_; ++l)
          if (active[l]) weight[l] -= rc.gamma * m1_[l];
      } else {
        pool.masses_one(lq, m1_.data());
        for (std::size_t l = 0; l < lanes_; ++l) {
          jump_[l] = precheck_[l] && x_[l] < rc.gamma * m1_[l];
          if (jump_[l]) {
            scale1_[l] = flip_[l] ? -1.0 : 1.0;  // the flip acts on the zeroed |1>
            weight[l] = m1_[l];
            ++n_jumps_;
          } else {
            scale1_[l] = flip_[l] ? -rc.damp : rc.damp;
            if (active[l]) weight[l] -= rc.gamma * m1_[l];
          }
        }
        pool.jump_and_scale(lq, jump_.data(), scale1_.data());
      }
    } else if (any_flip) {
      std::fill(jump_.begin(), jump_.end(), 0);
      for (std::size_t l = 0; l < lanes_; ++l) scale1_[l] = flip_[l] ? -1.0 : 1.0;
      pool.jump_and_scale(lq, jump_.data(), scale1_.data());
    }
  }

  // Depolarizing charges: every stream draws its Pauli pick first, then the
  // pool walks the charged qubits once. A qubit where two or more slots drew
  // a non-identity Pauli takes the grouped one-sweep Pauli pass; a lone
  // charged slot keeps the strided per-lane apply. Both are bitwise
  // identical to the per-shot path, so the grouping is purely a throughput
  // choice.
  void depolarize(const NoiseWalk::Step& st, double p, std::size_t k) {
    noise::sample_depolarizing(st.nq, p, slot_rng, lanes_, active.data(), picks_.data());
    if (!frozen_) {
      if (k != redo_) {
        const std::size_t nf = free_shot.size();
        noise::sample_depolarizing(st.nq, p, free_rng, nf, nullptr, fpick_.data());
        for (std::size_t i = 0; i < nf; ++i) branch_[i] = fpick_[i] != 0;
      }
      const std::size_t n_branch = count_branches();
      if (n_branch != 0)
        place(k, n_branch, [&](std::size_t i, std::size_t l) { picks_[l] = fpick_[i]; });
    }
    if (n_active_ == 0) return;
    std::size_t charged = 0;
    for (std::size_t l = 0; l < lanes_; ++l) charged += picks_[l] != 0;
    if (charged == 0) return;
    n_pauli_ += charged;
    for (std::size_t i = 0; i < st.nq; ++i) {
      std::size_t hits = 0, last = 0;
      for (std::size_t l = 0; l < lanes_; ++l) {
        codes_[l] = static_cast<std::uint8_t>((picks_[l] >> (2 * i)) & 3);
        if (codes_[l] != 0) {
          ++hits;
          last = l;
        }
      }
      if (hits == 0) continue;
      if (hits == 1)
        pool.apply_matrix_lane(la::pauli_matrix(static_cast<la::Pauli>(codes_[last])), st.q[i],
                               last);
      else
        pool.apply_pauli_lanes(st.q[i], codes_.data());
    }
  }

  const NoiseWalk& walk_;
  const std::size_t lanes_;
  std::size_t n_active_ = 0;
  bool frozen_ = false;
  /// The step the trunk froze before, and the step of the current pass
  /// whose unbranched draws were already made (steps.size() when none).
  std::size_t resume_ = 0, redo_ = 0;
  std::uint64_t n_jumps_ = 0, n_flips_ = 0, n_pauli_ = 0;
  // Per-slot draws of the current step.
  std::vector<double> x_, m1_, scale1_;
  std::vector<std::uint8_t> precheck_, flip_, jump_, codes_, picks_;
  // Per-unbranched-shot draws and branch flags of the current step, kept
  // across a pool overflow for the resumed pass.
  std::vector<double> fx_;
  std::vector<std::uint8_t> fpick_, fprecheck_, fflip_, branch_;
};

/// Readout confusion on one sampled outcome: one bernoulli per measured bit
/// from the shot's stream. Shared by the scalar and lane-batched engines.
std::uint64_t apply_readout_flips(std::uint64_t bits, const CompiledProgram& cp,
                                  const noise::NoiseModel& nm, Rng& rng) {
  for (std::size_t i = 0; i < cp.measure_phys.size(); ++i) {
    const std::size_t lq = cp.measure_local[i];
    const bool one = (bits >> lq) & 1;
    const noise::ReadoutError& re = nm.qubits[cp.measure_phys[i]].readout;
    const double p_flip = one ? re.p0_given_1 : re.p1_given_0;
    if (rng.bernoulli(p_flip)) bits ^= (std::uint64_t{1} << lq);
  }
  return bits;
}

/// Readout confusion on an outcome distribution over the measured bits: the
/// per-bit stochastic 2x2 map, applied bit by bit in place. Shared by the
/// exact density distribution and the trajectory CVaR tail.
void fold_readout_confusion(std::vector<double>& p, const CompiledProgram& cp,
                            const noise::NoiseModel& nm) {
  for (std::size_t i = 0; i < cp.measure_phys.size(); ++i) {
    const noise::ReadoutError& re = nm.qubits[cp.measure_phys[i]].readout;
    const std::uint64_t bit = std::uint64_t{1} << i;
    for (std::uint64_t idx = 0; idx < p.size(); ++idx) {
      if (idx & bit) continue;
      const double p0 = p[idx], p1 = p[idx | bit];
      p[idx] = (1.0 - re.p1_given_0) * p0 + re.p0_given_1 * p1;
      p[idx | bit] = re.p1_given_0 * p0 + (1.0 - re.p0_given_1) * p1;
    }
  }
}

/// Fixed-grid batch scheduler shared by every trajectory reduction: run
/// fn(b) over the batch grid either serially or on an atomic work-stealing
/// pool. The grid itself never depends on the thread count, so results
/// merged in batch order are identical for every value of num_threads.
template <typename Fn>
void for_each_batch(std::size_t num_batches, std::size_t num_threads, Fn&& fn) {
  std::size_t threads =
      num_threads ? num_threads : std::max(1u, std::thread::hardware_concurrency());
  threads = std::min(threads, num_batches);
  if (threads <= 1) {
    for (std::size_t b = 0; b < num_batches; ++b) fn(b);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      try {
        for (std::size_t b = next.fetch_add(1); b < num_batches; b = next.fetch_add(1))
          fn(b);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (std::thread& th : pool) th.join();
  if (first_error) std::rethrow_exception(first_error);
}

/// Binding equality: two ops share a timeline structure when they agree on
/// everything except parameter values, and share a block unitary when the
/// parameter values agree bit for bit too.
bool same_op_structure(const ExecOp& a, const ExecOp& b) {
  if (a.is_pulse != b.is_pulse) return false;
  if (a.is_pulse) return a.qubits == b.qubits;
  return a.gate.kind == b.gate.kind && a.gate.qubits == b.gate.qubits &&
         a.gate.params.size() == b.gate.params.size();
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_op_unitary(const ExecOp& a, const ExecOp& b) {
  if (a.is_pulse) return a.schedule == b.schedule;
  for (std::size_t i = 0; i < a.gate.params.size(); ++i) {
    const qc::Param& pa = a.gate.params[i];
    const qc::Param& pb = b.gate.params[i];
    if (pa.index() != pb.index() || !same_bits(pa.scale(), pb.scale()) ||
        !same_bits(pa.offset(), pb.offset()))
      return false;
  }
  return true;
}

/// FNV-1a over a program's structure: what same_op_structure compares, the
/// measure map, and the durations that fix the timeline (pulse schedules,
/// explicit delays), so programs differing only in parameter values share
/// one template.
std::uint64_t structure_hash(const Program& program) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(program.ops.size());
  for (const ExecOp& op : program.ops) {
    mix(op.is_pulse);
    const std::vector<std::size_t>& qubits = op.is_pulse ? op.qubits : op.gate.qubits;
    mix(qubits.size());
    for (std::size_t q : qubits) mix(q);
    if (op.is_pulse) {
      mix(static_cast<std::uint64_t>(op.schedule.duration()));
      continue;
    }
    mix(static_cast<std::uint64_t>(op.gate.kind));
    mix(op.gate.params.size());
    if (op.gate.kind == qc::GateKind::Delay)
      mix(static_cast<std::uint64_t>(op.gate.params[0].value()));
  }
  mix(program.measure_qubits.size());
  for (std::size_t q : program.measure_qubits) mix(q);
  return h;
}

/// The timing and noise-charge metadata the timeline and the noise walk
/// read from a block; a re-lowered slot must keep its template's.
bool same_block_metadata(const CompiledBlock& a, const CompiledBlock& b) {
  return a.duration_dt == b.duration_dt && a.drive_plays == b.drive_plays &&
         a.cr_halves == b.cr_halves && a.virtual_only == b.virtual_only &&
         a.explicit_idle == b.explicit_idle;
}

}  // namespace

Engine engine_from_name(const std::string& name) {
  if (name == "trajectory") return Engine::Trajectory;
  if (name == "density" || name == "exact_density") return Engine::ExactDensity;
  throw Error("engine_from_name: unknown engine '" + name +
              "' (expected 'trajectory' or 'density')");
}

const std::string& engine_name(Engine engine) {
  static const std::string traj = "trajectory";
  static const std::string dens = "density";
  return engine == Engine::Trajectory ? traj : dens;
}

ObjectiveKind objective_from_name(const std::string& name) {
  if (name == "sample") return ObjectiveKind::Sample;
  if (name == "expectation") return ObjectiveKind::Expectation;
  if (name == "cvar") return ObjectiveKind::CVaR;
  throw Error("objective_from_name: unknown objective '" + name +
              "' (expected 'sample', 'expectation', or 'cvar')");
}

const std::string& objective_name(ObjectiveKind kind) {
  static const std::string sample = "sample";
  static const std::string expectation = "expectation";
  static const std::string cvar = "cvar";
  switch (kind) {
    case ObjectiveKind::Sample:
      return sample;
    case ObjectiveKind::Expectation:
      return expectation;
    default:
      return cvar;
  }
}

Executor::Executor(const backend::FakeBackend& dev, ExecutorOptions options)
    : dev_(dev), options_(std::move(options)) {
  cache_ = options_.block_cache
               ? options_.block_cache
               : std::make_shared<serve::BlockCache>(options_.block_cache_capacity);
  // Warm-start from (and write through to) the persistent store. The store
  // header carries the writing backend's fingerprint, so a recalibrated
  // device loads nothing and resets the file instead of replaying stale
  // blocks; attach is a no-op when a shared cache already holds this store.
  if (!options_.block_store_path.empty())
    cache_->attach_store(options_.block_store_path, dev_.fingerprint());
}

CMat Executor::simulate_block(const pulse::Schedule& physical_sched,
                              const std::vector<std::size_t>& qubits) const {
  const bool coherent = options_.noise && options_.coherent_noise;
  backend::FakeBackend::Subsystem sub = dev_.subsystem(qubits, coherent);
  const pulse::Schedule local = backend::FakeBackend::remap_schedule(physical_sched, sub.remap);
  // Small subsystems are cheap at full resolution; multi-qubit CR blocks use
  // a coarser piecewise-constant stride (2 when a frequency ramp is present,
  // 4 for flat envelopes — staircase errors cancel on symmetric rise/fall).
  const int stride =
      qubits.size() == 1 ? 1 : (has_frequency_instruction(local) ? 2 : 4);
  const psim::PulseSimulator sim(std::move(sub.system), psim::Integrator::Exact, 1, stride);
  // Column-batched propagator over the compiled-schedule IR: the schedule is
  // indexed and its step propagators built exactly once per block.
  CMat u = sim.propagator(local);

  // Undo deferred virtual-Z frames so the block unitary is self-contained.
  for (std::size_t i = 0; i < qubits.size(); ++i) {
    const double shift = pulse::CalibrationSet::drive_phase_shift(physical_sched, qubits[i]);
    if (shift == 0.0) continue;
    CMat full = CMat::identity(1);
    const CMat rz = qc::gate_matrix(qc::GateKind::RZ, {-shift});
    for (std::size_t k = qubits.size(); k-- > 0;)
      full = la::kron(full, k == i ? rz : CMat::identity(2));
    u = full * u;
  }
  return u;
}

CompiledBlock Executor::compile_block(const ExecOp& op) {
  return op.is_pulse ? compile_pulse(op, op.schedule.fingerprint()) : compile_gate(op.gate);
}

CompiledBlock Executor::compile_pulse(const ExecOp& op, std::uint64_t fingerprint) {
  // Raw pulse block (the hybrid/pulse-level models' trainable layers): the
  // structure key is the schedule's canonical content fingerprint, so a
  // parametric schedule rebound at a repeated candidate angle keys
  // identically while a nearby amplitude gets its own slot.
  std::ostringstream key;
  key << "pulse";
  for (std::size_t q : op.qubits) key << "," << q;
  key << ",fp=" << std::hex << fingerprint << std::dec << ",dur=" << op.schedule.duration();
  return lower_schedule_block(key.str(), serve::BlockKind::Pulse, op.schedule, op.qubits,
                              nullptr, false);
}

CompiledBlock Executor::compile_gate(const qc::Op& op) {
  if (is_virtual_gate(op.kind)) {
    CompiledBlock block;
    block.qubits = op.qubits;
    block.unitary = qc::gate_matrix(op.kind, op.constant_params());
    block.virtual_only = true;
    // Virtual blocks are never cached (building the 2x2 diagonal is cheaper
    // than a lookup), but they still need an identity for the fusion pass's
    // composed-key construction — same format as the cached gate keys, with
    // the exact hexfloat parameter rendering.
    std::ostringstream key;
    key << qc::gate_name(op.kind);
    for (std::size_t q : op.qubits) key << "," << q;
    for (double p : op.constant_params())
      key << ",p=" << std::hexfloat << p << std::defaultfloat;
    block.structure_key = key.str();
    return block;
  }
  if (op.kind == qc::GateKind::Delay) {
    // Timed identity: thermal relaxation and coherent frame drift act over
    // its span (it behaves exactly like idle time, which is what DD slices).
    CompiledBlock block;
    block.qubits = op.qubits;
    block.unitary = la::CMat::identity(2);
    block.duration_dt = static_cast<int>(op.params[0].value());
    block.explicit_idle = true;
    std::ostringstream key;
    key << "delay," << op.qubits[0] << ",dur=" << block.duration_dt;
    block.structure_key = key.str();
    return block;
  }

  const pulse::CalibrationSet& cal = dev_.calibrations();
  pulse::Schedule sched;
  std::ostringstream key;
  key << qc::gate_name(op.kind);
  for (std::size_t q : op.qubits) key << "," << q;

  switch (op.kind) {
    case qc::GateKind::SX:
      sched = cal.sx(op.qubits[0]);
      break;
    case qc::GateKind::X:
      sched = cal.x(op.qubits[0]);
      break;
    case qc::GateKind::CX:
      sched = cal.cx(op.qubits[0], op.qubits[1]);
      break;
    case qc::GateKind::RZZ: {
      // An RZZ surviving to execution means the pulse-efficient direct-CR
      // realization was requested.
      const double theta = op.params[0].value();
      sched = cal.rzz_direct(op.qubits[0], op.qubits[1], theta);
      // Exact (hexfloat) parameter formatting: the default 6-sig-fig ostream
      // rendering made nearby angles collide on one cache slot, replaying a
      // stale compiled block for a different theta.
      key << ",theta=" << std::hexfloat << theta << std::defaultfloat;
      break;
    }
    default:
      throw Error("Executor: program not in native basis (got " + qc::gate_name(op.kind) +
                  "); transpile first");
  }
  // Duration disambiguates parameter-dependent calibrations further (e.g. a
  // re-calibrated schedule at the same angle but a different stretch).
  key << ",dur=" << sched.duration();

  la::CMat exact;
  const bool coherent = options_.noise && options_.coherent_noise;
  if (!coherent) exact = qc::gate_matrix(op.kind, op.constant_params());
  return lower_schedule_block(key.str(), serve::BlockKind::Gate, sched, op.qubits,
                              coherent ? nullptr : &exact,
                              op.kind == qc::GateKind::CX || op.kind == qc::GateKind::RZZ);
}

CompiledBlock Executor::lower_schedule_block(const std::string& structure_key,
                                             serve::BlockKind kind,
                                             const pulse::Schedule& sched,
                                             const std::vector<std::size_t>& qubits,
                                             const la::CMat* exact_unitary,
                                             bool fold_cx_phase_defect) {
  const std::string cache_key = key_prefix_ + structure_key;
  if (const auto cached = cache_->find(cache_key, kind)) {
    CompiledBlock block = *cached;
    // Transient, not serialized: store-loaded entries come back without it.
    block.structure_key = structure_key;
    return block;
  }

  // A miss means a real compile (pulse-ODE simulation for coherent blocks):
  // span it so the trace separates compile time from cache-hit replay. Hit
  // traffic is counted by the cache's own block_cache.* series.
  ExecMetrics& em = ExecMetrics::get();
  obs::Span compile_span("executor.compile_block", &em.block_compile_ns);
  em.blocks_compiled.inc();

  CompiledBlock block;
  block.qubits = qubits;
  fill_schedule_metadata(block, sched);
  if (exact_unitary != nullptr) {
    block.unitary = *exact_unitary;
  } else {
    block.unitary = simulate_block(sched, qubits);
    if (fold_cx_phase_defect) {
      // Fold in the static phase defect of the two-qubit calibration.
      const auto [phi_c, phi_t] = dev_.cx_phase_error(qubits[0], qubits[1]);
      block.unitary = la::kron(qc::gate_matrix(qc::GateKind::RZ, {phi_t}),
                               qc::gate_matrix(qc::GateKind::RZ, {phi_c})) *
                      block.unitary;
    }
  }
  cache_->insert(cache_key, block, kind, fingerprint_);
  block.structure_key = structure_key;
  return block;
}

CompiledProgram Executor::compile_program(const Program& program, std::size_t max_qubits) {
  refresh_key_prefix();
  return lower_program(program, max_qubits);
}

CompiledProgram Executor::lower_program(const Program& program, std::size_t max_qubits) {
  CompiledProgram cp;

  // Physical -> local compression.
  auto touch = [&](std::size_t q) {
    if (std::find(cp.touched.begin(), cp.touched.end(), q) == cp.touched.end())
      cp.touched.push_back(q);
  };
  for (const ExecOp& op : program.ops)
    for (std::size_t q : (op.is_pulse ? op.qubits : op.gate.qubits)) touch(q);
  for (std::size_t q : program.measure_qubits) touch(q);
  std::sort(cp.touched.begin(), cp.touched.end());
  HGP_REQUIRE(cp.touched.size() <= max_qubits,
              "Executor::run: too many active qubits to simulate");
  std::map<std::size_t, std::size_t> local_of;
  for (std::size_t i = 0; i < cp.touched.size(); ++i) local_of[cp.touched[i]] = i;
  cp.measure_phys = program.measure_qubits;
  for (std::size_t q : program.measure_qubits) cp.measure_local.push_back(local_of.at(q));

  // Compile blocks and lay out the ASAP timeline. Consecutive virtual
  // (diagonal Z-frame) blocks on a qubit fold into one diagonal unitary:
  // they commute with idle relaxation/drift up to a trajectory-global phase,
  // and a fold halves the per-shot apply count of RZ-heavy programs.
  cp.clock.assign(cp.touched.size(), 0);
  cp.op_slot.assign(program.ops.size(), -1);
  std::vector<long> pending_virtual(cp.touched.size(), -1);

  for (std::size_t oi = 0; oi < program.ops.size(); ++oi) {
    const ExecOp& op = program.ops[oi];
    if (!op.is_pulse && op.gate.kind == qc::GateKind::Barrier) {
      const int t = *std::max_element(cp.clock.begin(), cp.clock.end());
      std::fill(cp.clock.begin(), cp.clock.end(), t);
      continue;
    }
    if (!op.is_pulse && op.gate.kind == qc::GateKind::Measure) continue;
    Scheduled s;
    s.block = compile_block(op);
    for (std::size_t q : s.block.qubits) s.local.push_back(local_of.at(q));

    if (s.block.virtual_only && s.local.size() == 1) {
      const std::size_t lq = s.local[0];
      if (pending_virtual[lq] >= 0) {
        CompiledBlock& pending = cp.timeline[pending_virtual[lq]].block;
        pending.unitary = s.block.unitary * pending.unitary;
        pending.structure_key += "|" + s.block.structure_key;
        cp.op_slot[oi] = pending_virtual[lq];
        continue;
      }
      s.idle_before_dt.push_back(0);
      cp.timeline.push_back(std::move(s));
      pending_virtual[lq] = static_cast<long>(cp.timeline.size()) - 1;
      cp.op_slot[oi] = pending_virtual[lq];
      continue;
    }

    int t0 = 0;
    for (std::size_t lq : s.local) t0 = std::max(t0, cp.clock[lq]);
    for (std::size_t lq : s.local) {
      s.idle_before_dt.push_back(t0 - cp.clock[lq]);
      cp.clock[lq] = t0 + s.block.duration_dt;
      pending_virtual[lq] = -1;
    }
    cp.timeline.push_back(std::move(s));
    cp.op_slot[oi] = static_cast<long>(cp.timeline.size()) - 1;
  }
  cp.makespan_dt =
      cp.clock.empty() ? 0 : *std::max_element(cp.clock.begin(), cp.clock.end());
  return cp;
}

std::size_t Executor::fusion_width() const {
  return options_.noise ? 0 : std::min<std::size_t>(options_.fusion_max_qubits, 3);
}

std::shared_ptr<const CompiledTemplate> Executor::make_template(const Program& program,
                                                                std::size_t max_qubits) {
  auto t = std::make_shared<CompiledTemplate>();
  t->program = lower_program(program, max_qubits);
  t->ops = program.ops;
  t->slot_ops.resize(t->program.timeline.size());
  for (std::size_t i = 0; i < program.ops.size(); ++i)
    if (t->program.op_slot[i] >= 0)
      t->slot_ops[static_cast<std::size_t>(t->program.op_slot[i])].push_back(i);
  if (!options_.noise)
    t->fused = fuse_for_engine(t->program, fusion_width(), cache_.get(), key_prefix_,
                               fingerprint_);
  return t;
}

BoundProgram Executor::bind(const Program& program, std::size_t max_qubits) {
  refresh_key_prefix();
  return bind_program(program, max_qubits);
}

std::shared_ptr<const CompiledTemplate> Executor::relower(const Program& program,
                                                          std::size_t max_qubits,
                                                          std::vector<SlotBlock>& changed) {
  changed.clear();
  std::ostringstream key;
  // A noiseless template carries its fused timeline, a noisy one none, so
  // the noise mode is part of the key even where the widths agree.
  key << key_prefix_ << "template,cap=" << max_qubits << ",fuse=";
  if (options_.noise)
    key << "noisy";
  else
    key << fusion_width();
  key << ",h=" << std::hex << structure_hash(program);
  std::shared_ptr<const CompiledTemplate> t = cache_->find_template(key.str());
  if (!t) {
    t = make_template(program, max_qubits);
    cache_->insert_template(key.str(), t);
    return t;
  }
  // Structure-hash collision guard.
  bool same_structure = t->ops.size() == program.ops.size() &&
                        t->program.measure_phys == program.measure_qubits;
  for (std::size_t i = 0; same_structure && i < program.ops.size(); ++i)
    same_structure = same_op_structure(program.ops[i], t->ops[i]);
  if (!same_structure) return nullptr;

  for (std::size_t s = 0; s < t->slot_ops.size(); ++s) {
    const std::vector<std::size_t>& ops = t->slot_ops[s];
    const ExecOp& first = program.ops[ops.front()];
    CompiledBlock block;
    if (first.is_pulse) {
      // Pulse blocks never fold: one op per slot.
      if (first.schedule == t->ops[ops.front()].schedule) continue;
      block = compile_pulse(first, first.schedule.fingerprint());
    } else {
      const bool differs = std::any_of(ops.begin(), ops.end(), [&](std::size_t i) {
        return !same_op_unitary(program.ops[i], t->ops[i]);
      });
      if (!differs) continue;
      // compile_program's fold order: each later virtual gate multiplies
      // from the left and appends its key.
      block = compile_gate(first.gate);
      for (std::size_t k = 1; k < ops.size(); ++k) {
        const CompiledBlock next = compile_gate(program.ops[ops[k]].gate);
        block.unitary = next.unitary * block.unitary;
        block.structure_key += "|" + next.structure_key;
      }
    }
    if (!same_block_metadata(block, t->program.timeline[s].block)) {
      changed.clear();  // numbered by the template's slots: void on fallback
      return nullptr;
    }
    changed.emplace_back(s, std::move(block));
  }
  return t;
}

BoundProgram Executor::bind_program(const Program& program, std::size_t max_qubits) {
  std::vector<SlotBlock> changed;
  std::shared_ptr<const CompiledTemplate> t = relower(program, max_qubits, changed);
  BoundProgram b;
  if (!t) {
    b.program = lower_program(program, max_qubits);
    b.dirty.assign(b.program.timeline.size(), 1);
    return b;
  }
  b.program = t->program;
  b.dirty.assign(b.program.timeline.size(), 0);
  for (SlotBlock& sb : changed) {
    b.program.timeline[sb.first].block = std::move(sb.second);
    b.dirty[sb.first] = 1;
  }
  b.tmpl = std::move(t);
  return b;
}

FusionResult Executor::fuse_bound(const BoundProgram& bound) {
  const std::size_t width = fusion_width();
  FusionResult out = bound.tmpl ? bound.tmpl->fused
                                : fuse_for_engine(bound.program, width, cache_.get(),
                                                  key_prefix_, fingerprint_);
  if (width >= 2) record_fusion(out);
  if (!bound.tmpl) return out;
  std::vector<Scheduled>& timeline = out.program.timeline;
  for (std::size_t g = 0; g < out.slots.size(); ++g) {
    const std::vector<std::size_t>& srcs = out.slots[g].sources;
    if (std::none_of(srcs.begin(), srcs.end(), [&](std::size_t s) { return bound.dirty[s]; }))
      continue;
    if (srcs.size() == 1)
      timeline[g] = bound.program.timeline[srcs[0]];
    else
      timeline[g].block = compose_run(bound.program, srcs, timeline[g].local,
                                      fused_run_key(bound.program, srcs));
  }
  return out;
}

std::uint64_t Executor::map_bits(std::uint64_t bits, const CompiledProgram& cp) {
  std::uint64_t mapped = 0;
  for (std::size_t i = 0; i < cp.measure_local.size(); ++i)
    if ((bits >> cp.measure_local[i]) & 1) mapped |= (std::uint64_t{1} << i);
  return mapped;
}

sim::Counts Executor::run_noiseless(const CompiledProgram& cp, std::size_t shots,
                                    Rng& rng) const {
  // Noiseless execution is deterministic — evolve once, sample.
  sim::Statevector sv(cp.touched.size());
  for (const Scheduled& s : cp.timeline) sv.apply_matrix(s.block.unitary, s.local);
  const sim::Counts local_counts = sv.sample(shots, rng);
  sim::Counts out;
  for (const auto& [bits, n] : local_counts) out[map_bits(bits, cp)] += n;
  return out;
}

double Executor::evolve_one_shot(const CompiledProgram& cp, sim::Statevector& sv,
                                 Rng& rng) const {
  const noise::NoiseModel& nm = dev_.noise_model();
  const double dep1 = nm.dep_per_1q_pulse;
  const double dep2 = nm.dep_per_2q_block;
  // Squared norm of the (deferred-normalization) trajectory state.
  double weight = 1.0;

  auto relax = [&](std::size_t lq, int duration_dt) {
    if (duration_dt <= 0) return;
    const noise::QubitNoise& qn = nm.qubits[cp.touched[lq]];
    const noise::RelaxationConstants rc =
        noise::relaxation_constants(qn.t1_us, qn.t2_us, duration_dt * pulse::kDtNs);
    noise::traj_thermal_relaxation(sv, weight, lq, rc, rng);
  };
  // Coherent frame drift while idling: the qubit precesses at its true
  // (drifted) frequency but the frame stays at the calibrated one, so a
  // static Z-phase builds up — shot-independent, hence *learnable* by the
  // pulse ansatz's phase knob but invisible to fixed gate calibrations.
  // (During blocks the subsystem Hamiltonian carries the same detuning.)
  auto idle_drift = [&](std::size_t lq, int duration_dt) {
    if (duration_dt <= 0 || !options_.coherent_noise) return;
    const double drift = nm.qubits[cp.touched[lq]].freq_drift_ghz;
    if (drift == 0.0) return;
    const double angle = 2.0 * la::kPi * drift * duration_dt * pulse::kDtNs;
    noise::traj_rz(sv, lq, angle);
  };

  walk_noise_timeline(
      cp, dep1, dep2, dev_.readout_duration_dt(), relax, idle_drift,
      [&](std::size_t lq, la::cxd ratio, const la::CMat&) {
        noise::traj_phase(sv, lq, ratio);
      },
      [&](const la::CMat& u, const std::vector<std::size_t>& locals) {
        sv.apply_matrix(u, locals);
      },
      [&](const std::size_t* qubits, std::size_t n, double p) {
        noise::traj_depolarizing(sv, {qubits, qubits + n}, p, rng);
      });
  return weight;
}

sim::Counts Executor::run_trajectories(const CompiledProgram& cp, std::size_t shots,
                                       Rng& rng) const {
  const std::size_t num_batches = (shots + kShotsPerBatch - 1) / kShotsPerBatch;
  // One parent draw seeds the whole shot grid: the caller's Rng advances by
  // exactly one step regardless of shots, batches, lanes, or thread count.
  // Every shot then owns Rng::child(base, shot_index), so the counts depend
  // only on (base, shots) — not on how shots are grouped into thread batches
  // or pool slots.
  const std::uint64_t base = rng.next_u64();
  const std::size_t lanes = std::max<std::size_t>(std::size_t{1}, options_.shot_batch_lanes);
  const noise::NoiseModel& nm = dev_.noise_model();
  const NoiseWalk noise_walk = lanes > 1 ? record_noise_walk(cp, nm, dev_.readout_duration_dt(),
                                                            options_.coherent_noise)
                                         : NoiseWalk{};

  ExecMetrics& em = ExecMetrics::get();
  std::vector<sim::Counts> batch_counts(num_batches);
  std::atomic<std::size_t> pool_passes{0};
  const CancelToken* tok = options_.cancel.get();
  auto run_batch = [&](std::size_t b) {
    // Cancellation checkpoint at every batch boundary (and every pool pass):
    // a cancelled run's remaining batches throw instead of simulating, so
    // the pool worker is freed within one pass regardless of the shot budget.
    if (tok) tok->check();
    const std::size_t first = b * kShotsPerBatch;
    const std::size_t count = std::min(kShotsPerBatch, shots - first);
    sim::Counts& out = batch_counts[b];
    if (lanes <= 1) {
      // Scalar fallback: one shot at a time on a reused statevector.
      sim::Statevector sv(cp.touched.size());
      for (std::size_t s = 0; s < count; ++s) {
        if (tok) tok->check();
        if (s != 0) sv.reset();
        Rng shot_rng = Rng::child(base, first + s);
        const double weight = evolve_one_shot(cp, sv, shot_rng);
        std::uint64_t bits = noise::traj_sample_one(sv, weight, shot_rng);
        if (options_.readout_error) bits = apply_readout_flips(bits, cp, nm, shot_rng);
        ++out[map_bits(bits, cp)];
      }
      em.shots.inc(count);
      return;
    }

    // Terminal sampling: per-shot stream order is one uniform, then the
    // readout flips. Pool slots each scan their own lane in one lane-major
    // pass; the never-branched shots share the trunk, so their draws are
    // sorted and emitted in one accumulate pass.
    BatchWalker walker(noise_walk, cp.touched.size(), std::min(lanes, count));
    std::vector<double> x(std::max(walker.lanes(), count));
    std::vector<std::uint64_t> bits(std::max(walker.lanes(), count));
    std::vector<std::pair<double, std::size_t>> draws;
    auto emit = [&](std::uint64_t outcome, const LaneStreams& streams, std::size_t i) {
      if (options_.readout_error) {
        Rng shot_rng = streams.get(i);
        outcome = apply_readout_flips(outcome, cp, nm, shot_rng);
      }
      ++out[map_bits(outcome, cp)];
    };
    auto pool_done = [&](BatchWalker& w) {
      obs::Span sample_span("executor.sample", &em.sample_ns);
      w.slot_rng.uniform(w.lanes(), w.active.data(), x.data());
      for (std::size_t l = 0; l < w.lanes(); ++l) x[l] *= w.weight[l];
      w.pool.sample_lanes(x.data(), w.active.data(), bits.data());
      for (std::size_t l = 0; l < w.lanes(); ++l)
        if (w.active[l]) emit(bits[l], w.slot_rng, l);
    };
    auto trunk_done = [&](BatchWalker& w) {
      obs::Span sample_span("executor.sample", &em.sample_ns);
      const std::size_t nf = w.free_shot.size();
      w.free_rng.uniform(nf, nullptr, x.data());
      draws.clear();
      for (std::size_t i = 0; i < nf; ++i) draws.emplace_back(x[i] * w.trunk_weight, i);
      std::sort(draws.begin(), draws.end());
      w.trunk.sample_sorted(0, draws.data(), draws.size(), bits.data());
      for (std::size_t i = 0; i < nf; ++i) emit(bits[i], w.free_rng, i);
    };
    const std::size_t passes = walker.walk(base, first, count, tok, pool_done, trunk_done);
    em.shots.inc(count);
    em.lane_groups.inc(passes);
    pool_passes.fetch_add(passes, std::memory_order_relaxed);
  };

  // Throughput gauges cover the whole shot grid (all batches, all threads);
  // the clock is read only while telemetry is live.
  const std::uint64_t t0 = obs::enabled() ? obs::now_ns() : 0;
  for_each_batch(num_batches, options_.num_threads, run_batch);
  if (t0 != 0) {
    const double secs = static_cast<double>(obs::now_ns() - t0) * 1e-9;
    if (secs > 0.0) {
      em.trajectory_shots_per_s.set(
          static_cast<std::int64_t>(static_cast<double>(shots) / secs));
      em.lane_groups_per_s.set(
          static_cast<std::int64_t>(static_cast<double>(pool_passes.load()) / secs));
    }
  }

  // Deterministic merge: batch order is fixed and count addition commutes.
  sim::Counts out;
  for (const sim::Counts& bc : batch_counts)
    for (const auto& [bits, n] : bc) out[bits] += n;
  return out;
}

sim::Counts Executor::run_exact_density(const CompiledProgram& cp, std::size_t shots,
                                        Rng& rng) const {
  // The only stochastic element: multinomial shot noise on the exact
  // distribution.
  return sim::sample_from_probabilities(density_distribution(cp), shots, rng);
}

std::vector<double> Executor::density_distribution(const CompiledProgram& cp) const {
  const noise::NoiseModel& nm = dev_.noise_model();
  sim::DensityMatrix dm(cp.touched.size());

  auto relax = [&](std::size_t lq, int duration_dt) {
    if (duration_dt <= 0) return;
    const noise::QubitNoise& qn = nm.qubits[cp.touched[lq]];
    const noise::RelaxationConstants rc =
        noise::relaxation_constants(qn.t1_us, qn.t2_us, duration_dt * pulse::kDtNs);
    dm.apply_amplitude_damping(lq, rc.gamma);
    if (rc.dephase) dm.apply_phase_damping(lq, rc.p_z);
  };
  auto idle_drift = [&](std::size_t lq, int duration_dt) {
    if (duration_dt <= 0 || !options_.coherent_noise) return;
    const double drift = nm.qubits[cp.touched[lq]].freq_drift_ghz;
    if (drift == 0.0) return;
    const double angle = 2.0 * la::kPi * drift * duration_dt * pulse::kDtNs;
    dm.apply_matrix(qc::gate_matrix(qc::GateKind::RZ, {angle}), {lq});
  };

  walk_noise_timeline(
      cp, nm.dep_per_1q_pulse, nm.dep_per_2q_block, dev_.readout_duration_dt(), relax,
      idle_drift,
      // Exact evolution keeps the full virtual-diagonal unitary (global
      // phase cancels in U rho U†, so no fold is needed).
      [&](std::size_t lq, la::cxd, const la::CMat& u) { dm.apply_matrix(u, {lq}); },
      [&](const la::CMat& u, const std::vector<std::size_t>& locals) {
        dm.apply_matrix(u, locals);
      },
      [&](const std::size_t* qubits, std::size_t n, double p) {
        dm.apply_depolarizing({qubits, qubits + n}, p);
      });

  // Marginalize the exact distribution onto the measured bits.
  const std::vector<double> p_full = dm.probabilities();
  std::vector<double> p(std::size_t{1} << cp.measure_local.size(), 0.0);
  for (std::uint64_t i = 0; i < p_full.size(); ++i) p[map_bits(i, cp)] += p_full[i];

  // Readout confusion folds in exactly as a per-bit stochastic 2x2 map.
  if (options_.readout_error) fold_readout_confusion(p, cp, nm);

  return p;
}

void Executor::refresh_key_prefix() {
  // Refresh the cache-key prefix each evaluation so a recalibrated (or
  // noise-model-mutated) backend never replays stale compiled blocks or
  // templates out of a shared cache. The fingerprint hashes the whole
  // backend, so it is computed here once and reused by every insert.
  fingerprint_ = dev_.fingerprint();
  std::ostringstream prefix;
  prefix << dev_.name() << '#' << std::hex << fingerprint_ << std::dec
         << (options_.noise && options_.coherent_noise ? "#coh;" : "#exact;");
  key_prefix_ = prefix.str();
}

sim::Counts Executor::run(const Program& program, std::size_t shots, Rng& rng) {
  HGP_REQUIRE(!program.measure_qubits.empty(), "Executor::run: nothing to measure");
  if (options_.cancel) options_.cancel->check();
  refresh_key_prefix();

  ExecMetrics& em = ExecMetrics::get();
  obs::Span run_span("executor.run", &em.run_ns);
  const bool noisy = options_.noise;
  const bool density = noisy && options_.engine == Engine::ExactDensity;
  obs::Span compile_span("executor.compile", &em.compile_ns);
  const BoundProgram bound = bind_program(program, density ? 10 : 14);
  compile_span.finish();
  const CompiledProgram& cp = bound.program;
  report_ = ExecutionReport{cp.makespan_dt, dev_.readout_duration_dt(), cp.timeline.size(),
                            cp.timeline.size()};

  if (!noisy) {
    // Deterministic-unitary path: fuse the timeline into fewer, bigger
    // kernels. Noisy engines below keep the unfused timeline — fusion would
    // change the FP rounding of the amplitudes feeding every branch
    // probability, and with it the RNG consumption pattern.
    const FusionResult fused = fuse_bound(bound);
    report_.fused_block_count = fused.program.timeline.size();
    return run_noiseless(fused.program, shots, rng);
  }
  if (density) return run_exact_density(cp, shots, rng);
  return run_trajectories(cp, shots, rng);
}

double Executor::run_expectation(const Program& program, std::size_t shots, Rng& rng,
                                 const ObjectiveSpec& spec) {
  HGP_REQUIRE(spec.kind != ObjectiveKind::Sample,
              "Executor::run_expectation: Sample objectives go through run()");
  HGP_REQUIRE(static_cast<bool>(spec.value),
              "Executor::run_expectation: objective has no value function");
  HGP_REQUIRE(!program.measure_qubits.empty(),
              "Executor::run_expectation: nothing to measure");
  if (options_.cancel) options_.cancel->check();

  refresh_key_prefix();
  ExecMetrics& em = ExecMetrics::get();
  // Objective aggregation (evolve + exact per-shot reduction) as one span.
  obs::Span objective_span("executor.objective", &em.aggregate_ns);
  const bool noisy = options_.noise;
  const bool density = noisy && options_.engine == Engine::ExactDensity;
  obs::Span compile_span("executor.compile", &em.compile_ns);
  const BoundProgram bound = bind_program(program, density ? 10 : 14);
  compile_span.finish();
  const CompiledProgram& cp = bound.program;
  report_ = ExecutionReport{cp.makespan_dt, dev_.readout_duration_dt(), cp.timeline.size(),
                            cp.timeline.size()};

  // Tabulate the diagonal observable once over the 2^m measured outcomes,
  // keyed exactly like run()'s counts.
  const std::size_t mdim = std::size_t{1} << cp.measure_local.size();
  std::vector<double> vt(mdim);
  for (std::uint64_t j = 0; j < mdim; ++j) vt[j] = spec.value(j);

  if (density) {
    // Exact objective over the folded distribution — no stochastic element.
    const std::vector<double> p = density_distribution(cp);
    if (spec.kind == ObjectiveKind::CVaR)
      return mit::cvar_from_distribution(p, vt, spec.cvar_alpha, spec.cvar_maximize);
    double num = 0.0, den = 0.0;
    for (std::size_t j = 0; j < mdim; ++j) {
      num += vt[j] * p[j];
      den += p[j];
    }
    return num / den;
  }

  const std::size_t dim = std::size_t{1} << cp.touched.size();
  if (!noisy) {
    // One deterministic evolve, one exact reduction — shots and rng are
    // untouched, and there is no sampling noise at all. Fused, like run()'s
    // noiseless branch: the evolve is a pure unitary product.
    const FusionResult fused = fuse_bound(bound);
    report_.fused_block_count = fused.program.timeline.size();
    sim::Statevector sv(cp.touched.size());
    for (const Scheduled& s : fused.program.timeline) sv.apply_matrix(s.block.unitary, s.local);
    if (spec.kind == ObjectiveKind::Expectation) {
      std::vector<double> lvt(dim);
      for (std::uint64_t i = 0; i < dim; ++i) lvt[i] = vt[map_bits(i, cp)];
      double num = 0.0, den = 0.0;
      sv.weighted_mass(lvt.data(), num, den);
      return num / den;
    }
    // CVaR: accumulate the exact (unnormalized) outcome masses in ascending
    // basis order — the same additions accumulate_mapped performs per lane,
    // so the batched candidate path is bit-identical to this one.
    std::vector<double> p(mdim, 0.0);
    const la::CVec& amp = sv.data();
    for (std::uint64_t i = 0; i < dim; ++i) {
      const double ar = amp[i].real(), ai = amp[i].imag();
      p[map_bits(i, cp)] += ar * ar + ai * ai;
    }
    return mit::cvar_from_distribution(p, vt, spec.cvar_alpha, spec.cvar_maximize);
  }

  // Trajectory noise: the same fixed batch grid and per-shot child streams
  // as run() — the parent rng advances by exactly one draw — but each shot
  // contributes its exact terminal distribution instead of one sample, so
  // the only residual stochastic element is the trajectory unraveling
  // itself. All per-shot reductions merge in shot order, making the result
  // bit-identical for every thread count and lane width.
  HGP_REQUIRE(shots > 0, "Executor::run_expectation: need at least one shot");
  const noise::NoiseModel& nm = dev_.noise_model();
  const std::size_t num_batches = (shots + kShotsPerBatch - 1) / kShotsPerBatch;
  const std::uint64_t base = rng.next_u64();
  const std::size_t lanes = std::max<std::size_t>(std::size_t{1}, options_.shot_batch_lanes);

  if (options_.readout_error && spec.kind == ObjectiveKind::Expectation) {
    // Readout confusion commutes into the value table: E[v(readout(b))] is a
    // per-bit 2x2 mixing of the values, folded once instead of per shot.
    for (std::size_t i = 0; i < cp.measure_phys.size(); ++i) {
      const noise::ReadoutError& re = nm.qubits[cp.measure_phys[i]].readout;
      const std::uint64_t bit = std::uint64_t{1} << i;
      for (std::uint64_t idx = 0; idx < mdim; ++idx) {
        if (idx & bit) continue;
        const double v0 = vt[idx], v1 = vt[idx | bit];
        vt[idx] = (1.0 - re.p1_given_0) * v0 + re.p1_given_0 * v1;
        vt[idx | bit] = re.p0_given_1 * v0 + (1.0 - re.p0_given_1) * v1;
      }
    }
  }

  // Local-register lookup tables: per-basis-state value (Expectation) or
  // measured-outcome index (CVaR).
  std::vector<double> lvt;
  std::vector<std::uint32_t> lmap;
  if (spec.kind == ObjectiveKind::Expectation) {
    lvt.resize(dim);
    for (std::uint64_t i = 0; i < dim; ++i) lvt[i] = vt[map_bits(i, cp)];
  } else {
    lmap.resize(dim);
    for (std::uint64_t i = 0; i < dim; ++i)
      lmap[i] = static_cast<std::uint32_t>(map_bits(i, cp));
  }

  // Per-batch accumulators, merged in batch order after the pool joins.
  const bool expectation = spec.kind == ObjectiveKind::Expectation;
  std::vector<double> batch_acc;
  std::vector<double> batch_p;
  if (expectation)
    batch_acc.assign(num_batches, 0.0);
  else
    batch_p.assign(num_batches * mdim, 0.0);

  const NoiseWalk noise_walk = lanes > 1 ? record_noise_walk(cp, nm, dev_.readout_duration_dt(),
                                                            options_.coherent_noise)
                                         : NoiseWalk{};
  const CancelToken* tok = options_.cancel.get();
  auto run_batch = [&](std::size_t b) {
    if (tok) tok->check();
    const std::size_t first = b * kShotsPerBatch;
    const std::size_t count = std::min(kShotsPerBatch, shots - first);
    // Per-shot terms, summed in shot order once every shot of the batch has
    // terminated: a normalized expectation per shot (den carries the
    // trajectory's deferred-normalization weight), or a normalized outcome
    // distribution per shot — the shots that never branched share the
    // trunk's row.
    std::vector<double> term(expectation ? count : 0);
    std::vector<double> dist(expectation ? 0 : count * mdim), trunk_row;
    std::vector<const double*> row(expectation ? 0 : count);
    std::vector<double> mass;
    auto normalize = [&](const double* m, std::size_t stride, double* dst) {
      double d = 0.0;
      for (std::size_t j = 0; j < mdim; ++j) d += m[j * stride];
      for (std::size_t j = 0; j < mdim; ++j) dst[j] = m[j * stride] / d;
    };
    auto keep_row = [&](std::size_t s, const double* m, std::size_t stride) {
      normalize(m, stride, &dist[s * mdim]);
      row[s] = &dist[s * mdim];
    };

    if (lanes <= 1) {
      sim::Statevector sv(cp.touched.size());
      for (std::size_t s = 0; s < count; ++s) {
        if (tok) tok->check();
        if (s != 0) sv.reset();
        Rng shot_rng = Rng::child(base, first + s);
        evolve_one_shot(cp, sv, shot_rng);
        if (expectation) {
          double num = 0.0, den = 0.0;
          sv.weighted_mass(lvt.data(), num, den);
          term[s] = num / den;
        } else {
          mass.assign(mdim, 0.0);
          const la::CVec& amp = sv.data();
          for (std::uint64_t i = 0; i < dim; ++i) {
            const double ar = amp[i].real(), ai = amp[i].imag();
            mass[lmap[i]] += ar * ar + ai * ai;
          }
          keep_row(s, mass.data(), 1);
        }
      }
    } else {
      BatchWalker walker(noise_walk, cp.touched.size(), std::min(lanes, count));
      std::vector<double> num(walker.lanes()), den(walker.lanes());
      auto pool_done = [&](BatchWalker& w) {
        const std::size_t nl = w.lanes();
        if (expectation) {
          w.pool.weighted_masses(lvt.data(), num.data(), den.data());
          for (std::size_t l = 0; l < nl; ++l)
            if (w.active[l]) term[w.slot_shot[l]] = num[l] / den[l];
          return;
        }
        mass.assign(mdim * nl, 0.0);
        w.pool.accumulate_mapped(lmap.data(), mass.data());
        for (std::size_t l = 0; l < nl; ++l)
          if (w.active[l]) keep_row(w.slot_shot[l], &mass[l], nl);
      };
      auto trunk_done = [&](BatchWalker& w) {
        if (expectation) {
          w.trunk.weighted_masses(lvt.data(), num.data(), den.data());
          for (std::size_t s : w.free_shot) term[s] = num[0] / den[0];
          return;
        }
        mass.assign(mdim, 0.0);
        w.trunk.accumulate_mapped(lmap.data(), mass.data());
        trunk_row.resize(mdim);
        normalize(mass.data(), 1, trunk_row.data());
        for (std::size_t s : w.free_shot) row[s] = trunk_row.data();
      };
      walker.walk(base, first, count, tok, pool_done, trunk_done);
    }

    if (expectation) {
      for (std::size_t s = 0; s < count; ++s) batch_acc[b] += term[s];
    } else {
      double* pb = &batch_p[b * mdim];
      for (std::size_t s = 0; s < count; ++s)
        for (std::size_t j = 0; j < mdim; ++j) pb[j] += row[s][j];
    }
  };
  for_each_batch(num_batches, options_.num_threads, run_batch);

  if (expectation) {
    double total = 0.0;
    for (std::size_t b = 0; b < num_batches; ++b) total += batch_acc[b];
    return total / static_cast<double>(shots);
  }

  // CVaR of the shot-averaged distribution, readout confusion folded in
  // density-style (the tail statistic does not commute with per-shot
  // averaging, so confusion must act on the distribution, not the values).
  std::vector<double> p(mdim, 0.0);
  for (std::size_t b = 0; b < num_batches; ++b)
    for (std::size_t j = 0; j < mdim; ++j) p[j] += batch_p[b * mdim + j];
  for (std::size_t j = 0; j < mdim; ++j) p[j] /= static_cast<double>(shots);
  if (options_.readout_error) fold_readout_confusion(p, cp, nm);
  return mit::cvar_from_distribution(p, vt, spec.cvar_alpha, spec.cvar_maximize);
}

std::vector<double> Executor::run_expectation_batch(const std::vector<Program>& programs,
                                                    const ObjectiveSpec& spec) {
  return run_expectation_batch(
      programs.size(), [&](std::size_t l) -> const Program& { return programs[l]; }, spec);
}

std::vector<double> Executor::run_expectation_batch(
    std::size_t count, const std::function<const Program&(std::size_t)>& candidate,
    const ObjectiveSpec& spec) {
  HGP_REQUIRE(count > 0, "Executor::run_expectation_batch: no candidates");
  HGP_REQUIRE(spec.kind != ObjectiveKind::Sample,
              "Executor::run_expectation_batch: Sample objectives go through run()");
  HGP_REQUIRE(static_cast<bool>(spec.value),
              "Executor::run_expectation_batch: objective has no value function");
  HGP_REQUIRE(!options_.noise,
              "Executor::run_expectation_batch: candidate-lane batching is noiseless only");
  if (options_.cancel) options_.cancel->check();

  refresh_key_prefix();
  ExecMetrics& em = ExecMetrics::get();
  obs::Span batch_span("executor.candidate_batch");
  em.expectation_batches.inc();
  const std::size_t B = count;
  const Program& p0 = candidate(0);
  HGP_REQUIRE(!p0.measure_qubits.empty(),
              "Executor::run_expectation_batch: nothing to measure");

  // Candidate-lane batching requires one shared circuit structure: the same
  // register, measurement map, and block placement — only parameter values
  // may differ lane to lane. Every candidate binds to the compiled template
  // of that structure, re-lowering only the slots its parameters change.
  const BoundProgram b0 = bind_program(p0, 14);
  const CompiledProgram& c0 = b0.program;
  const std::size_t steps = c0.timeline.size();
  report_ = ExecutionReport{c0.makespan_dt, dev_.readout_duration_dt(), steps, steps};

  // Candidate 0's fused timeline fixes the grouping every lane shares (it
  // depends on the structure only), so each lane stays bit-identical to a
  // scalar fused run of that candidate.
  const FusionResult f0 = fuse_bound(b0);
  const std::size_t fused_steps = f0.program.timeline.size();
  report_.fused_block_count = fused_steps;
  std::vector<std::vector<std::size_t>> slot_ops(steps);
  for (std::size_t i = 0; i < p0.ops.size(); ++i)
    if (c0.op_slot[i] >= 0) slot_ops[static_cast<std::size_t>(c0.op_slot[i])].push_back(i);

  // differs[l * fused_steps + g]: lane l's ops in fused slot g differ from
  // candidate 0's. Lanes that differ anywhere bind to their template; each
  // keeps only its re-lowered slots (a full compile after a fallback).
  std::vector<std::uint8_t> differs(B * fused_steps, 0), varied(fused_steps, 0);
  struct LaneBinding {
    std::shared_ptr<const CompiledTemplate> tmpl;
    std::vector<SlotBlock> changed;
    CompiledProgram full;
    std::vector<const la::CMat*> slot_u;
    std::vector<std::uint8_t> dirty;
  };
  std::vector<LaneBinding> lanes(B);
  for (std::size_t l = 1; l < B; ++l) {
    const Program& pl = candidate(l);
    HGP_REQUIRE(pl.measure_qubits == p0.measure_qubits && pl.ops.size() == p0.ops.size(),
                "Executor::run_expectation_batch: candidates are not structurally "
                "identical");
    for (std::size_t i = 0; i < pl.ops.size(); ++i)
      HGP_REQUIRE(same_op_structure(pl.ops[i], p0.ops[i]),
                  "Executor::run_expectation_batch: candidate timelines diverge");
    bool any = false;
    for (std::size_t g = 0; g < fused_steps; ++g) {
      const std::vector<std::size_t>& srcs = f0.slots[g].sources;
      const bool d = std::any_of(srcs.begin(), srcs.end(), [&](std::size_t s) {
        return std::any_of(slot_ops[s].begin(), slot_ops[s].end(), [&](std::size_t i) {
          return !same_op_unitary(pl.ops[i], p0.ops[i]);
        });
      });
      differs[l * fused_steps + g] = d;
      varied[g] |= d;
      any |= d;
    }
    if (!any) continue;
    LaneBinding& lb = lanes[l];
    lb.tmpl = relower(pl, 14, lb.changed);
    if (!lb.tmpl) lb.full = lower_program(pl, 14);
    const CompiledProgram& base = lb.tmpl ? lb.tmpl->program : lb.full;
    lb.slot_u.resize(steps);
    for (std::size_t s = 0; s < steps; ++s) lb.slot_u[s] = &base.timeline[s].block.unitary;
    lb.dirty.assign(steps, lb.tmpl ? 0 : 1);
    for (const SlotBlock& sb : lb.changed) {
      lb.slot_u[sb.first] = &sb.second.unitary;
      lb.dirty[sb.first] = 1;
    }
  }

  // One lane-batched evolve for all candidates: fused slots that agree
  // across every lane (the unparameterized majority) apply once broadcast;
  // varied slots take the per-lane kernels, with each differing lane's
  // unitary its template's when none of the slot's sources was re-lowered
  // for it, else re-composed from its slots.
  sim::BatchedStatevector bsv(c0.touched.size(), B);
  std::vector<la::CMat> lane_us;
  std::vector<FusePartView> parts;
  for (std::size_t g = 0; g < fused_steps; ++g) {
    const Scheduled& f = f0.program.timeline[g];
    if (!varied[g]) {
      bsv.apply_matrix(f.block.unitary, f.local);
      continue;
    }
    const std::vector<std::size_t>& srcs = f0.slots[g].sources;
    lane_us.assign(B, f.block.unitary);
    for (std::size_t l = 1; l < B; ++l) {
      if (!differs[l * fused_steps + g]) continue;
      const LaneBinding& lb = lanes[l];
      if (srcs.size() == 1) {
        lane_us[l] = *lb.slot_u[srcs[0]];
      } else if (std::none_of(srcs.begin(), srcs.end(),
                              [&](std::size_t s) { return lb.dirty[s]; })) {
        lane_us[l] = lb.tmpl->fused.program.timeline[g].block.unitary;
      } else {
        parts.clear();
        for (std::size_t s : srcs) parts.push_back({lb.slot_u[s], &c0.timeline[s].local});
        lane_us[l] = compose_fused(parts.data(), parts.size(), f.local);
      }
    }
    bsv.apply_matrix_per_lane(lane_us, f.local);
  }

  const std::size_t mdim = std::size_t{1} << c0.measure_local.size();
  std::vector<double> vt(mdim);
  for (std::uint64_t j = 0; j < mdim; ++j) vt[j] = spec.value(j);
  const std::size_t dim = std::size_t{1} << c0.touched.size();

  std::vector<double> out(B);
  if (spec.kind == ObjectiveKind::Expectation) {
    std::vector<double> lvt(dim);
    for (std::uint64_t i = 0; i < dim; ++i) lvt[i] = vt[map_bits(i, c0)];
    std::vector<double> num(B), den(B);
    bsv.weighted_masses(lvt.data(), num.data(), den.data());
    for (std::size_t l = 0; l < B; ++l) out[l] = num[l] / den[l];
  } else {
    std::vector<std::uint32_t> lmap(dim);
    for (std::uint64_t i = 0; i < dim; ++i)
      lmap[i] = static_cast<std::uint32_t>(map_bits(i, c0));
    std::vector<double> mass(mdim * B, 0.0);
    bsv.accumulate_mapped(lmap.data(), mass.data());
    std::vector<double> p(mdim);
    for (std::size_t l = 0; l < B; ++l) {
      for (std::size_t j = 0; j < mdim; ++j) p[j] = mass[j * B + l];
      out[l] = mit::cvar_from_distribution(p, vt, spec.cvar_alpha, spec.cvar_maximize);
    }
  }
  return out;
}

}  // namespace hgp::core
