#include "noise/channels.hpp"

#include <cmath>

#include "common/error.hpp"
#include "linalg/pauli.hpp"
#include "sim/kernel_structure.hpp"

namespace hgp::noise {

int sample_depolarizing(std::size_t num_qubits, double p, Rng& rng) {
  HGP_REQUIRE(p >= 0.0 && p <= 1.0, "sample_depolarizing: bad probability");
  if (!rng.bernoulli(p)) return 0;
  // Uniform non-identity Pauli on the qubit set.
  const int options = (1 << (2 * static_cast<int>(num_qubits))) - 1;
  return rng.uniform_int(1, options);
}

void sample_depolarizing(std::size_t num_qubits, double p, LaneStreams& streams, std::size_t n,
                         const std::uint8_t* mask, std::uint8_t* picks) {
  HGP_REQUIRE(p >= 0.0 && p <= 1.0, "sample_depolarizing: bad probability");
  HGP_REQUIRE(num_qubits <= 3, "sample_depolarizing: codes of more than 3 qubits");
  streams.bernoulli(n, p, mask, picks);
  const int options = (1 << (2 * static_cast<int>(num_qubits))) - 1;
  for (std::size_t i = 0; i < n; ++i) {
    if (!picks[i]) continue;
    Rng rng = streams.get(i);
    picks[i] = static_cast<std::uint8_t>(rng.uniform_int(1, options));
    streams.set(i, rng);
  }
}

RelaxationConstants relaxation_constants(double t1_us, double t2_us, double duration_ns) {
  HGP_REQUIRE(t1_us > 0.0 && t2_us > 0.0, "relaxation_constants: bad T1/T2");
  RelaxationConstants rc;
  if (duration_ns <= 0.0) return rc;
  const double t_us = duration_ns * 1e-3;
  rc.gamma = 1.0 - std::exp(-t_us / t1_us);
  rc.damp = std::sqrt(1.0 - rc.gamma);
  // Pure dephasing rate; clamp T2 into the physical region.
  const double t2 = std::min(t2_us, 2.0 * t1_us);
  const double inv_tphi = 1.0 / t2 - 0.5 / t1_us;
  if (inv_tphi > 1e-12) {
    rc.dephase = true;
    rc.p_z = 0.5 * (1.0 - std::exp(-t_us * inv_tphi));
  }
  return rc;
}

using sim::detail::for_each_one;

void traj_depolarizing(sim::Statevector& sv, const std::vector<std::size_t>& qubits,
                       double p, Rng& rng) {
  const int pick = sample_depolarizing(qubits.size(), p, rng);
  if (pick == 0) return;
  for (std::size_t i = 0; i < qubits.size(); ++i) {
    const int pauli = (pick >> (2 * i)) & 3;
    if (pauli == 0) continue;
    sv.apply_matrix(la::pauli_matrix(static_cast<la::Pauli>(pauli)), {qubits[i]});
  }
}

void traj_thermal_relaxation(sim::Statevector& sv, double& weight, std::size_t q,
                             const RelaxationConstants& rc, Rng& rng) {
  la::CVec& amp = sv.data();
  const std::uint64_t size = amp.size();
  const std::uint64_t bit = std::uint64_t{1} << q;

  if (rc.gamma > 0.0) {
    // Jump iff u < gamma * m1 with m1 the unnormalized |1> mass — the exact
    // branch probability gamma * (m1 / weight). Since m1 <= weight, a draw
    // u >= gamma * weight settles "no jump" without measuring m1 at all.
    const double u = rng.uniform() * weight;
    bool jumped = false;
    if (u < rc.gamma * weight) {
      double m1 = 0.0;
      for_each_one(size, bit, [&](std::uint64_t i) { m1 += std::norm(amp[i]); });
      if (u < rc.gamma * m1) {
        // K1 = sqrt(gamma)|0><1|: project onto |1> and reset to |0>, fused
        // into one move over the paired indices.
        for_each_one(size, bit, [&](std::uint64_t i) {
          amp[i ^ bit] = amp[i];
          amp[i] = la::cxd{0.0, 0.0};
        });
        weight = m1;
        jumped = true;
      }
    }
    if (!jumped) {
      // K0 = diag(1, sqrt(1-gamma)): damp the |1> amplitudes, measuring
      // their pre-damp mass on the fly if the shortcut skipped it.
      double m1_old = 0.0;
      for_each_one(size, bit, [&](std::uint64_t i) {
        m1_old += std::norm(amp[i]);
        amp[i] *= rc.damp;
      });
      weight -= rc.gamma * m1_old;
    }
  }

  // Pure dephasing: a state-independent phase flip — half-pass only when the
  // (rare) flip fires.
  if (rc.dephase && rng.bernoulli(rc.p_z))
    for_each_one(size, bit, [&](std::uint64_t i) { amp[i] = -amp[i]; });
}

void traj_phase(sim::Statevector& sv, std::size_t q, la::cxd ratio) {
  if (ratio == la::cxd{1.0, 0.0}) return;
  const std::uint64_t bit = std::uint64_t{1} << q;
  for_each_one(sv.data().size(), bit, [&](std::uint64_t i) { sv.data()[i] *= ratio; });
}

void traj_rz(sim::Statevector& sv, std::size_t q, double angle) {
  traj_phase(sv, q, std::polar(1.0, angle));
}

std::uint64_t traj_sample_one(const sim::Statevector& sv, double weight, Rng& rng) {
  const la::CVec& amp = sv.data();
  const double x = rng.uniform() * weight;
  double acc = 0.0;
  for (std::uint64_t i = 0; i < amp.size(); ++i) {
    acc += std::norm(amp[i]);
    if (x < acc) return i;
  }
  return amp.size() - 1;
}

std::uint64_t apply_readout(std::uint64_t bits, const std::vector<ReadoutError>& errors,
                            Rng& rng) {
  for (std::size_t q = 0; q < errors.size(); ++q) {
    const bool one = (bits >> q) & 1;
    const double p_flip = one ? errors[q].p0_given_1 : errors[q].p1_given_0;
    if (rng.bernoulli(p_flip)) bits ^= (std::uint64_t{1} << q);
  }
  return bits;
}

}  // namespace hgp::noise
