#pragma once

#include <map>
#include <utility>
#include <vector>

#include "pulse/schedule.hpp"

namespace hgp::pulse {

/// Per-qubit single-qubit gate calibration. SX/X are DRAG pulses on the
/// drive channel with amplitude fixed analytically from the drive rate:
/// rotation angle = 2π · rate · amp · area(unit envelope).
struct QubitCalibration {
  double drive_rate_ghz = 0.11;
  int sx_duration = 160;  // dt samples; 2 SX pulses = the paper's 320dt mixer
  double sx_sigma = 40.0;
  double drag_beta = 0.0;  // 2-level model: no leakage level, so calibrated DRAG beta is 0
  int readout_duration = 3400;  // dt samples (overridden per backend)
};

/// Per-directed-pair cross-resonance calibration (effective Hamiltonian
/// coefficients in GHz plus the echo pulse geometry).
struct CrCalibration {
  double mu_zx_ghz = 0.0030;
  double mu_ix_ghz = 0.0006;
  double mu_zi_ghz = 0.0009;
  int cr_duration = 704;  // per echo half, dt samples
  double cr_sigma = 64.0;
  double cr_width = 448.0;
};

/// Analytic gate -> schedule calibrations on physical qubits/channels,
/// mirroring an IBM backend's instruction schedule map. Virtual RZ is a
/// ShiftPhase(-angle) on the qubit's drive channel and on every control
/// channel targeting that qubit (the CR drive lives in the target's frame).
class CalibrationSet {
 public:
  CalibrationSet() = default;

  void set_qubit(std::size_t q, QubitCalibration cal);
  /// Register the directed control channel u for (control, target).
  void set_cr(std::size_t control, std::size_t target, std::size_t u_index, CrCalibration cal);

  const QubitCalibration& qubit(std::size_t q) const;
  const CrCalibration& cr(std::size_t control, std::size_t target) const;
  std::size_t control_channel(std::size_t control, std::size_t target) const;
  bool has_cr(std::size_t control, std::size_t target) const;

  /// Analytic SX amplitude for qubit q (rotation π/2).
  double sx_amp(std::size_t q) const;
  /// Analytic per-half CR amplitude for an echoed ZX(theta).
  double cr_amp(std::size_t control, std::size_t target, double theta) const;


  // ----- schedule builders (all on physical channels) -----
  /// Virtual RZ(angle) on q: phase shifts only, zero duration.
  Schedule rz(std::size_t q, double angle) const;
  Schedule sx(std::size_t q) const;
  Schedule x(std::size_t q) const;
  /// Direct RX(theta) as a single amplitude-scaled DRAG pulse (the
  /// pulse-efficient form; |theta| <= pi).
  Schedule rx_direct(std::size_t q, double theta) const;
  /// Echoed cross-resonance exp(-i theta/2 ZX): CR(+), X(c), CR(-), X(c),
  /// with the analytic virtual-RZ correction of the residual ZI term.
  Schedule ecr(std::size_t control, std::size_t target, double theta) const;
  /// CX via ECR: CX = RZ_c(-pi/2) · RX_t(-pi/2) · ZX(pi/2) (global phase
  /// dropped).
  Schedule cx(std::size_t control, std::size_t target) const;
  /// Pulse-efficient RZZ(theta) = (I⊗H) ZX(theta) (I⊗H), one echo instead
  /// of the two CX of the gate-level decomposition.
  Schedule rzz_direct(std::size_t control, std::size_t target, double theta) const;
  /// Readout: measure-channel stimulus plus acquire window.
  Schedule measure(const std::vector<std::size_t>& qubits) const;

  /// Net frame phase accumulated by ShiftPhase instructions on q's drive
  /// channel in a schedule. The exact block unitary of a lowered schedule is
  /// (⊗_q RZ(-shift_q)) · U_schedule; executors use this to undo the
  /// deferred virtual-Z frames.
  static double drive_phase_shift(const Schedule& sched, std::size_t q);

 private:
  /// A calibration plus the area (ns) of its unit-amplitude envelope — the
  /// DRAG pulse of a qubit, the CR half of a pair. set_qubit/set_cr
  /// integrate it once; sx_amp/cr_amp read it instead of re-integrating the
  /// envelope on every schedule build.
  template <typename Cal>
  struct Calibrated {
    Cal cal;
    double unit_area_ns = 0.0;
  };
  const Calibrated<QubitCalibration>& qubit_entry(std::size_t q) const;
  const Calibrated<CrCalibration>& cr_entry(std::size_t control, std::size_t target) const;

  std::map<std::size_t, Calibrated<QubitCalibration>> qubits_;
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> cr_channel_;
  std::map<std::pair<std::size_t, std::size_t>, Calibrated<CrCalibration>> cr_cal_;
};

}  // namespace hgp::pulse
