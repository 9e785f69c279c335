#include "pulse/calibration.hpp"

#include <cmath>

#include "common/error.hpp"
#include "linalg/types.hpp"

namespace hgp::pulse {

void CalibrationSet::set_qubit(std::size_t q, QubitCalibration cal) {
  const PulseShape unit = PulseShape::drag(cal.sx_duration, 1.0, cal.sx_sigma, cal.drag_beta);
  qubits_[q] = {cal, unit.area_ns()};
}

void CalibrationSet::set_cr(std::size_t control, std::size_t target, std::size_t u_index,
                            CrCalibration cal) {
  const PulseShape unit =
      PulseShape::gaussian_square(cal.cr_duration, 1.0, cal.cr_sigma, cal.cr_width);
  cr_channel_[{control, target}] = u_index;
  cr_cal_[{control, target}] = {cal, unit.area_ns()};
}

const CalibrationSet::Calibrated<QubitCalibration>& CalibrationSet::qubit_entry(
    std::size_t q) const {
  const auto it = qubits_.find(q);
  HGP_REQUIRE(it != qubits_.end(), "CalibrationSet: qubit not calibrated");
  return it->second;
}

const CalibrationSet::Calibrated<CrCalibration>& CalibrationSet::cr_entry(
    std::size_t control, std::size_t target) const {
  const auto it = cr_cal_.find({control, target});
  HGP_REQUIRE(it != cr_cal_.end(), "CalibrationSet: pair has no CR calibration");
  return it->second;
}

const QubitCalibration& CalibrationSet::qubit(std::size_t q) const {
  return qubit_entry(q).cal;
}

const CrCalibration& CalibrationSet::cr(std::size_t control, std::size_t target) const {
  return cr_entry(control, target).cal;
}

std::size_t CalibrationSet::control_channel(std::size_t control, std::size_t target) const {
  const auto it = cr_channel_.find({control, target});
  HGP_REQUIRE(it != cr_channel_.end(), "CalibrationSet: pair has no control channel");
  return it->second;
}

bool CalibrationSet::has_cr(std::size_t control, std::size_t target) const {
  return cr_cal_.count({control, target}) > 0;
}

double CalibrationSet::sx_amp(std::size_t q) const {
  const Calibrated<QubitCalibration>& e = qubit_entry(q);
  // angle = 2π * rate * amp * area  ->  amp for a π/2 rotation.
  return 0.25 / (e.cal.drive_rate_ghz * e.unit_area_ns);
}

double CalibrationSet::cr_amp(std::size_t control, std::size_t target, double theta) const {
  const Calibrated<CrCalibration>& e = cr_entry(control, target);
  // Echoed ZX(theta): each half rotates by theta/2 in the exp(-i a/2 ZX)
  // convention, so 2π * mu_zx * amp * area = theta / 2.
  return std::abs(theta) / (4.0 * la::kPi * e.cal.mu_zx_ghz * e.unit_area_ns);
}

Schedule CalibrationSet::rz(std::size_t q, double angle) const {
  Schedule s("rz");
  s.append(ShiftPhase{-angle, Channel::drive(q)});
  // The CR drive of every pair targeting q lives in q's frame; the map
  // walks the pairs in (control, target) order.
  for (const auto& [pair, u] : cr_channel_)
    if (pair.second == q) s.append(ShiftPhase{-angle, Channel::control(u)});
  return s;
}

Schedule CalibrationSet::sx(std::size_t q) const {
  const QubitCalibration& c = qubit(q);
  Schedule s("sx");
  s.append(Play{PulseShape::drag(c.sx_duration, sx_amp(q), c.sx_sigma, c.drag_beta),
                Channel::drive(q)});
  return s;
}

Schedule CalibrationSet::x(std::size_t q) const {
  const QubitCalibration& c = qubit(q);
  Schedule s("x");
  s.append(Play{PulseShape::drag(c.sx_duration, 2.0 * sx_amp(q), c.sx_sigma, c.drag_beta),
                Channel::drive(q)});
  return s;
}

Schedule CalibrationSet::rx_direct(std::size_t q, double theta) const {
  HGP_REQUIRE(std::abs(theta) <= la::kPi + 1e-9, "rx_direct: |theta| must be <= pi");
  const QubitCalibration& c = qubit(q);
  const double amp = sx_amp(q) * std::abs(theta) / (la::kPi / 2.0);
  const double angle = theta >= 0.0 ? 0.0 : la::kPi;
  Schedule s("rx");
  s.append(Play{PulseShape::drag(c.sx_duration, amp, c.sx_sigma, c.drag_beta, angle),
                Channel::drive(q)});
  return s;
}

Schedule CalibrationSet::ecr(std::size_t control, std::size_t target, double theta) const {
  const CrCalibration& c = cr(control, target);
  const std::size_t u = control_channel(control, target);
  const double amp = cr_amp(control, target, theta);
  HGP_REQUIRE(amp <= 1.0, "ecr: requested angle needs amplitude > 1; widen the CR pulse");
  const double sign_angle = theta >= 0.0 ? 0.0 : la::kPi;

  const PulseShape cr_plus =
      PulseShape::gaussian_square(c.cr_duration, amp, c.cr_sigma, c.cr_width, sign_angle);
  const PulseShape cr_minus = cr_plus.with_angle(sign_angle + la::kPi);

  Schedule s("ecr");
  Schedule half1("cr+");
  half1.append(Play{cr_plus, Channel::control(u)});
  Schedule half2("cr-");
  half2.append(Play{cr_minus, Channel::control(u)});

  s.append_sequential(half1);
  s.append_sequential(x(control));
  s.append_sequential(half2);
  s.append_sequential(x(control));
  // Both the linear IX term and the quadratic ZI Stark shift cancel exactly
  // across the X-conjugated halves (all effective CR terms commute), so no
  // residual virtual-RZ correction is needed for the echoed gate.
  return s;
}

Schedule CalibrationSet::cx(std::size_t control, std::size_t target) const {
  // CX = RZ_c(-π/2) · RX_t(-π/2) · ZX(π/2), up to global phase.
  Schedule s("cx");
  s.append_sequential(ecr(control, target, la::kPi / 2.0));
  s.append_sequential(rx_direct(target, -la::kPi / 2.0));
  s.append_sequential(rz(control, -la::kPi / 2.0));
  return s;
}

Schedule CalibrationSet::rzz_direct(std::size_t control, std::size_t target,
                                    double theta) const {
  // RZZ(θ) = (I⊗H) · ZX(θ) · (I⊗H); H = RZ(π/2)·SX·RZ(π/2) up to phase.
  Schedule h("h");
  h.append_sequential(rz(target, la::kPi / 2.0));
  h.append_sequential(sx(target));
  h.append_sequential(rz(target, la::kPi / 2.0));

  Schedule s("rzz");
  s.append_sequential(h);
  s.append_sequential(ecr(control, target, theta));
  s.append_sequential(h);
  return s;
}

Schedule CalibrationSet::measure(const std::vector<std::size_t>& qubits) const {
  Schedule s("measure");
  for (std::size_t q : qubits) {
    const QubitCalibration& c = qubit(q);
    s.insert(0, Play{PulseShape::gaussian_square(c.readout_duration, 0.2, 64.0,
                                                 c.readout_duration - 256.0),
                     Channel::measure(q)});
    s.insert(0, Acquire{c.readout_duration, q});
  }
  return s;
}

double CalibrationSet::drive_phase_shift(const Schedule& sched, std::size_t q) {
  double total = 0.0;
  for (const TimedInstruction& ti : sched.instructions()) {
    if (const auto* sp = std::get_if<ShiftPhase>(&ti.inst))
      if (sp->channel == Channel::drive(q)) total += sp->phase;
  }
  return total;
}

}  // namespace hgp::pulse
