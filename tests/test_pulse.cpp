#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "backend/presets.hpp"
#include "common/error.hpp"
#include "pulse/calibration.hpp"
#include "pulse/schedule.hpp"
#include "pulse/shapes.hpp"

using namespace hgp;
using pulse::Channel;
using pulse::PulseShape;
using pulse::Schedule;

TEST(Shapes, GaussianIsLiftedAndPeaked) {
  const PulseShape g = PulseShape::gaussian(160, 0.2, 40.0);
  // Ends near zero (lifted), peak near amp at the center.
  EXPECT_LT(std::abs(g.sample(0)), 0.02);
  EXPECT_LT(std::abs(g.sample(159)), 0.02);
  EXPECT_NEAR(std::abs(g.sample(80)), 0.2, 1e-3);
  // Outside the window: exactly zero.
  EXPECT_EQ(g.sample(-1), la::cxd(0, 0));
  EXPECT_EQ(g.sample(160), la::cxd(0, 0));
}

TEST(Shapes, GaussianSquareFlatTop) {
  const PulseShape s = PulseShape::gaussian_square(704, 0.3, 64.0, 448.0);
  const double rise = (704 - 448) / 2.0;
  for (int t = static_cast<int>(rise) + 1; t < static_cast<int>(rise + 448) - 1; ++t)
    EXPECT_NEAR(std::abs(s.sample(t)), 0.3, 1e-9);
  EXPECT_LT(std::abs(s.sample(0)), 0.03);
  EXPECT_LT(std::abs(s.sample(703)), 0.03);
}

TEST(Shapes, DragHasDerivativeQuadrature) {
  const PulseShape d = PulseShape::drag(160, 0.2, 40.0, 0.5);
  // Imag part is odd around the center: positive on one side, negative on
  // the other, ~zero at the center.
  EXPECT_NEAR(d.sample(80).imag(), 0.0, 1e-3);
  EXPECT_GT(std::abs(d.sample(40).imag()), 1e-4);
  EXPECT_NEAR(d.sample(40).imag(), -d.sample(120).imag(), 1e-3);
}

TEST(Shapes, AngleRotatesEnvelope) {
  const PulseShape p = PulseShape::gaussian(64, 0.5, 16.0, la::kPi / 2);
  // Pure imaginary at the peak when angle = π/2.
  EXPECT_NEAR(p.sample(32).real(), 0.0, 1e-9);
  EXPECT_NEAR(p.sample(32).imag(), 0.5, 2e-2);
}

TEST(Shapes, AreaScalesLinearlyWithAmp) {
  const PulseShape a = PulseShape::gaussian(160, 0.1, 40.0);
  const PulseShape b = a.with_amp(0.2);
  EXPECT_NEAR(b.area_ns(), 2.0 * a.area_ns(), 1e-9);
}

class DurationRescale : public ::testing::TestWithParam<int> {};

TEST_P(DurationRescale, AreaScalesWithDuration) {
  // with_duration scales sigma/width proportionally, so area ∝ duration.
  const PulseShape base = PulseShape::gaussian_square(320, 0.25, 40.0, 160.0);
  const int dur = GetParam();
  const PulseShape scaled = base.with_duration(dur);
  EXPECT_EQ(scaled.duration(), dur);
  EXPECT_NEAR(scaled.area_ns() / base.area_ns(), double(dur) / 320.0, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Durations, DurationRescale, ::testing::Values(64, 128, 192, 256, 448, 640));

TEST(Shapes, RejectsInvalidParameters) {
  EXPECT_THROW(PulseShape::gaussian(0, 0.1, 10.0), Error);
  EXPECT_THROW(PulseShape::gaussian(64, 1.5, 10.0), Error);
  EXPECT_THROW(PulseShape::gaussian(64, 0.1, -1.0), Error);
  EXPECT_THROW(PulseShape::gaussian_square(64, 0.1, 10.0, 80.0), Error);
}

TEST(Schedule, AppendAdvancesPerChannel) {
  Schedule s;
  s.append(pulse::Play{PulseShape::gaussian(160, 0.1, 40.0), Channel::drive(0)});
  s.append(pulse::Play{PulseShape::gaussian(160, 0.1, 40.0), Channel::drive(0)});
  s.append(pulse::Play{PulseShape::gaussian(64, 0.1, 16.0), Channel::drive(1)});
  EXPECT_EQ(s.channel_duration(Channel::drive(0)), 320);
  EXPECT_EQ(s.channel_duration(Channel::drive(1)), 64);
  EXPECT_EQ(s.duration(), 320);
  EXPECT_EQ(s.play_count(), 3u);
}

TEST(Schedule, SequentialVsAlignedComposition) {
  Schedule a;
  a.append(pulse::Play{PulseShape::constant(100, 0.1), Channel::drive(0)});
  Schedule b;
  b.append(pulse::Play{PulseShape::constant(50, 0.1), Channel::drive(1)});

  Schedule seq = a;
  seq.append_sequential(b);
  EXPECT_EQ(seq.duration(), 150);  // b starts after a's full duration

  Schedule par = a;
  par.append_aligned(b);
  EXPECT_EQ(par.duration(), 100);  // disjoint channels run in parallel
}

TEST(Schedule, FrameInstructionsHaveZeroDuration) {
  Schedule s;
  s.append(pulse::ShiftPhase{1.0, Channel::drive(0)});
  s.append(pulse::ShiftFrequency{0.05, Channel::drive(0)});
  EXPECT_EQ(s.duration(), 0);
  s.append(pulse::Delay{32, Channel::drive(0)});
  EXPECT_EQ(s.duration(), 32);
}

TEST(Schedule, DrawMentionsChannels) {
  Schedule s("demo");
  s.append(pulse::Play{PulseShape::gaussian(160, 0.1, 40.0), Channel::drive(2)});
  s.append(pulse::ShiftPhase{0.5, Channel::drive(2)});
  const std::string art = s.draw();
  EXPECT_NE(art.find("d2"), std::string::npos);
  EXPECT_NE(art.find("#"), std::string::npos);
}

namespace {
pulse::CalibrationSet two_qubit_cal() {
  pulse::CalibrationSet cal;
  pulse::QubitCalibration q;
  q.drive_rate_ghz = 0.11;
  cal.set_qubit(0, q);
  cal.set_qubit(1, q);
  pulse::CrCalibration cr;
  cal.set_cr(0, 1, 0, cr);
  cal.set_cr(1, 0, 1, cr);
  return cal;
}
}  // namespace

TEST(Calibration, SxAmpMatchesAnalyticFormula) {
  const auto cal = two_qubit_cal();
  const double amp = cal.sx_amp(0);
  const PulseShape unit = PulseShape::drag(160, 1.0, 40.0, 0.0);
  EXPECT_NEAR(2.0 * la::kPi * 0.11 * amp * unit.area_ns(), la::kPi / 2.0, 1e-9);
  EXPECT_GT(amp, 0.0);
  EXPECT_LT(amp, 1.0);
}

TEST(Calibration, CxScheduleShape) {
  const auto cal = two_qubit_cal();
  const Schedule cx = cal.cx(0, 1);
  // Echo: two CR halves + two X echo pulses + one RX(-pi/2) on the target.
  EXPECT_EQ(cx.play_count(), 5u);
  // 2*704 (CR) + 2*160 (echo X) + 160 (target RX).
  EXPECT_EQ(cx.duration(), 2 * 704 + 2 * 160 + 160);
}

TEST(Calibration, RzIsVirtual) {
  const auto cal = two_qubit_cal();
  const Schedule rz = cal.rz(0, 1.23);
  EXPECT_EQ(rz.duration(), 0);
  EXPECT_EQ(rz.play_count(), 0u);
  // Shifts the drive channel and the CR channel targeting qubit 0.
  EXPECT_NEAR(pulse::CalibrationSet::drive_phase_shift(rz, 0), -1.23, 1e-12);
}

TEST(Calibration, RzShiftsDriveThenEveryTargetingControlChannel) {
  const backend::FakeBackend dev = backend::make_toronto();
  const pulse::CalibrationSet& cal = dev.calibrations();
  for (std::size_t q = 0; q < dev.num_qubits(); ++q) {
    // Reference: every directed coupled pair (c, q), in (control, target)
    // order, mapped to its control channel.
    std::vector<std::size_t> controls;
    for (const auto& [a, b] : dev.coupling().edges()) {
      if (b == q) controls.push_back(a);
      if (a == q) controls.push_back(b);
    }
    std::sort(controls.begin(), controls.end());
    std::vector<Channel> expected{Channel::drive(q)};
    for (std::size_t c : controls) expected.push_back(Channel::control(cal.control_channel(c, q)));

    const double a = 0.375 + 0.01 * static_cast<double>(q);
    const Schedule rz = cal.rz(q, a);
    ASSERT_EQ(rz.size(), expected.size()) << "qubit " << q;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const pulse::TimedInstruction& ti = rz.instructions()[i];
      const auto* sp = std::get_if<pulse::ShiftPhase>(&ti.inst);
      ASSERT_NE(sp, nullptr) << "qubit " << q << " instruction " << i;
      EXPECT_EQ(ti.t0, 0);
      EXPECT_EQ(sp->phase, -a);
      EXPECT_TRUE(sp->channel == expected[i]) << "qubit " << q << " instruction " << i << ": "
                                              << sp->channel.str() << " vs "
                                              << expected[i].str();
    }
  }
}

TEST(Calibration, EcrAmpScalesWithAngle) {
  const auto cal = two_qubit_cal();
  const double a1 = cal.cr_amp(0, 1, la::kPi / 2);
  const double a2 = cal.cr_amp(0, 1, la::kPi / 4);
  EXPECT_NEAR(a1 / a2, 2.0, 1e-9);
}

TEST(Calibration, MeasureSchedule) {
  auto cal = two_qubit_cal();
  const Schedule m = cal.measure({0, 1});
  EXPECT_EQ(m.play_count(), 2u);
  EXPECT_GT(m.duration(), 0);
}

// ---- Schedule::fingerprint — the pulse-block cache-key primitive ----------

namespace {
/// A mixer-style block: frame knobs wrapped around one Gaussian play.
Schedule mixer_like(double amp, double phase, double freq) {
  Schedule s("mixer");
  const Channel d = Channel::drive(0);
  s.append(pulse::ShiftPhase{phase, d});
  s.append(pulse::ShiftFrequency{freq, d});
  s.append(pulse::Play{PulseShape::gaussian(64, amp, 16.0), d});
  s.append(pulse::ShiftFrequency{-freq, d});
  s.append(pulse::ShiftPhase{-phase, d});
  return s;
}
}  // namespace

TEST(ScheduleFingerprint, EqualContentKeysEqually) {
  const Schedule a = mixer_like(0.2, 0.3, 0.05);
  Schedule b = mixer_like(0.2, 0.3, 0.05);
  b.set_name("renamed");  // cosmetic only
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(ScheduleEquality, ComparesEveryFieldBitForBit) {
  const Schedule a = mixer_like(0.2, 0.3, 0.05);
  Schedule b = mixer_like(0.2, 0.3, 0.05);
  b.set_name("renamed");  // cosmetic only, as in fingerprint()
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  EXPECT_TRUE(a != mixer_like(0.2 + 1e-9, 0.3, 0.05));  // shape amplitude
  EXPECT_TRUE(a != mixer_like(0.2, 0.3 + 1e-9, 0.05));  // frame phase
  EXPECT_TRUE(a != mixer_like(0.2, 0.3, 0.05 + 1e-9));  // frame frequency
  EXPECT_TRUE(mixer_like(0.2, 0.0, 0.0) != mixer_like(0.2, -0.0, 0.0));  // sign of zero

  const Channel d = Channel::drive(0);
  const pulse::Play p{PulseShape::gaussian(64, 0.1, 16.0), d};
  Schedule at0;
  at0.insert(0, p);
  Schedule at16;
  at16.insert(16, p);
  EXPECT_TRUE(at0 != at16);  // start time
  Schedule other_channel;
  other_channel.insert(0, pulse::Play{p.shape, Channel::drive(1)});
  EXPECT_TRUE(at0 != other_channel);
  Schedule drag;
  drag.insert(0, pulse::Play{PulseShape::drag(64, 0.1, 16.0, 0.0), d});
  EXPECT_TRUE(at0 != drag);  // shape kind

  Schedule delay_a, delay_b, acquire_a, acquire_b;
  delay_a.append(pulse::Delay{32, d});
  delay_b.append(pulse::Delay{48, d});
  acquire_a.append(pulse::Acquire{32, 0});
  acquire_b.append(pulse::Acquire{32, 1});
  EXPECT_TRUE(delay_a != delay_b);
  EXPECT_TRUE(acquire_a != acquire_b);
  EXPECT_TRUE(delay_a != acquire_a);  // instruction kind
  EXPECT_TRUE(at0 != Schedule());
}

TEST(ScheduleFingerprint, OrderStableAcrossChannels) {
  // The same physical program assembled in two append orders: plays on
  // distinct channels at one start time commute, so the keys must match.
  const pulse::Play p0{PulseShape::gaussian(64, 0.1, 16.0), Channel::drive(0)};
  const pulse::Play p1{PulseShape::gaussian(64, 0.3, 16.0), Channel::drive(1)};
  Schedule a;
  a.insert(0, p0);
  a.insert(0, p1);
  Schedule b;
  b.insert(0, p1);
  b.insert(0, p0);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(ScheduleFingerprint, NearbyAmplitudeGetsDistinctKey) {
  // The 6-sig-fig collision class the gate thetas were fixed for in PR 1:
  // hexfloat formatting must separate amplitudes that round to one string.
  const Schedule a = mixer_like(0.2, 0.0, 0.0);
  const Schedule b = mixer_like(0.2 + 1e-9, 0.0, 0.0);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(ScheduleFingerprint, FrameParametersDiscriminate) {
  const Schedule base = mixer_like(0.2, 0.3, 0.05);
  EXPECT_NE(base.fingerprint(), mixer_like(0.2, 0.3 + 1e-9, 0.05).fingerprint());
  EXPECT_NE(base.fingerprint(), mixer_like(0.2, 0.3, 0.05 + 1e-9).fingerprint());
}

TEST(ScheduleFingerprint, SameChannelOrderIsSemantic) {
  // SetPhase-then-ShiftPhase is a different frame program than the reverse;
  // canonicalization must not merge them.
  const Channel d = Channel::drive(0);
  Schedule a;
  a.insert(0, pulse::SetPhase{0.4, d});
  a.insert(0, pulse::ShiftPhase{0.7, d});
  Schedule b;
  b.insert(0, pulse::ShiftPhase{0.7, d});
  b.insert(0, pulse::SetPhase{0.4, d});
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(ScheduleFingerprint, TimingAndShapeKindDiscriminate) {
  const pulse::Play p{PulseShape::gaussian(64, 0.1, 16.0), Channel::drive(0)};
  Schedule at0;
  at0.insert(0, p);
  Schedule at16;
  at16.insert(16, p);
  EXPECT_NE(at0.fingerprint(), at16.fingerprint());

  Schedule gauss;
  gauss.append(pulse::Play{PulseShape::gaussian(64, 0.1, 16.0), Channel::drive(0)});
  Schedule drag;
  drag.append(pulse::Play{PulseShape::drag(64, 0.1, 16.0, 0.0), Channel::drive(0)});
  EXPECT_NE(gauss.fingerprint(), drag.fingerprint());
}

// ---- Schedule construction against a sort-on-every-insert reference -------

namespace {

/// One instruction as text: start time, kind, channel, duration and exact
/// parameters, so two stored orders compare element by element.
std::string render(const pulse::TimedInstruction& ti) {
  std::string out = std::to_string(ti.t0) + ":" + std::to_string(ti.inst.index()) + ":" +
                    pulse::instruction_channel(ti.inst).str() + ":" +
                    std::to_string(pulse::instruction_duration(ti.inst)) + ":";
  std::visit(
      [&out](const auto& i) {
        using T = std::decay_t<decltype(i)>;
        char buf[48] = "";
        if constexpr (std::is_same_v<T, pulse::Play>)
          out += i.shape.key_str();
        else if constexpr (std::is_same_v<T, pulse::ShiftPhase> ||
                           std::is_same_v<T, pulse::SetPhase>)
          std::snprintf(buf, sizeof buf, "%a", i.phase);
        else if constexpr (std::is_same_v<T, pulse::ShiftFrequency> ||
                           std::is_same_v<T, pulse::SetFrequency>)
          std::snprintf(buf, sizeof buf, "%a", i.freq_ghz);
        out += buf;
      },
      ti.inst);
  return out;
}

/// The stored order Schedule promises, computed the slow way: append, then
/// stable-sort the whole list by start time after every insert.
struct RefSchedule {
  std::vector<pulse::TimedInstruction> insts;

  void insert(int t0, const pulse::Instruction& inst) {
    insts.push_back({t0, inst});
    std::stable_sort(insts.begin(), insts.end(),
                     [](const pulse::TimedInstruction& a, const pulse::TimedInstruction& b) {
                       return a.t0 < b.t0;
                     });
  }
  void insert(int t0, RefSchedule other) {  // by value: self-insert is safe
    for (const pulse::TimedInstruction& ti : other.insts) insert(t0 + ti.t0, ti.inst);
  }
  int channel_duration(const Channel& c) const {
    int end = 0;
    for (const pulse::TimedInstruction& ti : insts)
      if (pulse::instruction_channel(ti.inst) == c)
        end = std::max(end, ti.t0 + pulse::instruction_duration(ti.inst));
    return end;
  }
  int duration() const {
    int end = 0;
    for (const pulse::TimedInstruction& ti : insts)
      end = std::max(end, ti.t0 + pulse::instruction_duration(ti.inst));
    return end;
  }
  void append(const pulse::Instruction& inst) {
    insert(channel_duration(pulse::instruction_channel(inst)), inst);
  }
  void append_sequential(const RefSchedule& other) { insert(duration(), other); }
  void append_aligned(const RefSchedule& other) {
    int t0 = 0;
    for (const pulse::TimedInstruction& ti : other.insts)
      t0 = std::max(t0, channel_duration(pulse::instruction_channel(ti.inst)));
    insert(t0, other);
  }
  void left_align() {
    if (insts.empty()) return;
    int min_t0 = insts.front().t0;
    for (const pulse::TimedInstruction& ti : insts) min_t0 = std::min(min_t0, ti.t0);
    for (pulse::TimedInstruction& ti : insts) ti.t0 -= min_t0;
  }
};

const std::vector<Channel>& property_channels() {
  static const std::vector<Channel> channels{Channel::drive(0), Channel::drive(1),
                                             Channel::control(0), Channel::measure(0),
                                             Channel::acquire(0)};
  return channels;
}

/// A random instruction with a parameter no other draw shares, on one of a
/// few channels, with durations on a coarse grid so start times tie often.
pulse::Instruction random_instruction(std::mt19937& gen, int& tag) {
  const double x = 0.001 * ++tag;
  std::uniform_int_distribution<int> kind(0, 6), ch(0, 3), dur(0, 2);
  const Channel c = property_channels()[static_cast<std::size_t>(ch(gen))];
  const int d = 16 * (1 + dur(gen));
  switch (kind(gen)) {
    case 0: return pulse::Play{PulseShape::constant(d, x), c};
    case 1: return pulse::Delay{d + tag, c};
    case 2: return pulse::ShiftPhase{x, c};
    case 3: return pulse::SetPhase{x, c};
    case 4: return pulse::ShiftFrequency{x, c};
    case 5: return pulse::SetFrequency{x, c};
    default: return pulse::Acquire{d, 0};
  }
}

/// Checks `s` against `ref`: stored order, start times, channel and total
/// durations, and that a schedule rebuilt from the reference order compares
/// and fingerprints equal.
void expect_matches(const Schedule& s, const RefSchedule& ref, const std::string& where) {
  ASSERT_EQ(s.size(), ref.insts.size()) << where;
  for (std::size_t i = 0; i < ref.insts.size(); ++i)
    ASSERT_EQ(render(s.instructions()[i]), render(ref.insts[i])) << where << " at " << i;
  for (const Channel& c : property_channels())
    EXPECT_EQ(s.channel_duration(c), ref.channel_duration(c)) << where << " " << c.str();
  EXPECT_EQ(s.duration(), ref.duration()) << where;
  Schedule rebuilt;
  for (const pulse::TimedInstruction& ti : ref.insts) rebuilt.insert(ti.t0, ti.inst);
  EXPECT_TRUE(s == rebuilt) << where;
  EXPECT_EQ(s.fingerprint(), rebuilt.fingerprint()) << where;
}

}  // namespace

TEST(ScheduleProperty, MatchesSortOnEveryInsertReference) {
  for (unsigned seed = 0; seed < 200; ++seed) {
    std::mt19937 gen(seed);
    int tag = 0;
    std::uniform_int_distribution<int> op(0, 7), start(0, 6), len(0, 5);
    // A small random schedule built by out-of-order inserts, with its twin.
    auto random_pair = [&](Schedule& s, RefSchedule& ref) {
      for (int k = len(gen); k > 0; --k) {
        const int t0 = 8 * start(gen);
        const pulse::Instruction inst = random_instruction(gen, tag);
        s.insert(t0, inst);
        ref.insert(t0, inst);
      }
    };

    Schedule s;
    RefSchedule ref;
    for (int step = 0; step < 40; ++step) {
      const std::string where = "seed " + std::to_string(seed) + " step " + std::to_string(step);
      Schedule other;
      RefSchedule other_ref;
      random_pair(other, other_ref);
      switch (op(gen)) {
        case 0: {
          const int t0 = 8 * start(gen);
          const pulse::Instruction inst = random_instruction(gen, tag);
          s.insert(t0, inst);
          ref.insert(t0, inst);
          break;
        }
        case 1: {
          const pulse::Instruction inst = random_instruction(gen, tag);
          s.append(inst);
          ref.append(inst);
          break;
        }
        case 2: {
          const int t0 = 8 * start(gen);
          s.insert(t0, other);
          ref.insert(t0, other_ref);
          break;
        }
        case 3:
          s.append_aligned(other);
          ref.append_aligned(other_ref);
          break;
        case 4:
          s.append_sequential(other);
          ref.append_sequential(other_ref);
          break;
        case 5:
          other.left_align();
          other_ref.left_align();
          expect_matches(other, other_ref, where + " (left-aligned operand)");
          s.append_aligned(other);
          ref.append_aligned(other_ref);
          break;
        case 6:
          s.left_align();
          ref.left_align();
          break;
        default:  // self-insert, kept small: the schedule doubles
          if (s.size() < 32) {
            const int t0 = 8 * start(gen);
            s.insert(t0, s);
            ref.insert(t0, ref);
          }
          break;
      }
      expect_matches(s, ref, where);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(Schedule, SelfInsertEqualsInsertingACopy) {
  Schedule s;
  s.append(pulse::ShiftPhase{0.25, Channel::drive(0)});
  s.append(pulse::Play{PulseShape::gaussian(64, 0.1, 16.0), Channel::drive(0)});
  s.insert(16, pulse::Play{PulseShape::constant(32, 0.2), Channel::control(1)});
  s.append(pulse::ShiftFrequency{0.01, Channel::control(1)});
  for (int round = 0; round < 3; ++round) {
    Schedule expected = s;
    const Schedule copy = s;
    if (round == 1) {  // lands among the existing instructions, not after them
      expected.insert(16, copy);
      s.insert(16, s);
    } else {
      expected.append_sequential(copy);
      s.append_sequential(s);
    }
    EXPECT_TRUE(s == expected) << "round " << round;
    EXPECT_EQ(s.fingerprint(), expected.fingerprint());
    EXPECT_EQ(s.duration(), expected.duration());
  }
  EXPECT_EQ(s.size(), 4u * 8u);
}
