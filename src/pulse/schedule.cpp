#include "pulse/schedule.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <tuple>

#include "common/error.hpp"

namespace hgp::pulse {

namespace {

void append_hex(std::string& out, const char* tag, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s%a", tag, v);
  out += buf;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Field-for-field instruction equality: every field fingerprint() renders.
bool same_instruction(const Play& a, const Play& b) {
  return a.channel == b.channel && a.shape == b.shape;
}
bool same_instruction(const Delay& a, const Delay& b) {
  return a.channel == b.channel && a.duration == b.duration;
}
bool same_instruction(const ShiftPhase& a, const ShiftPhase& b) {
  return a.channel == b.channel && same_bits(a.phase, b.phase);
}
bool same_instruction(const SetPhase& a, const SetPhase& b) {
  return a.channel == b.channel && same_bits(a.phase, b.phase);
}
bool same_instruction(const ShiftFrequency& a, const ShiftFrequency& b) {
  return a.channel == b.channel && same_bits(a.freq_ghz, b.freq_ghz);
}
bool same_instruction(const SetFrequency& a, const SetFrequency& b) {
  return a.channel == b.channel && same_bits(a.freq_ghz, b.freq_ghz);
}
bool same_instruction(const Acquire& a, const Acquire& b) {
  return a.qubit == b.qubit && a.duration == b.duration;
}

}  // namespace

Channel instruction_channel(const Instruction& inst) {
  return std::visit(
      [](const auto& i) -> Channel {
        using T = std::decay_t<decltype(i)>;
        if constexpr (std::is_same_v<T, Acquire>)
          return Channel::acquire(i.qubit);
        else
          return i.channel;
      },
      inst);
}

int instruction_duration(const Instruction& inst) {
  return std::visit(
      [](const auto& i) -> int {
        using T = std::decay_t<decltype(i)>;
        if constexpr (std::is_same_v<T, Play>)
          return i.shape.duration();
        else if constexpr (std::is_same_v<T, Delay>)
          return i.duration;
        else if constexpr (std::is_same_v<T, Acquire>)
          return i.duration;
        else
          return 0;
      },
      inst);
}

int Schedule::duration() const {
  int d = 0;
  for (const auto& [c, end] : channel_end_) d = std::max(d, end);
  return d;
}

int Schedule::channel_duration(const Channel& c) const {
  const auto it = channel_end_.find(c);
  return it == channel_end_.end() ? 0 : it->second;
}

std::vector<Channel> Schedule::channels() const {
  std::vector<Channel> out;
  out.reserve(channel_end_.size());
  for (const auto& [c, end] : channel_end_) out.push_back(c);
  return out;
}

Schedule& Schedule::append(Instruction inst) {
  const Channel c = instruction_channel(inst);
  return insert(channel_duration(c), std::move(inst));
}

Schedule& Schedule::insert(int t0, Instruction inst) {
  HGP_REQUIRE(t0 >= 0, "Schedule::insert: negative start time");
  const Channel c = instruction_channel(inst);
  const int end = t0 + instruction_duration(inst);
  auto& channel_end = channel_end_[c];
  channel_end = std::max(channel_end, end);
  // Stored order is by start time, ties in insertion order: the instruction
  // goes after every one that starts at or before t0. An append at the end
  // of the timeline moves nothing.
  const auto pos = std::upper_bound(
      instructions_.begin(), instructions_.end(), t0,
      [](int t, const TimedInstruction& ti) { return t < ti.t0; });
  instructions_.insert(pos, TimedInstruction{t0, std::move(inst)});
  return *this;
}

Schedule& Schedule::insert(int t0, const Schedule& other) {
  if (&other == this) {
    const Schedule copy = other;  // inserting grows the vector being read
    return insert(t0, copy);
  }
  const std::size_t need = instructions_.size() + other.instructions_.size();
  if (need > instructions_.capacity())
    instructions_.reserve(std::max(need, 2 * instructions_.capacity()));
  for (const TimedInstruction& ti : other.instructions_) insert(t0 + ti.t0, ti.inst);
  return *this;
}

Schedule& Schedule::append_sequential(const Schedule& other) {
  return insert(duration(), other);
}

Schedule& Schedule::append_aligned(const Schedule& other) {
  int t0 = 0;
  for (const Channel& c : other.channels()) t0 = std::max(t0, channel_duration(c));
  return insert(t0, other);
}

Schedule& Schedule::left_align() {
  if (instructions_.empty()) return *this;
  int min_t0 = instructions_.front().t0;
  for (const TimedInstruction& ti : instructions_) min_t0 = std::min(min_t0, ti.t0);
  if (min_t0 == 0) return *this;
  for (TimedInstruction& ti : instructions_) ti.t0 -= min_t0;
  for (auto& [c, end] : channel_end_) end -= min_t0;
  return *this;
}

std::size_t Schedule::play_count() const {
  return static_cast<std::size_t>(
      std::count_if(instructions_.begin(), instructions_.end(), [](const TimedInstruction& ti) {
        return std::holds_alternative<Play>(ti.inst);
      }));
}

std::uint64_t Schedule::fingerprint() const {
  struct Record {
    int t0;
    Channel channel;
    std::string text;
  };
  std::vector<Record> records;
  records.reserve(instructions_.size());
  for (const TimedInstruction& ti : instructions_) {
    Record r;
    r.t0 = ti.t0;
    r.channel = instruction_channel(ti.inst);
    std::visit(
        [&r](const auto& i) {
          using T = std::decay_t<decltype(i)>;
          if constexpr (std::is_same_v<T, Play>)
            r.text = "P" + i.shape.key_str();
          else if constexpr (std::is_same_v<T, Delay>)
            r.text = "D" + std::to_string(i.duration);
          else if constexpr (std::is_same_v<T, ShiftPhase>)
            append_hex(r.text, "p+", i.phase);
          else if constexpr (std::is_same_v<T, SetPhase>)
            append_hex(r.text, "p=", i.phase);
          else if constexpr (std::is_same_v<T, ShiftFrequency>)
            append_hex(r.text, "f+", i.freq_ghz);
          else if constexpr (std::is_same_v<T, SetFrequency>)
            append_hex(r.text, "f=", i.freq_ghz);
          else  // Acquire
            r.text = "A" + std::to_string(i.duration);
        },
        ti.inst);
    records.push_back(std::move(r));
  }
  // Canonical order: (t0, channel), stable within a channel. Instructions on
  // distinct channels at one t0 commute (independent frames, additive drive
  // terms), so interleaving differences across channels must not change the
  // key; same-channel order is semantics (SetPhase then ShiftPhase != the
  // reverse) and is preserved.
  std::stable_sort(records.begin(), records.end(), [](const Record& a, const Record& b) {
    return std::tie(a.t0, a.channel) < std::tie(b.t0, b.channel);
  });

  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;  // FNV prime
    }
  };
  for (const Record& r : records) {
    mix(std::to_string(r.t0));
    mix(r.channel.str());
    mix(r.text);
    mix(";");
  }
  return h;
}

bool Schedule::operator==(const Schedule& o) const {
  if (instructions_.size() != o.instructions_.size()) return false;
  for (std::size_t i = 0; i < instructions_.size(); ++i) {
    const TimedInstruction& x = instructions_[i];
    const TimedInstruction& y = o.instructions_[i];
    if (x.t0 != y.t0 || x.inst.index() != y.inst.index()) return false;
    const bool same = std::visit(
        [&y](const auto& xi) {
          return same_instruction(xi, std::get<std::decay_t<decltype(xi)>>(y.inst));
        },
        x.inst);
    if (!same) return false;
  }
  return true;
}

std::string Schedule::draw() const {
  std::ostringstream os;
  os << "Schedule";
  if (!name_.empty()) os << " '" << name_ << "'";
  os << " (duration " << duration() << "dt)\n";
  const double scale = duration() > 96 ? 96.0 / duration() : 1.0;
  for (const Channel& c : channels()) {
    os << "  " << c.str() << ": ";
    std::string row(static_cast<std::size_t>(duration() * scale) + 1, '.');
    for (const TimedInstruction& ti : instructions_) {
      if (!(instruction_channel(ti.inst) == c)) continue;
      const int t0 = static_cast<int>(ti.t0 * scale);
      const int d = instruction_duration(ti.inst);
      if (d == 0) {
        char mark = '|';
        if (std::holds_alternative<ShiftPhase>(ti.inst) ||
            std::holds_alternative<SetPhase>(ti.inst))
          mark = 'z';
        if (std::holds_alternative<ShiftFrequency>(ti.inst) ||
            std::holds_alternative<SetFrequency>(ti.inst))
          mark = 'f';
        if (static_cast<std::size_t>(t0) < row.size()) row[static_cast<std::size_t>(t0)] = mark;
        continue;
      }
      const int span = std::max(1, static_cast<int>(d * scale));
      const char fill = std::holds_alternative<Play>(ti.inst) ? '#' : '_';
      for (int t = t0; t < t0 + span && static_cast<std::size_t>(t) < row.size(); ++t)
        row[static_cast<std::size_t>(t)] = fill;
    }
    os << row << "\n";
  }
  return os.str();
}

}  // namespace hgp::pulse
