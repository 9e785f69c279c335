#include "ledger.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

namespace perfbench {

std::size_t Recorder::thread_index() {
  return threads_.emplace(std::this_thread::get_id(), threads_.size() + 1).first->second;
}

std::uint64_t Recorder::open(const std::string& name, std::uint64_t parent, std::uint64_t job) {
  if (!enabled_) return 0;
  const std::uint64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  Span s;
  s.name = name;
  s.id = next_id_++;
  s.parent = parent;
  s.job = job;
  s.start_ns = start;
  s.thread = thread_index();
  open_.emplace(s.id, spans_.size());
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Recorder::close(std::uint64_t id) {
  if (!enabled_ || id == 0) return;
  const std::uint64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  spans_[it->second].end_ns = end;
  open_.erase(it);
}

std::vector<Span> Recorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void TracingDispatcher::run(std::vector<std::function<void()>>& tasks) {
  ++batches_;
  tasks_ += tasks.size();
  const std::uint64_t batch = recorder_.open("dispatcher.batch", parent_, job_);
  for (std::function<void()>& task : tasks) {
    const std::uint64_t span = recorder_.open("candidate.task", batch, job_);
    task();
    recorder_.close(span);
  }
  recorder_.close(batch);
}

namespace {

/// Length of the union of [start, end) intervals.
double union_seconds(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::uint64_t covered = 0;
  std::uint64_t cur_start = 0;
  std::uint64_t cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (!open || s > cur_end) {
      if (open) covered += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) covered += cur_end - cur_start;
  return 1e-9 * static_cast<double>(covered);
}

}  // namespace

std::map<std::string, double> self_seconds_by_name(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>> children;
  for (const Span& s : spans)
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    const double total = 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
    auto it = children.find(s.id);
    const double covered = it == children.end() ? 0.0 : union_seconds(it->second);
    out[s.name] += std::max(0.0, total - covered);
  }
  return out;
}

std::map<std::string, double> total_seconds_by_name(const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  for (const Span& s : spans) out[s.name] += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
  return out;
}

std::string chrome_trace_json(const std::vector<Span>& spans, const std::string& process) {
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  os << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\""
     << process << "\"}}";
  char buf[512];
  for (const Span& s : spans) {
    std::snprintf(buf, sizeof buf,
                  ",{\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"name\":\"%s\",\"cat\":\"perfbench\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"job\":%llu,\"span\":%llu,\"parent\":%llu}}",
                  s.thread, s.name.c_str(), 1e-3 * static_cast<double>(s.start_ns - t0),
                  1e-3 * static_cast<double>(s.end_ns - s.start_ns),
                  static_cast<unsigned long long>(s.job), static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent));
    os << buf;
  }
  os << "]}\n";
  return os.str();
}

}  // namespace perfbench
