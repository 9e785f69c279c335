#pragma once

// Benchmark-owned span tracing: the benchmark records a span around each call
// it makes into a layer of the program (job -> run_qaoa -> dispatcher batch
// -> candidate task), keeps the spans in memory, and derives per-layer self
// time and a Chrome trace-event file from them after the run. Nothing inside
// the program is instrumented; every span is timed from the outside.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "optimize/batch.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t job = 0;     // spans of one job share this identifier
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::size_t thread = 0;  // small per-recorder thread index
};

/// Thread-safe in-memory span store. When disabled, open/close are no-ops, so
/// the same code path runs traced and untraced.
class Recorder {
 public:
  explicit Recorder(bool enabled) : enabled_(enabled) {}

  /// Returns the span id (0 when disabled).
  std::uint64_t open(const std::string& name, std::uint64_t parent, std::uint64_t job);
  void close(std::uint64_t id);
  std::vector<Span> spans() const;

 private:
  std::size_t thread_index();

  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::size_t> open_;  // id -> index in spans_
  std::map<std::thread::id, std::size_t> threads_;  // -> small index for trace tracks
  std::uint64_t next_id_ = 1;
};

/// opt::BatchDispatcher that runs each batch's candidate tasks inline, in
/// order, on the calling thread, recording a span per batch and per task
/// under the job's run_qaoa span. Concurrency comes from running several
/// jobs at once, one thread each, as the job service does for
/// single-threaded runs.
class TracingDispatcher : public hgp::opt::BatchDispatcher {
 public:
  TracingDispatcher(Recorder& recorder, std::uint64_t parent, std::uint64_t job)
      : recorder_(recorder), parent_(parent), job_(job) {}

  void run(std::vector<std::function<void()>>& tasks) override;

  std::size_t batches() const { return batches_; }
  std::size_t tasks() const { return tasks_; }

 private:
  Recorder& recorder_;
  std::uint64_t parent_;
  std::uint64_t job_;
  std::size_t batches_ = 0;
  std::size_t tasks_ = 0;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals. Summed per span name.
std::map<std::string, double> self_seconds_by_name(const std::vector<Span>& spans);
/// Total duration per span name.
std::map<std::string, double> total_seconds_by_name(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" complete events, microseconds) that Perfetto
/// and chrome://tracing open. `process` names the trace's single process.
std::string chrome_trace_json(const std::vector<Span>& spans, const std::string& process);

}  // namespace perfbench
