// Repository benchmark driver: runs one workload of the hybrid gate-pulse
// QAOA service stack through its public entry points and prints one JSON
// line of results. perfbench/run.py builds this binary, runs it, checks the
// results against perfbench/reference.json and prints the benchmark output.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--out <dir>]
//
// --trace 0 measures the end-to-end metrics with no tracing at all.
// --trace 1 first takes the host roofline, repeats the workload's service
// phase, then runs the workload's ledger jobs twice through core::run_qaoa
// with a benchmark-owned dispatcher (untraced, then traced) and probes each
// layer directly; it writes a Chrome trace and a layer ledger to --out.
// Workloads, metrics and their layer map are described in perfbench/README.md.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "backend/presets.hpp"
#include "common/rng.hpp"
#include "core/calibration_run.hpp"
#include "core/executor.hpp"
#include "core/models.hpp"
#include "core/workflow.hpp"
#include "graph/instances.hpp"
#include "host.hpp"
#include "ledger.hpp"
#include "mitigation/m3.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "pulsesim/simulator.hpp"
#include "serve/block_cache.hpp"
#include "serve/job.hpp"
#include "serve/job_service.hpp"

using namespace hgp;
using perfbench::now_ns;

namespace {

// ---------------------------------------------------------------- workloads

/// One job configuration of a workload.
struct Cell {
  std::string label;
  graph::Instance instance;
  std::string backend;  // preset name; the server resolves it by name
  core::ModelKind kind = core::ModelKind::Hybrid;
  core::RunConfig config;
};

enum class Load { Wire, Local };

struct Workload {
  std::string name;
  std::vector<Cell> cells;  // one pass over the workload's inputs
  Load load = Load::Local;
  std::size_t tenants = 1;    // wire client connections, one closed loop each
  std::size_t in_flight = 1;  // jobs kept in flight over all tenants
  std::size_t workers = 1;    // job-service worker threads
  /// Cells of one pass, shuffled per seed; empty = every cell once, in order.
  std::vector<std::size_t> mix;
  /// Cells whose runs the traced ledger phase repeats, and how many run at
  /// once (each on its own thread, as the service runs them).
  std::vector<std::size_t> ledger_cells;
  std::size_t ledger_threads = 1;
};

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

unsigned nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 11;

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  const auto add = [&](std::string label, graph::Instance inst, std::string dev,
                       core::ModelKind kind, core::RunConfig cfg) {
    cfg.seed = splitmix(seed * 1000003ull + w.cells.size());
    w.cells.push_back({std::move(label), std::move(inst), std::move(dev), kind, cfg});
  };
  const core::ModelKind gate = core::ModelKind::GateLevel;
  const core::ModelKind hybrid = core::ModelKind::Hybrid;
  if (name == "table2-noisy-6q") {
    // Paper Table II task 1: 3 backends x {gate, hybrid} x {Raw, GO, M3, CVaR}.
    for (const char* dev : {"ibm_auckland", "ibmq_toronto", "ibmq_guadalupe"})
      for (const core::ModelKind kind : {gate, hybrid})
        for (int rung = 0; rung < 4; ++rung) {
          core::RunConfig cfg;
          cfg.shots = 1024;
          cfg.max_evaluations = 50;
          cfg.executor_threads = 1;
          cfg.gate_optimization = rung >= 1;
          cfg.m3 = rung >= 2;
          cfg.cvar = rung == 3;
          static const char* rungs[] = {"raw", "go", "m3", "cvar"};
          add(std::string(dev) + "/" + core::model_name(kind) + "/" + rungs[rung],
              graph::paper_task1(), dev, kind, cfg);
        }
    w.load = Load::Wire;
    w.in_flight = 4;
    w.workers = 4;
    w.ledger_cells = {12, 13, 14, 15};  // toronto hybrid, all four rungs
    w.ledger_threads = 4;
  } else if (name == "fig6-noisy-13q") {
    // Paper task 3 (8 nodes) without gate optimization: routing spreads it
    // over 13 physical qubits of toronto.
    for (const core::ModelKind kind : {gate, hybrid}) {
      core::RunConfig cfg;
      cfg.shots = 1024;
      cfg.max_evaluations = 2;
      cfg.executor_threads = nproc();
      add("ibmq_toronto/" + core::model_name(kind) + "/task3", graph::paper_task3(),
          "ibmq_toronto", kind, cfg);
    }
    w.load = Load::Local;
    w.in_flight = 1;
    w.workers = 1;
    w.ledger_cells = {1};
    w.ledger_threads = 1;
  } else if (name == "ideal-pulse-closed") {
    for (const graph::Instance& inst : {graph::paper_task1(), graph::paper_task2()})
      for (const core::ModelKind kind : {hybrid, core::ModelKind::PulseLevel}) {
        core::RunConfig cfg;
        cfg.noise = false;
        cfg.objective = "expectation";
        cfg.max_evaluations = 50;
        cfg.executor_threads = 1;
        add("ibmq_toronto/" + core::model_name(kind) + "/" + inst.name, inst, "ibmq_toronto",
            kind, cfg);
      }
    // Three pulse-level jobs to one hybrid job. At light load on a 4-vCPU
    // Xeon a hybrid job took ~65 ms in the service and a pulse-level one
    // ~48 ms; with the kinds one to one the median sat in the gap between
    // the two and jumped by 30% from run to run, at three to one both p50
    // and p90 fall inside a cluster.
    w.mix = {1, 1, 1, 3, 3, 3, 0, 2};
    w.load = Load::Wire;
    w.tenants = 2;
    w.in_flight = 4;
    w.workers = 4;
    w.ledger_cells = {0, 1, 2, 3, 0, 1, 2, 3};
    w.ledger_threads = 4;
  } else {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  return w;
}

// ------------------------------------------------------------- job records

struct JobRecord {
  std::size_t cell = 0;
  std::uint64_t due_ns = 0;     // when its slot freed
  std::uint64_t submit_ns = 0;  // when the send started
  std::uint64_t done_ns = 0;    // when the client saw the terminal state
  bool accepted = false;
  serve::JobOutcome outcome;
};

serve::JobRequest make_request(const Cell& cell, const backend::FakeBackend* dev) {
  serve::JobRequest req;
  req.run.label = cell.label;
  req.run.instance = cell.instance;
  req.run.dev = dev;
  req.run.kind = cell.kind;
  req.run.config = cell.config;
  req.backend = cell.backend;
  return req;
}

bool same_double(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_doubles(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_double(a[i], b[i])) return false;
  return true;
}

bool same_result(const core::RunResult& a, const core::RunResult& b) {
  return same_double(a.ar, b.ar) && same_double(a.final_cost, b.final_cost) &&
         same_double(a.optimizer.value, b.optimizer.value) &&
         a.optimizer.evaluations == b.optimizer.evaluations &&
         same_doubles(a.optimizer.x, b.optimizer.x) &&
         same_doubles(a.optimizer.history, b.optimizer.history);
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }

/// One submission path (a wire connection or the in-process service):
/// submit, then poll the in-flight jobs until each reaches a terminal state.
class Transport {
 public:
  virtual ~Transport() = default;
  /// Fills accepted/outcome (for rejections) and returns the job id.
  virtual serve::JobId submit(const Cell& cell, JobRecord& rec) = 0;
  /// Terminal outcome, or nullopt while the job is still queued or running.
  virtual std::optional<serve::JobOutcome> poll(serve::JobId id) = 0;
};

class WireTransport : public Transport {
 public:
  WireTransport(std::uint16_t port, const std::string& token)
      : client_("127.0.0.1", port, token) {}
  serve::JobId submit(const Cell& cell, JobRecord& rec) override {
    const net::Client::Submitted s = client_.submit(make_request(cell, nullptr));
    rec.accepted = s.accepted();
    if (!rec.accepted) {
      rec.outcome.state = s.state;
      rec.outcome.error = s.error;
    }
    return s.id;
  }
  std::optional<serve::JobOutcome> poll(serve::JobId id) override {
    const std::optional<serve::JobState> st = client_.poll(id);
    if (st && !serve::job_state_terminal(*st)) return std::nullopt;
    std::optional<serve::JobOutcome> out = client_.await(id);
    if (!out) {
      serve::JobOutcome lost;
      lost.state = serve::JobState::Failed;
      lost.error.message = "job unknown to the server";
      return lost;
    }
    return out;
  }
 private:
  net::Client client_;
};

class LocalTransport : public Transport {
 public:
  LocalTransport(serve::JobService& svc, const std::map<std::string, backend::FakeBackend>& devs)
      : svc_(svc), devs_(devs) {}
  serve::JobId submit(const Cell& cell, JobRecord& rec) override {
    serve::JobHandle h = svc_.submit(make_request(cell, &devs_.at(cell.backend)));
    rec.accepted = h.accepted();
    if (rec.accepted) {
      futures_[h.id] = h.outcome;
    } else {
      rec.outcome = h.outcome.get();
    }
    return h.id;
  }
  std::optional<serve::JobOutcome> poll(serve::JobId id) override {
    auto it = futures_.find(id);
    if (it->second.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
      return std::nullopt;
    serve::JobOutcome out = it->second.get();
    futures_.erase(it);
    return out;
  }

 private:
  serve::JobService& svc_;
  const std::map<std::string, backend::FakeBackend>& devs_;
  std::map<serve::JobId, std::shared_future<serve::JobOutcome>> futures_;
};

/// Closed loop: drive `jobs` through one transport, keeping at most
/// `max_in_flight` in flight; once the list is exhausted, `more` may append
/// further jobs. A job is due when the client saw its slot free. Returns the
/// generator lag (send time - due time) of every send in seconds.
std::vector<double> drive(Transport& tr, const std::vector<Cell>& cells,
                          std::vector<JobRecord>& jobs, std::size_t max_in_flight,
                          const std::function<bool(JobRecord&)>& more) {
  std::vector<double> lag;
  std::map<serve::JobId, std::size_t> inflight;
  std::size_t next = 0;
  bool exhausted = false;
  std::deque<std::uint64_t> slot_free_at;  // in completion order
  const std::uint64_t start = now_ns();
  slot_free_at.assign(std::min(max_in_flight, jobs.size()), start);
  while (true) {
    bool progressed = false;
    while (inflight.size() < max_in_flight) {
      if (next == jobs.size()) {
        JobRecord extra;
        if (exhausted || !more(extra)) {
          exhausted = true;
          break;
        }
        jobs.push_back(std::move(extra));
      }
      JobRecord& rec = jobs[next];
      rec.due_ns = slot_free_at.empty() ? now_ns() : slot_free_at.front();
      if (!slot_free_at.empty()) slot_free_at.pop_front();
      rec.submit_ns = now_ns();
      lag.push_back(1e-9 * static_cast<double>(rec.submit_ns - rec.due_ns));
      const serve::JobId id = tr.submit(cells[rec.cell], rec);
      if (rec.accepted) {
        inflight.emplace(id, next);
      } else {
        rec.done_ns = now_ns();
        slot_free_at.push_back(rec.done_ns);
      }
      ++next;
      progressed = true;
    }
    if (inflight.empty() && next == jobs.size() && exhausted) break;
    for (auto it = inflight.begin(); it != inflight.end();) {
      std::optional<serve::JobOutcome> out = tr.poll(it->first);
      if (out) {
        jobs[it->second].done_ns = now_ns();
        jobs[it->second].outcome = std::move(*out);
        slot_free_at.push_back(jobs[it->second].done_ns);
        it = inflight.erase(it);
        progressed = true;
      } else {
        ++it;
      }
    }
    if (!progressed) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return lag;
}

// ------------------------------------------------------------------- set-up

/// What a workload sets up before it submits work: the backends, the job
/// service or the wire server, and the submission paths (one per client
/// connection, or the in-process path).
struct Stack {
  std::map<std::string, backend::FakeBackend> devs;
  std::unique_ptr<serve::JobService> svc;
  std::unique_ptr<net::Server> server;
  std::vector<std::unique_ptr<Transport>> paths;
};

const std::vector<std::string> kTenantTokens = {"tok-a", "tok-b"};

/// The job every set-up ends with, so that set-up time runs to the first
/// result and lazy initialization (server-side backend resolution, first
/// block compilations) lands in it rather than in the first timed jobs: the
/// cheapest job the service runs (task 1, hybrid, noiseless, one evaluation).
Cell readiness_cell() {
  core::RunConfig cfg;
  cfg.noise = false;
  cfg.objective = "expectation";
  cfg.max_evaluations = 1;
  cfg.executor_threads = 1;
  return {"ibmq_toronto/hybrid/readiness", graph::paper_task1(), "ibmq_toronto",
          core::ModelKind::Hybrid, cfg};
}

serve::JobOutcome run_one(Transport& tr, const Cell& cell) {
  JobRecord rec;
  const serve::JobId id = tr.submit(cell, rec);
  if (!rec.accepted) return rec.outcome;
  while (true) {
    if (std::optional<serve::JobOutcome> out = tr.poll(id)) return std::move(*out);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

std::unique_ptr<Stack> set_up(const Workload& w) {
  auto st = std::make_unique<Stack>();
  for (const Cell& c : w.cells)
    if (st->devs.find(c.backend) == st->devs.end())
      st->devs.emplace(c.backend, backend::make_backend(c.backend));
  serve::JobService::Options so;
  so.num_workers = w.workers;
  if (w.load == Load::Local) {
    st->svc = std::make_unique<serve::JobService>(so);
    st->paths.push_back(std::make_unique<LocalTransport>(*st->svc, st->devs));
  } else {
    net::Server::Options o;
    o.service = so;
    if (w.tenants > 1)
      o.tokens = {{kTenantTokens[0], "tenant-a"}, {kTenantTokens[1], "tenant-b"}};
    st->server = std::make_unique<net::Server>(o);
    for (std::size_t t = 0; t < w.tenants; ++t)
      st->paths.push_back(
          std::make_unique<WireTransport>(st->server->port(), w.tenants > 1 ? kTenantTokens[t] : ""));
  }
  const serve::JobOutcome ready = run_one(*st->paths[0], readiness_cell());
  if (ready.state != serve::JobState::Completed)
    throw std::runtime_error("readiness job ended " + serve::job_state_name(ready.state) + ": " +
                             ready.error.message);
  return st;
}

// ------------------------------------------------------------ service phase

struct Phase {
  std::vector<JobRecord> jobs;
  std::vector<double> lag_s;
  std::uint64_t t0 = 0;
  std::uint64_t t_end = 0;
};

Phase run_service_phase(const Workload& w, Stack& st, double seconds, std::uint64_t seed) {
  // One pass in the workload's order (a seeded shuffle of its mix, else
  // every cell in order), dealt round-robin to the tenants. Each tenant runs
  // a closed loop over its share with in_flight / tenants jobs in flight and
  // then repeats its share while a job of the mean length it has seen so far
  // would end inside the window.
  std::vector<std::size_t> order = w.mix;
  if (order.empty()) {
    for (std::size_t c = 0; c < w.cells.size(); ++c) order.push_back(c);
  } else {
    std::uint64_t s = seed;
    for (std::size_t j = order.size(); j-- > 1;) {
      s = splitmix(s);
      std::swap(order[j], order[s % (j + 1)]);
    }
  }
  const std::size_t tenants = st.paths.size();
  std::vector<std::vector<JobRecord>> jobs(tenants);
  std::vector<std::vector<std::size_t>> share(tenants);
  for (std::size_t j = 0; j < order.size(); ++j) {
    JobRecord rec;
    rec.cell = order[j];
    jobs[j % tenants].push_back(rec);
    share[j % tenants].push_back(order[j]);
  }
  Phase ph;
  ph.t0 = now_ns();
  const std::uint64_t window_end = ph.t0 + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::vector<double>> lags(tenants);
  std::vector<std::exception_ptr> errors(tenants);
  auto loop = [&](std::size_t t) {
    try {
      std::size_t next = 0;
      lags[t] = drive(*st.paths[t], w.cells, jobs[t], w.in_flight / tenants, [&](JobRecord& rec) {
        std::uint64_t sum = 0;
        std::uint64_t n = 0;
        for (const JobRecord& r : jobs[t])
          if (r.done_ns != 0) {
            sum += r.done_ns - r.submit_ns;
            ++n;
          }
        if (now_ns() + (n == 0 ? 0 : sum / n) > window_end) return false;
        rec.cell = share[t][next];
        next = (next + 1) % share[t].size();
        return true;
      });
    } catch (...) {
      errors[t] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 1; t < tenants; ++t) threads.emplace_back(loop, t);
  loop(0);
  for (std::thread& th : threads) th.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  for (std::size_t t = 0; t < tenants; ++t) {
    for (JobRecord& r : jobs[t]) ph.jobs.push_back(std::move(r));
    ph.lag_s.insert(ph.lag_s.end(), lags[t].begin(), lags[t].end());
  }
  for (const JobRecord& r : ph.jobs) ph.t_end = std::max(ph.t_end, r.done_ns);
  return ph;
}

bool completed(const JobRecord& r) {
  return r.accepted && r.outcome.state == serve::JobState::Completed && r.outcome.has_result;
}

// ------------------------------------------------------------- verification

struct Verification {
  bool identical = false;
  std::string label;
  /// The wire job's client round trip minus the service's wait and run time
  /// (in-process workloads only; wire workloads measure this on every job).
  double wire_overhead_s = -1.0;
};

/// Re-run one sampled completed job on the other submission path (wire jobs
/// in process, in-process jobs over loopback) and compare every double of
/// the training record bit for bit.
Verification verify_sample(const Workload& w, Stack& st, const Phase& ph, std::uint64_t seed) {
  Verification v;
  std::vector<std::size_t> done;
  for (std::size_t i = 0; i < ph.jobs.size(); ++i)
    if (completed(ph.jobs[i])) done.push_back(i);
  if (done.empty()) return v;
  const JobRecord& sample = ph.jobs[done[splitmix(seed ^ 0x5eedull) % done.size()]];
  const Cell& cell = w.cells[sample.cell];
  v.label = cell.label;
  serve::JobOutcome other;
  if (w.load == Load::Local) {
    net::Server::Options o;
    o.service.num_workers = 1;
    net::Server server(o);
    net::Client client("127.0.0.1", server.port());
    const std::uint64_t t0 = now_ns();
    const net::Client::Submitted s = client.submit(make_request(cell, nullptr));
    if (!s.accepted()) return v;
    std::optional<serve::JobOutcome> out = client.await(s.id);
    const std::uint64_t t1 = now_ns();
    if (!out) return v;
    other = std::move(*out);
    v.wire_overhead_s =
        1e-9 * (static_cast<double>(t1 - t0) - static_cast<double>(other.wait_ns + other.run_ns));
    client.close();
    server.stop();
  } else {
    serve::JobService::Options so;
    so.num_workers = 1;
    serve::JobService svc(so);
    other = svc.submit(make_request(cell, &st.devs.at(cell.backend))).outcome.get();
  }
  v.identical = other.state == serve::JobState::Completed && other.has_result &&
                same_result(other.result, sample.outcome.result);
  return v;
}

// ------------------------------------------------------------------ ledger

struct LedgerRun {
  double wall_s = 0.0;
  std::vector<core::RunResult> results;  // per ledger slot
  std::vector<perfbench::Span> spans;
  serve::BlockCache::Stats cache;
  std::size_t batches = 0;
  std::size_t tasks = 0;
};

/// Run the workload's ledger cells through core::run_qaoa with a
/// benchmark-owned dispatcher, `ledger_threads` jobs at a time, sharing one
/// fresh compiled-block cache as a fresh job service would.
LedgerRun run_ledger(const Workload& w, const Stack& st, bool traced) {
  LedgerRun lr;
  perfbench::Recorder rec(traced);
  auto cache = std::make_shared<serve::BlockCache>(8192);
  lr.results.resize(w.ledger_cells.size());
  std::vector<std::size_t> batches(w.ledger_cells.size());
  std::vector<std::size_t> tasks(w.ledger_cells.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(w.ledger_threads);
  const std::uint64_t t0 = now_ns();
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < w.ledger_threads; ++t)
    pool.emplace_back([&, t] {
      try {
        for (std::size_t i; (i = next.fetch_add(1)) < w.ledger_cells.size();) {
          const Cell& cell = w.cells[w.ledger_cells[i]];
          const std::uint64_t job = i + 1;
          const std::uint64_t job_span = rec.open("job", 0, job);
          const std::uint64_t run_span = rec.open("run_qaoa", job_span, job);
          perfbench::TracingDispatcher dispatcher(rec, run_span, job);
          lr.results[i] = core::run_qaoa(cell.instance, st.devs.at(cell.backend), cell.kind,
                                         cell.config, &dispatcher, cache);
          rec.close(run_span);
          rec.close(job_span);
          batches[i] = dispatcher.batches();
          tasks[i] = dispatcher.tasks();
        }
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  lr.wall_s = 1e-9 * static_cast<double>(now_ns() - t0);
  lr.spans = rec.spans();
  lr.cache = cache->stats();
  for (std::size_t i = 0; i < batches.size(); ++i) {
    lr.batches += batches[i];
    lr.tasks += tasks[i];
  }
  return lr;
}

// ------------------------------------------------------------------ probes

/// Direct measurements of one cell's layers, outside any job.
struct Probe {
  double build_ms = 0.0;        // QaoaModel::build (transpile + model set-up)
  double compile_ms = 0.0;      // cold - warm evaluation at 16 shots
  double warm_ms = 0.0;         // median warm evaluation
  double noiseless_ms = 0.0;    // the same evaluation with noise off
  double density_ms = 0.0;      // exact-density run_expectation
  double scaling = 0.0;         // 1-thread / nproc-thread warm time
  double computed_gbps = 0.0;   // computed state bytes / warm time
  double pulse_compile_ms = NAN;  // per pulse block; NaN = no pulse blocks
  double m3_ms = 0.0;           // M3Mitigator::mitigate on one count set
  double calibrate_ms = 0.0;    // readout calibration (M3 cells only)
  double fusion_ratio = 1.0;    // fused / unfused timeline length
  std::size_t qubits = 0;
};

std::size_t touched_qubits(const core::Program& prog) {
  std::set<std::size_t> q(prog.measure_qubits.begin(), prog.measure_qubits.end());
  for (const core::ExecOp& op : prog.ops) {
    if (op.is_pulse) {
      q.insert(op.qubits.begin(), op.qubits.end());
    } else if (op.gate.kind != qc::GateKind::Barrier) {
      q.insert(op.gate.qubits.begin(), op.gate.qubits.end());
    }
  }
  return q.size();
}

core::ExecutorOptions executor_options(const core::RunConfig& cfg) {
  core::ExecutorOptions o;
  o.noise = cfg.noise;
  o.engine = core::engine_from_name(cfg.engine);
  o.num_threads = cfg.executor_threads;
  o.shot_batch_lanes = cfg.shot_batch_lanes;
  o.fusion_max_qubits = cfg.fusion;
  return o;
}

core::ObjectiveSpec cut_spec(const graph::Graph& g) {
  core::ObjectiveSpec spec;
  spec.kind = core::ObjectiveKind::Expectation;
  spec.value = [&g](std::uint64_t bits) { return g.cut_value(bits); };
  return spec;
}

/// The executor's pulse-simulation sample stride: full resolution for one
/// qubit, 2 for multi-qubit blocks with a frequency instruction, else 4.
int pulse_sample_stride(const pulse::Schedule& local, std::size_t qubits) {
  if (qubits == 1) return 1;
  for (const pulse::TimedInstruction& ti : local.instructions())
    if (std::holds_alternative<pulse::ShiftFrequency>(ti.inst) ||
        std::holds_alternative<pulse::SetFrequency>(ti.inst))
      return 2;
  return 4;
}

/// One evaluation of `prog` as the cell's training loop evaluates it.
double evaluate_s(core::Executor& ex, const core::Program& prog, const Cell& cell,
                  std::size_t shots, std::uint64_t seed, sim::Counts* counts = nullptr) {
  Rng rng(seed);
  const std::uint64_t t0 = now_ns();
  if (cell.config.objective == "sample") {
    sim::Counts c = ex.run(prog, shots, rng);
    if (counts != nullptr) *counts = std::move(c);
  } else {
    (void)ex.run_expectation(prog, shots, rng, cut_spec(cell.instance.graph));
  }
  return 1e-9 * static_cast<double>(now_ns() - t0);
}

/// Median of `reps` warm evaluations on an executor whose cache already
/// holds the program's blocks.
double warm_median_s(core::Executor& ex, const core::Program& prog, const Cell& cell,
                     std::size_t shots, int reps) {
  std::vector<double> ts;
  for (int r = 0; r < reps; ++r) ts.push_back(evaluate_s(ex, prog, cell, shots, 11 + r));
  return median(ts);
}

Probe probe_cell(const Cell& cell, const backend::FakeBackend& dev,
                 const backend::FakeBackend& toronto) {
  Probe p;
  core::ModelConfig mcfg = cell.config.model;
  mcfg.gate_optimization = cell.config.gate_optimization;
  std::vector<double> builds;
  for (int r = 0; r < 3; ++r) {
    const std::uint64_t t0 = now_ns();
    (void)core::QaoaModel::build(cell.instance.graph, dev, cell.kind, mcfg);
    builds.push_back(1e-6 * static_cast<double>(now_ns() - t0));
  }
  p.build_ms = median(builds);
  const core::QaoaModel model = core::QaoaModel::build(cell.instance.graph, dev, cell.kind, mcfg);
  const core::Program prog = model.instantiate(model.initial_parameters());
  p.qubits = touched_qubits(prog);
  const bool heavy = p.qubits > 10;
  const int reps = heavy ? 1 : 5;
  const std::size_t shots = cell.config.shots;

  // Block compilation: cold minus warm evaluation of the workload's own
  // executor configuration at one 16-lane shot group, so the sampling work
  // around the compile stays small.
  core::ExecutorOptions eo = executor_options(cell.config);
  {
    core::Executor cx(dev, eo);
    const double cold = evaluate_s(cx, prog, cell, 16, 7);
    p.compile_ms = 1e3 * (cold - warm_median_s(cx, prog, cell, 16, 5));
  }
  core::Executor ex(dev, eo);
  sim::Counts counts;
  (void)evaluate_s(ex, prog, cell, shots, 7, &counts);
  p.warm_ms = 1e3 * warm_median_s(ex, prog, cell, shots, reps);
  const core::ExecutionReport report = ex.last_report();
  if (report.block_count > 0)
    p.fusion_ratio = static_cast<double>(report.fused_block_count) /
                     static_cast<double>(report.block_count);

  // Computed bytes: every block application reads and writes the whole
  // statevector once, per shot when trajectories sample noise.
  const double state_bytes = 16.0 * std::pow(2.0, static_cast<double>(p.qubits));
  const double applications = static_cast<double>(report.fused_block_count) *
                              (eo.noise ? static_cast<double>(shots) : 1.0);
  p.computed_gbps = 2.0 * state_bytes * applications / (1e-3 * p.warm_ms) * 1e-9;

  // Noiseless twin of the same evaluation.
  {
    core::ExecutorOptions quiet = eo;
    quiet.noise = false;
    core::Executor qx(dev, quiet);
    (void)evaluate_s(qx, prog, cell, shots, 7);
    p.noiseless_ms = 1e3 * warm_median_s(qx, prog, cell, shots, reps);
  }

  // Thread scaling of the workload's executor: warm runs on 1 and on nproc
  // threads, sharing the block cache the runs above filled.
  {
    core::ExecutorOptions one = eo;
    one.num_threads = 1;
    one.block_cache = ex.block_cache();
    core::ExecutorOptions all = one;
    all.num_threads = nproc();
    core::Executor x1(dev, one);
    core::Executor xn(dev, all);
    const double t1 = eo.num_threads == 1 ? 1e-3 * p.warm_ms
                                          : warm_median_s(x1, prog, cell, shots, reps);
    const double tn = eo.num_threads == nproc() ? 1e-3 * p.warm_ms
                                                : warm_median_s(xn, prog, cell, shots, reps);
    p.scaling = t1 / tn;
  }

  // Exact-density evaluation of the program (task 1 on toronto when the
  // program is too wide for the density engine).
  {
    core::ExecutorOptions d = eo;
    d.noise = true;
    d.engine = core::Engine::ExactDensity;
    core::Executor dx(heavy ? toronto : dev, d);
    Cell dcell = cell;
    dcell.config.objective = "expectation";
    core::Program dprog = prog;
    std::unique_ptr<core::QaoaModel> small;
    if (heavy) {
      dcell.instance = graph::paper_task1();
      small = std::make_unique<core::QaoaModel>(
          core::QaoaModel::build(dcell.instance.graph, toronto, cell.kind, core::ModelConfig{}));
      dprog = small->instantiate(small->initial_parameters());
    }
    (void)evaluate_s(dx, dprog, dcell, shots, 7);
    p.density_ms = 1e3 * warm_median_s(dx, dprog, dcell, shots, heavy ? 3 : reps);
  }

  // Pulse-ODE compilation of every pulse block, as the executor lowers it
  // (same subsystem, remap and sample stride).
  {
    std::vector<double> ts;
    const bool coherent = eo.noise && eo.coherent_noise;
    for (const core::ExecOp& op : prog.ops) {
      if (!op.is_pulse) continue;
      const std::uint64_t t0 = now_ns();
      backend::FakeBackend::Subsystem sub = dev.subsystem(op.qubits, coherent);
      const pulse::Schedule local = backend::FakeBackend::remap_schedule(op.schedule, sub.remap);
      const psim::PulseSimulator sim(std::move(sub.system), psim::Integrator::Exact, 1,
                                     pulse_sample_stride(local, op.qubits.size()));
      (void)sim.propagator(sim.compile(local));
      ts.push_back(1e-6 * static_cast<double>(now_ns() - t0));
    }
    if (!ts.empty()) {
      double sum = 0.0;
      for (double t : ts) sum += t;
      p.pulse_compile_ms = sum / static_cast<double>(ts.size());
    }
  }

  // M3 mitigation of one noisy count set over the measured qubits.
  {
    if (counts.empty()) {
      core::ExecutorOptions noisy = eo;
      noisy.noise = true;
      noisy.engine = core::Engine::Trajectory;
      core::Executor nx(dev, noisy);
      Rng rng(7);
      counts = nx.run(prog, shots, rng);
    }
    const std::vector<noise::ReadoutError> all = dev.noise_model().readout_errors();
    std::vector<noise::ReadoutError> errs;
    for (std::size_t q : prog.measure_qubits) errs.push_back(all.at(q));
    const mit::M3Mitigator m3(errs);
    std::vector<double> ts;
    for (int r = 0; r < 3; ++r) {
      const std::uint64_t t0 = now_ns();
      (void)m3.mitigate(counts);
      ts.push_back(1e-6 * static_cast<double>(now_ns() - t0));
    }
    p.m3_ms = median(ts);
  }

  if (cell.config.m3) {
    core::Executor cx(dev, eo);
    Rng rng(5);
    const std::uint64_t t0 = now_ns();
    (void)core::calibrate_readout(cx, prog.measure_qubits, cell.config.calibration_shots, rng);
    p.calibrate_ms = 1e-6 * static_cast<double>(now_ns() - t0);
  }
  return p;
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Peak resident set of this process image. VmHWM starts afresh at exec,
/// unlike getrusage's ru_maxrss, which keeps the launching process's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v);
    else if (k == "--out") a.out = v;
    else throw std::runtime_error("unknown argument " + k);
  }
  if (a.workload.empty()) throw std::runtime_error("--workload is required");
  return a;
}

}  // namespace

static int run_benchmark(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed);
  const perfbench::HostInfo host = perfbench::host_info();
  std::vector<Metric> metrics;

  perfbench::StreamResult stream;
  double cmadd = 0.0;
  if (args.trace != 0) {
    stream = perfbench::measure_stream(host, host.nproc, 3);
    cmadd = perfbench::measure_cmadd_gflops();
  }

  // The first set-up serves the workload; the rest are repeated after it
  // (and after peak RSS is read), and setup_s is the median of all.
  std::vector<double> setups;
  auto timed_set_up = [&] {
    const std::uint64_t t0 = now_ns();
    std::unique_ptr<Stack> s = set_up(w);
    setups.push_back(1e-9 * static_cast<double>(now_ns() - t0));
    return s;
  };
  std::unique_ptr<Stack> st = timed_set_up();

  const Phase ph = run_service_phase(w, *st, args.seconds, args.seed);
  const Verification ver = verify_sample(w, *st, ph, args.seed);
  const double rss_mb = peak_rss_mb();

  // ---- end-to-end figures and correctness -------------------------------
  std::size_t done = 0;
  std::vector<double> lat_ms;
  std::vector<double> wait_ms;
  std::vector<double> wire_ms;
  double run_s_total = 0.0;
  std::map<std::size_t, const core::RunResult*> first;  // per cell
  bool repeat_identical = true;
  for (const JobRecord& r : ph.jobs) {
    if (!completed(r)) continue;
    ++done;
    lat_ms.push_back(1e-6 * static_cast<double>(r.done_ns - r.due_ns));
    wait_ms.push_back(1e-6 * static_cast<double>(r.outcome.wait_ns));
    run_s_total += 1e-9 * static_cast<double>(r.outcome.run_ns);
    if (w.load != Load::Local)
      wire_ms.push_back(1e-6 * (static_cast<double>(r.done_ns - r.submit_ns) -
                                static_cast<double>(r.outcome.wait_ns + r.outcome.run_ns)));
    auto it = first.find(r.cell);
    if (it == first.end()) {
      first.emplace(r.cell, &r.outcome.result);
    } else if (!same_result(*it->second, r.outcome.result)) {
      repeat_identical = false;
    }
  }
  double ar_sum = 0.0;
  for (const auto& [cell, res] : first) ar_sum += res->ar;
  const double mean_ar = first.empty() ? 0.0 : ar_sum / static_cast<double>(first.size());
  const bool all_completed = done == ph.jobs.size();
  const bool all_cells = first.size() == w.cells.size();
  const double wall_s = 1e-9 * static_cast<double>(ph.t_end - ph.t0);

  if (args.trace == 0) {
    for (int r = 1; r < kSetupReps; ++r) timed_set_up();
    metrics.push_back({"setup_s", median(setups), "s"});
    metrics.push_back({"jobs_per_s", static_cast<double>(done) / wall_s, "1/s"});
    metrics.push_back({"lat_p50_ms", percentile(lat_ms, 0.5), "ms"});
    metrics.push_back({"lat_p90_ms", percentile(lat_ms, 0.9), "ms"});
    metrics.push_back({"mean_ar", mean_ar, "ratio"});
    metrics.push_back({"completed_frac",
                       static_cast<double>(done) / static_cast<double>(ph.jobs.size()), "frac"});
  }

  bool ledger_identical = true;
  if (args.trace != 0) {
    const LedgerRun plain = run_ledger(w, *st, false);
    const LedgerRun traced = run_ledger(w, *st, true);
    for (std::size_t i = 0; i < traced.results.size(); ++i) {
      ledger_identical = ledger_identical && same_result(plain.results[i], traced.results[i]);
      auto it = first.find(w.ledger_cells[i]);
      if (it != first.end())
        ledger_identical = ledger_identical && same_result(*it->second, traced.results[i]);
    }

    // Probes, once per distinct ledger cell (every workload runs on toronto).
    const backend::FakeBackend& toronto = st->devs.at("ibmq_toronto");
    std::map<std::size_t, Probe> probes;
    for (std::size_t c : w.ledger_cells)
      if (probes.find(c) == probes.end())
        probes.emplace(c, probe_cell(w.cells[c], st->devs.at(w.cells[c].backend), toronto));

    auto mean_of = [&](const std::function<double(const Probe&)>& f) {
      double s = 0.0;
      std::size_t n = 0;
      for (const auto& [c, p] : probes) {
        const double v = f(p);
        if (std::isnan(v)) continue;
        s += v;
        ++n;
      }
      return n == 0 ? 0.0 : s / static_cast<double>(n);
    };

    // Self time per layer from the traced ledger spans, and the per-job
    // attribution behind unattributed_frac.
    const std::map<std::string, double> self = perfbench::self_seconds_by_name(traced.spans);
    const std::map<std::string, double> total = perfbench::total_seconds_by_name(traced.spans);
    const double job_s = total.count("job") ? total.at("job") : 0.0;
    const double batch_s = total.count("dispatcher.batch") ? total.at("dispatcher.batch") : 0.0;
    const double task_s = total.count("candidate.task") ? total.at("candidate.task") : 0.0;
    const double batch_self_s = self.count("dispatcher.batch") ? self.at("dispatcher.batch") : 0.0;
    double outside_s = 0.0;  // build + final evaluation + readout calibration, from probes
    for (std::size_t c : w.ledger_cells) {
      const Probe& p = probes.at(c);
      outside_s += 1e-3 * (p.build_ms + p.warm_ms + p.calibrate_ms);
    }
    const double unattributed = job_s > 0.0 ? (job_s - task_s - batch_self_s - outside_s) / job_s
                                            : 0.0;

    const serve::BlockCache::Stats& cs = traced.cache;
    auto rate = [](std::uint64_t h, std::uint64_t m) {
      return h + m == 0 ? 0.0 : static_cast<double>(h) / static_cast<double>(h + m);
    };
    const double njobs = static_cast<double>(w.ledger_cells.size());

    std::vector<double> lag_ms;
    for (double l : ph.lag_s) lag_ms.push_back(1e3 * l);
    const double net_ms = w.load == Load::Local ? 1e3 * ver.wire_overhead_s
                                                      : percentile(wire_ms, 0.5);

    metrics.push_back({"executor.warm_run_ms", mean_of([](const Probe& p) { return p.warm_ms; }), "ms"});
    metrics.push_back({"core.compile_ms", mean_of([](const Probe& p) { return p.compile_ms; }), "ms"});
    metrics.push_back({"noise.share",
                       mean_of([](const Probe& p) { return 1.0 - p.noiseless_ms / p.warm_ms; }),
                       "frac"});
    metrics.push_back({"sim.achieved_gbps", mean_of([](const Probe& p) { return p.computed_gbps; }),
                       "GB/s"});
    metrics.push_back({"host.stream_gbps", stream.gbps, "GB/s"});
    metrics.push_back({"host.cmadd_gflops", cmadd, "GFLOP/s"});
    metrics.push_back({"executor.thread_scaling", mean_of([](const Probe& p) { return p.scaling; }),
                       "x"});
    metrics.push_back({"density.run_ms", mean_of([](const Probe& p) { return p.density_ms; }), "ms"});
    metrics.push_back({"pulsesim.compile_ms",
                       mean_of([](const Probe& p) { return p.pulse_compile_ms; }), "ms"});
    metrics.push_back({"fusion.block_ratio", mean_of([](const Probe& p) { return p.fusion_ratio; }),
                       "frac"});
    metrics.push_back({"block_cache.hit_rate.gate", rate(cs.gate_hits, cs.gate_misses), "frac"});
    metrics.push_back({"block_cache.hit_rate.pulse", rate(cs.pulse_hits, cs.pulse_misses), "frac"});
    metrics.push_back({"block_cache.hit_rate.fused", rate(cs.fused_hits, cs.fused_misses), "frac"});
    metrics.push_back({"block_cache.pulse_misses_per_job",
                       static_cast<double>(cs.pulse_misses) / njobs, "count"});
    metrics.push_back({"optimize.self_share", job_s > 0.0 ? (job_s - batch_s) / job_s : 0.0, "frac"});
    metrics.push_back({"optimize.batch_size_mean",
                       traced.batches == 0 ? 0.0
                                           : static_cast<double>(traced.tasks) /
                                                 static_cast<double>(traced.batches),
                       "count"});
    metrics.push_back({"transpile.build_ms", mean_of([](const Probe& p) { return p.build_ms; }), "ms"});
    metrics.push_back({"mitigation.m3_ms", mean_of([](const Probe& p) { return p.m3_ms; }), "ms"});
    metrics.push_back({"serve.queue_wait_ms", percentile(wait_ms, 0.5), "ms"});
    metrics.push_back({"serve.worker_util",
                       run_s_total / (static_cast<double>(w.workers) * wall_s), "frac"});
    metrics.push_back({"net.overhead_ms", net_ms, "ms"});
    metrics.push_back({"loadgen.lag_ms", percentile(lag_ms, 0.5), "ms"});
    metrics.push_back({"unattributed_frac", unattributed, "frac"});
    metrics.push_back({"trace.overhead_frac", (traced.wall_s - plain.wall_s) / plain.wall_s, "frac"});

    // Ledger and Chrome trace files.
    std::ostringstream lj;
    lj << "{\"workload\":\"" << w.name << "\",\"seed\":" << args.seed
       << ",\"host\":" << perfbench::host_json(host)
       << ",\"stream\":{\"gbps\":" << fmt(stream.gbps) << ",\"array_mib\":"
       << stream.array_bytes / (1024 * 1024) << ",\"llc_mib\":" << stream.llc_bytes / (1024 * 1024)
       << ",\"threads\":" << stream.threads << "}"
       << ",\"ledger_wall_s\":{\"untraced\":" << fmt(plain.wall_s) << ",\"traced\":"
       << fmt(traced.wall_s) << "},\"self_s\":{";
    bool firstk = true;
    for (const auto& [k, v] : self) {
      lj << (firstk ? "" : ",") << "\"" << k << "\":" << fmt(v);
      firstk = false;
    }
    lj << "},\"attributed_outside_spans_s\":" << fmt(outside_s) << ",\"probes\":{";
    firstk = true;
    for (const auto& [c, p] : probes) {
      lj << (firstk ? "" : ",") << "\"" << json_escape(w.cells[c].label) << "\":{\"qubits\":"
         << p.qubits << ",\"build_ms\":" << fmt(p.build_ms) << ",\"compile_ms\":" << fmt(p.compile_ms)
         << ",\"warm_ms\":" << fmt(p.warm_ms) << ",\"noiseless_ms\":" << fmt(p.noiseless_ms)
         << ",\"density_ms\":" << fmt(p.density_ms) << ",\"thread_scaling\":" << fmt(p.scaling)
         << ",\"computed_gbps\":" << fmt(p.computed_gbps)
         << ",\"pulse_compile_ms\":" << fmt(p.pulse_compile_ms) << ",\"m3_ms\":" << fmt(p.m3_ms)
         << ",\"calibrate_ms\":" << fmt(p.calibrate_ms)
         << ",\"fusion_ratio\":" << fmt(p.fusion_ratio) << "}";
      firstk = false;
    }
    lj << "}}\n";
    const std::string stem = args.out + "/" + w.name + ".seed" + std::to_string(args.seed);
    std::ofstream(stem + ".ledger.json") << lj.str();
    std::ofstream(stem + ".trace.json") << perfbench::chrome_trace_json(traced.spans, w.name);
  }
  if (args.trace == 0) metrics.push_back({"peak_rss_mb", rss_mb, "MB"});

  // ---- result line ------------------------------------------------------
  const bool correct = all_completed && all_cells && repeat_identical && ver.identical &&
                       ledger_identical;
  std::ostringstream os;
  os << "{\"workload\":\"" << w.name << "\",\"seed\":" << args.seed
     << ",\"host\":" << perfbench::host_json(host) << ",\"checks\":{\"all_completed\":"
     << (all_completed ? "true" : "false") << ",\"all_cells\":" << (all_cells ? "true" : "false")
     << ",\"repeat_identical\":" << (repeat_identical ? "true" : "false")
     << ",\"wire_identical\":" << (ver.identical ? "true" : "false")
     << ",\"ledger_identical\":" << (ledger_identical ? "true" : "false")
     << ",\"sampled_job\":\"" << json_escape(ver.label) << "\"},\"correct\":"
     << (correct ? "true" : "false") << ",\"attempted\":" << ph.jobs.size()
     << ",\"failed\":" << ph.jobs.size() - done << ",\"mean_ar\":" << fmt(mean_ar)
     << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    os << (i ? "," : "") << "\"" << metrics[i].name << "\":{\"value\":" << fmt(metrics[i].value)
       << ",\"unit\":\"" << metrics[i].unit << "\"}";
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run_benchmark(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
