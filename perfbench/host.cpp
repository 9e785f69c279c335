#include "host.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

std::size_t sysconf_bytes(int name) {
  const long v = sysconf(name);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

HostInfo host_info() {
  HostInfo info;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) info.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  info.nproc = std::max(1u, std::thread::hardware_concurrency());
  info.l1d_bytes = sysconf_bytes(_SC_LEVEL1_DCACHE_SIZE);
  info.l2_bytes = sysconf_bytes(_SC_LEVEL2_CACHE_SIZE);
  info.llc_bytes = std::max(sysconf_bytes(_SC_LEVEL3_CACHE_SIZE), info.l2_bytes);
  return info;
}

std::string host_json(const HostInfo& info) {
  std::ostringstream os;
  os << "{\"cpu_model\":\"" << info.cpu_model << "\",\"nproc\":" << info.nproc
     << ",\"l1d_kib\":" << info.l1d_bytes / 1024 << ",\"l2_kib\":" << info.l2_bytes / 1024
     << ",\"llc_kib\":" << info.llc_bytes / 1024 << "}";
  return os.str();
}

StreamResult measure_stream(const HostInfo& info, unsigned threads, int passes) {
  StreamResult r;
  r.llc_bytes = info.llc_bytes;
  r.threads = std::max(1u, threads);
  const std::size_t n = std::max<std::size_t>(4 * info.llc_bytes, std::size_t{64} << 20) /
                        sizeof(double);
  r.array_bytes = n * sizeof(double);
  std::unique_ptr<double[]> a(new double[n]);

  auto sweep = [&](double s, bool init) {
    std::vector<std::thread> pool;
    const std::size_t chunk = (n + r.threads - 1) / r.threads;
    for (unsigned t = 0; t < r.threads; ++t) {
      pool.emplace_back([&, t] {
        const std::size_t lo = std::min(n, t * chunk);
        const std::size_t hi = std::min(n, lo + chunk);
        double* p = a.get();
        if (init) {
          for (std::size_t i = lo; i < hi; ++i) p[i] = 1.0;
        } else {
          for (std::size_t i = lo; i < hi; ++i) p[i] *= s;
        }
      });
    }
    for (std::thread& t : pool) t.join();
  };

  sweep(0.0, true);  // first touch, page faults kept out of the timed passes
  double best = 0.0;
  for (int pass = 0; pass < passes; ++pass) {
    const auto t0 = std::chrono::steady_clock::now();
    sweep(pass % 2 == 0 ? 1.0000001 : 0.9999999, false);
    const double dt = seconds_since(t0);
    best = std::max(best, 2.0 * static_cast<double>(r.array_bytes) / dt * 1e-9);
  }
  r.gbps = best;
  return r;
}

__attribute__((optimize("no-tree-vectorize"), noinline)) double measure_cmadd_gflops() {
  // Eight independent accumulators keep the multiply and add units busy
  // without a loop-carried dependency on a single chain.
  constexpr int kAcc = 8;
  double re[kAcc];
  double im[kAcc];
  for (int k = 0; k < kAcc; ++k) {
    re[k] = 0.5 + 0.01 * k;
    im[k] = -0.25 + 0.02 * k;
  }
  volatile double zr_v = 0.9999;
  volatile double zi_v = 0.0101;
  volatile double wr_v = 1e-4;
  volatile double wi_v = -1e-4;
  const double zr = zr_v, zi = zi_v, wr = wr_v, wi = wi_v;
  const long iters = 20'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  for (long i = 0; i < iters; ++i) {
    for (int k = 0; k < kAcc; ++k) {
      const double r = re[k] * zr - im[k] * zi + wr;
      const double m = re[k] * zi + im[k] * zr + wi;
      re[k] = r;
      im[k] = m;
    }
  }
  const double dt = seconds_since(t0);
  double sink = 0.0;
  for (int k = 0; k < kAcc; ++k) sink += re[k] + im[k];
  volatile double keep = sink;
  (void)keep;
  return 8.0 * kAcc * static_cast<double>(iters) / dt * 1e-9;
}

}  // namespace perfbench
