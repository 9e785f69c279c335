#pragma once

// Host fingerprint and roofline, taken at benchmark start so every result
// can be read against the machine it ran on.

#include <cstddef>
#include <string>

namespace perfbench {

struct HostInfo {
  std::string cpu_model;
  unsigned nproc = 0;
  std::size_t l1d_bytes = 0;
  std::size_t l2_bytes = 0;
  std::size_t llc_bytes = 0;  // last-level cache as the OS reports it
};

HostInfo host_info();
/// One-line JSON object of the fingerprint.
std::string host_json(const HostInfo& info);

struct StreamResult {
  double gbps = 0.0;              // best pass, bytes read + written per second
  std::size_t array_bytes = 0;    // the single array the kernel sweeps
  std::size_t llc_bytes = 0;
  unsigned threads = 0;
};

/// In-place scale kernel a[i] = s * a[i] over one array of at least 4x the
/// reported LLC, split across `threads` threads; best of `passes` passes.
StreamResult measure_stream(const HostInfo& info, unsigned threads, int passes);

/// Scalar complex multiply-add rate on one thread, in GFLOP/s (8 flops per
/// complex multiply-add), compiled with -ffp-contract=off and no
/// vectorization so separate multiplies and adds are timed.
double measure_cmadd_gflops();

}  // namespace perfbench
