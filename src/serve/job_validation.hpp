#pragma once

#include <chrono>

#include "serve/job.hpp"

namespace hgp::serve {

/// Hard caps the validator enforces before any executor is constructed.
/// The register caps mirror Executor::compile_program's per-engine limits
/// (statevector trajectories to 14 touched qubits, the exact density engine
/// to 10); the shot/evaluation caps bound the work a single job may claim so
/// an absurd request cannot occupy a worker for hours.
inline constexpr std::size_t kMaxTrajectoryQubits = 14;
inline constexpr std::size_t kMaxDensityQubits = 10;
inline constexpr std::size_t kMaxShots = std::size_t{1} << 26;  // 67M
inline constexpr int kMaxEvaluations = 1 << 20;
inline constexpr std::size_t kMaxLanes = 4096;
/// Model caps: QAOA depth and mixer pulse length (dt). The paper's runs use
/// p <= 2 and mixers of at most 320 dt; these bounds only stop a request
/// from building an absurdly deep or long model.
inline constexpr int kMaxModelDepth = 64;
inline constexpr int kMaxMixerDurationDt = 1 << 14;
/// Longest soft deadline: half the steady clock's range (~146 years), so
/// `submitted_at + deadline` stays representable for any uptime below the
/// other half. Longer deadlines would overflow the nanosecond conversion.
inline constexpr std::chrono::milliseconds kMaxDeadline =
    std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::duration::max()) /
    2;

/// Validate a request without touching a backend, model, or executor.
/// Returns {None, ""} when the job is well-formed; otherwise the first
/// failed check's structured code and a human-readable message. Checks are
/// ordered cheapest-first and stop at the first failure, so the verdict for
/// a given request is deterministic.
JobError validate_job(const JobRequest& request);

}  // namespace hgp::serve
