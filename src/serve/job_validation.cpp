#include "serve/job_validation.hpp"

#include <cmath>
#include <vector>

namespace hgp::serve {

namespace {

JobError fail(JobErrorCode code, std::string message) {
  return JobError{code, std::move(message)};
}

std::string label_of(const SweepJob& job) {
  return job.label.empty() ? std::string("<unnamed>") : job.label;
}

}  // namespace

JobError validate_job(const JobRequest& request) {
  const SweepJob& job = request.run;
  const std::string label = label_of(job);
  const core::RunConfig& cfg = job.config;

  // Scheduling metadata first: a malformed tenant tag would corrupt the
  // fair-share accounting before the run itself is even looked at.
  if (job.tenant.empty())
    return fail(JobErrorCode::BadTenant, label + ": empty tenant tag");
  if (!(job.weight > 0.0) || !std::isfinite(job.weight))
    return fail(JobErrorCode::BadTenant,
                label + ": fair-share weight must be positive and finite");

  // Negative deadlines are legal (the job expires at submit); only one the
  // steady clock cannot represent is malformed.
  if (request.deadline > kMaxDeadline)
    return fail(JobErrorCode::BadDeadline,
                label + ": deadline of " + std::to_string(request.deadline.count()) +
                    " ms exceeds the " + std::to_string(kMaxDeadline.count()) + " ms limit");

  if (job.dev == nullptr)
    return fail(JobErrorCode::NullBackend, label + ": job has no backend");

  const std::size_t n = job.instance.graph.num_vertices();
  if (n == 0)
    return fail(JobErrorCode::EmptyInstance, label + ": zero-vertex instance");
  if (job.instance.graph.num_edges() == 0)
    return fail(JobErrorCode::EmptyInstance, label + ": instance has no edges");

  // Engine string before the engine-dependent register cap.
  const bool density = cfg.engine == "density";
  if (!density && cfg.engine != "trajectory")
    return fail(JobErrorCode::BadEngine, label + ": unknown engine '" + cfg.engine + "'");
  const std::size_t cap = density ? kMaxDensityQubits : kMaxTrajectoryQubits;
  if (n > cap)
    return fail(JobErrorCode::TooManyQubits,
                label + ": " + std::to_string(n) + "-vertex instance exceeds the " +
                    cfg.engine + " engine's " + std::to_string(cap) + "-qubit register cap");
  if (job.dev->num_qubits() < n)
    return fail(JobErrorCode::BackendTooSmall,
                label + ": instance needs " + std::to_string(n) + " qubits but backend '" +
                    job.dev->name() + "' has " + std::to_string(job.dev->num_qubits()));

  if (cfg.objective != "sample" && cfg.objective != "expectation" && cfg.objective != "cvar")
    return fail(JobErrorCode::BadObjective,
                label + ": unknown objective '" + cfg.objective + "'");
  if (cfg.m3 && cfg.objective != "sample")
    return fail(JobErrorCode::IncompatibleM3,
                label + ": M3 mitigation operates on sampled counts — use the 'sample' "
                        "objective");

  if (cfg.optimizer != "cobyla" && cfg.optimizer != "spsa" && cfg.optimizer != "neldermead")
    return fail(JobErrorCode::BadOptimizer,
                label + ": unknown optimizer '" + cfg.optimizer + "'");

  if (cfg.shots == 0 || cfg.shots > kMaxShots)
    return fail(JobErrorCode::BadShots,
                label + ": shot count " + std::to_string(cfg.shots) + " outside [1, " +
                    std::to_string(kMaxShots) + "]");
  if (cfg.m3 && (cfg.calibration_shots == 0 || cfg.calibration_shots > kMaxShots))
    return fail(JobErrorCode::BadShots,
                label + ": calibration shot count " + std::to_string(cfg.calibration_shots) +
                    " outside [1, " + std::to_string(kMaxShots) + "]");

  if (cfg.max_evaluations < 1 || cfg.max_evaluations > kMaxEvaluations)
    return fail(JobErrorCode::BadEvaluations,
                label + ": optimizer budget " + std::to_string(cfg.max_evaluations) +
                    " outside [1, " + std::to_string(kMaxEvaluations) + "]");

  if (cfg.shot_batch_lanes > kMaxLanes || cfg.candidate_lanes > kMaxLanes)
    return fail(JobErrorCode::BadLanes,
                label + ": lane width exceeds " + std::to_string(kMaxLanes));
  if (cfg.executor_threads > kMaxLanes)
    return fail(JobErrorCode::BadLanes,
                label + ": executor thread count exceeds " + std::to_string(kMaxLanes));

  const bool uses_cvar = cfg.cvar || cfg.objective == "cvar";
  if (uses_cvar && !(cfg.cvar_alpha > 0.0 && cfg.cvar_alpha <= 1.0))
    return fail(JobErrorCode::BadCvarAlpha,
                label + ": cvar_alpha must lie in (0, 1]");

  if (cfg.model.p < 1 || cfg.model.p > kMaxModelDepth)
    return fail(JobErrorCode::BadModel, label + ": model depth p outside [1, " +
                                            std::to_string(kMaxModelDepth) + "]");
  if (job.kind != core::ModelKind::GateLevel &&
      (cfg.model.mixer_duration_dt < 1 || cfg.model.mixer_duration_dt > kMaxMixerDurationDt))
    return fail(JobErrorCode::BadModel, label + ": mixer pulse duration outside [1, " +
                                            std::to_string(kMaxMixerDurationDt) + "] dt");

  // The router indexes device qubits by the layout's entries: one per
  // instance vertex, each a distinct qubit of the backend.
  const std::vector<std::size_t>& layout = cfg.model.initial_layout;
  if (!layout.empty()) {
    if (layout.size() != n)
      return fail(JobErrorCode::BadModel,
                  label + ": initial layout has " + std::to_string(layout.size()) +
                      " entries for a " + std::to_string(n) + "-vertex instance");
    std::vector<bool> used(job.dev->num_qubits(), false);
    for (const std::size_t q : layout) {
      if (q >= used.size() || used[q])
        return fail(JobErrorCode::BadModel,
                    label + ": initial layout entry " + std::to_string(q) +
                        " is out of range or repeated on backend '" + job.dev->name() + "'");
      used[q] = true;
    }
  }

  return {};
}

}  // namespace hgp::serve
