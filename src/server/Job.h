//===- server/Job.h - Job schema for the scheduler service ------*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The job schema of the scheduler-as-a-service layer: what a client
/// submits (JobSpec — a problem plus the scheduler configuration to run
/// it under), what the server tracks (JobRecord — spec + lifecycle state
/// + result + timings), and the JSON round trip both travel through on
/// the HTTP API.
///
/// Wire form of a spec (all fields beyond "problem" optional):
///
/// \code{.json}
///   {"problem": "nqueens-array", "size": 11, "tenant": "alice",
///    "scheduler": "adaptivetc", "workers": 4, "cutoff": -1,
///    "deadline_ms": 2000}
/// \endcode
///
/// Unknown keys are ignored, except three removed options: "steal" (every
/// thief takes one continuation), "deque" (every run uses the THE deque)
/// and "victim" (every thief picks a uniformly random victim). A spec
/// that still sets any of them is rejected rather than silently run
/// without it.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_SERVER_JOB_H
#define ATC_SERVER_JOB_H

#include "core/Scheduler.h"
#include "core/SchedulerStats.h"

#include <cstdint>
#include <string>

namespace atc {

/// What a client asks the service to run.
struct JobSpec {
  std::string Problem;  ///< Registry kind name (problems/ProblemRegistry.h).
  int Size = 0;         ///< Problem size; 0 = the kind's scaled default.
  std::string Tenant = "default"; ///< Fair-dispatch queue key.

  SchedulerKind Kind = SchedulerKind::AdaptiveTC;
  int Workers = 0; ///< Worker threads; 0 = the server pool's full width.
  int Cutoff = -1; ///< Task-creation cut-off; -1 = runtime default.

  /// Queue-residency budget in milliseconds: a job still queued this long
  /// after submission is dropped as Expired instead of run. 0 = no
  /// deadline.
  std::int64_t DeadlineMs = 0;
};

/// Lifecycle of a submitted job.
enum class JobState {
  Queued,   ///< Accepted, waiting for the pool.
  Running,  ///< On the pool right now.
  Done,     ///< Completed; Value and Stats are valid.
  Failed,   ///< Rejected at dispatch (bad spec reached the runner).
  Shed,     ///< Refused at admission (queue full / backpressure).
  Expired,  ///< Deadline passed while queued; never ran.
};

/// Display name ("queued", "running", "done", "failed", "shed",
/// "expired").
const char *jobStateName(JobState S);

/// Everything the server knows about one job.
struct JobRecord {
  std::uint64_t Id = 0;
  JobSpec Spec;
  JobState State = JobState::Queued;
  long long Value = 0;     ///< Problem result (valid when Done).
  SchedulerStats Stats;    ///< Run stats (valid when Done).
  std::string Error;       ///< Failure/shed reason (Failed/Shed/Expired).
  std::uint64_t SubmitNs = 0; ///< Admission timestamp.
  std::uint64_t StartNs = 0;  ///< Dispatch timestamp (0 if never ran).
  std::uint64_t EndNs = 0;    ///< Completion timestamp (0 while open).

  /// Queue wait in nanoseconds (submit → dispatch, or submit → end for
  /// jobs that never ran).
  std::uint64_t queueNs() const {
    std::uint64_t Until = StartNs != 0 ? StartNs : EndNs;
    return Until > SubmitNs ? Until - SubmitNs : 0;
  }
  /// End-to-end latency in nanoseconds (submit → end).
  std::uint64_t latencyNs() const {
    return EndNs > SubmitNs ? EndNs - SubmitNs : 0;
  }
};

/// Parses a JSON job body into \p Out. Validates the problem kind /
/// size against the registry and every enum against its parser; returns
/// false with a message in \p Error on any violation.
bool parseJobSpec(const std::string &JsonText, JobSpec &Out,
                  std::string &Error);

/// Renders \p Spec back to its wire form (canonical field order).
std::string jobSpecJson(const JobSpec &Spec);

/// Renders a full record: {"id", "state", "spec", "value", "error",
/// "queue_ns", "latency_ns", "stats": {...}} — the GET /result payload.
std::string jobRecordJson(const JobRecord &R);

} // namespace atc

#endif // ATC_SERVER_JOB_H
