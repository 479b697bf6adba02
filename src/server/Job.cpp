//===- server/Job.cpp - Job schema for the scheduler service --------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "server/Job.h"

#include "problems/ProblemRegistry.h"
#include "trace/Json.h"

#include <cmath>

using namespace atc;

const char *atc::jobStateName(JobState S) {
  switch (S) {
  case JobState::Queued:
    return "queued";
  case JobState::Running:
    return "running";
  case JobState::Done:
    return "done";
  case JobState::Failed:
    return "failed";
  case JobState::Shed:
    return "shed";
  case JobState::Expired:
    return "expired";
  }
  return "?";
}

namespace {

/// Reads an integral JSON field, rejecting non-integers.
bool intField(const json::Value &Obj, const char *Key, long long &Out,
              std::string &Error) {
  const json::Value &V = Obj[Key];
  if (V.isNull())
    return true;
  if (!V.isNumber() || V.asNumber() != std::floor(V.asNumber())) {
    Error = std::string("field '") + Key + "' must be an integer";
    return false;
  }
  Out = static_cast<long long>(V.asNumber());
  return true;
}

} // namespace

bool atc::parseJobSpec(const std::string &JsonText, JobSpec &Out,
                       std::string &Error) {
  json::Value Doc;
  if (!json::parse(JsonText, Doc, Error))
    return false;
  if (!Doc.isObject()) {
    Error = "job body must be a JSON object";
    return false;
  }

  JobSpec Spec;
  Spec.Problem = Doc["problem"].stringOr("");
  if (Spec.Problem.empty()) {
    Error = "missing required field 'problem'";
    return false;
  }

  long long Size = 0, Workers = 0, Cutoff = -1, DeadlineMs = 0;
  if (!intField(Doc, "size", Size, Error) ||
      !intField(Doc, "workers", Workers, Error) ||
      !intField(Doc, "cutoff", Cutoff, Error) ||
      !intField(Doc, "deadline_ms", DeadlineMs, Error))
    return false;
  Spec.Size = static_cast<int>(Size);
  Spec.Workers = static_cast<int>(Workers);
  Spec.Cutoff = static_cast<int>(Cutoff);
  Spec.DeadlineMs = DeadlineMs;
  if (Spec.Workers < 0) {
    Error = "field 'workers' must be >= 0";
    return false;
  }
  if (Spec.DeadlineMs < 0) {
    Error = "field 'deadline_ms' must be >= 0";
    return false;
  }

  std::string Tenant = Doc["tenant"].stringOr("default");
  if (Tenant.empty())
    Tenant = "default";
  Spec.Tenant = Tenant;

  std::string S;
  S = Doc["scheduler"].stringOr("adaptivetc");
  if (!parseSchedulerKind(S, Spec.Kind)) {
    Error = unknownSchedulerKindError(S);
    return false;
  }
  // Fields of deleted options: a spec that still sets one is rejected,
  // whatever the value, rather than silently run without it.
  static const struct {
    const char *Field;
    const char *Reason;
  } Removed[] = {
      {"deque", "every run uses the THE deque"},
      {"steal", "every thief steals one continuation"},
      {"victim", "every thief picks a uniformly random victim"},
  };
  for (const auto &R : Removed)
    if (!Doc[R.Field].isNull()) {
      Error = std::string("field '") + R.Field + "' was removed: " + R.Reason;
      return false;
    }

  // Validate problem kind + size by building (and discarding) a runner
  // shell — cheap for every kind but comp, whose arrays we accept as the
  // cost of full validation at admission rather than at dispatch.
  ProblemRunner Probe;
  if (!makeProblemRunner(Spec.Problem, Spec.Size, Probe, Error))
    return false;
  Spec.Problem = Probe.Kind; // canonical spelling
  Spec.Size = Probe.Size;    // default applied

  Out = Spec;
  return true;
}

std::string atc::jobSpecJson(const JobSpec &Spec) {
  std::string Out = "{\"problem\": \"" + escapeJson(Spec.Problem) + "\"";
  Out += ", \"size\": " + std::to_string(Spec.Size);
  Out += ", \"tenant\": \"" + escapeJson(Spec.Tenant) + "\"";
  Out += ", \"scheduler\": \"" + std::string(schedulerKindName(Spec.Kind));
  Out += "\", \"workers\": " + std::to_string(Spec.Workers);
  Out += ", \"cutoff\": " + std::to_string(Spec.Cutoff);
  Out += ", \"deadline_ms\": " + std::to_string(Spec.DeadlineMs) + "}";
  return Out;
}

std::string atc::jobRecordJson(const JobRecord &R) {
  std::string Out = "{\"id\": " + std::to_string(R.Id);
  Out += ", \"state\": \"" + std::string(jobStateName(R.State));
  Out += "\", \"spec\": " + jobSpecJson(R.Spec);
  Out += ", \"value\": " + std::to_string(R.Value);
  Out += ", \"error\": \"" + escapeJson(R.Error);
  Out += "\", \"queue_ns\": " + std::to_string(R.queueNs());
  Out += ", \"latency_ns\": " + std::to_string(R.latencyNs());
  if (R.State == JobState::Done)
    Out += ", \"stats\": " + R.Stats.json();
  Out += "}";
  return Out;
}
