//===- server/Job.cpp - Job schema for the scheduler service --------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "server/Job.h"

#include "problems/ProblemRegistry.h"
#include "trace/Json.h"

#include <cmath>
#include <cstdio>

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

std::string atc::escapeJson(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '\\':
      Out += "\\\\";
      break;
    case '"':
      Out += "\\\"";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      Out += C;
    }
  }
  return Out;
}

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
    Error = "unknown scheduler kind '" + S + "'";
    return false;
  }
  S = Doc["deque"].stringOr("the");
  if (!parseDequeKind(S, Spec.Deque)) {
    Error = unknownDequeKindError(S);
    return false;
  }
  S = Doc["steal"].stringOr("one");
  if (!parseStealPolicy(S, Spec.Steal)) {
    Error = unknownStealPolicyError(S);
    return false;
  }
  S = Doc["victim"].stringOr("affinity");
  if (!parseVictimPolicy(S, Spec.Victim)) {
    Error = unknownVictimPolicyError(S);
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
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "{\"problem\": \"%s\", \"size\": %d, \"tenant\": \"%s\", "
                "\"scheduler\": \"%s\", \"workers\": %d, \"deque\": \"%s\", "
                "\"steal\": \"%s\", \"victim\": \"%s\", \"cutoff\": %d, "
                "\"deadline_ms\": %lld}",
                escapeJson(Spec.Problem).c_str(), Spec.Size,
                escapeJson(Spec.Tenant).c_str(),
                schedulerKindName(Spec.Kind), Spec.Workers,
                dequeKindName(Spec.Deque), stealPolicyName(Spec.Steal),
                victimPolicyName(Spec.Victim), Spec.Cutoff,
                static_cast<long long>(Spec.DeadlineMs));
  return Buf;
}

std::string atc::jobRecordJson(const JobRecord &R) {
  std::string Out;
  Out.reserve(1024);
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "{\"id\": %llu, \"state\": \"%s\", ",
                static_cast<unsigned long long>(R.Id), jobStateName(R.State));
  Out += Buf;
  Out += "\"spec\": " + jobSpecJson(R.Spec) + ", ";
  std::snprintf(Buf, sizeof(Buf),
                "\"value\": %lld, \"error\": \"%s\", \"queue_ns\": %llu, "
                "\"latency_ns\": %llu",
                R.Value, escapeJson(R.Error).c_str(),
                static_cast<unsigned long long>(R.queueNs()),
                static_cast<unsigned long long>(R.latencyNs()));
  Out += Buf;
  if (R.State == JobState::Done)
    Out += ", \"stats\": " + R.Stats.json();
  Out += "}";
  return Out;
}
