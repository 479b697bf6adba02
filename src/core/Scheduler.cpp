//===- core/Scheduler.cpp - Scheduler kinds and configuration -------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Scheduler.h"
#include "support/Compiler.h"

#include <algorithm>
#include <cctype>

using namespace atc;

namespace {

/// Shared name normalization for the option parsers: strip "-"/"_" and
/// lowercase.
std::string normalizeKey(const std::string &Name) {
  std::string Key;
  Key.reserve(Name.size());
  for (char C : Name) {
    if (C == '-' || C == '_')
      continue;
    Key += static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  }
  return Key;
}

} // namespace

const char *atc::schedulerKindName(SchedulerKind Kind) {
  switch (Kind) {
  case SchedulerKind::Sequential:
    return "Sequential";
  case SchedulerKind::Cilk:
    return "Cilk";
  case SchedulerKind::CilkSynched:
    return "Cilk-SYNCHED";
  case SchedulerKind::Cutoff:
    return "Cutoff";
  case SchedulerKind::AdaptiveTC:
    return "AdaptiveTC";
  case SchedulerKind::Tascell:
    return "Tascell";
  }
  ATC_UNREACHABLE("unhandled scheduler kind");
}

bool atc::parseSchedulerKind(const std::string &Name, SchedulerKind &Out) {
  std::string Key = normalizeKey(Name);
  if (Key == "sequential" || Key == "serial" || Key == "seq") {
    Out = SchedulerKind::Sequential;
    return true;
  }
  if (Key == "cilk") {
    Out = SchedulerKind::Cilk;
    return true;
  }
  if (Key == "cilksynched" || Key == "synched") {
    Out = SchedulerKind::CilkSynched;
    return true;
  }
  if (Key == "cutoff") {
    Out = SchedulerKind::Cutoff;
    return true;
  }
  if (Key == "adaptivetc" || Key == "atc" || Key == "adaptive") {
    Out = SchedulerKind::AdaptiveTC;
    return true;
  }
  if (Key == "tascell") {
    Out = SchedulerKind::Tascell;
    return true;
  }
  return false;
}

std::string atc::unknownSchedulerKindError(const std::string &Name) {
  return "unknown scheduler kind '" + Name +
         "' (expected sequential|cilk|cilk-synched|cutoff|adaptivetc|tascell)";
}

int atc::effectiveCutoff(int Cutoff, int NumWorkers) {
  if (Cutoff >= 0)
    return Cutoff;
  // ceil(log2(NumWorkers)).
  int Log = 0;
  while ((1 << Log) < NumWorkers)
    ++Log;
  return Log;
}
