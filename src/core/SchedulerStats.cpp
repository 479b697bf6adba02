//===- core/SchedulerStats.cpp - Scheduler instrumentation ----------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/SchedulerStats.h"

#include <algorithm>
#include <cstdio>

using namespace atc;

SchedulerStats &SchedulerStats::operator+=(const SchedulerStats &Other) {
#define ATC_STAT_COUNTER(Name, PromName, Help) Name += Other.Name;
#define ATC_STAT_GAUGE(Name, PromName, Help)                                   \
  Name = std::max(Name, Other.Name);
#include "core/SchedulerStats.def"
  return *this;
}

std::string SchedulerStats::summary() const {
  char Buf[768];
  std::snprintf(
      Buf, sizeof(Buf),
      "tasks=%llu fake=%llu special=%llu spawns=%llu "
      "steal_attempts=%llu steals=%llu "
      "steal_fails=%llu empty_probes=%llu "
      "cas_retries=%llu lock_acquires=%llu help_steals=%llu "
      "copies=%llu copied_bytes=%llu suspensions=%llu "
      "overflows=%llu pool_overflows=%llu deque_hw=%d arena_hw=%d "
      "wait_children_ms=%.2f steal_wait_ms=%.2f",
      static_cast<unsigned long long>(TasksCreated),
      static_cast<unsigned long long>(FakeTasks),
      static_cast<unsigned long long>(SpecialTasks),
      static_cast<unsigned long long>(Spawns),
      static_cast<unsigned long long>(StealAttempts),
      static_cast<unsigned long long>(Steals),
      static_cast<unsigned long long>(StealFails),
      static_cast<unsigned long long>(EmptyProbes),
      static_cast<unsigned long long>(CasRetries),
      static_cast<unsigned long long>(LockAcquires),
      static_cast<unsigned long long>(HelpSteals),
      static_cast<unsigned long long>(WorkspaceCopies),
      static_cast<unsigned long long>(CopiedBytes),
      static_cast<unsigned long long>(Suspensions),
      static_cast<unsigned long long>(DequeOverflows),
      static_cast<unsigned long long>(PoolOverflows), DequeHighWater,
      ArenaHighWater, static_cast<double>(WaitChildrenNs) * 1e-6,
      static_cast<double>(StealWaitNs) * 1e-6);
  return Buf;
}

std::string SchedulerStats::json() const {
  std::string Out = "{";
  bool First = true;
  for (unsigned I = 0; I != NumStatFields; ++I) {
    auto F = static_cast<StatField>(I);
    if (!First)
      Out += ", ";
    First = false;
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "\"%s\": %llu", statFieldPromName(F),
                  static_cast<unsigned long long>(statFieldValue(*this, F)));
    Out += Buf;
  }
  Out += "}";
  return Out;
}

std::uint64_t atc::statFieldValue(const SchedulerStats &S, StatField F) {
  switch (F) {
#define ATC_STAT(Name, PromName, Help)                                         \
  case StatField::Name:                                                        \
    return static_cast<std::uint64_t>(S.Name);
#include "core/SchedulerStats.def"
  }
  return 0;
}

void atc::setStatFieldValue(SchedulerStats &S, StatField F, std::uint64_t V) {
  switch (F) {
#define ATC_STAT_COUNTER(Name, PromName, Help)                                 \
  case StatField::Name:                                                        \
    S.Name = V;                                                                \
    return;
#define ATC_STAT_GAUGE(Name, PromName, Help)                                   \
  case StatField::Name:                                                        \
    S.Name = static_cast<int>(V);                                              \
    return;
#include "core/SchedulerStats.def"
  }
}

const char *atc::statFieldName(StatField F) {
  switch (F) {
#define ATC_STAT(Name, PromName, Help)                                         \
  case StatField::Name:                                                        \
    return #Name;
#include "core/SchedulerStats.def"
  }
  return "?";
}

const char *atc::statFieldPromName(StatField F) {
  switch (F) {
#define ATC_STAT(Name, PromName, Help)                                         \
  case StatField::Name:                                                        \
    return #PromName;
#include "core/SchedulerStats.def"
  }
  return "?";
}

const char *atc::statFieldHelp(StatField F) {
  switch (F) {
#define ATC_STAT(Name, PromName, Help)                                         \
  case StatField::Name:                                                        \
    return Help;
#include "core/SchedulerStats.def"
  }
  return "";
}

bool atc::statFieldIsGauge(StatField F) {
  switch (F) {
#define ATC_STAT_GAUGE(Name, PromName, Help)                                   \
  case StatField::Name:                                                        \
    return true;
#include "core/SchedulerStats.def"
  default:
    return false;
  }
}
