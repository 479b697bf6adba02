//===- core/kernel/KernelWorker.h - Kernel per-worker state -----*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The kernel-owned slice of per-worker state, shared by every
/// SchedulerKind: identity, the deterministic victim-selection stream,
/// and the paper's stolen_num / need_task signalling fields
/// (Section 4.3). Policies derive their worker type from this and
/// append their own state (deque, shadow stack, mailbox, ...) — see
/// WorkerRuntime.h for the policy contract.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_CORE_KERNEL_KERNELWORKER_H
#define ATC_CORE_KERNEL_KERNELWORKER_H

#include "core/SchedulerStats.h"
#include "metrics/Metrics.h"
#include "support/Compiler.h"
#include "support/Prng.h"
#include "trace/TraceBuffer.h"

#include <atomic>
#include <cstdint>

namespace atc {

/// Kernel per-worker state; WorkerRuntime owns one instance (of the
/// policy's derived worker type) per worker thread.
///
/// Layout rule: the struct is cache-line aligned, and each thief-written
/// field (StolenNum, NeedTask) sits on its own line. NeedTask in
/// particular is polled by the owner on every fake-task iteration
/// (millions of reads per run), so a thief's StolenNum increments must
/// not invalidate the line the owner is polling — nor the line holding
/// the owner's Stats counters.
struct alignas(ATC_CACHE_LINE_SIZE) KernelWorker {
  KernelWorker(int Id, std::uint64_t Seed) : Id(Id), Rng(Seed) {}

  const int Id;

  /// Deterministic victim-selection stream.
  SplitMix64 Rng;

  /// This worker's event-trace ring, or null when the run is untraced
  /// (the common case — every emission site null-tests this). Owner-only:
  /// a worker writes exclusively to its own ring. Set by WorkerRuntime
  /// before threads start when SchedulerConfig::Trace is armed.
  TraceBuffer *Trace = nullptr;

  /// This worker's live-metrics cell, or null when the run is unmetered
  /// (the common case — every publication site null-tests this). Mostly
  /// owner-written; the cell's cross-thread gauges (need_task, deque
  /// depth) are plain atomic stores, so thief-side updates are fine. Set
  /// by WorkerRuntime before threads start when SchedulerConfig::Metrics
  /// is armed.
  WorkerMetricsCell *Metrics = nullptr;

  /// Count of consecutive failed steal attempts against this worker,
  /// incremented by thieves (Fig. 3d). When it exceeds max_stolen_num the
  /// thief sets NeedTask.
  alignas(ATC_CACHE_LINE_SIZE) std::atomic<int> StolenNum{0};

  /// Set when some idle thread needs this (busy) worker to publish tasks;
  /// polled by the AdaptiveTC check version. Own cache line: written
  /// rarely (by thieves), read on every fake-task iteration (by the
  /// owner).
  alignas(ATC_CACHE_LINE_SIZE) std::atomic<bool> NeedTask{false};

  /// Per-worker counters; aggregated after the run (no atomics needed —
  /// written only by the owner thread). SchedulerStats is itself
  /// cache-line aligned and padded, which starts it on a fresh line after
  /// NeedTask.
  SchedulerStats Stats;
};

} // namespace atc

#endif // ATC_CORE_KERNEL_KERNELWORKER_H
