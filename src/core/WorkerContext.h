//===- core/WorkerContext.h - Deque-engine worker state ---------*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-worker state of the deque-based schedulers (Cilk, Cilk-SYNCHED,
/// Cutoff, AdaptiveTC): the kernel slice (identity, victim-selection
/// PRNG, need_task signalling, stats — see
/// core/kernel/KernelWorker.h) plus the ready-task deque.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_CORE_WORKERCONTEXT_H
#define ATC_CORE_WORKERCONTEXT_H

#include "core/kernel/KernelWorker.h"
#include "deque/TheDeque.h"
#include "support/Compiler.h"

namespace atc {

/// Deque-engine worker state. One instance per worker thread; the deque
/// and the inherited need_task fields are the only members touched by
/// other threads.
///
/// KernelWorker ends with the cache-line-padded Stats block, so the deque
/// starts on a fresh line and the kernel's layout rule (each thief-
/// written field on its own line) carries over unchanged.
struct alignas(ATC_CACHE_LINE_SIZE) WorkerContext : KernelWorker {
  WorkerContext(int Id, int DequeCapacity, std::uint64_t Seed)
      : KernelWorker(Id, Seed), Deque(DequeCapacity) {}

  /// Ready-task deque ("d-e-que" in the paper).
  TheDeque Deque;
};

} // namespace atc

#endif // ATC_CORE_WORKERCONTEXT_H
