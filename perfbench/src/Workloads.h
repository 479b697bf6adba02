//===- perfbench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Entry points of the three workloads and of the layer probes a traced
/// run adds. Every workload reports the same end-to-end and layer metric
/// names; README.md says what each means on each workload.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Harness.h"

namespace perfbench {

/// solve-balanced: nqueens-array n=13 through the one-call runProblem API.
void runSolveBalanced(const RunArgs &A, Report &R, SpanLog &L);

/// solve-unbalanced: the tree3l synthetic tree, seeded from A.Seed.
void runSolveUnbalanced(const RunArgs &A, Report &R, SpanLog &L);

/// serve-small-jobs: an in-process JobServer driven open loop over
/// loopback HTTP.
void runServe(const RunArgs &A, Report &R, SpanLog &L);

/// A short open-loop burst of small jobs through a JobServer: the
/// server / http layer metrics for the solve workloads, whose own traffic
/// bypasses those layers.
void addServeProbe(const RunArgs &A, Report &R, SpanLog &L);

/// Times the configured deque's public operations, an empty-body
/// SchedulerPool::dispatch at one and four workers, and GET /healthz.
void addLayerProbes(Report &R, SpanLog &L);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
