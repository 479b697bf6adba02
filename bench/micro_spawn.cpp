//===- bench/micro_spawn.cpp - per-spawn overhead micro-benchmarks --------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark measurement of the per-node scheduling overhead of
/// each system with one worker, using Fib — the paper's task-overhead
/// stress test ("in fib, there is almost no actual computation workload
/// in each function. Hence, it increases the proportion of task creations
/// and the d-e-que management cost substantially").
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "problems/ProblemRegistry.h"

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstring>

using namespace atc;

namespace {

constexpr int FibN = 20;

/// Workspace-heavy n-queens: NQueensArray semantics (identical counts)
/// with a large per-row annotation trail appended to the workspace, so
/// the State is ~1 KiB — the "Nqueen-array-like" spawn-path stress case.
/// Only Trail rows 0..Depth are live at a node, which is exactly the
/// bounded-copy case the liveBytes hint expresses.
class NQueensBigWorkspace {
public:
  static constexpr int MaxN = 16;
  static constexpr int RowBytes = 64;

  struct State {
    int N;
    signed char Col[MaxN];
    signed char ColUsed[MaxN];
    signed char Diag1[2 * MaxN];
    signed char Diag2[2 * MaxN];
    signed char Trail[MaxN * RowBytes]; ///< Per-row annotations (0..Depth live).
  };
  using Result = long long;

  static State makeRoot(int N) {
    State S;
    std::memset(&S, 0, sizeof(S));
    S.N = N;
    return S;
  }

  bool isLeaf(const State &S, int Depth) const { return Depth == S.N; }
  Result leafResult(const State &, int) const { return 1; }
  int numChoices(const State &S, int) const { return S.N; }

  bool applyChoice(State &S, int Depth, int K) const {
    if (S.ColUsed[K] || S.Diag1[Depth + K] || S.Diag2[Depth - K + S.N - 1])
      return false;
    S.ColUsed[K] = 1;
    S.Diag1[Depth + K] = 1;
    S.Diag2[Depth - K + S.N - 1] = 1;
    S.Col[Depth] = static_cast<signed char>(K);
    std::memset(S.Trail + Depth * RowBytes, K + 1, RowBytes);
    return true;
  }

  void undoChoice(State &S, int Depth, int K) const {
    S.ColUsed[K] = 0;
    S.Diag1[Depth + K] = 0;
    S.Diag2[Depth - K + S.N - 1] = 0;
  }

  /// Live workspace prefix at \p Depth: everything before Trail plus the
  /// rows written by the node's ancestors.
  std::size_t liveBytes(const State &, int Depth) const {
    return offsetof(State, Trail) +
           static_cast<std::size_t>(Depth) * RowBytes;
  }
};

/// Reports the run's owner-side per-spawn counters so per-spawn cost can
/// be derived from the committed JSON ((T_kind - T_seq) / spawns).
template <typename P>
void reportSpawnCounters(benchmark::State &State, P &Prob,
                         const typename P::State &Root,
                         const SchedulerConfig &Cfg) {
  auto R = runProblem(Prob, Root, Cfg);
  State.counters["spawns"] =
      benchmark::Counter(static_cast<double>(R.Stats.Spawns));
  State.counters["copied_bytes"] =
      benchmark::Counter(static_cast<double>(R.Stats.CopiedBytes));
}

template <SchedulerKind Kind>
void BM_Fib1Thread(benchmark::State &State) {
  FibProblem Prob;
  SchedulerConfig Cfg;
  Cfg.Kind = Kind;
  Cfg.NumWorkers = 1;
  long long Expected = FibProblem::fibValue(FibN);
  for (auto _ : State) {
    auto R = runProblem(Prob, FibProblem::makeRoot(FibN), Cfg);
    if (R.Value != Expected)
      State.SkipWithError("wrong fib value");
    benchmark::DoNotOptimize(R.Value);
  }
  reportSpawnCounters(State, Prob, FibProblem::makeRoot(FibN), Cfg);
}

template <SchedulerKind Kind>
void BM_NQueens1Thread(benchmark::State &State) {
  NQueensArray Prob;
  SchedulerConfig Cfg;
  Cfg.Kind = Kind;
  Cfg.NumWorkers = 1;
  for (auto _ : State) {
    auto R = runProblem(Prob, NQueensArray::makeRoot(9), Cfg);
    if (R.Value != 352)
      State.SkipWithError("wrong queens count");
    benchmark::DoNotOptimize(R.Value);
  }
  reportSpawnCounters(State, Prob, NQueensArray::makeRoot(9), Cfg);
}

template <SchedulerKind Kind>
void BM_BigWorkspace1Thread(benchmark::State &State) {
  NQueensBigWorkspace Prob;
  SchedulerConfig Cfg;
  Cfg.Kind = Kind;
  Cfg.NumWorkers = 1;
  for (auto _ : State) {
    auto R = runProblem(Prob, NQueensBigWorkspace::makeRoot(9), Cfg);
    if (R.Value != 352)
      State.SkipWithError("wrong queens count");
    benchmark::DoNotOptimize(R.Value);
  }
  reportSpawnCounters(State, Prob, NQueensBigWorkspace::makeRoot(9), Cfg);
}

} // namespace

BENCHMARK(BM_Fib1Thread<SchedulerKind::Sequential>)->Name("Fib20/Sequential");
BENCHMARK(BM_Fib1Thread<SchedulerKind::Cilk>)->Name("Fib20/Cilk");
BENCHMARK(BM_Fib1Thread<SchedulerKind::CilkSynched>)
    ->Name("Fib20/Cilk-SYNCHED");
BENCHMARK(BM_Fib1Thread<SchedulerKind::Tascell>)->Name("Fib20/Tascell");
BENCHMARK(BM_Fib1Thread<SchedulerKind::AdaptiveTC>)->Name("Fib20/AdaptiveTC");

BENCHMARK(BM_NQueens1Thread<SchedulerKind::Sequential>)
    ->Name("NQueens9/Sequential");
BENCHMARK(BM_NQueens1Thread<SchedulerKind::Cilk>)->Name("NQueens9/Cilk");
BENCHMARK(BM_NQueens1Thread<SchedulerKind::CilkSynched>)
    ->Name("NQueens9/Cilk-SYNCHED");
BENCHMARK(BM_NQueens1Thread<SchedulerKind::Tascell>)
    ->Name("NQueens9/Tascell");
BENCHMARK(BM_NQueens1Thread<SchedulerKind::AdaptiveTC>)
    ->Name("NQueens9/AdaptiveTC");

// Workspace-heavy spawn path (~1 KiB Nqueen-array-like State): the
// owner-side cost here is dominated by the per-spawn workspace copy and
// the frame/workspace allocator; Cilk-SYNCHED spawns a real task per
// viable node, so its delta to Sequential is the per-spawn owner cost.
BENCHMARK(BM_BigWorkspace1Thread<SchedulerKind::Sequential>)
    ->Name("BigWorkspace9/Sequential");
BENCHMARK(BM_BigWorkspace1Thread<SchedulerKind::Cilk>)
    ->Name("BigWorkspace9/Cilk");
BENCHMARK(BM_BigWorkspace1Thread<SchedulerKind::CilkSynched>)
    ->Name("BigWorkspace9/Cilk-SYNCHED");
BENCHMARK(BM_BigWorkspace1Thread<SchedulerKind::AdaptiveTC>)
    ->Name("BigWorkspace9/AdaptiveTC");
BENCHMARK(BM_BigWorkspace1Thread<SchedulerKind::Tascell>)
    ->Name("BigWorkspace9/Tascell");

BENCHMARK_MAIN();
