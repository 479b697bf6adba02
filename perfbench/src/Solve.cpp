//===- perfbench/src/Solve.cpp - The solve-* workloads --------------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Both solve workloads time whole runProblem calls with no executor (the
/// plain one-call API, threads spawned per solve) at the library defaults.
/// The measured phase interleaves one sequential and one 1-worker solve
/// with every few 4-worker solves, so all three see the same host.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "core/Runtime.h"
#include "problems/NQueens.h"
#include "sim/SyntheticTreeProblem.h"
#include "support/Prng.h"

#include <cstdio>
#include <memory>
#include <numeric>

using namespace perfbench;
using atc::nowNanos;

namespace {

/// A problem instance built from the workload's inputs, with its oracle.
template <typename P> struct Instance {
  std::unique_ptr<P> Prob;
  typename P::State Root;
  long long Oracle = 0;
};

/// The library defaults: AdaptiveTC, THE deque, steal-one, affinity
/// victims, tuning off, no executor.
atc::SchedulerConfig solveConfig(int Workers) {
  atc::SchedulerConfig Cfg;
  Cfg.NumWorkers = Workers;
  return Cfg;
}

/// Runs one solve workload. \p Make(N) builds input instance N with its
/// oracle; with \p FreshInputs every 4-worker solve gets a new instance,
/// otherwise all reuse instance 0. One sequential and one 1-worker solve
/// of the current instance run before every \p FourPerPair 4-worker ones.
template <typename P, typename MakeFn>
void runSolves(const RunArgs &A, Report &R, SpanLog &L, MakeFn Make,
               bool FreshInputs, int FourPerPair) {
  // Set-up: build the inputs and the oracle, then get the first (cold)
  // 4-worker result.
  std::vector<double> SetupS;
  for (int Rep = 0; Rep != 3; ++Rep) {
    std::uint64_t T0 = nowNanos();
    Instance<P> I = Make(Rep);
    long long V = atc::runProblem(*I.Prob, I.Root, solveConfig(4)).Value;
    SetupS.push_back(static_cast<double>(nowNanos() - T0) * 1e-9);
    R.check(V == I.Oracle, "cold 4-worker solve");
  }

  Instance<P> I = Make(0);
  std::vector<double> Par, Seq, One, ParTraced, ParUntraced;
  std::vector<RunCounters> Counters;
  const std::uint64_t Deadline =
      nowNanos() + static_cast<std::uint64_t>(A.Seconds * 1e9);
  for (int N = 0; N == 0 || nowNanos() < Deadline; ++N) {
    if (FreshInputs && N != 0)
      I = Make(N);
    if (N % FourPerPair == 0) {
      typename P::State S = I.Root;
      std::uint64_t T0 = nowNanos();
      long long V = atc::runSequential(*I.Prob, S);
      std::uint64_t T1 = nowNanos();
      L.add("seq", T0, T1);
      Seq.push_back(msBetween(T0, T1));
      R.check(V == I.Oracle, "sequential solve");

      T0 = nowNanos();
      V = atc::runProblem(*I.Prob, I.Root, solveConfig(1)).Value;
      T1 = nowNanos();
      L.add("solve.w1", T0, T1);
      One.push_back(msBetween(T0, T1));
      R.check(V == I.Oracle, "1-worker solve");
    }

    // Traced runs record spans on every other 4-worker solve, so the
    // tracing overhead is measured interleaved within the run.
    bool Spans = L.enabled() && N % 2 == 0;
    std::uint64_t T0 = nowNanos();
    atc::RunResult<long long> Res =
        atc::runProblem(*I.Prob, I.Root, solveConfig(4));
    std::uint64_t T1 = nowNanos();
    if (Spans)
      L.add("solve", T0, T1);
    double Ms = msBetween(T0, T1);
    Par.push_back(Ms);
    (Spans ? ParTraced : ParUntraced).push_back(Ms);
    Counters.push_back({Res.Stats, Ms, 4});
    R.check(Res.Value == I.Oracle, "4-worker solve");
  }

  double ParTotalS = std::accumulate(Par.begin(), Par.end(), 0.0) * 1e-3;
  using K = Report::Kind;
  R.add("p50_ms", quantile(Par, 0.5), "ms", K::EndToEnd);
  R.add("p90_ms", quantile(Par, 0.9), "ms", K::EndToEnd);
  R.add("overhead_1w", median(One) / median(Seq), "ratio", K::EndToEnd);
  R.add("throughput_per_s", static_cast<double>(Par.size()) / ParTotalS,
        "1/s", K::EndToEnd);
  R.add("setup_s", median(SetupS), "s", K::EndToEnd);

  R.add("problems.seq_ms", median(Seq), "ms");
  addCounterMetrics(R, Counters);
  if (L.enabled())
    R.add("trace.overhead_ms", median(ParTraced) - median(ParUntraced), "ms");
  std::fprintf(stderr,
               "perfbench: %zu 4-worker, %zu 1-worker, %zu sequential "
               "solves\n",
               Par.size(), One.size(), Seq.size());
}

// Workload inputs.
constexpr int BoardSize = 13;
constexpr long long TreeNodes = 500'000;
constexpr int SpinPerNode = 50;

} // namespace

void perfbench::runSolveBalanced(const RunArgs &A, Report &R, SpanLog &L) {
  auto Make = [](int) {
    Instance<atc::NQueensArray> I{std::make_unique<atc::NQueensArray>(),
                                  atc::NQueensArray::makeRoot(BoardSize)};
    typename atc::NQueensArray::State S = I.Root;
    I.Oracle = atc::runSequential(*I.Prob, S);
    return I;
  };
  runSolves<atc::NQueensArray>(A, R, L, Make, /*FreshInputs=*/false,
                               /*FourPerPair=*/16);
}

void perfbench::runSolveUnbalanced(const RunArgs &A, Report &R, SpanLog &L) {
  // A fresh tree per solve, all drawn from the run's seed: one tree's
  // shape sets how much parallelism it has, so the run reports the median
  // over many trees rather than one seed's luck.
  auto Make = [&A](int N) {
    atc::TreeSpec Spec = atc::SimTree::preset("tree3l", TreeNodes);
    Spec.Seed = atc::mix64(A.Seed * 0x9e3779b97f4a7c15ULL + N);
    Instance<atc::SyntheticTreeProblem> I;
    I.Prob = std::make_unique<atc::SyntheticTreeProblem>(Spec, SpinPerNode);
    I.Root = I.Prob->makeRoot();
    I.Oracle = I.Prob->expectedLeaves();
    return I;
  };
  runSolves<atc::SyntheticTreeProblem>(A, R, L, Make, /*FreshInputs=*/true,
                                       /*FourPerPair=*/8);
}
