//===- problems/ProblemRegistry.h - Name-keyed problem factory --*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one problem table of the tree: it maps a problem kind and a size
/// to a typed problem instance and its root. Everything that picks a
/// workload by name runs through it — the job server, atc_loadgen,
/// atc_top --demo, the Table-1 benchmark suite (bench/common) and the
/// registry-wide tests. The registry type-erases the heterogeneous
/// problem classes behind three closures: run-under-a-config, the
/// sequential oracle and the tree profile.
///
/// \code
///   atc::ProblemRunner Runner;
///   std::string Err;
///   if (!atc::makeProblemRunner("nqueens-array", 11, Runner, Err))
///     atc::reportFatalError(Err);
///   auto R = Runner.Run(Cfg);              // RunResult<long long>
///   assert(R.Value == Runner.RunSequential());
/// \endcode
///
/// Size semantics are per kind (board size, fib index, array length,
/// piece count — see kind list in ProblemRegistry.cpp); 0 selects the
/// kind's scaled default. Each kind also names its published size, the
/// input of the paper's Table 1.
///
/// runProblem (core/Runtime.h) compiles the whole scheduler matrix for
/// its problem type. Each registry problem's is compiled once, in the
/// problem's .cpp file, and declared extern below. Adding a problem takes
/// one KindDef row, one extern line and one instantiation line.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_PROBLEMS_PROBLEMREGISTRY_H
#define ATC_PROBLEMS_PROBLEMREGISTRY_H

#include "core/Runtime.h"
#include "problems/FibComp.h"
#include "problems/KnightsTour.h"
#include "problems/NQueens.h"
#include "problems/Pentomino.h"
#include "problems/Strimko.h"
#include "problems/Sudoku.h"

#include <functional>
#include <string>
#include <vector>

namespace atc {

/// A ready-to-run, type-erased problem instance. The closures share
/// ownership of the underlying problem object, so a ProblemRunner is
/// freely copyable and outlives the registry call that built it.
struct ProblemRunner {
  std::string Kind;     ///< Canonical kind name ("nqueens-array", ...).
  int Size = 0;         ///< Effective size after defaulting.
  std::string Workload; ///< Label for metrics/trace meta ("fib-27", ...).
  int StateBytes = 0;   ///< sizeof(State): the taskprivate workspace.

  /// Runs the problem under \p Cfg through the full scheduler stack.
  std::function<RunResult<long long>(const SchedulerConfig &Cfg)> Run;

  /// The sequential oracle: the value every scheduled run must equal.
  std::function<long long()> RunSequential;

  /// Walks the whole computation tree sequentially and returns its shape.
  std::function<TreeProfile()> Profile;
};

/// Builds a runner for \p Kind at \p Size (0 = the kind's default).
/// Returns false and sets \p Error for an unknown kind or out-of-range
/// size. Kind parsing is case-insensitive and "-"/"_" interchangeable,
/// like the scheduler-kind parsers.
bool makeProblemRunner(const std::string &Kind, int Size, ProblemRunner &Out,
                       std::string &Error);

/// Canonical kind names, in registry order.
const std::vector<std::string> &problemRegistryKinds();

/// The scaled default size for \p Kind (what Size = 0 resolves to), or
/// -1 for an unknown kind.
int problemDefaultSize(const std::string &Kind);

/// The published size for \p Kind (the paper's input, `--paper-scale` in
/// the harnesses), or -1 for an unknown kind.
int problemPublishedSize(const std::string &Kind);

/// runProblem's explicit instantiation for \p P: declared with `extern`
/// in front, defined without (in namespace atc).
#define ATC_RUN_PROBLEM_INSTANTIATION(P)                                      \
  template RunResult<P::Result> runProblem<P>(P &, const P::State &,          \
                                              const SchedulerConfig &)

extern ATC_RUN_PROBLEM_INSTANTIATION(NQueensArray);
extern ATC_RUN_PROBLEM_INSTANTIATION(NQueensCompute);
extern ATC_RUN_PROBLEM_INSTANTIATION(FibProblem);
extern ATC_RUN_PROBLEM_INSTANTIATION(CompProblem);
extern ATC_RUN_PROBLEM_INSTANTIATION(KnightsTour);
extern ATC_RUN_PROBLEM_INSTANTIATION(Strimko);
extern ATC_RUN_PROBLEM_INSTANTIATION(Sudoku);
extern ATC_RUN_PROBLEM_INSTANTIATION(Pentomino);

} // namespace atc

#endif // ATC_PROBLEMS_PROBLEMREGISTRY_H
