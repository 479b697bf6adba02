//===- problems/Sudoku.cpp - Sudoku instances and parsing -----------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "problems/Sudoku.h"
#include "problems/ProblemRegistry.h"
#include "support/Error.h"

using namespace atc;

/// A complete valid grid (the classic example grid); the named instances
/// below clear subsets of its cells, so every instance is satisfiable and
/// its search tree contains at least the original solution.
static const char SolvedGrid[] = "534678912"
                                 "672195348"
                                 "198342567"
                                 "859761423"
                                 "426853791"
                                 "713924856"
                                 "961537284"
                                 "287419635"
                                 "345286179";

Sudoku::State Sudoku::makeRoot(const std::string &Grid) {
  assert(Grid.size() == Cells && "grid string must have 81 characters");
  State S;
  std::memset(&S, 0, sizeof(S));
  for (int R = 0; R < N; ++R) {
    for (int C = 0; C < N; ++C) {
      char Ch = Grid[static_cast<std::size_t>(R * N + C)];
      if (Ch == '0' || Ch == '.')
        continue;
      assert(Ch >= '1' && Ch <= '9' && "grid cell must be 0-9 or '.'");
      int D = Ch - '1';
      int B = blockOf(R, C);
      std::uint16_t Bit = static_cast<std::uint16_t>(1 << D);
      assert(!((S.PlacedRow[R] | S.PlacedCol[C] | S.PlacedBlock[B]) & Bit) &&
             "inconsistent givens");
      S.Board[R][C] = static_cast<signed char>(D + 1);
      S.PlacedRow[R] |= Bit;
      S.PlacedCol[C] |= Bit;
      S.PlacedBlock[B] |= Bit;
    }
  }
  for (int R = 0; R < N; ++R)
    for (int C = 0; C < N; ++C)
      if (!S.Board[R][C]) {
        S.FreeRow[S.NumFree] = static_cast<signed char>(R);
        S.FreeCol[S.NumFree] = static_cast<signed char>(C);
        ++S.NumFree;
      }
  return S;
}

/// Clears the cells selected by \p Keep (returns false to clear) from the
/// solved grid.
template <typename KeepFn> static std::string clearCells(KeepFn Keep) {
  std::string Grid(SolvedGrid);
  for (int R = 0; R < Sudoku::N; ++R)
    for (int C = 0; C < Sudoku::N; ++C)
      if (!Keep(R, C))
        Grid[static_cast<std::size_t>(R * Sudoku::N + C)] = '0';
  return Grid;
}

const char *Sudoku::instanceGrid(const std::string &Name) {
  // The instance grids are materialized once; the strings stay alive for
  // the process lifetime.
  static const std::string Balance =
      // The bottom four rows are free: the completions spread evenly over
      // a bushy tree of ~56k nodes (1284 solutions) — the scaled
      // input_balance workload.
      clearCells([](int R, int) { return R < 5; });
  static const std::string BalanceLarge =
      // Bottom five rows free: ~25M nodes, 636960 solutions — the
      // paper-scale balanced workload.
      clearCells([](int R, int) { return R < 4; });
  static const std::string Input1 =
      // Free cells concentrated at the top-left: the first free cells
      // explored own almost the whole subtree (strongly unbalanced,
      // left-heavy — the Figure 8 workload).
      clearCells([](int R, int C) { return R >= 4 || (R == 3 && C >= 5); });
  static const std::string Input2 =
      // Mirror image of input1: free cells at the bottom-right, making
      // the tree right-heavy under row-major search order.
      clearCells([](int R, int C) { return R < 5 || (R == 5 && C < 4); });
  if (Name == "balance" || Name == "input_balance")
    return Balance.c_str();
  if (Name == "balance-large")
    return BalanceLarge.c_str();
  if (Name == "input1")
    return Input1.c_str();
  if (Name == "input2")
    return Input2.c_str();
  if (Name == "solved")
    return SolvedGrid;
  reportFatalError("unknown Sudoku instance '" + Name +
                   "' (expected balance, balance-large, input1, input2, or "
                   "solved)");
}

Sudoku::State Sudoku::makeInstance(const std::string &Name) {
  return makeRoot(instanceGrid(Name));
}

// The Sudoku scheduler matrix (see problems/ProblemRegistry.h).
namespace atc {
ATC_RUN_PROBLEM_INSTANTIATION(Sudoku);
} // namespace atc
