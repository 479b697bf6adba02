//===- problems/NQueens.h - n-queens benchmark problems ---------*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two n-queens variants of the paper's Table 1:
///
///  * Nqueen-array:   "uses an array to record whether conflicts occur, and
///                     is more time efficient" — O(1) conflict tests via
///                     column/diagonal occupancy arrays, joined with `|`
///                     into one branch per candidate.
///  * Nqueen-compute: "traverses the chessboard to find out whether
///                     conflicts occur, and is more memory efficient" —
///                     O(depth) conflict scan over the placed queens.
///
/// Both count all placements of N queens with no two sharing a row,
/// column, or diagonal. The scheduler depth is the row being filled; a
/// choice is the column for that row. The chessboard is the taskprivate
/// workspace (the paper's running example, Section 4.1).
///
//===----------------------------------------------------------------------===//

#ifndef ATC_PROBLEMS_NQUEENS_H
#define ATC_PROBLEMS_NQUEENS_H

#include <cassert>
#include <cstring>

namespace atc {

/// Conflict-array n-queens ("Nqueen-array" in the paper).
class NQueensArray {
public:
  static constexpr int MaxN = 16;

  struct State {
    int N;
    signed char Col[MaxN];          ///< Queen column per row.
    signed char ColUsed[MaxN];      ///< Column occupancy.
    signed char Diag1[2 * MaxN];    ///< "/" diagonals, indexed by r + c.
    signed char Diag2[2 * MaxN];    ///< "\" diagonals, indexed r - c + MaxN-1.
  };
  using Result = long long;

  /// Returns the root state for an \p N x \p N board (1 <= N <= MaxN).
  static State makeRoot(int N) {
    assert(N >= 1 && N <= MaxN && "board size out of range");
    State S;
    std::memset(&S, 0, sizeof(S));
    S.N = N;
    return S;
  }

  bool isLeaf(const State &S, int Depth) const { return Depth == S.N; }
  Result leafResult(const State &, int) const { return 1; }
  int numChoices(const State &S, int) const { return S.N; }

  // One branch per candidate: the three occupancy bytes are or-ed, not
  // tested with `||`, whose up to three data-dependent branches
  // mispredict often on this search. The "\" index uses MaxN, not S.N:
  // the scheduler's check loop must reload S.N after every recursive
  // call (the call may publish a special task through arbitrary
  // pointers), so an S.N-based index would cost a load per child there.
  bool applyChoice(State &S, int Depth, int K) const {
    if (S.ColUsed[K] | S.Diag1[Depth + K] | S.Diag2[diag2(Depth, K)])
      return false;
    S.ColUsed[K] = 1;
    S.Diag1[Depth + K] = 1;
    S.Diag2[diag2(Depth, K)] = 1;
    S.Col[Depth] = static_cast<signed char>(K);
    return true;
  }

  void undoChoice(State &S, int Depth, int K) const {
    S.ColUsed[K] = 0;
    S.Diag1[Depth + K] = 0;
    S.Diag2[diag2(Depth, K)] = 0;
  }

  /// Index of the "\" diagonal through row \p R, column \p C: a bijection
  /// onto [0, 2 * MaxN - 2] for any board with N <= MaxN.
  static constexpr int diag2(int R, int C) { return R - C + MaxN - 1; }

  // No liveBytes hint: the occupancy arrays are live at every depth
  // (conflict tests index them by column, not by row), so a sound bound
  // could only trim the Col record — a few bytes of a ~100-byte State.
  // That trade is a loss: a depth-dependent bound turns the spawn copy
  // from a compile-time-size memcpy into a variable-length one, which
  // measures ~20% slower per spawn on Cilk-SYNCHED than copying the
  // whole State (bench/micro_spawn.cpp, NQueens9).
};

/// Conflict-scan n-queens ("Nqueen-compute" in the paper).
class NQueensCompute {
public:
  static constexpr int MaxN = 16;

  struct State {
    int N;
    signed char X[MaxN]; ///< Queen column per row ("x[] is the chessboard").
  };
  using Result = long long;

  static State makeRoot(int N) {
    assert(N >= 1 && N <= MaxN && "board size out of range");
    State S;
    std::memset(&S, 0, sizeof(S));
    S.N = N;
    return S;
  }

  bool isLeaf(const State &S, int Depth) const { return Depth == S.N; }
  Result leafResult(const State &, int) const { return 1; }
  int numChoices(const State &S, int) const { return S.N; }

  bool applyChoice(State &S, int Depth, int K) const {
    for (int I = 0; I < Depth; ++I) {
      int D = S.X[I] - K;
      if (D == 0 || D == Depth - I || D == I - Depth)
        return false;
    }
    S.X[Depth] = static_cast<signed char>(K);
    return true;
  }

  void undoChoice(State &, int, int) const {}

  // No liveBytes hint: the conflict scan at depth d reads X[0..d-1]
  // only, so a bound would be sound — but the whole State is 20 bytes
  // and a variable-length copy costs more than it saves (see
  // NQueensArray above).
};

} // namespace atc

#endif // ATC_PROBLEMS_NQUEENS_H
