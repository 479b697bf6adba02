//===- tests/ProblemsTest.cpp - benchmark problem unit tests --------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Problem.h"
#include "problems/FibComp.h"
#include "problems/KnightsTour.h"
#include "problems/NQueens.h"
#include "problems/Pentomino.h"
#include "problems/ProblemRegistry.h"
#include "problems/Strimko.h"
#include "problems/Sudoku.h"

#include <gtest/gtest.h>

using namespace atc;

namespace {

/// Runs the reference sequential interpreter from a fresh root.
template <typename P, typename S> long long seq(P &Prob, S Root) {
  return runSequential(Prob, Root);
}

//===----------------------------------------------------------------------===//
// n-queens
//===----------------------------------------------------------------------===//

/// Known n-queens solution counts (OEIS A000170). Both fields are 64-bit
/// so the struct has no padding: gtest names each instance after its raw
/// bytes, and padding would put uninitialized bytes into the test names.
struct QueensCase {
  long long N;
  long long Count;
};
class NQueensKnown : public ::testing::TestWithParam<QueensCase> {};

TEST_P(NQueensKnown, ArrayVariantMatchesOeis) {
  NQueensArray Prob;
  const int N = static_cast<int>(GetParam().N);
  EXPECT_EQ(seq(Prob, NQueensArray::makeRoot(N)), GetParam().Count);
}

TEST_P(NQueensKnown, ComputeVariantMatchesOeis) {
  NQueensCompute Prob;
  const int N = static_cast<int>(GetParam().N);
  EXPECT_EQ(seq(Prob, NQueensCompute::makeRoot(N)), GetParam().Count);
}

INSTANTIATE_TEST_SUITE_P(Small, NQueensKnown,
                         ::testing::Values(QueensCase{1, 1}, QueensCase{2, 0},
                                           QueensCase{3, 0}, QueensCase{4, 2},
                                           QueensCase{5, 10}, QueensCase{6, 4},
                                           QueensCase{7, 40}, QueensCase{8, 92},
                                           QueensCase{9, 352},
                                           QueensCase{10, 724}));

TEST(NQueens, VariantsAgreeOnLargerBoard) {
  NQueensArray A;
  NQueensCompute C;
  EXPECT_EQ(seq(A, NQueensArray::makeRoot(11)),
            seq(C, NQueensCompute::makeRoot(11)));
}

TEST(NQueens, UndoRestoresStateBitExactly) {
  NQueensArray Prob;
  auto S = NQueensArray::makeRoot(8);
  auto Before = S;
  ASSERT_TRUE(Prob.applyChoice(S, 0, 3));
  Prob.undoChoice(S, 0, 3);
  // Col[] keeps the scratch placement; conflict arrays must be restored.
  EXPECT_EQ(std::memcmp(S.ColUsed, Before.ColUsed, sizeof(S.ColUsed)), 0);
  EXPECT_EQ(std::memcmp(S.Diag1, Before.Diag1, sizeof(S.Diag1)), 0);
  EXPECT_EQ(std::memcmp(S.Diag2, Before.Diag2, sizeof(S.Diag2)), 0);
}

TEST(NQueens, ConflictingChoiceRejected) {
  NQueensArray Prob;
  auto S = NQueensArray::makeRoot(8);
  ASSERT_TRUE(Prob.applyChoice(S, 0, 0));
  EXPECT_FALSE(Prob.applyChoice(S, 1, 0)) << "same column";
  EXPECT_FALSE(Prob.applyChoice(S, 1, 1)) << "adjacent diagonal";
  EXPECT_TRUE(Prob.applyChoice(S, 1, 2));
}

/// Walks the array and compute variants in lockstep from (\p SA, \p SC) at
/// \p Depth: every choice must get the same verdict from both. Returns the
/// number of verdicts compared.
long long walkInLockstep(NQueensArray &A, NQueensArray::State &SA,
                         NQueensCompute &C, NQueensCompute::State &SC,
                         int Depth) {
  if (A.isLeaf(SA, Depth))
    return 0;
  long long Compared = 0;
  for (int K = 0; K < A.numChoices(SA, Depth); ++K) {
    bool InArray = A.applyChoice(SA, Depth, K);
    bool InCompute = C.applyChoice(SC, Depth, K);
    ++Compared;
    EXPECT_EQ(InArray, InCompute) << "N=" << SA.N << " depth " << Depth
                                  << " column " << K;
    if (InArray && InCompute)
      Compared += walkInLockstep(A, SA, C, SC, Depth + 1);
    if (InArray)
      A.undoChoice(SA, Depth, K);
    if (InCompute)
      C.undoChoice(SC, Depth, K);
  }
  return Compared;
}

TEST(NQueens, ArrayAgreesWithComputeOnEveryChoice) {
  // The compute variant scans the placed queens and shares no state or
  // index arithmetic with the array variant, so it is an independent
  // oracle for every occupancy-array test.
  NQueensArray A;
  NQueensCompute C;
  for (int N = 1; N <= 11; ++N) {
    auto SA = NQueensArray::makeRoot(N);
    auto SC = NQueensCompute::makeRoot(N);
    EXPECT_GT(walkInLockstep(A, SA, C, SC, 0), 0) << "N=" << N;

    TreeProfile PA, PC;
    SA = NQueensArray::makeRoot(N);
    SC = NQueensCompute::makeRoot(N);
    profileTree(A, SA, PA);
    profileTree(C, SC, PC);
    EXPECT_EQ(PA.Nodes, PC.Nodes) << "N=" << N;
    EXPECT_EQ(PA.Leaves, PC.Leaves) << "N=" << N;
    EXPECT_EQ(PA.Pruned, PC.Pruned) << "N=" << N;
    EXPECT_EQ(PA.MaxDepth, PC.MaxDepth) << "N=" << N;
  }
}

TEST(NQueens, UndoRestoresStateAtMaxN) {
  constexpr int M = NQueensArray::MaxN;
  NQueensArray Prob;
  // Everything but Col[], which keeps the scratch placement, must come
  // back bit-exactly.
  auto ExpectRestored = [](NQueensArray::State Got,
                           const NQueensArray::State &Want, int D, int K) {
    std::memcpy(Got.Col, Want.Col, sizeof(Got.Col));
    EXPECT_EQ(std::memcmp(&Got, &Want, sizeof(Got)), 0)
        << "depth " << D << " column " << K;
  };
  // One queen on an empty board, every square: exactly its column and
  // its two diagonals are marked, then cleared again.
  auto S = NQueensArray::makeRoot(M);
  const auto Root = S;
  for (int D = 0; D < M; ++D)
    for (int K = 0; K < M; ++K) {
      ASSERT_TRUE(Prob.applyChoice(S, D, K));
      EXPECT_EQ(S.ColUsed[K], 1);
      EXPECT_EQ(S.Diag1[D + K], 1);
      EXPECT_EQ(S.Diag2[NQueensArray::diag2(D, K)], 1);
      Prob.undoChoice(S, D, K);
      ExpectRestored(S, Root, D, K);
    }
  // The "\" diagonal index reaches both ends of Diag2 at N = MaxN: the
  // top-right corner is 0 and the bottom-left is 2 * MaxN - 2. Round trips
  // on top of a queen in each corner restore that one-queen state.
  const int Corners[2][3] = {{0, M - 1, 0}, {M - 1, 0, 2 * M - 2}};
  for (const auto &Corner : Corners) {
    const int CD = Corner[0], CK = Corner[1];
    ASSERT_TRUE(Prob.applyChoice(S, CD, CK));
    EXPECT_EQ(S.Diag2[Corner[2]], 1);
    const auto OneQueen = S;
    for (int D = 0; D < M; ++D) {
      if (D == CD)
        continue;
      for (int K = 0; K < M; ++K) {
        if (Prob.applyChoice(S, D, K))
          Prob.undoChoice(S, D, K);
        ExpectRestored(S, OneQueen, D, K);
      }
    }
    Prob.undoChoice(S, CD, CK);
    ExpectRestored(S, Root, CD, CK);
  }
}

//===----------------------------------------------------------------------===//
// Fib / Comp
//===----------------------------------------------------------------------===//

class FibKnown : public ::testing::TestWithParam<int> {};

TEST_P(FibKnown, MatchesClosedForm) {
  FibProblem Prob;
  EXPECT_EQ(seq(Prob, FibProblem::makeRoot(GetParam())),
            FibProblem::fibValue(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(UpTo22, FibKnown,
                         ::testing::Values(0, 1, 2, 3, 5, 10, 15, 20, 22));

TEST(Fib, ClosedFormSanity) {
  EXPECT_EQ(FibProblem::fibValue(10), 55);
  EXPECT_EQ(FibProblem::fibValue(45), 1134903170LL);
}

TEST(Comp, MatchesBruteForceReference) {
  CompProblem Prob(500, /*ValueRange=*/16);
  EXPECT_EQ(seq(Prob, Prob.makeRoot()), Prob.referenceCount());
}

TEST(Comp, AllEqualArraysCountNSquared) {
  CompProblem Prob(200, /*ValueRange=*/1);
  EXPECT_EQ(seq(Prob, Prob.makeRoot()), 200LL * 200LL);
}

TEST(Comp, SingleElement) {
  CompProblem Prob(1, /*ValueRange=*/1);
  EXPECT_EQ(seq(Prob, Prob.makeRoot()), 1);
}

//===----------------------------------------------------------------------===//
// Knight's tour
//===----------------------------------------------------------------------===//

TEST(KnightsTour, CornerStart5x5HasClassic304Tours) {
  KnightsTour Prob;
  EXPECT_EQ(seq(Prob, KnightsTour::makeRoot(5, 0, 0)), 304);
}

TEST(KnightsTour, CenterStart5x5HasClassic64Tours) {
  KnightsTour Prob;
  EXPECT_EQ(seq(Prob, KnightsTour::makeRoot(5, 2, 2)), 64);
}

TEST(KnightsTour, ParityMakesOffCornerStartsImpossibleOn5x5) {
  // On a 5x5 board a tour must start on the majority colour; (0, 1) is a
  // minority-colour square, so no tours exist.
  KnightsTour Prob;
  EXPECT_EQ(seq(Prob, KnightsTour::makeRoot(5, 0, 1)), 0);
}

TEST(KnightsTour, TinyBoardsHaveNoTours) {
  KnightsTour Prob;
  EXPECT_EQ(seq(Prob, KnightsTour::makeRoot(2, 0, 0)), 0);
  EXPECT_EQ(seq(Prob, KnightsTour::makeRoot(3, 0, 0)), 0);
  EXPECT_EQ(seq(Prob, KnightsTour::makeRoot(4, 0, 0)), 0);
}

TEST(KnightsTour, TrivialBoard) {
  KnightsTour Prob;
  EXPECT_EQ(seq(Prob, KnightsTour::makeRoot(1, 0, 0)), 1);
}

TEST(KnightsTour, UndoRestoresPosition) {
  KnightsTour Prob;
  auto S = KnightsTour::makeRoot(5, 0, 0);
  auto Before = S;
  ASSERT_TRUE(Prob.applyChoice(S, 0, 0));
  Prob.undoChoice(S, 0, 0);
  EXPECT_EQ(S.Row, Before.Row);
  EXPECT_EQ(S.Col, Before.Col);
  EXPECT_EQ(S.Board, Before.Board);
  EXPECT_EQ(S.Visited, Before.Visited);
}

//===----------------------------------------------------------------------===//
// Strimko
//===----------------------------------------------------------------------===//

TEST(Strimko, Order2WithDiagonalStreamsIsInfeasible) {
  // Both 2x2 latin squares repeat a digit on a broken diagonal.
  Strimko Prob;
  EXPECT_EQ(seq(Prob, Strimko::makeRoot(2)), 0);
}

TEST(Strimko, Order3HasCyclicSolutions) {
  Strimko Prob;
  EXPECT_GT(seq(Prob, Strimko::makeRoot(3)), 0);
}

TEST(Strimko, GivensPruneSolutions) {
  Strimko Prob;
  long long Free = seq(Prob, Strimko::makeRoot(5));
  long long Pinned = seq(Prob, Strimko::makeRoot(5, {{0, 0, 1}}));
  EXPECT_GT(Free, 0);
  EXPECT_LT(Pinned, Free);
  // By digit-relabeling symmetry, pinning one cell keeps exactly 1/N of
  // the solutions.
  EXPECT_EQ(Pinned * 5, Free);
}

TEST(Strimko, FullyGivenGridIsOneSolution) {
  // A valid order-3 grid: L(r,c) = (r + c) mod 3 + 1 has distinct rows,
  // columns, and broken diagonals (along c - r = s the value is 2r + s,
  // and 2 is invertible mod 3).
  std::vector<Strimko::Given> Givens;
  for (int R = 0; R < 3; ++R)
    for (int C = 0; C < 3; ++C)
      Givens.push_back({R, C, (R + C) % 3 + 1});
  Strimko Prob;
  EXPECT_EQ(seq(Prob, Strimko::makeRoot(3, Givens)), 1);
}

//===----------------------------------------------------------------------===//
// Sudoku
//===----------------------------------------------------------------------===//

TEST(Sudoku, SolvedGridHasExactlyOneSolution) {
  Sudoku Prob;
  EXPECT_EQ(seq(Prob, Sudoku::makeInstance("solved")), 1);
}

TEST(Sudoku, OneClearedCellHasExactlyOneSolution) {
  std::string Grid = Sudoku::instanceGrid("solved");
  Grid[40] = '0';
  Sudoku Prob;
  EXPECT_EQ(seq(Prob, Sudoku::makeRoot(Grid)), 1);
}

TEST(Sudoku, ClearedBandStillContainsOriginalSolution) {
  Sudoku Prob;
  EXPECT_GE(seq(Prob, Sudoku::makeInstance("balance")), 1);
}

TEST(Sudoku, InstancesHaveExpectedFreeCellCounts) {
  EXPECT_EQ(Sudoku::makeInstance("solved").NumFree, 0);
  EXPECT_EQ(Sudoku::makeInstance("balance").NumFree, 36);
  EXPECT_EQ(Sudoku::makeInstance("balance-large").NumFree, 45);
  EXPECT_EQ(Sudoku::makeInstance("input1").NumFree, 32);
  EXPECT_EQ(Sudoku::makeInstance("input2").NumFree, 32);

  // The registry names the instances by size, up to balance-large (3).
  ProblemRunner Runner;
  std::string Err;
  EXPECT_TRUE(makeProblemRunner("sudoku", 3, Runner, Err)) << Err;
  EXPECT_FALSE(makeProblemRunner("sudoku", 4, Runner, Err));
  EXPECT_EQ(Err, "size 4 out of range [0, 3] for problem kind 'sudoku'");
}

TEST(Sudoku, UndoRestoresMasks) {
  Sudoku Prob;
  auto S = Sudoku::makeInstance("balance");
  auto Before = S;
  int Digit = -1;
  for (int K = 0; K < 9; ++K)
    if (Prob.applyChoice(S, 0, K)) {
      Digit = K;
      break;
    }
  ASSERT_GE(Digit, 0);
  Prob.undoChoice(S, 0, Digit);
  EXPECT_EQ(std::memcmp(&S, &Before, sizeof(S)), 0);
}

//===----------------------------------------------------------------------===//
// Pentomino
//===----------------------------------------------------------------------===//

TEST(Pentomino, ClassicOrientationCounts) {
  // F:8 I:2 L:8 N:8 P:8 T:4 U:4 V:4 W:4 X:1 Y:8 Z:4 — 63 total.
  Pentomino Prob(10, 6, 12);
  const int Expected[12] = {8, 2, 8, 8, 8, 4, 4, 4, 4, 1, 8, 4};
  int Total = 0;
  for (int Piece = 0; Piece < 12; ++Piece) {
    EXPECT_EQ(Prob.orientationCount(Piece), Expected[Piece])
        << "piece " << Pentomino::pieceName(Piece);
    Total += Prob.orientationCount(Piece);
  }
  EXPECT_EQ(Total, 63);
  EXPECT_EQ(Prob.numChoices(Prob.makeRoot(), 0), 63);
}

TEST(Pentomino, UndoRestoresBoard) {
  Pentomino Prob(10, 6, 12);
  auto S = Prob.makeRoot();
  int K = -1;
  for (int I = 0; I < Prob.numChoices(S, 0); ++I)
    if (Prob.applyChoice(S, 0, I)) {
      K = I;
      break;
    }
  ASSERT_GE(K, 0);
  EXPECT_TRUE(S.Occupied.any());
  Prob.undoChoice(S, 0, K);
  EXPECT_FALSE(S.Occupied.any());
  EXPECT_EQ(S.UsedPieces, 0u);
}

TEST(Pentomino, PieceCannotBeReused) {
  Pentomino Prob(10, 6, 12);
  auto S = Prob.makeRoot();
  // Find a first placement, then verify every same-piece choice fails.
  int K = -1;
  for (int I = 0; I < Prob.numChoices(S, 0); ++I)
    if (Prob.applyChoice(S, 0, I)) {
      K = I;
      break;
    }
  ASSERT_GE(K, 0);
  int Rejected = 0;
  for (int I = 0; I < Prob.numChoices(S, 1); ++I) {
    auto Copy = S;
    if (!Prob.applyChoice(Copy, 1, I))
      ++Rejected;
  }
  EXPECT_GT(Rejected, 0);
}

TEST(Pentomino, BitBoard128CrossesWordBoundary) {
  BitBoard128 B;
  B.set(63);
  B.set(64);
  EXPECT_TRUE(B.test(63));
  EXPECT_TRUE(B.test(64));
  EXPECT_FALSE(B.test(62));
  EXPECT_EQ(B.firstSet(), 63);
  BitBoard128 HiOnly;
  HiOnly.set(100);
  EXPECT_EQ(HiOnly.firstSet(), 100);
}

TEST(Pentomino, SmallBoardSearchTerminates) {
  // 5x5 board with 5 pieces: whatever the count, the search must agree
  // with itself and terminate quickly; record the exact-cover property
  // that every solution uses each piece identity at most once (implied by
  // the masks; here we just pin the count as a regression value).
  Pentomino Prob(5, 5, 5);
  long long Count = seq(Prob, Prob.makeRoot());
  EXPECT_GE(Count, 0);
  EXPECT_EQ(Count, seq(Prob, Prob.makeRoot())) << "deterministic";
}

//===----------------------------------------------------------------------===//
// Tree profiling
//===----------------------------------------------------------------------===//

TEST(TreeProfile, CountsNodesOfTinyFib) {
  // fib(3) tree: nodes 3,2,1,1,0 -> 5 nodes, 3 leaves, depth 2.
  FibProblem Prob;
  auto S = FibProblem::makeRoot(3);
  TreeProfile Profile;
  profileTree(Prob, S, Profile);
  EXPECT_EQ(Profile.Nodes, 5);
  EXPECT_EQ(Profile.Leaves, 3);
  EXPECT_EQ(Profile.MaxDepth, 2);
  EXPECT_EQ(Profile.RootChildren, 2);

  // The registry's runner profiles the same tree, and every kind builds
  // (constructed, not run) at its scaled default and its published size.
  ProblemRunner Runner;
  std::string Err;
  ASSERT_TRUE(makeProblemRunner("fib", 3, Runner, Err)) << Err;
  const TreeProfile R = Runner.Profile();
  EXPECT_EQ(R.Nodes, Profile.Nodes);
  EXPECT_EQ(R.Leaves, Profile.Leaves);
  EXPECT_EQ(R.MaxDepth, Profile.MaxDepth);
  EXPECT_EQ(R.RootChildren, Profile.RootChildren);
  for (const std::string &Kind : problemRegistryKinds())
    for (int Size : {problemDefaultSize(Kind), problemPublishedSize(Kind)}) {
      ASSERT_TRUE(makeProblemRunner(Kind, Size, Runner, Err)) << Err;
      EXPECT_EQ(Runner.Size, Size) << Kind;
    }
}

TEST(TreeProfile, QueensPrunesCounted) {
  NQueensArray Prob;
  auto S = NQueensArray::makeRoot(5);
  TreeProfile Profile;
  profileTree(Prob, S, Profile);
  EXPECT_EQ(Profile.Leaves, 10); // the 10 solutions
  EXPECT_GT(Profile.Pruned, 0);
}

} // namespace
