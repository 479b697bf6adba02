//===- tests/PropertyTest.cpp - cross-module property tests ---------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-style sweeps over the invariants the runtime relies on:
///
///  * the undo discipline — after applyChoice / subtree / undoChoice the
///    State is bit-identical — for every benchmark problem, along many
///    randomly chosen paths (this is what makes workspace sharing in
///    fake tasks and continuation resume in stolen tasks sound);
///  * scheduler-result invariance across seeds, cut-offs, deque sizes
///    and max_stolen_num (schedules differ wildly; results may not);
///  * the real threaded runtime on the paper's unbalanced trees
///    (SyntheticTreeProblem): every scheduler, thread count and tree
///    shape must agree with the tree's leaf count.
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "problems/ProblemRegistry.h"
#include "sim/SyntheticTreeProblem.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <type_traits>

using namespace atc;

namespace {

//===----------------------------------------------------------------------===//
// Undo discipline
//===----------------------------------------------------------------------===//

/// Walks random root-to-leaf paths; at every step "churns" the state by
/// applying and undoing every viable choice, then verifies the churned
/// state explores the exact same subtree as the un-churned one. Problems
/// may keep write-before-read scratch (e.g. NQueensArray's Col[] record,
/// the knight's per-depth position log), so a bitwise comparison is too
/// strong — subtree-equivalence is the invariant the runtime needs: fake
/// tasks share the parent workspace across apply/undo cycles, and stolen
/// continuations resume from a snapshot taken mid-loop.
template <typename P, typename State>
void checkUndoDiscipline(P &Prob, const State &Root, int Paths,
                         std::uint64_t Seed, int MaxCompareDepth = 64) {
  SplitMix64 Rng(Seed);
  for (int Path = 0; Path < Paths; ++Path) {
    State S = Root;
    int Depth = 0;
    while (!Prob.isLeaf(S, Depth) && Depth < 64) {
      int N = Prob.numChoices(S, Depth);
      ASSERT_GT(N, 0);
      State Churned = S;
      int Viable = -1;
      for (int K = 0; K < N; ++K) {
        if (Prob.applyChoice(Churned, Depth, K)) {
          Prob.undoChoice(Churned, Depth, K);
          Viable = K;
        }
      }
      if (Depth <= MaxCompareDepth) {
        State A = S, B = Churned;
        ASSERT_EQ(runSequential(Prob, A, Depth),
                  runSequential(Prob, B, Depth))
            << "churned state explores a different subtree at depth "
            << Depth;
      }
      if (Viable < 0)
        break; // dead end: all choices pruned
      // Descend through a random viable choice.
      int K;
      do {
        K = static_cast<int>(Rng.nextBelow(static_cast<std::uint64_t>(N)));
      } while (!Prob.applyChoice(S, Depth, K));
      ++Depth;
    }
  }
}

TEST(UndoDiscipline, NQueensArray) {
  NQueensArray Prob;
  checkUndoDiscipline(Prob, NQueensArray::makeRoot(8), 20, 1);
}

TEST(UndoDiscipline, NQueensCompute) {
  NQueensCompute Prob;
  checkUndoDiscipline(Prob, NQueensCompute::makeRoot(8), 20, 2);
}

TEST(UndoDiscipline, Strimko) {
  Strimko Prob;
  checkUndoDiscipline(Prob, Strimko::makeRoot(4), 20, 3);
}

TEST(UndoDiscipline, KnightsTour) {
  KnightsTour Prob;
  checkUndoDiscipline(Prob, KnightsTour::makeRoot(4, 0, 0), 20, 4);
}

TEST(UndoDiscipline, Sudoku) {
  // Compare subtrees only from depth 20 on (the full balance tree has
  // 56k nodes; deep subtrees are small).
  Sudoku Prob;
  auto Root = Sudoku::makeInstance("balance");
  SplitMix64 Rng(5);
  for (int Path = 0; Path < 10; ++Path) {
    auto S = Root;
    int Depth = 0;
    while (!Prob.isLeaf(S, Depth) && Depth < 36) {
      if (Depth >= 20) {
        auto Churned = S;
        for (int K = 0; K < 9; ++K)
          if (Prob.applyChoice(Churned, Depth, K))
            Prob.undoChoice(Churned, Depth, K);
        auto A = S, B = Churned;
        ASSERT_EQ(runSequential(Prob, A, Depth),
                  runSequential(Prob, B, Depth));
      }
      int K = -1;
      for (int Try = 0; Try < 32; ++Try) {
        int Cand = static_cast<int>(Rng.nextBelow(9));
        if (Prob.applyChoice(S, Depth, Cand)) {
          K = Cand;
          break;
        }
      }
      if (K < 0)
        break;
      ++Depth;
    }
  }
}

TEST(UndoDiscipline, Fib) {
  FibProblem Prob;
  checkUndoDiscipline(Prob, FibProblem::makeRoot(18), 10, 6);
}

TEST(UndoDiscipline, SyntheticTree) {
  SyntheticTreeProblem Prob(SimTree::preset("tree2l", 2000));
  checkUndoDiscipline(Prob, Prob.makeRoot(), 10, 7);
}

TEST(UndoDiscipline, Pentomino) {
  Pentomino Prob(5, 4, 4);
  checkUndoDiscipline(Prob, Prob.makeRoot(), 10, 8);
}

//===----------------------------------------------------------------------===//
// liveBytes prefix-liveness contract
//===----------------------------------------------------------------------===//

/// Replays the spawn-site copy along random root-to-leaf paths: at every
/// node, for every viable choice, builds the child state the scheduler
/// would hand a thief — only the live prefix preserved, the suffix
/// poisoned (the arena stores freelist links in recycled buffers, so
/// recycled workspaces really do carry garbage there) — and verifies it
/// explores the bit-for-bit identical subtree as a full copy: same
/// result, same node / leaf / pruned counts, same max depth.
template <typename P>
void checkLiveBytesContract(P &Prob, const typename P::State &Root,
                            int Paths, std::uint64_t Seed) {
  static_assert(HasLiveBytes<P>,
                "contract check only applies to hinted problems");
  using State = typename P::State;
  SplitMix64 Rng(Seed);
  for (int Path = 0; Path < Paths; ++Path) {
    State S = Root;
    int Depth = 0;
    while (!Prob.isLeaf(S, Depth) && Depth < 64) {
      int N = Prob.numChoices(S, Depth);
      int Viable = -1;
      for (int K = 0; K < N; ++K) {
        if (!Prob.applyChoice(S, Depth, K))
          continue;
        Viable = K;
        // What the frame engine copies for this spawn: the post-applyChoice
        // state, bounded to the prefix live at the child's depth.
        const std::size_t Live = liveStateBytes(Prob, S, Depth + 1);
        ASSERT_LE(Live, sizeof(State));
        State Prefix = S;
        std::memset(reinterpret_cast<unsigned char *>(&Prefix) + Live,
                    0x5A, sizeof(State) - Live);
        State Full = S;
        TreeProfile FullProf{}, PrefixProf{};
        profileTree(Prob, Full, FullProf, Depth + 1);
        profileTree(Prob, Prefix, PrefixProf, Depth + 1);
        ASSERT_EQ(FullProf.Nodes, PrefixProf.Nodes)
            << "depth " << Depth << " choice " << K << " live " << Live;
        ASSERT_EQ(FullProf.Leaves, PrefixProf.Leaves);
        ASSERT_EQ(FullProf.MaxDepth, PrefixProf.MaxDepth);
        ASSERT_EQ(FullProf.Pruned, PrefixProf.Pruned);
        State FullR = S, PrefixR = S;
        std::memset(reinterpret_cast<unsigned char *>(&PrefixR) + Live,
                    0x5A, sizeof(State) - Live);
        ASSERT_EQ(runSequential(Prob, FullR, Depth + 1),
                  runSequential(Prob, PrefixR, Depth + 1))
            << "depth " << Depth << " choice " << K << " live " << Live;
        Prob.undoChoice(S, Depth, K);
      }
      if (Viable < 0)
        break; // dead end: all choices pruned
      int K;
      do {
        K = static_cast<int>(Rng.nextBelow(static_cast<std::uint64_t>(N)));
      } while (!Prob.applyChoice(S, Depth, K));
      ++Depth;
    }
  }
}

TEST(LiveBytes, KnightsTourPrefixSufficient) {
  KnightsTour Prob;
  checkLiveBytesContract(Prob, KnightsTour::makeRoot(4, 0, 0), 10, 13);
}

TEST(LiveBytes, PentominoPrefixSufficient) {
  Pentomino Prob(5, 4, 4);
  checkLiveBytesContract(Prob, Prob.makeRoot(), 5, 14);
}

TEST(LiveBytes, SyntheticTreePrefixSufficient) {
  SyntheticTreeProblem Prob(SimTree::preset("tree3l", 3000));
  checkLiveBytesContract(Prob, Prob.makeRoot(), 10, 15);
}

TEST(LiveBytes, SyntheticTreeRunCopiesOnlyThePath) {
  // A spawn at depth d copies the d + 1 path nodes its child can read,
  // not the whole MaxDepth-node stack; results and the task / fake-task
  // partition of the tree are unaffected.
  SyntheticTreeProblem Prob(SimTree::preset("tree3l", 30'000));
  TreeProfile Profile;
  {
    auto S = Prob.makeRoot();
    profileTree(Prob, S, Profile);
  }
  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::AdaptiveTC;
  Cfg.NumWorkers = 4;
  auto R = runProblem(Prob, Prob.makeRoot(), Cfg);
  EXPECT_EQ(R.Value, Prob.expectedLeaves());
  EXPECT_EQ(R.Stats.TasksCreated + R.Stats.FakeTasks,
            static_cast<std::uint64_t>(Profile.Nodes));
  ASSERT_GT(R.Stats.WorkspaceCopies, 0u);
  EXPECT_LT(R.Stats.CopiedBytes,
            R.Stats.WorkspaceCopies * sizeof(SyntheticTreeProblem::State));
}

TEST(LiveBytes, HintsAreMeaningfullySmallerThanTheState) {
  // The point of the hint is a substantially smaller copy (a marginal
  // bound is a net loss — it trades a compile-time-size memcpy for a
  // variable-length one, which is why the n-queens problems declare no
  // hint). The trail-heavy problems must cut deep.
  Pentomino Pent(5, 4, 4);
  auto PentRoot = Pent.makeRoot();
  EXPECT_LT(liveStateBytes(Pent, PentRoot, 1),
            sizeof(Pentomino::State) / 4);
  KnightsTour KT;
  auto KTRoot = KnightsTour::makeRoot(5, 0, 0);
  EXPECT_LT(liveStateBytes(KT, KTRoot, 1), sizeof(KnightsTour::State));
}

//===----------------------------------------------------------------------===//
// Result invariance across scheduler parameters
//===----------------------------------------------------------------------===//

/// gtest prints a parameter without a printer as its raw bytes, and the
/// ctest names carry that print: a case must hold no padding (whose bytes
/// are indeterminate) and no pointers (which move with ASLR), or its name
/// changes from build to build. Workers sits where padding would be.
struct ParamCase {
  std::uint64_t Seed;
  int Cutoff;
  int MaxStolenNum;
  int DequeCapacity;
  int Workers;
};
static_assert(std::has_unique_object_representations_v<ParamCase>);

class ParamSweep : public ::testing::TestWithParam<ParamCase> {};

TEST_P(ParamSweep, AdaptiveTCResultInvariant) {
  NQueensArray Prob;
  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::AdaptiveTC;
  Cfg.NumWorkers = GetParam().Workers;
  Cfg.Seed = GetParam().Seed;
  Cfg.Cutoff = GetParam().Cutoff;
  Cfg.MaxStolenNum = GetParam().MaxStolenNum;
  Cfg.DequeCapacity = GetParam().DequeCapacity;
  auto R = runProblem(Prob, NQueensArray::makeRoot(9), Cfg);
  EXPECT_EQ(R.Value, 352);
}

TEST_P(ParamSweep, CilkResultInvariant) {
  CompProblem Prob(400, /*ValueRange=*/8);
  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::Cilk;
  Cfg.NumWorkers = GetParam().Workers;
  Cfg.Seed = GetParam().Seed;
  Cfg.DequeCapacity = GetParam().DequeCapacity;
  auto R = runProblem(Prob, Prob.makeRoot(), Cfg);
  EXPECT_EQ(R.Value, Prob.referenceCount());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParamSweep,
    ::testing::Values(ParamCase{1, -1, 20, 8192, 4},  // paper defaults
                      ParamCase{2, 0, 20, 8192, 4},   // no initial tasks
                      ParamCase{3, 6, 20, 8192, 4},   // deep cut-off
                      ParamCase{4, -1, 1, 8192, 4},   // hyper-eager publish
                      ParamCase{5, -1, 500, 8192, 4}, // reluctant publish
                      ParamCase{6, -1, 20, 64, 4},    // small deque
                      ParamCase{7, 10, 20, 32, 4},    // deep + tiny deque
                      ParamCase{8, -1, 20, 8192, 4}),
    [](const ::testing::TestParamInfo<ParamCase> &Info) {
      const ParamCase &C = Info.param;
      return "seed" + std::to_string(C.Seed) + "_cut" +
             (C.Cutoff < 0 ? "log" : std::to_string(C.Cutoff)) + "_msn" +
             std::to_string(C.MaxStolenNum) + "_dq" +
             std::to_string(C.DequeCapacity);
    });

//===----------------------------------------------------------------------===//
// Real runtime on the paper's unbalanced trees
//===----------------------------------------------------------------------===//

/// SimTree presets by index: TreeRunCase names its tree by index rather
/// than by string pointer, and is 8-byte aligned with no padding, so its
/// printed bytes are stable (see ParamCase).
enum TreePreset : std::uint64_t {
  Tree1l, Tree1r, Tree2l, Tree2r, Tree3l, Tree3r, Fig8, Balanced
};

const char *presetName(TreePreset P) {
  static constexpr const char *Names[] = {"tree1l", "tree1r", "tree2l",
                                          "tree2r", "tree3l", "tree3r",
                                          "fig8",   "balanced"};
  return Names[P];
}

struct TreeRunCase {
  TreePreset Preset;
  SchedulerKind Kind;
  int Threads;
};
static_assert(std::has_unique_object_representations_v<TreeRunCase>);

class UnbalancedTreeRuns : public ::testing::TestWithParam<TreeRunCase> {};

TEST_P(UnbalancedTreeRuns, LeafCountMatchesOracle) {
  SyntheticTreeProblem Prob(
      SimTree::preset(presetName(GetParam().Preset), 30'000));
  long long Expected = Prob.expectedLeaves();
  SchedulerConfig Cfg;
  Cfg.Kind = GetParam().Kind;
  Cfg.NumWorkers = GetParam().Threads;
  auto R = runProblem(Prob, Prob.makeRoot(), Cfg);
  EXPECT_EQ(R.Value, Expected);
}

INSTANTIATE_TEST_SUITE_P(
    TreesBySystem, UnbalancedTreeRuns,
    ::testing::Values(
        TreeRunCase{Tree1l, SchedulerKind::AdaptiveTC, 4},
        TreeRunCase{Tree1r, SchedulerKind::AdaptiveTC, 4},
        TreeRunCase{Tree3l, SchedulerKind::AdaptiveTC, 8},
        TreeRunCase{Tree3r, SchedulerKind::AdaptiveTC, 8},
        TreeRunCase{Fig8, SchedulerKind::AdaptiveTC, 4},
        TreeRunCase{Tree2l, SchedulerKind::Cilk, 4},
        TreeRunCase{Tree2r, SchedulerKind::CilkSynched, 4},
        TreeRunCase{Tree3l, SchedulerKind::Tascell, 4},
        TreeRunCase{Tree3r, SchedulerKind::Tascell, 4},
        TreeRunCase{Balanced, SchedulerKind::Cutoff, 4},
        TreeRunCase{Fig8, SchedulerKind::Sequential, 1}),
    [](const ::testing::TestParamInfo<TreeRunCase> &Info) {
      std::string Name = schedulerKindName(Info.param.Kind);
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return std::string(presetName(Info.param.Preset)) + "_" + Name + "_t" +
             std::to_string(Info.param.Threads);
    });

TEST(UnbalancedTreeRuns, SpinWorkDoesNotChangeResults) {
  SyntheticTreeProblem Plain(SimTree::preset("tree2l", 10'000), 0);
  SyntheticTreeProblem Spinning(SimTree::preset("tree2l", 10'000), 50);
  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::AdaptiveTC;
  Cfg.NumWorkers = 4;
  auto A = runProblem(Plain, Plain.makeRoot(), Cfg);
  auto B = runProblem(Spinning, Spinning.makeRoot(), Cfg);
  EXPECT_EQ(A.Value, B.Value);
  EXPECT_EQ(A.Value, Plain.expectedLeaves());
}

//===----------------------------------------------------------------------===//
// Join-protocol stress
//===----------------------------------------------------------------------===//

/// Fib at 8 workers with near-zero grain maximizes steal density, which
/// is what exercises the suspension / deposit / resume-by-last-depositor
/// paths of the join protocol. Repeated runs with different seeds sample
/// different interleavings (on a time-sliced single core, preemption
/// points move every run).
TEST(JoinProtocolStress, FibUnderMaximalStealPressure) {
  FibProblem Prob;
  long long Expected = FibProblem::fibValue(21);
  for (int Rep = 0; Rep < 15; ++Rep) {
    SchedulerConfig Cfg;
    Cfg.Kind = (Rep % 2 == 0) ? SchedulerKind::Cilk
                              : SchedulerKind::AdaptiveTC;
    Cfg.NumWorkers = 8;
    Cfg.MaxStolenNum = Rep % 3; // eager need_task arming
    Cfg.Seed = 0xABC + static_cast<std::uint64_t>(Rep);
    auto R = runProblem(Prob, FibProblem::makeRoot(21), Cfg);
    ASSERT_EQ(R.Value, Expected)
        << schedulerKindName(Cfg.Kind) << " rep " << Rep;
  }
}

TEST(JoinProtocolStress, SuspensionsObservedAndResolved) {
  // Accumulate scheduler stats over repeated contended runs: at least
  // one run should suspend a stolen task at its sync point and resume it
  // via the last depositor (the run would hang or miscount otherwise).
  FibProblem Prob;
  std::uint64_t Suspensions = 0;
  for (int Rep = 0; Rep < 10; ++Rep) {
    SchedulerConfig Cfg;
    Cfg.Kind = SchedulerKind::Cilk;
    Cfg.NumWorkers = 8;
    Cfg.Seed = 0x5115 + static_cast<std::uint64_t>(Rep);
    auto R = runProblem(Prob, FibProblem::makeRoot(22), Cfg);
    ASSERT_EQ(R.Value, FibProblem::fibValue(22));
    Suspensions += R.Stats.Suspensions;
  }
  EXPECT_GT(Suspensions, 0u) << "no suspension path was ever exercised";
}

//===----------------------------------------------------------------------===//
// Deque-overflow degradation
//===----------------------------------------------------------------------===//

TEST(Overflow, TinyDequeStillProducesCorrectResults) {
  // With a 4-entry THE deque (the default), Cilk's every-spawn pushing
  // overflows constantly; the engine degrades those spawns to plain calls
  // and must still be correct. The overflow count is reported (the
  // paper: fixed arrays are "prone to overflow").
  FibProblem Prob;
  SchedulerConfig Cfg;
  Cfg.Kind = SchedulerKind::Cilk;
  Cfg.NumWorkers = 4;
  Cfg.DequeCapacity = 4;
  auto R = runProblem(Prob, FibProblem::makeRoot(20), Cfg);
  EXPECT_EQ(R.Value, FibProblem::fibValue(20));
  EXPECT_GT(R.Stats.DequeOverflows, 0u);
}

TEST(Overflow, AdaptiveTCAvoidsOverflowWhereCilkOverflows) {
  // AdaptiveTC pushes fewer tasks, so a deque that Cilk overflows is
  // enough for it. The FSM bounds an AdaptiveTC worker's deque on any
  // interleaving (FiveVersionFsm::maxOwnerPushes): fast and slow code push
  // only at distinct spawn depths below 4C (the runtime's Spine variant
  // spawns first children down to there), a check node answering
  // need_task pushes one special task, and its fast_2 child pushes only
  // below depth 2C before falling into sequence, which never pushes or
  // polls again; an owner helping at a stolen special's sync has an empty
  // deque. So occupancy stays <= 6C + 1. The THE array's indices rewind
  // whenever a failed pop empties it, so its high-water mark is the
  // deepest spawn chain, which that bound covers.
  FibProblem Prob;
  const long long Expected = FibProblem::fibValue(22);
  SchedulerConfig Cfg;
  Cfg.NumWorkers = 4;
  const int C = effectiveCutoff(Cfg.Cutoff, Cfg.NumWorkers);
  const int Bound = AdaptiveTCTaskPolicy(C).Fsm.maxOwnerPushes();
  ASSERT_EQ(Bound, 6 * C + 1);
  Cfg.DequeCapacity = Bound;

  // One worker is deterministic: Cilk pushes a continuation per spawn
  // level and fib(22) nests 21 levels, deeper than Bound, so the fixed
  // THE array of that capacity overflows; AdaptiveTC (cut-off log2(1) =
  // 0, no thief to raise need_task) pushes nothing.
  SchedulerConfig One = Cfg;
  One.NumWorkers = 1;
  One.Kind = SchedulerKind::Cilk;
  auto Cilk = runProblem(Prob, FibProblem::makeRoot(22), One);
  One.Kind = SchedulerKind::AdaptiveTC;
  auto Atc1 = runProblem(Prob, FibProblem::makeRoot(22), One);
  EXPECT_EQ(Cilk.Value, Expected);
  EXPECT_EQ(Atc1.Value, Expected);
  EXPECT_GT(Cilk.Stats.DequeOverflows, 0u);
  EXPECT_EQ(Cilk.Stats.DequeHighWater, Bound);
  EXPECT_EQ(Atc1.Stats.DequeHighWater, 0);

  // Four workers: AdaptiveTC never overflows the same capacity, under
  // steals too.
  Cfg.Kind = SchedulerKind::AdaptiveTC;
  for (int Rep = 0; Rep < 10; ++Rep) {
    Cfg.Seed = 0x0f10 + static_cast<std::uint64_t>(Rep);
    auto Atc = runProblem(Prob, FibProblem::makeRoot(22), Cfg);
    EXPECT_EQ(Atc.Value, Expected);
    EXPECT_EQ(Atc.Stats.DequeOverflows, 0u) << "rep " << Rep;
    EXPECT_LE(Atc.Stats.DequeHighWater, Bound) << "rep " << Rep;
  }
}

} // namespace
