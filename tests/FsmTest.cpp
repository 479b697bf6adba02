//===- tests/FsmTest.cpp - Figure 2 FSM and policy unit tests -------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table-driven coverage of every Figure 2 transition of FiveVersionFsm
/// (the Paper table and the Spine variant's extra edges), the
/// occupancy bound maxOwnerPushes(), the FsmCounters edge matrix, and the task-creation policy classes the
/// scheduler kernel is instantiated with (including the simulator's
/// runtime-kind frontend dispatchChild).
///
//===----------------------------------------------------------------------===//

#include "core/kernel/TaskCreationPolicy.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace atc;

namespace {

// Readable failure output for transition mismatches.
std::string describe(const FsmTransition &T) {
  std::ostringstream OS;
  OS << codeVersionName(T.Child) << " dp=" << T.ChildDp
     << (T.SpawnTask ? " spawn" : "") << (T.SpecialPush ? " special" : "")
     << (T.PolledNeedTask ? " polled" : "");
  return OS.str();
}

struct Edge {
  CodeVersion Cur;
  int Dp;
  bool NeedTask;
  FsmTransition Expect;
};

//===----------------------------------------------------------------------===//
// FiveVersionFsm: every Figure 2 edge at cutoff = 3
//===----------------------------------------------------------------------===//

TEST(FiveVersionFsm, Figure2TransitionTable) {
  constexpr int Cutoff = 3;
  const FiveVersionFsm Fsm(Cutoff, FsmVariant::Paper);
  ASSERT_EQ(Fsm.cutoff(), Cutoff);

  const Edge Table[] = {
      // fast: spawn fast children while dp < cutoff...
      {CodeVersion::Fast, 0, false, {CodeVersion::Fast, 1, true, false, false}},
      {CodeVersion::Fast, 1, false, {CodeVersion::Fast, 2, true, false, false}},
      {CodeVersion::Fast, 2, false, {CodeVersion::Fast, 3, true, false, false}},
      // ...then hand off to check (no spawn, depth preserved).
      {CodeVersion::Fast, 3, false,
       {CodeVersion::Check, 3, false, false, false}},
      {CodeVersion::Fast, 7, false,
       {CodeVersion::Check, 7, false, false, false}},
      // need_task is not consulted outside check.
      {CodeVersion::Fast, 0, true, {CodeVersion::Fast, 1, true, false, false}},
      {CodeVersion::Fast, 3, true,
       {CodeVersion::Check, 3, false, false, false}},

      // slow (stolen continuation) dispatches exactly like fast.
      {CodeVersion::Slow, 0, false, {CodeVersion::Fast, 1, true, false, false}},
      {CodeVersion::Slow, 2, false, {CodeVersion::Fast, 3, true, false, false}},
      {CodeVersion::Slow, 3, false,
       {CodeVersion::Check, 3, false, false, false}},
      {CodeVersion::Slow, 3, true,
       {CodeVersion::Check, 3, false, false, false}},

      // check: fake task while need_task is clear; every edge polls.
      {CodeVersion::Check, 3, false,
       {CodeVersion::Check, 3, false, false, true}},
      {CodeVersion::Check, 0, false,
       {CodeVersion::Check, 0, false, false, true}},
      // need_task observed: publish a special task, re-enter fast_2, and
      // reset the spawn depth to 0 regardless of the current depth.
      {CodeVersion::Check, 3, true, {CodeVersion::Fast2, 0, true, true, true}},
      {CodeVersion::Check, 9, true, {CodeVersion::Fast2, 0, true, true, true}},

      // fast_2: doubled cut-off...
      {CodeVersion::Fast2, 0, false,
       {CodeVersion::Fast2, 1, true, false, false}},
      {CodeVersion::Fast2, 5, false,
       {CodeVersion::Fast2, 6, true, false, false}},
      // ...then sequence, never check again.
      {CodeVersion::Fast2, 6, false,
       {CodeVersion::Sequence, 6, false, false, false}},
      {CodeVersion::Fast2, 6, true,
       {CodeVersion::Sequence, 6, false, false, false}},

      // sequence is absorbing.
      {CodeVersion::Sequence, 0, false,
       {CodeVersion::Sequence, 0, false, false, false}},
      {CodeVersion::Sequence, 6, true,
       {CodeVersion::Sequence, 6, false, false, false}},
  };

  // Figure 2 as published (the default variant) never asks which child
  // is the first one.
  for (const Edge &E : Table)
    for (bool First : {false, true}) {
      const FsmTransition Got = Fsm.child(E.Cur, E.Dp, E.NeedTask, First);
      EXPECT_TRUE(Got == E.Expect)
          << codeVersionName(E.Cur) << " dp=" << E.Dp
          << " need_task=" << E.NeedTask << " first=" << First << ": got ["
          << describe(Got) << "], want [" << describe(E.Expect) << "]";
    }
}

//===----------------------------------------------------------------------===//
// FiveVersionFsm, Spine variant: first-child spawning for C <= dp < 4C
//===----------------------------------------------------------------------===//

struct SpineEdge {
  CodeVersion Cur;
  int Dp;
  bool NeedTask;
  bool FirstChild;
  FsmTransition Expect;
};

TEST(FiveVersionFsm, SpineTransitionTable) {
  constexpr int Cutoff = 3;
  const FiveVersionFsm Fsm(Cutoff, FsmVariant::Spine);

  const FsmTransition ToCheck3 = {CodeVersion::Check, 3, false, false, false};
  const SpineEdge Table[] = {
      // Below the cut-off every child spawns, first or not (Paper's edge).
      {CodeVersion::Fast, 0, false, false,
       {CodeVersion::Fast, 1, true, false, false}},
      {CodeVersion::Fast, 2, false, false,
       {CodeVersion::Fast, 3, true, false, false}},
      // C <= dp < 4C: the first applied child spawns under fast at dp + 1...
      {CodeVersion::Fast, 3, false, true,
       {CodeVersion::Fast, 4, true, false, false}},
      {CodeVersion::Fast, 7, false, true,
       {CodeVersion::Fast, 8, true, false, false}},
      {CodeVersion::Fast, 11, false, true,
       {CodeVersion::Fast, 12, true, false, false}},
      {CodeVersion::Fast, 3, true, true,
       {CodeVersion::Fast, 4, true, false, false}},
      // ...and every later child goes to check, as in Paper.
      {CodeVersion::Fast, 3, false, false, ToCheck3},
      {CodeVersion::Fast, 3, true, false, ToCheck3},
      {CodeVersion::Fast, 11, false, false,
       {CodeVersion::Check, 11, false, false, false}},
      // dp >= 4C: check, first child included.
      {CodeVersion::Fast, 12, false, true,
       {CodeVersion::Check, 12, false, false, false}},
      {CodeVersion::Fast, 20, false, true,
       {CodeVersion::Check, 20, false, false, false}},

      // slow mirrors fast (for a slow node, "first" is the first child
      // after the resume).
      {CodeVersion::Slow, 2, false, false,
       {CodeVersion::Fast, 3, true, false, false}},
      {CodeVersion::Slow, 3, false, true,
       {CodeVersion::Fast, 4, true, false, false}},
      {CodeVersion::Slow, 11, false, true,
       {CodeVersion::Fast, 12, true, false, false}},
      {CodeVersion::Slow, 3, false, false, ToCheck3},
      {CodeVersion::Slow, 12, false, true,
       {CodeVersion::Check, 12, false, false, false}},

      // check, fast_2 and sequence do not change, first child or not.
      {CodeVersion::Check, 3, false, true,
       {CodeVersion::Check, 3, false, false, true}},
      {CodeVersion::Check, 9, true, true,
       {CodeVersion::Fast2, 0, true, true, true}},
      {CodeVersion::Fast2, 5, false, true,
       {CodeVersion::Fast2, 6, true, false, false}},
      {CodeVersion::Fast2, 6, false, true,
       {CodeVersion::Sequence, 6, false, false, false}},
      {CodeVersion::Sequence, 0, true, true,
       {CodeVersion::Sequence, 0, false, false, false}},
  };

  for (const SpineEdge &E : Table) {
    const FsmTransition Got = Fsm.child(E.Cur, E.Dp, E.NeedTask, E.FirstChild);
    EXPECT_TRUE(Got == E.Expect)
        << codeVersionName(E.Cur) << " dp=" << E.Dp
        << " need_task=" << E.NeedTask << " first=" << E.FirstChild
        << ": got [" << describe(Got) << "], want [" << describe(E.Expect)
        << "]";
  }
}

TEST(FiveVersionFsm, SpineAtZeroCutoffIsThePaperTable) {
  // One worker (cut-off 0): 0 <= dp < 0 is empty, so the spine rule never
  // fires and the 1-worker path is Figure 2 as published.
  const FiveVersionFsm Paper(0, FsmVariant::Paper);
  const FiveVersionFsm Spine(0, FsmVariant::Spine);
  for (CodeVersion Cur : {CodeVersion::Fast, CodeVersion::Check,
                          CodeVersion::Fast2, CodeVersion::Sequence,
                          CodeVersion::Slow})
    for (int Dp : {0, 1, 5})
      for (bool NT : {false, true})
        for (bool First : {false, true})
          EXPECT_TRUE(Spine.child(Cur, Dp, NT, First) ==
                      Paper.child(Cur, Dp, NT, First))
              << codeVersionName(Cur) << " dp=" << Dp << " need_task=" << NT
              << " first=" << First;
}

TEST(FiveVersionFsm, MaxOwnerPushes) {
  // 3C + 1 for Figure 2 as published; Spine adds 3C more fast frames
  // (4C fast/spine frames + 1 special + 2C fast_2 frames).
  static_assert(FiveVersionFsm(0, FsmVariant::Paper).maxOwnerPushes() == 1);
  static_assert(FiveVersionFsm(2, FsmVariant::Paper).maxOwnerPushes() == 7);
  static_assert(FiveVersionFsm(3, FsmVariant::Paper).maxOwnerPushes() == 10);
  static_assert(FiveVersionFsm(0, FsmVariant::Spine).maxOwnerPushes() == 1);
  static_assert(FiveVersionFsm(2, FsmVariant::Spine).maxOwnerPushes() == 13);
  static_assert(FiveVersionFsm(3, FsmVariant::Spine).maxOwnerPushes() == 19);
}

TEST(FiveVersionFsm, IsConstexprEvaluable) {
  // The FSM must fold at compile time so the frame engine's per-policy
  // instantiations can dead-code-eliminate unreachable branches.
  constexpr FiveVersionFsm Fsm(2, FsmVariant::Paper);
  static_assert(Fsm.child(CodeVersion::Fast, 0, false, false).SpawnTask);
  static_assert(Fsm.child(CodeVersion::Fast, 2, false, true).Child ==
                CodeVersion::Check);
  static_assert(Fsm.child(CodeVersion::Check, 2, true, false).ChildDp == 0);
  static_assert(Fsm.child(CodeVersion::Check, 2, true, false).SpecialPush);
  static_assert(Fsm.child(CodeVersion::Fast2, 4, false, false).Child ==
                CodeVersion::Sequence);
  static_assert(!Fsm.child(CodeVersion::Sequence, 0, true, false).SpawnTask);
  constexpr FiveVersionFsm Spine(2, FsmVariant::Spine);
  static_assert(Spine.child(CodeVersion::Fast, 2, false, true).SpawnTask);
  static_assert(!Spine.child(CodeVersion::Fast, 2, false, false).SpawnTask);
  static_assert(!Spine.child(CodeVersion::Slow, 8, false, true).SpawnTask);
}

TEST(FiveVersionFsm, ZeroCutoffGoesStraightToCheck) {
  // NumWorkers = 1 gives cutoff = log2(1) = 0: the root's children
  // immediately run as fake tasks.
  const FiveVersionFsm Fsm(0, FsmVariant::Paper);
  const FsmTransition T = Fsm.child(CodeVersion::Fast, 0, false, true);
  EXPECT_EQ(T.Child, CodeVersion::Check);
  EXPECT_FALSE(T.SpawnTask);
  // And fast_2 (2 * 0 = 0) degrades straight to sequence.
  EXPECT_EQ(Fsm.child(CodeVersion::Fast2, 0, false, true).Child,
            CodeVersion::Sequence);
}

TEST(FiveVersionFsm, VersionNames) {
  EXPECT_STREQ(codeVersionName(CodeVersion::Fast), "fast");
  EXPECT_STREQ(codeVersionName(CodeVersion::Check), "check");
  EXPECT_STREQ(codeVersionName(CodeVersion::Fast2), "fast_2");
  EXPECT_STREQ(codeVersionName(CodeVersion::Sequence), "sequence");
  EXPECT_STREQ(codeVersionName(CodeVersion::Slow), "slow");
}

//===----------------------------------------------------------------------===//
// FsmCounters
//===----------------------------------------------------------------------===//

TEST(FsmCounters, RecordsEdgesAndAggregates) {
  FsmCounters A;
  EXPECT_EQ(A.total(), 0u);
  A.record(CodeVersion::Fast, CodeVersion::Fast);
  A.record(CodeVersion::Fast, CodeVersion::Fast);
  A.record(CodeVersion::Fast, CodeVersion::Check);
  A.record(CodeVersion::Check, CodeVersion::Fast2);
  EXPECT_EQ(A.edge(CodeVersion::Fast, CodeVersion::Fast), 2u);
  EXPECT_EQ(A.edge(CodeVersion::Fast, CodeVersion::Check), 1u);
  EXPECT_EQ(A.edge(CodeVersion::Check, CodeVersion::Fast2), 1u);
  EXPECT_EQ(A.edge(CodeVersion::Fast2, CodeVersion::Sequence), 0u);
  EXPECT_EQ(A.total(), 4u);

  FsmCounters B;
  B.record(CodeVersion::Fast, CodeVersion::Fast);
  B.record(CodeVersion::Slow, CodeVersion::Fast);
  A += B;
  EXPECT_EQ(A.edge(CodeVersion::Fast, CodeVersion::Fast), 3u);
  EXPECT_EQ(A.edge(CodeVersion::Slow, CodeVersion::Fast), 1u);
  EXPECT_EQ(A.total(), 6u);
}

//===----------------------------------------------------------------------===//
// Task-creation policies
//===----------------------------------------------------------------------===//

TEST(TaskPolicies, TraitsMatchTheirKinds) {
  static_assert(CilkTaskPolicy::Kind == SchedulerKind::Cilk);
  static_assert(CilkSynchedTaskPolicy::Kind == SchedulerKind::CilkSynched);
  static_assert(CutoffTaskPolicy::Kind == SchedulerKind::Cutoff);
  static_assert(AdaptiveTCTaskPolicy::Kind == SchedulerKind::AdaptiveTC);
  // Only Cilk models a fresh heap workspace per child.
  static_assert(!CilkTaskPolicy::PooledWorkspace);
  static_assert(CilkSynchedTaskPolicy::PooledWorkspace);
  static_assert(CutoffTaskPolicy::PooledWorkspace);
  static_assert(AdaptiveTCTaskPolicy::PooledWorkspace);
}

TEST(TaskPolicies, CilkAlwaysSpawns) {
  const CilkTaskPolicy Cilk(3);
  const CilkSynchedTaskPolicy Synched(3);
  for (CodeVersion Cur : {CodeVersion::Fast, CodeVersion::Check,
                          CodeVersion::Fast2, CodeVersion::Sequence,
                          CodeVersion::Slow})
    for (int Dp : {0, 3, 100})
      for (bool NT : {false, true})
        for (bool First : {false, true}) {
          const FsmTransition Expect = {CodeVersion::Fast, Dp + 1, true,
                                        false, false};
          EXPECT_TRUE(Cilk.child(Cur, Dp, NT, First) == Expect);
          EXPECT_TRUE(Synched.child(Cur, Dp, NT, First) == Expect);
        }
}

TEST(TaskPolicies, CutoffIsStickySequence) {
  const CutoffTaskPolicy Pol(3);
  // Above the cut-off: real fast tasks.
  EXPECT_TRUE(Pol.child(CodeVersion::Fast, 0, false, false) ==
              FsmTransition({CodeVersion::Fast, 1, true, false, false}));
  EXPECT_TRUE(Pol.child(CodeVersion::Fast, 2, true, false) ==
              FsmTransition({CodeVersion::Fast, 3, true, false, false}));
  // Beyond it: sequence, and sequence never re-enters task mode even if
  // the depth expression would allow it (stolen subtrees keep their dp).
  // The first child is no exception (the spine rule is AdaptiveTC's).
  EXPECT_TRUE(Pol.child(CodeVersion::Fast, 3, false, true) ==
              FsmTransition({CodeVersion::Sequence, 3, false, false, false}));
  EXPECT_TRUE(Pol.child(CodeVersion::Sequence, 0, false, true) ==
              FsmTransition({CodeVersion::Sequence, 0, false, false, false}));
}

TEST(TaskPolicies, AdaptiveTCDelegatesToTheFsm) {
  // The runtime's policy runs the Spine variant by default.
  const AdaptiveTCTaskPolicy Pol(4);
  const AdaptiveTCTaskPolicy PaperPol(4, FsmVariant::Paper);
  const FiveVersionFsm Spine(4, FsmVariant::Spine);
  const FiveVersionFsm Paper(4, FsmVariant::Paper);
  for (CodeVersion Cur : {CodeVersion::Fast, CodeVersion::Check,
                          CodeVersion::Fast2, CodeVersion::Sequence,
                          CodeVersion::Slow})
    for (int Dp : {0, 3, 4, 7, 8, 15, 16})
      for (bool NT : {false, true})
        for (bool First : {false, true}) {
          EXPECT_TRUE(Pol.child(Cur, Dp, NT, First) ==
                      Spine.child(Cur, Dp, NT, First))
              << codeVersionName(Cur) << " dp=" << Dp << " need_task=" << NT
              << " first=" << First;
          EXPECT_TRUE(PaperPol.child(Cur, Dp, NT, First) ==
                      Paper.child(Cur, Dp, NT, First))
              << codeVersionName(Cur) << " dp=" << Dp << " need_task=" << NT
              << " first=" << First;
        }
}

TEST(TaskPolicies, DispatchChildMatchesStaticPolicies) {
  constexpr int Cutoff = 3;
  const CilkTaskPolicy Cilk(Cutoff);
  const CilkSynchedTaskPolicy Synched(Cutoff);
  const CutoffTaskPolicy Cut(Cutoff);
  for (FsmVariant V : {FsmVariant::Paper, FsmVariant::Spine}) {
    const AdaptiveTCTaskPolicy Atc(Cutoff, V);
    for (CodeVersion Cur : {CodeVersion::Fast, CodeVersion::Check,
                            CodeVersion::Fast2, CodeVersion::Sequence,
                            CodeVersion::Slow})
      for (int Dp : {0, 2, 3, 6, 9, 12})
        for (bool NT : {false, true})
          for (bool F : {false, true}) {
            EXPECT_TRUE(dispatchChild(SchedulerKind::Cilk, Cutoff, Cur, Dp, NT,
                                      F, V) == Cilk.child(Cur, Dp, NT, F));
            EXPECT_TRUE(dispatchChild(SchedulerKind::CilkSynched, Cutoff, Cur,
                                      Dp, NT, F,
                                      V) == Synched.child(Cur, Dp, NT, F));
            EXPECT_TRUE(dispatchChild(SchedulerKind::Cutoff, Cutoff, Cur, Dp,
                                      NT, F, V) == Cut.child(Cur, Dp, NT, F));
            EXPECT_TRUE(dispatchChild(SchedulerKind::AdaptiveTC, Cutoff, Cur,
                                      Dp, NT, F,
                                      V) == Atc.child(Cur, Dp, NT, F));
            // Kinds without deque spawn sites take a non-spawning sequence
            // edge unconditionally.
            for (SchedulerKind K :
                 {SchedulerKind::Sequential, SchedulerKind::Tascell}) {
              const FsmTransition T =
                  dispatchChild(K, Cutoff, Cur, Dp, NT, F, V);
              EXPECT_EQ(T.Child, CodeVersion::Sequence);
              EXPECT_FALSE(T.SpawnTask);
              EXPECT_FALSE(T.SpecialPush);
              EXPECT_FALSE(T.PolledNeedTask);
            }
          }
  }
}

} // namespace
