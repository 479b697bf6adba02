//===- core/kernel/FiveVersionFsm.h - The paper's Figure 2 FSM --*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The five-version task-creation FSM of the paper (Figure 2) as an
/// explicit, unit-testable type. Every consumer of the mode logic — the
/// template runtime's AdaptiveTC policy (TaskCreationPolicy.h), the .atc
/// generated runtime (lang/runtime/GenRuntime.h) and the simulator
/// (sim/SimEngine.cpp) — asks this one transition function which version a
/// spawned child executes under, instead of hand-rolling the cut-off
/// comparisons.
///
/// States are the paper's five compiled code versions:
///
///  * fast     - spawns real tasks while the spawn depth is below the
///               cut-off; beyond it, children run under check.
///  * check    - the fake task: no frame, in-place workspace with undo.
///               It polls need_task once per child; when set, it publishes
///               a special task and runs the child under fast_2 with the
///               spawn depth reset to 0.
///  * fast_2   - like fast with twice the cut-off, degrading to sequence
///               (not check) beyond it.
///  * sequence - plain recursion, creates nothing, polls nothing.
///  * slow     - the stolen-continuation version. Its children dispatch
///               exactly like fast's ("the slow version creates tasks
///               through the fast/check rule"), so child(Slow, ...) mirrors
///               child(Fast, ...); the state is kept distinct so transition
///               counters can attribute edges to the thief path.
///
/// Two variants share the table (FsmVariant):
///
///  * Paper - Figure 2 as published. The simulator's committed records,
///            the SimPolicies golden and atcc's single-worker generated
///            runtime use it.
///  * Spine - what the real runtime (AdaptiveTCTaskPolicy) runs. Past the
///            cut-off, a fast or slow node with C <= Dp < 4C still spawns
///            its *first* applied child as a real task, under fast at
///            Dp + 1; every later child goes to check as in Paper. Each
///            frame pushed along this spine of first children is a
///            continuation holding its level's remaining siblings, and
///            thieves take the deque head-first, so they get the largest
///            pending subtree (the counterpart of Tascell's
///            oldest-choice-point split) for one push per level. At
///            C = 0 (one worker) the rule never fires.
///
/// maxOwnerPushes() bounds how many entries one worker's own spawn chain
/// can hold on its deque at once: 3C + 1 for Paper, 6C + 1 for Spine.
///
/// This header is deliberately self-contained (no project includes beyond
/// <cstdint>): code generated from .atc sources compiles outside the build
/// tree with only `-I <repo>/src` and includes it through GenRuntime.h.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_CORE_KERNEL_FIVEVERSIONFSM_H
#define ATC_CORE_KERNEL_FIVEVERSIONFSM_H

#include <cstdint>

namespace atc {

/// The five compiled code versions of the paper (states of Figure 2).
enum class CodeVersion : std::uint8_t {
  Fast,
  Check,
  Fast2,
  Sequence,
  Slow,
};

/// Number of CodeVersion states (for transition-count tables).
inline constexpr int NumCodeVersions = 5;

/// Display name ("fast", "check", "fast_2", "sequence", "slow").
constexpr const char *codeVersionName(CodeVersion V) {
  switch (V) {
  case CodeVersion::Fast:
    return "fast";
  case CodeVersion::Check:
    return "check";
  case CodeVersion::Fast2:
    return "fast_2";
  case CodeVersion::Sequence:
    return "sequence";
  case CodeVersion::Slow:
    return "slow";
  }
  return "?";
}

/// One edge of the FSM: how the child of a spawn site executes.
struct FsmTransition {
  /// Version the child runs under.
  CodeVersion Child;
  /// Spawn depth ("_adpTC_dp") the child starts at. The check -> fast_2
  /// edge resets it to 0 — the paper's depth reset on a special-task push.
  int ChildDp;
  /// Whether the child is a real task (frame allocated, workspace copied,
  /// continuation pushed on the deque).
  bool SpawnTask;
  /// Whether a special task must be published before the spawn (the
  /// check -> fast_2 edge only).
  bool SpecialPush;
  /// Whether taking this edge consulted need_task (check-version edges
  /// only; what the paper's polling overhead counts).
  bool PolledNeedTask;

  constexpr bool operator==(const FsmTransition &O) const {
    return Child == O.Child && ChildDp == O.ChildDp &&
           SpawnTask == O.SpawnTask && SpecialPush == O.SpecialPush &&
           PolledNeedTask == O.PolledNeedTask;
  }
};

/// Which edge table FiveVersionFsm::child follows (see the file comment).
enum class FsmVariant : std::uint8_t {
  Paper, ///< Figure 2 as published.
  Spine, ///< Paper plus first-child spawning for C <= Dp < 4C.
};

/// The Figure 2 transition function, parameterized by the cut-off depth
/// ("initially set to log N by the runtime system") and the variant.
class FiveVersionFsm {
public:
  constexpr explicit FiveVersionFsm(int CutoffDepth, FsmVariant V)
      : Cutoff(CutoffDepth), Variant(V) {}

  constexpr int cutoff() const { return Cutoff; }

  /// The most entries one worker's own spawn chain can hold on its deque
  /// at once, on any interleaving. Along a call path, fast and slow
  /// frames push only at distinct spawn depths below C (Paper) or 4C
  /// (Spine), one check node answering need_task pushes one special
  /// task, and its fast_2 chain pushes only below depth 2C before falling
  /// into sequence, which never pushes again. So 3C + 1 for Paper and
  /// 4C + 1 + 2C = 6C + 1 for Spine.
  constexpr int maxOwnerPushes() const {
    return (Variant == FsmVariant::Spine ? 4 : 1) * Cutoff + 1 + 2 * Cutoff;
  }

  /// Returns the edge taken by a spawn site executing version \p Cur at
  /// spawn depth \p Dp, with the worker's need_task flag reading
  /// \p NeedTask (consulted only when Cur is Check). \p FirstChild says
  /// whether this is the node's first applied child (for a slow node,
  /// the first one after the resume); only the Spine variant reads it.
  constexpr FsmTransition child(CodeVersion Cur, int Dp, bool NeedTask,
                                bool FirstChild) const {
    switch (Cur) {
    case CodeVersion::Fast:
    case CodeVersion::Slow:
      // fast: spawn below the cut-off, hand off to check beyond it. The
      // slow (stolen-continuation) version dispatches identically. Spine
      // keeps spawning the first child down to 4 x the cut-off.
      if (Dp < Cutoff || (Variant == FsmVariant::Spine && FirstChild &&
                          Dp < 4 * Cutoff))
        return {CodeVersion::Fast, Dp + 1, /*SpawnTask=*/true,
                /*SpecialPush=*/false, /*PolledNeedTask=*/false};
      return {CodeVersion::Check, Dp, /*SpawnTask=*/false,
              /*SpecialPush=*/false, /*PolledNeedTask=*/false};
    case CodeVersion::Check:
      // check: stay a fake task until an idle thread raises need_task;
      // then publish a special task and re-enter fast_2 at depth 0.
      if (NeedTask)
        return {CodeVersion::Fast2, 0, /*SpawnTask=*/true,
                /*SpecialPush=*/true, /*PolledNeedTask=*/true};
      return {CodeVersion::Check, Dp, /*SpawnTask=*/false,
              /*SpecialPush=*/false, /*PolledNeedTask=*/true};
    case CodeVersion::Fast2:
      // fast_2: twice the cut-off, then sequence (never check again —
      // the special task already marks the transition point).
      if (Dp < 2 * Cutoff)
        return {CodeVersion::Fast2, Dp + 1, /*SpawnTask=*/true,
                /*SpecialPush=*/false, /*PolledNeedTask=*/false};
      return {CodeVersion::Sequence, Dp, /*SpawnTask=*/false,
              /*SpecialPush=*/false, /*PolledNeedTask=*/false};
    case CodeVersion::Sequence:
      // sequence: absorbing; plain recursion to the leaves.
      return {CodeVersion::Sequence, Dp, /*SpawnTask=*/false,
              /*SpecialPush=*/false, /*PolledNeedTask=*/false};
    }
    // Unreachable for valid CodeVersion values; keep a defined fallback so
    // the function stays constexpr-evaluable.
    return {CodeVersion::Sequence, Dp, false, false, false};
  }

private:
  int Cutoff;
  FsmVariant Variant;
};

/// Transition-count statistics: a NumCodeVersions x NumCodeVersions edge
/// matrix. Owner-thread-only (batched like every other hot counter);
/// aggregate with operator+=.
struct FsmCounters {
  std::uint64_t Edges[NumCodeVersions][NumCodeVersions] = {};

  void record(CodeVersion From, CodeVersion To) {
    ++Edges[static_cast<int>(From)][static_cast<int>(To)];
  }

  std::uint64_t edge(CodeVersion From, CodeVersion To) const {
    return Edges[static_cast<int>(From)][static_cast<int>(To)];
  }

  std::uint64_t total() const {
    std::uint64_t Sum = 0;
    for (const auto &Row : Edges)
      for (std::uint64_t E : Row)
        Sum += E;
    return Sum;
  }

  FsmCounters &operator+=(const FsmCounters &O) {
    for (int F = 0; F < NumCodeVersions; ++F)
      for (int T = 0; T < NumCodeVersions; ++T)
        Edges[F][T] += O.Edges[F][T];
    return *this;
  }
};

} // namespace atc

#endif // ATC_CORE_KERNEL_FIVEVERSIONFSM_H
