//===- core/kernel/TaskCreationPolicy.h - Task-creation policies *- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The task-creation strategies of the paper's deque-based systems (Cilk,
/// Cilk-SYNCHED, Cutoff, AdaptiveTC) as small policy classes over the
/// shared FiveVersionFsm vocabulary. A policy answers exactly one
/// question — which FsmTransition does a spawn site take — plus two
/// compile-time traits the frame engine folds into its hot paths:
///
///  * Kind            - the SchedulerKind the policy implements.
///  * PooledWorkspace - whether child workspaces recycle through the
///                      per-worker slab arena (everything but Cilk, which
///                      models a fresh allocation per child).
///
/// Policies are stateless or hold only the cut-off; child() is constexpr-
/// foldable for the trivial strategies, so e.g. the Cilk instantiation of
/// the frame engine compiles its dispatch down to "always spawn" with the
/// check/sequence branches dead.
///
/// dispatchChild() at the bottom is the runtime-kind frontend for
/// consumers that select the strategy at run time (the simulator).
///
//===----------------------------------------------------------------------===//

#ifndef ATC_CORE_KERNEL_TASKCREATIONPOLICY_H
#define ATC_CORE_KERNEL_TASKCREATIONPOLICY_H

#include "core/Scheduler.h"
#include "core/kernel/FiveVersionFsm.h"
#include "support/Compiler.h"

#include <concepts>

namespace atc {

/// Concept for a deque-engine task-creation policy.
template <typename T>
concept TaskCreationPolicy =
    requires(const T &Pol, CodeVersion Cur, int Dp, bool NeedTask,
             bool FirstChild) {
      { T::Kind } -> std::convertible_to<SchedulerKind>;
      { T::PooledWorkspace } -> std::convertible_to<bool>;
      {
        Pol.child(Cur, Dp, NeedTask, FirstChild)
      } -> std::same_as<FsmTransition>;
    };

/// Cilk: work-first work stealing; every spawn is a real task with a fresh
/// heap workspace ("Cilk_alloca + memcpy" per child).
struct CilkTaskPolicy {
  static constexpr SchedulerKind Kind = SchedulerKind::Cilk;
  static constexpr bool PooledWorkspace = false;

  constexpr explicit CilkTaskPolicy(int /*CutoffDepth*/) {}

  constexpr FsmTransition child(CodeVersion /*Cur*/, int Dp,
                                bool /*NeedTask*/,
                                bool /*FirstChild*/) const {
    return {CodeVersion::Fast, Dp + 1, /*SpawnTask=*/true,
            /*SpecialPush=*/false, /*PolledNeedTask=*/false};
  }
};

/// Cilk-SYNCHED: identical task creation; workspace memory is pooled
/// ("the time overhead is not reduced" — only the allocation is).
struct CilkSynchedTaskPolicy {
  static constexpr SchedulerKind Kind = SchedulerKind::CilkSynched;
  static constexpr bool PooledWorkspace = true;

  constexpr explicit CilkSynchedTaskPolicy(int /*CutoffDepth*/) {}

  constexpr FsmTransition child(CodeVersion /*Cur*/, int Dp,
                                bool /*NeedTask*/,
                                bool /*FirstChild*/) const {
    return {CodeVersion::Fast, Dp + 1, /*SpawnTask=*/true,
            /*SpecialPush=*/false, /*PolledNeedTask=*/false};
  }
};

/// Cutoff: real tasks above a fixed depth, plain calls below, no
/// adaptation (the Cutoff-programmer / Cutoff-library strategies of
/// Figure 9). Sequence is absorbing.
struct CutoffTaskPolicy {
  static constexpr SchedulerKind Kind = SchedulerKind::Cutoff;
  static constexpr bool PooledWorkspace = true;

  constexpr explicit CutoffTaskPolicy(int CutoffDepth)
      : CutoffDepth(CutoffDepth) {}

  constexpr FsmTransition child(CodeVersion Cur, int Dp, bool /*NeedTask*/,
                                bool /*FirstChild*/) const {
    if (Cur != CodeVersion::Sequence && Dp < CutoffDepth)
      return {CodeVersion::Fast, Dp + 1, /*SpawnTask=*/true,
              /*SpecialPush=*/false, /*PolledNeedTask=*/false};
    return {CodeVersion::Sequence, Dp, /*SpawnTask=*/false,
            /*SpecialPush=*/false, /*PolledNeedTask=*/false};
  }

  int CutoffDepth;
};

/// AdaptiveTC: the paper's contribution — the full Figure 2 FSM. The
/// real runtime runs its Spine variant (FiveVersionFsm.h); the simulator
/// picks the variant per run through dispatchChild.
struct AdaptiveTCTaskPolicy {
  static constexpr SchedulerKind Kind = SchedulerKind::AdaptiveTC;
  static constexpr bool PooledWorkspace = true;

  constexpr explicit AdaptiveTCTaskPolicy(int CutoffDepth,
                                          FsmVariant V = FsmVariant::Spine)
      : Fsm(CutoffDepth, V) {}

  constexpr FsmTransition child(CodeVersion Cur, int Dp, bool NeedTask,
                                bool FirstChild) const {
    return Fsm.child(Cur, Dp, NeedTask, FirstChild);
  }

  FiveVersionFsm Fsm;
};

static_assert(TaskCreationPolicy<CilkTaskPolicy>);
static_assert(TaskCreationPolicy<CilkSynchedTaskPolicy>);
static_assert(TaskCreationPolicy<CutoffTaskPolicy>);
static_assert(TaskCreationPolicy<AdaptiveTCTaskPolicy>);

/// Runtime-kind frontend over the static policies, for consumers that
/// pick the strategy per run instead of per template instantiation (the
/// simulator). Sequential and Tascell have no deque spawn sites; their
/// children uniformly run as plain recursion. \p Variant selects the
/// AdaptiveTC edge table and is ignored by every other kind.
inline FsmTransition dispatchChild(SchedulerKind Kind, int CutoffDepth,
                                   CodeVersion Cur, int Dp, bool NeedTask,
                                   bool FirstChild, FsmVariant Variant) {
  switch (Kind) {
  case SchedulerKind::Cilk:
    return CilkTaskPolicy(CutoffDepth).child(Cur, Dp, NeedTask, FirstChild);
  case SchedulerKind::CilkSynched:
    return CilkSynchedTaskPolicy(CutoffDepth)
        .child(Cur, Dp, NeedTask, FirstChild);
  case SchedulerKind::Cutoff:
    return CutoffTaskPolicy(CutoffDepth).child(Cur, Dp, NeedTask, FirstChild);
  case SchedulerKind::AdaptiveTC:
    return AdaptiveTCTaskPolicy(CutoffDepth, Variant)
        .child(Cur, Dp, NeedTask, FirstChild);
  case SchedulerKind::Sequential:
  case SchedulerKind::Tascell:
    return {CodeVersion::Sequence, Dp, /*SpawnTask=*/false,
            /*SpecialPush=*/false, /*PolledNeedTask=*/false};
  }
  ATC_UNREACHABLE("unhandled scheduler kind");
}

} // namespace atc

#endif // ATC_CORE_KERNEL_TASKCREATIONPOLICY_H
