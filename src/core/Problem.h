//===- core/Problem.h - The search-problem task model -----------*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The task model shared by every scheduler in this project.
///
/// The paper's compiler assumes tasks of a particular shape: a recursive
/// function that loops over candidate child choices, spawning one child per
/// viable choice, with a workspace ("taskprivate" variable) that the child
/// either receives as a private copy (real task) or mutates in place with
/// undo (fake task). Its five generated code versions save/restore exactly
/// (workspace, loop index, partial result, depth).
///
/// SearchProblem captures that shape as a C++ concept, which is what lets a
/// library implement the paper's continuation stealing without compiler
/// support or stack switching: a continuation is fully described by
/// (State, last choice index, partial result, depth).
///
/// Semantics (the "reference interpreter" every scheduler must agree with):
///
/// \code
///   Result search(P &Prob, State &S, int Depth) {
///     if (Prob.isLeaf(S, Depth))
///       return Prob.leafResult(S, Depth);
///     Result Acc{};                       // Result{} is the identity
///     for (int K = 0, N = Prob.numChoices(S, Depth); K < N; ++K) {
///       if (!Prob.applyChoice(S, Depth, K))
///         continue;                       // pruned
///       Acc += search(Prob, S, Depth + 1);
///       Prob.undoChoice(S, Depth, K);
///     }
///     return Acc;
///   }
/// \endcode
///
/// Requirements on the types:
///  * State is trivially copyable (the workspace copy is a memcpy — this is
///    what the paper's `taskprivate: (*x)(n * sizeof(char))` clause
///    expresses), and the undo discipline holds: after applyChoice /
///    subtree / undoChoice the State is bit-identical to before.
///  * Result is default-constructible to the reduction identity and
///    supports `+=` as an associative, commutative combine (results of
///    stolen subtrees are deposited in nondeterministic order).
///
/// Problems may additionally provide the optional liveBytes hint (see
/// HasLiveBytes below) to bound the per-spawn workspace copy to the live
/// prefix of the State; correctness never depends on it.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_CORE_PROBLEM_H
#define ATC_CORE_PROBLEM_H

#include "support/Arena.h"
#include "support/Compiler.h"

#include <concepts>
#include <cstddef>
#include <cstring>
#include <type_traits>

namespace atc {

/// Concept for the choice-loop task model described in the file comment.
template <typename P>
concept SearchProblem = requires(P &Prob, typename P::State &S,
                                 const typename P::State &CS, int Depth,
                                 int K, typename P::Result &R) {
  requires std::is_trivially_copyable_v<typename P::State>;
  requires std::default_initializable<typename P::Result>;
  { Prob.isLeaf(CS, Depth) } -> std::convertible_to<bool>;
  { Prob.leafResult(CS, Depth) } -> std::convertible_to<typename P::Result>;
  { Prob.numChoices(CS, Depth) } -> std::convertible_to<int>;
  { Prob.applyChoice(S, Depth, K) } -> std::convertible_to<bool>;
  { Prob.undoChoice(S, Depth, K) };
  { R += R };
};

/// Optional refinement of SearchProblem: the problem knows how much of its
/// State is live for a search starting at (S, Depth). This is the
/// library-level form of the paper's `taskprivate: (*x)(n * sizeof(char))`
/// size clause — the clause already lets the programmer bound the copied
/// workspace; liveBytes bounds it per *depth*, so a spawn at depth d
/// copies only the prefix its child can ever read.
///
/// Contract: for any node (S, Depth) reached by the reference interpreter,
/// a State whose first liveBytes(S, Depth) bytes equal S and whose
/// remaining bytes are arbitrary must explore the identical subtree (same
/// results, same node counts) under search(·, ·, Depth). In particular the
/// bytes past the live prefix may be clobbered freely — the allocator
/// stores freelist links in recycled buffers.
template <typename P>
concept HasLiveBytes =
    SearchProblem<P> &&
    requires(const P &Prob, const typename P::State &S, int Depth) {
      { Prob.liveBytes(S, Depth) } -> std::convertible_to<std::size_t>;
    };

/// Bytes to copy when handing (S, Depth) to a spawned child: the
/// problem's liveBytes hint when present (clamped to sizeof(State)),
/// otherwise the full State.
template <SearchProblem P>
inline std::size_t liveStateBytes(const P &Prob, const typename P::State &S,
                                  int Depth) {
  if constexpr (HasLiveBytes<P>) {
    std::size_t Live = Prob.liveBytes(S, Depth);
    return Live < sizeof(typename P::State) ? Live
                                            : sizeof(typename P::State);
  } else {
    (void)Prob;
    (void)S;
    (void)Depth;
    return sizeof(typename P::State);
  }
}

/// The per-spawn workspace copy, shaped to what the compiler can do with
/// it. A problem without a liveBytes hint copies the whole State — a
/// compile-time-size memcpy, which the compiler expands to the optimal
/// fixed move sequence. A hinted problem's copy length varies per spawn,
/// and a variable-length memcpy call costs more in size-dispatch than a
/// small hint saves; copying whole cache lines (copyLiveLines) keeps it
/// an inlined fixed-block loop instead. Requires stride-padded buffers
/// in the hinted case (slab chunks and every engine workspace are).
/// Returns the live byte count, for the CopiedBytes stat.
template <SearchProblem P>
inline std::size_t copyLiveState(const P &Prob, typename P::State *Dst,
                                 const typename P::State &S, int Depth) {
  if constexpr (HasLiveBytes<P>) {
    const std::size_t Live = liveStateBytes(Prob, S, Depth);
    copyLiveLines(Dst, &S, Live);
    return Live;
  } else {
    (void)Depth;
    std::memcpy(static_cast<void *>(Dst), static_cast<const void *>(&S),
                sizeof(typename P::State));
    return sizeof(typename P::State);
  }
}

/// Reference sequential interpreter ("the serial C program" every speedup
/// in the paper is measured against). Mutates \p S in place and restores
/// it before returning. Loop-aligned (support/Compiler.h) so the baseline
/// that overhead ratios divide by does not move with code placement.
template <SearchProblem P>
ATC_LOOP_ALIGNED typename P::Result
runSequential(P &Prob, typename P::State &S, int Depth = 0) {
  if (Prob.isLeaf(S, Depth))
    return Prob.leafResult(S, Depth);
  typename P::Result Acc{};
  int N = Prob.numChoices(S, Depth);
  for (int K = 0; K < N; ++K) {
    if (!Prob.applyChoice(S, Depth, K))
      continue;
    Acc += runSequential(Prob, S, Depth + 1);
    Prob.undoChoice(S, Depth, K);
  }
  return Acc;
}

/// Statistics about a problem's computation tree, gathered by profileTree.
struct TreeProfile {
  long long Nodes = 0;    ///< Total nodes visited (incl. root, excl. pruned).
  long long Leaves = 0;   ///< Nodes where isLeaf was true.
  int MaxDepth = 0;       ///< Deepest node.
  long long Pruned = 0;   ///< Choices rejected by applyChoice.
};

/// Walks the full computation tree and gathers shape statistics. Used by
/// the simulator to build statistically-matched synthetic trees for the
/// Figure 4 reproduction.
template <SearchProblem P>
void profileTree(P &Prob, typename P::State &S, TreeProfile &Out,
                 int Depth = 0) {
  ++Out.Nodes;
  if (Depth > Out.MaxDepth)
    Out.MaxDepth = Depth;
  if (Prob.isLeaf(S, Depth)) {
    ++Out.Leaves;
    return;
  }
  int N = Prob.numChoices(S, Depth);
  for (int K = 0; K < N; ++K) {
    if (!Prob.applyChoice(S, Depth, K)) {
      ++Out.Pruned;
      continue;
    }
    profileTree(Prob, S, Out, Depth + 1);
    Prob.undoChoice(S, Depth, K);
  }
}

} // namespace atc

#endif // ATC_CORE_PROBLEM_H
