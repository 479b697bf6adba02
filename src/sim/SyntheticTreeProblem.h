//===- sim/SyntheticTreeProblem.h - real-runtime tree workloads -*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bridges the Section-5.3 unbalanced trees to the *real* threaded
/// runtime: a SearchProblem whose computation tree is a SimTree (the
/// implicit LCG-generated trees of Figure 8 / Table 3), with a
/// configurable spin per node standing in for the paper's "execution
/// time of each node". The result counts leaves, which is a pure
/// function of the tree — so every scheduler must agree, at any thread
/// count, on any tree shape.
///
/// The per-depth node stack is part of the State, so the workspace-copy
/// machinery (taskprivate, including the per-depth liveBytes hint) is
/// exercised exactly as for the puzzle benchmarks.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_SIM_SYNTHETICTREEPROBLEM_H
#define ATC_SIM_SYNTHETICTREEPROBLEM_H

#include "sim/TreeGen.h"

#include <cassert>
#include <cstring>

namespace atc {

/// SearchProblem over an implicit SimTree.
class SyntheticTreeProblem {
public:
  static constexpr int MaxDepth = 96;
  static constexpr int MaxFan = 16;

  struct State {
    /// Node[D] is the node whose children are being explored at depth D.
    SimTreeNode Node[MaxDepth];
  };
  using Result = long long;

  /// \p SpinPerNode: iterations of a side-effect-free spin charged at
  /// every node visit (0 = pure scheduling stress).
  explicit SyntheticTreeProblem(TreeSpec Spec, int SpinPerNode = 0)
      : Tree(Spec), Spin(SpinPerNode) {
    assert(Spec.MaxFanout <= MaxFan && "fanout above problem limit");
  }

  State makeRoot() const {
    State S;
    std::memset(&S, 0, sizeof(S));
    S.Node[0] = Tree.root();
    return S;
  }

  const SimTree &tree() const { return Tree; }

  bool isLeaf(const State &S, int Depth) const {
    return S.Node[Depth].Size <= 1;
  }

  Result leafResult(const State &S, int Depth) const {
    spin();
    (void)S;
    (void)Depth;
    return 1;
  }

  int numChoices(const State &S, int Depth) const {
    Tree.children(S.Node[Depth], scratch());
    return static_cast<int>(scratch().size());
  }

  bool applyChoice(State &S, int Depth, int K) const {
    assert(Depth + 1 < MaxDepth && "tree deeper than problem limit");
    // Regenerate deterministically; the scratch buffer may have been
    // clobbered by a sibling's recursion between numChoices and here.
    Tree.children(S.Node[Depth], scratch());
    S.Node[Depth + 1] = scratch()[static_cast<std::size_t>(K)];
    if (K == 0)
      spin(); // charge the internal node's work once, on its first child
    return true;
  }

  void undoChoice(State &, int, int) const {}

  /// Search at depth d reads Node[d] and overwrites Node[d + 1..] before
  /// reading them, so a spawn copies only the path down to its depth
  /// rather than the whole MaxDepth-node stack.
  std::size_t liveBytes(const State &, int Depth) const {
    return static_cast<std::size_t>(Depth + 1) * sizeof(SimTreeNode);
  }

  /// Leaves of the whole tree (the oracle every run must produce).
  long long expectedLeaves() const { return Tree.walk().Leaves; }

private:
  void spin() const {
    volatile int Sink = 0;
    for (int I = 0; I < Spin; ++I)
      Sink = Sink + I;
  }

  /// Per-thread expansion buffer: the problem object is shared by all
  /// workers.
  static std::vector<SimTreeNode> &scratch() {
    thread_local std::vector<SimTreeNode> Buf;
    return Buf;
  }

  SimTree Tree;
  int Spin;
};

} // namespace atc

#endif // ATC_SIM_SYNTHETICTREEPROBLEM_H
