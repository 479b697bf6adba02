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
/// A node's children are generated once per visit: numChoices expands
/// them into a per-thread, per-depth memo, and each applyChoice reads
/// its child from there in O(1). The memo is keyed by this instance's id
/// and the node's seed and size, so a continuation resumed on another
/// thread, or a thread that ran other work at the same depth in between,
/// finds no match and regenerates. The per-node cost is then the spin
/// plus one expansion, as in the paper, where a node's only cost is its
/// execution time.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_SIM_SYNTHETICTREEPROBLEM_H
#define ATC_SIM_SYNTHETICTREEPROBLEM_H

#include "sim/TreeGen.h"
#include "support/Error.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>

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
      : Tree(std::move(Spec)), Spin(SpinPerNode) {
    // The memo's inline child storage holds MaxFan nodes.
    if (Tree.maxChildren() > MaxFan)
      reportFatalError("tree fanout " + std::to_string(Tree.maxChildren()) +
                       " above the problem limit " + std::to_string(MaxFan));
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
    return expand(S.Node[Depth], Depth).Count;
  }

  bool applyChoice(State &S, int Depth, int K) const {
    assert(Depth + 1 < MaxDepth && "tree deeper than problem limit");
    const Expansion &E = expand(S.Node[Depth], Depth);
    assert(K < E.Count && "choice out of range");
    S.Node[Depth + 1] = E.Kids[K];
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

  /// One thread's last expansion at one depth. Trivially destructible
  /// and zero-initialized, so the thread_local array needs no init guard;
  /// Id 0 is never handed out, so an unused entry matches no node.
  struct Expansion {
    std::uint64_t Id;
    std::uint64_t Seed;
    long long Size;
    int Count;
    SimTreeNode Kids[MaxFan];
  };

  /// The children of \p Node (which sits at \p Depth), expanded on this
  /// thread unless its memo entry for Depth already holds them. The key
  /// carries the instance id rather than the address: a problem built
  /// where another one was freed must not read that one's expansions.
  const Expansion &expand(const SimTreeNode &Node, int Depth) const {
    thread_local Expansion Memo[MaxDepth];
    Expansion &E = Memo[Depth];
    if (E.Id != Id || E.Seed != Node.Seed || E.Size != Node.Size) {
      E.Count = Tree.children(Node, E.Kids);
      E.Id = Id;
      E.Seed = Node.Seed;
      E.Size = Node.Size;
    }
    return E;
  }

  inline static std::atomic<std::uint64_t> NextId{1};

  SimTree Tree;
  int Spin;
  std::uint64_t Id = NextId.fetch_add(1, std::memory_order_relaxed);
};

} // namespace atc

#endif // ATC_SIM_SYNTHETICTREEPROBLEM_H
