//===- sim/TreeGen.h - Deterministic implicit computation trees -*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, implicitly-represented computation trees for the
/// simulator — the paper's Section 5.3 workloads. Following Table 3's
/// recipe: "We use a random function x_i = (x_{i-1} * A + C) mod M to
/// generate a fixed random sequence ... x_i is localized in each node and
/// is used to get the size of each sub-tree. When the tree size and the
/// initial seed are defined, the same unbalanced tree can be generated in
/// multiple executions."
///
/// A node is (seed, subtree size, depth); children are derived on demand
/// by stick-breaking the size budget with the node-local LCG stream, so a
/// two-billion-node tree needs no materialization. Presets reproduce the
/// published tree shapes (Tree1L/R .. Tree3L/R depth-1 percentages,
/// Figure 8's Sudoku tree) at a configurable scale; Tree*R is the
/// mirrored (right-heavy) variant, obtained by reversing child order.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_SIM_TREEGEN_H
#define ATC_SIM_TREEGEN_H

#include "support/Prng.h"

#include <cstdint>
#include <string>
#include <vector>

namespace atc {

/// One implicit tree node: everything below it regenerates from Seed.
struct SimTreeNode {
  std::uint64_t Seed;
  long long Size; ///< Nodes in the subtree rooted here (>= 1).
  int Depth;
};

/// Shape parameters of a generated tree.
struct TreeSpec {
  /// Total node count (the paper's trees have ~1.96e9; the default scale
  /// keeps simulation time bounded while preserving shape).
  long long TotalNodes = 2'000'000;

  std::uint64_t Seed = 0x7EEE5EED;

  /// Children per internal node are drawn from [MinFanout, MaxFanout].
  int MinFanout = 2;
  int MaxFanout = 7;

  /// Heaviness: each stick-breaking draw takes fraction u^Skew of the
  /// remaining budget (u uniform in (0,1)). Skew < 1 biases toward large
  /// first children (unbalanced trees); Skew = 1 is moderately uneven;
  /// large Skew approaches balanced-ish splits.
  double Skew = 1.0;

  /// When set, children are emitted in ascending-size order, making the
  /// tree right-heavy (the paper's Tree*R mirrors).
  bool Mirror = false;

  /// When set, the budget is split evenly among the children (balanced
  /// computation trees); Skew is ignored.
  bool EvenSplit = false;

  /// Optional explicit depth-1 size shares (percent, need not sum to
  /// 100; normalized). Reproduces Table 3's published first-level
  /// splits.
  std::vector<double> Depth1SharesPercent;
};

/// Implicit deterministic tree.
class SimTree {
public:
  explicit SimTree(TreeSpec Spec) : Spec(std::move(Spec)) {}

  const TreeSpec &spec() const { return Spec; }

  SimTreeNode root() const { return {Spec.Seed, Spec.TotalNodes, 0}; }

  /// Expands \p Node's children into \p Out (replacing its contents).
  /// Leaves (Size == 1) produce none. Deterministic in Node.Seed.
  void children(const SimTreeNode &Node, std::vector<SimTreeNode> &Out) const;

  /// The same expansion into caller storage of at least maxChildren()
  /// entries; returns the child count. Allocates nothing.
  int children(const SimTreeNode &Node, SimTreeNode *Out) const;

  /// Upper bound on the children of any node of this tree.
  int maxChildren() const;

  /// Walks the whole tree, returning (nodes, leaves, max depth). O(size);
  /// intended for tests and for validating presets at small scales.
  struct WalkStats {
    long long Nodes = 0;
    long long Leaves = 0;
    int MaxDepth = 0;
  };
  WalkStats walk() const;

  /// Sizes of the depth-1 subtrees as percentages of the whole tree.
  std::vector<double> depth1SharePercent() const;

  /// Named presets at the given scale:
  ///   "tree1l".."tree3l"  - Table 3 left-heavy trees (published depth-1
  ///                         shares),
  ///   "tree1r".."tree3r"  - their right-heavy mirrors,
  ///   "fig8"/"input1"     - the Sudoku-derived unbalanced tree of Fig. 8,
  ///   "input2"            - its mirror,
  ///   "balanced"          - near-even splits (the balanced Sudoku tree).
  /// Unknown names are a fatal error.
  static TreeSpec preset(const std::string &Name,
                         long long TotalNodes = 2'000'000);

  /// Returns the list of preset names (for harness --help text).
  static std::vector<std::string> presetNames();

private:
  TreeSpec Spec;
};

} // namespace atc

#endif // ATC_SIM_TREEGEN_H
