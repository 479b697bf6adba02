//===- sim/TreeGen.cpp - Deterministic implicit computation trees ---------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/TreeGen.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace atc;

int SimTree::maxChildren() const {
  return std::max(Spec.MaxFanout,
                  static_cast<int>(Spec.Depth1SharesPercent.size()));
}

void SimTree::children(const SimTreeNode &Node,
                       std::vector<SimTreeNode> &Out) const {
  Out.resize(static_cast<std::size_t>(maxChildren()));
  Out.resize(static_cast<std::size_t>(children(Node, Out.data())));
}

int SimTree::children(const SimTreeNode &Node, SimTreeNode *Out) const {
  if (Node.Size <= 1)
    return 0;

  Lcg Rng(Node.Seed);
  long long Budget = Node.Size - 1;
  int N = 0;

  // Depth-1 override: reproduce the published first-level splits. The
  // sizes must partition the budget exactly — the simulator's termination
  // condition counts every node of spec().TotalNodes.
  if (Node.Depth == 0 && !Spec.Depth1SharesPercent.empty()) {
    double Total = 0;
    for (double S : Spec.Depth1SharesPercent)
      Total += S;
    const int Shares = static_cast<int>(Spec.Depth1SharesPercent.size());
    long long Assigned = 0;
    for (int I = 0; I < Shares; ++I) {
      long long Sz = static_cast<long long>(
          static_cast<double>(Budget) *
          Spec.Depth1SharesPercent[static_cast<std::size_t>(I)] / Total);
      Sz = std::min(Sz, Budget - Assigned);
      Out[I].Size = Sz;
      Assigned += Sz;
    }
    // Rounding leftover goes to the largest child.
    if (Assigned < Budget && Shares > 0) {
      int Largest = 0;
      for (int I = 1; I < Shares; ++I)
        if (Out[I].Size > Out[Largest].Size)
          Largest = I;
      Out[Largest].Size += Budget - Assigned;
    }
    // Empty shares are dropped; the survivors keep their share's seed.
    for (int I = 0; I < Shares; ++I)
      if (Out[I].Size >= 1)
        Out[N++] = {mix64(Node.Seed + 0x9e37 * std::uint64_t(I + 1)),
                    Out[I].Size, 1};
  } else {
    int Span = Spec.MaxFanout - Spec.MinFanout + 1;
    int Fanout = Spec.MinFanout +
                 static_cast<int>(Rng.nextBelow(
                     static_cast<std::uint64_t>(Span)));
    long long Remaining = Budget;
    for (int I = 0; I < Fanout && Remaining > 0; ++I) {
      long long Sz;
      if (I + 1 == Fanout) {
        Sz = Remaining;
      } else if (Spec.EvenSplit) {
        Sz = std::max<long long>(Budget / Fanout, 1);
        Sz = std::min(Sz, Remaining);
      } else {
        // Stick breaking: child I takes u^Skew of the remaining budget.
        double U = Rng.nextDouble();
        if (U <= 0)
          U = 1e-9;
        double Frac = std::pow(U, Spec.Skew);
        Sz = static_cast<long long>(
            static_cast<double>(Remaining) * Frac);
        Sz = std::max<long long>(Sz, 1);
        Sz = std::min(Sz, Remaining);
      }
      Remaining -= Sz;
      Out[N++] = {mix64(Node.Seed + 0xA11CE * (I + 1)), Sz, Node.Depth + 1};
    }
    // Largest-first by construction is only a tendency; enforce it so
    // Mirror gives a strict left/right-heavy pair. A stable insertion
    // sort: at most MaxFanout elements, and no allocation.
    for (int I = 1; I < N; ++I) {
      const SimTreeNode Kid = Out[I];
      int J = I;
      for (; J > 0 && Out[J - 1].Size < Kid.Size; --J)
        Out[J] = Out[J - 1];
      Out[J] = Kid;
    }
  }

  if (Spec.Mirror)
    std::reverse(Out, Out + N);
  return N;
}

SimTree::WalkStats SimTree::walk() const {
  WalkStats Stats;
  std::vector<SimTreeNode> Stack{root()};
  std::vector<SimTreeNode> Kids;
  while (!Stack.empty()) {
    SimTreeNode N = Stack.back();
    Stack.pop_back();
    ++Stats.Nodes;
    Stats.MaxDepth = std::max(Stats.MaxDepth, N.Depth);
    children(N, Kids);
    if (Kids.empty())
      ++Stats.Leaves;
    for (const SimTreeNode &K : Kids)
      Stack.push_back(K);
  }
  return Stats;
}

std::vector<double> SimTree::depth1SharePercent() const {
  std::vector<SimTreeNode> Kids;
  children(root(), Kids);
  std::vector<double> Shares;
  Shares.reserve(Kids.size());
  for (const SimTreeNode &K : Kids)
    Shares.push_back(100.0 * static_cast<double>(K.Size) /
                     static_cast<double>(Spec.TotalNodes));
  return Shares;
}

TreeSpec SimTree::preset(const std::string &Name, long long TotalNodes) {
  TreeSpec Spec;
  Spec.TotalNodes = TotalNodes;

  // Published depth-1 percentages from Table 3 (left-heavy variants; the
  // R variants are mirrors) and Figure 8's Sudoku tree.
  const std::vector<double> Tree1 = {42.512, 25.362, 13.019, 4.936,
                                     0.416,  11.771, 1.984};
  const std::vector<double> Tree2 = {74.492, 20.791, 1.106, 2.732,
                                     0.637,  0.049,  0.193};
  const std::vector<double> Tree3 = {89.675, 6.891, 1.836, 0.819,
                                     0.645,  0.026, 0.108};
  const std::vector<double> Fig8 = {61.04, 27.99, 10.97};

  auto SortedDesc = [](std::vector<double> V) {
    std::sort(V.begin(), V.end(), std::greater<double>());
    return V;
  };

  if (Name == "tree1l" || Name == "tree1r") {
    Spec.Depth1SharesPercent = SortedDesc(Tree1);
    Spec.Skew = 0.8;
    Spec.Seed = 0x7331;
    Spec.Mirror = (Name == "tree1r");
    return Spec;
  }
  if (Name == "tree2l" || Name == "tree2r") {
    Spec.Depth1SharesPercent = SortedDesc(Tree2);
    Spec.Skew = 0.55;
    Spec.Seed = 0x7332;
    Spec.Mirror = (Name == "tree2r");
    return Spec;
  }
  if (Name == "tree3l" || Name == "tree3r") {
    Spec.Depth1SharesPercent = SortedDesc(Tree3);
    Spec.Skew = 0.4;
    Spec.Seed = 0x7333;
    Spec.Mirror = (Name == "tree3r");
    return Spec;
  }
  if (Name == "fig8" || Name == "input1" || Name == "input2") {
    // Figure 8's nested percentages imply a heavy-path retention of
    // roughly 0.5-0.8 per level; Skew = 0.8 lands in that band under
    // stick breaking and reproduces Figure 9's system ordering.
    Spec.Depth1SharesPercent = Fig8;
    Spec.Skew = 0.8;
    Spec.MaxFanout = 9;
    Spec.Seed = 0xF1608;
    Spec.Mirror = (Name == "input2");
    return Spec;
  }
  if (Name == "balanced") {
    Spec.EvenSplit = true;
    Spec.MinFanout = 4;
    Spec.MaxFanout = 9;
    Spec.Seed = 0xBA1A;
    return Spec;
  }
  reportFatalError("unknown tree preset '" + Name + "'");
}

std::vector<std::string> SimTree::presetNames() {
  return {"tree1l", "tree1r", "tree2l", "tree2r", "tree3l",
          "tree3r", "fig8",   "input1", "input2", "balanced"};
}
