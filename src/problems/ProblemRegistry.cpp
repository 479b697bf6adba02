//===- problems/ProblemRegistry.cpp - Name-keyed problem factory ----------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "problems/ProblemRegistry.h"

#include <cctype>
#include <memory>

using namespace atc;

namespace {

/// Canonicalizes a kind name: lower-case, '_' → '-'.
std::string canonicalKind(const std::string &Name) {
  std::string Out;
  Out.reserve(Name.size());
  for (char C : Name)
    Out += C == '_'
               ? '-'
               : static_cast<char>(
                     std::tolower(static_cast<unsigned char>(C)));
  return Out;
}

/// Fills the closures of \p R from a shared problem object and a root
/// state: the one type-erasure point for every kind below.
template <typename ProbT>
void bindRunner(ProblemRunner &R, std::shared_ptr<ProbT> Prob,
                typename ProbT::State Root) {
  R.StateBytes = static_cast<int>(sizeof(Root));
  R.Run = [Prob, Root](const SchedulerConfig &Cfg) {
    return runProblem(*Prob, Root, Cfg);
  };
  R.RunSequential = [Prob, Root]() {
    auto S = Root;
    return static_cast<long long>(runSequential(*Prob, S));
  };
  R.Profile = [Prob, Root]() {
    TreeProfile T;
    auto S = Root;
    profileTree(*Prob, S, T);
    return T;
  };
}

struct KindDef {
  const char *Name;
  int DefaultSize;   ///< Scaled: same tree shape, milliseconds to run.
  int PublishedSize; ///< The paper's Table-1 input (minutes to hours).
  int MinSize;
  int MaxSize;
  void (*Build)(ProblemRunner &, int Size);
};

const KindDef Kinds[] = {
    // Paper: n = 16. Scaled: n = 11 keeps the run in tens of
    // milliseconds with the same branching structure.
    {"nqueens-array", 11, 16, 1, NQueensArray::MaxN,
     [](ProblemRunner &R, int Size) {
       bindRunner(R, std::make_shared<NQueensArray>(),
                  NQueensArray::makeRoot(Size));
     }},
    {"nqueens-compute", 11, 16, 1, NQueensCompute::MaxN,
     [](ProblemRunner &R, int Size) {
       bindRunner(R, std::make_shared<NQueensCompute>(),
                  NQueensCompute::makeRoot(Size));
     }},
    {"fib", 27, 45, 1, 45,
     [](ProblemRunner &R, int Size) {
       bindRunner(R, std::make_shared<FibProblem>(),
                  FibProblem::makeRoot(Size));
     }},
    {"comp", 6000, 60000, 1, 60000,
     [](ProblemRunner &R, int Size) {
       auto Prob = std::make_shared<CompProblem>(Size);
       auto Root = Prob->makeRoot();
       bindRunner(R, std::move(Prob), Root);
     }},
    // Paper: 6x6. Scaled: 5x5 from the corner (the classic 304 tours).
    {"knights", 5, 6, 1, KnightsTour::MaxN,
     [](ProblemRunner &R, int Size) {
       bindRunner(R, std::make_shared<KnightsTour>(),
                  KnightsTour::makeRoot(Size, 0, 0));
     }},
    // Paper: a 7x7 puzzle. Broken-diagonal stream layouts only admit
    // solutions when the order is coprime to 6, so 5 is the natural
    // scaled sibling of 7.
    {"strimko", 5, 7, 1, Strimko::MaxN,
     [](ProblemRunner &R, int Size) {
       bindRunner(R, std::make_shared<Strimko>(), Strimko::makeRoot(Size));
     }},
    // Sudoku instances are named, not sized: 0 = balance, 1 = input1,
    // 2 = input2, 3 = balance-large (the published Figure 4e input).
    {"sudoku", 0, 3, 0, 3,
     [](ProblemRunner &R, int Size) {
       const char *const Inst[] = {"balance", "input1", "input2",
                                   "balance-large"};
       bindRunner(R, std::make_shared<Sudoku>(),
                  Sudoku::makeInstance(Inst[Size]));
     }},
    // Size = piece count on a Size x 5 board (Width * Height == 5 *
    // Pieces holds by construction; 13 is the paper's expanded setup).
    {"pentomino", 6, 13, 3, 13,
     [](ProblemRunner &R, int Size) {
       auto Prob = std::make_shared<Pentomino>(Size, 5, Size);
       auto Root = Prob->makeRoot();
       bindRunner(R, std::move(Prob), Root);
     }},
};

const KindDef *findKind(const std::string &Name) {
  std::string Canon = canonicalKind(Name);
  for (const KindDef &K : Kinds)
    if (Canon == K.Name)
      return &K;
  return nullptr;
}

} // namespace

bool atc::makeProblemRunner(const std::string &Kind, int Size,
                            ProblemRunner &Out, std::string &Error) {
  const KindDef *K = findKind(Kind);
  if (!K) {
    Error = "unknown problem kind '" + Kind + "' (known:";
    for (const std::string &Name : problemRegistryKinds())
      Error += " " + Name;
    Error += ")";
    return false;
  }
  if (Size == 0)
    Size = K->DefaultSize;
  if (Size < K->MinSize || Size > K->MaxSize) {
    Error = "size " + std::to_string(Size) + " out of range [" +
            std::to_string(K->MinSize) + ", " + std::to_string(K->MaxSize) +
            "] for problem kind '" + K->Name + "'";
    return false;
  }
  Out = ProblemRunner();
  Out.Kind = K->Name;
  Out.Size = Size;
  Out.Workload = std::string(K->Name) + "-" + std::to_string(Size);
  K->Build(Out, Size);
  return true;
}

const std::vector<std::string> &atc::problemRegistryKinds() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> V;
    for (const KindDef &K : Kinds)
      V.push_back(K.Name);
    return V;
  }();
  return Names;
}

int atc::problemDefaultSize(const std::string &Kind) {
  const KindDef *K = findKind(Kind);
  return K ? K->DefaultSize : -1;
}

int atc::problemPublishedSize(const std::string &Kind) {
  const KindDef *K = findKind(Kind);
  return K ? K->PublishedSize : -1;
}
