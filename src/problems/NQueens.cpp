//===- problems/NQueens.cpp - The n-queens scheduler matrices -------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "problems/ProblemRegistry.h"

namespace atc {
ATC_RUN_PROBLEM_INSTANTIATION(NQueensArray);
ATC_RUN_PROBLEM_INSTANTIATION(NQueensCompute);
} // namespace atc
