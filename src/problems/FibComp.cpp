//===- problems/FibComp.cpp - The Fib and Comp scheduler matrices ---------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "problems/ProblemRegistry.h"

namespace atc {
ATC_RUN_PROBLEM_INSTANTIATION(FibProblem);
ATC_RUN_PROBLEM_INSTANTIATION(CompProblem);
} // namespace atc
