//===- problems/Strimko.cpp - The Strimko scheduler matrix ----------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "problems/ProblemRegistry.h"

namespace atc {
ATC_RUN_PROBLEM_INSTANTIATION(Strimko);
} // namespace atc
