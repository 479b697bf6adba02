//===- problems/KnightsTour.cpp - The Knight's Tour scheduler matrix ------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "problems/ProblemRegistry.h"

namespace atc {
ATC_RUN_PROBLEM_INSTANTIATION(KnightsTour);
} // namespace atc
