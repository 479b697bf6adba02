//===- sim/CostModel.cpp - Virtual-time cost model ------------------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/CostModel.h"

#include "deque/TheDeque.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstring>
#include <memory>

using namespace atc;

std::string CostModel::describe() const {
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "node=%.0fns task=%.0fns deque=%.0fns alloc=%.0fns "
                "copy=%.3fns/B state=%dB poll=%.0fns tascell_frame=%.0fns "
                "steal=%.0fns steal_fail=%.0fns rtt=%.0fns backtrack=%.0fns "
                "sleep=%.0fns",
                NodeWorkNs, TaskCreateNs, DequeOpNs, AllocNs, CopyNsPerByte,
                StateBytes, PollNs, TascellFrameNs, StealNs, StealFailNs,
                RequestRoundTripNs, BacktrackStepNs, SleepNs);
  return Buf;
}

namespace {

/// Times \p Fn over \p Iters iterations and returns ns per iteration.
template <typename FnT> double perIterationNs(int Iters, FnT &&Fn) {
  std::uint64_t Begin = nowNanos();
  for (int I = 0; I < Iters; ++I)
    Fn(I);
  return static_cast<double>(nowNanos() - Begin) /
         static_cast<double>(Iters);
}

} // namespace

CostModel CostModel::calibrate() {
  CostModel M;
  constexpr int Iters = 20000;

  // Frame-sized allocation + free (task creation).
  M.TaskCreateNs = perIterationNs(Iters, [](int) {
    void *P = ::operator new(192);
    // Touch so the allocation is not elided.
    static_cast<volatile char *>(P)[0] = 1;
    ::operator delete(P);
  });

  // THE deque push + pop pair.
  {
    TheDeque D(64);
    M.DequeOpNs = perIterationNs(Iters, [&D](int) {
      D.tryPush(&D);
      (void)D.pop();
    });
  }

  // Workspace allocation.
  M.AllocNs = perIterationNs(Iters, [](int) {
    void *P = ::operator new(128);
    static_cast<volatile char *>(P)[0] = 1;
    ::operator delete(P);
  });

  // memcpy per byte over a cache-resident 4 KiB buffer.
  {
    constexpr int Bytes = 4096;
    auto Src = std::make_unique<char[]>(Bytes);
    auto Dst = std::make_unique<char[]>(Bytes);
    std::memset(Src.get(), 1, Bytes);
    double PerCopy = perIterationNs(Iters, [&](int) {
      std::memcpy(Dst.get(), Src.get(), Bytes);
      static_cast<volatile char *>(Dst.get())[0] = Dst[0];
    });
    M.CopyNsPerByte = PerCopy / Bytes;
  }

  return M;
}
