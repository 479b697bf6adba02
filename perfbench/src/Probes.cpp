//===- perfbench/src/Probes.cpp - Per-layer probes ------------------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Probes that time one layer's public operation in isolation: the
/// configured (THE) deque's push/pop and steal, an empty-body
/// SchedulerPool::dispatch, and the server's GET /healthz round trip.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "core/SchedulerPool.h"
#include "deque/TheDeque.h"
#include "server/Server.h"
#include "support/Error.h"
#include "support/LoopbackHttp.h"

#include <thread>

using namespace perfbench;
using atc::nowNanos;

namespace {

/// Nanoseconds per tryPush + pop pair on an uncontended deque.
double pushPopNs(SpanLog &L) {
  constexpr int Ops = 1'000'000;
  atc::TheDeque D;
  int Item = 0;
  std::vector<double> Ns;
  for (int Rep = 0; Rep != 5; ++Rep) {
    std::uint64_t T0 = nowNanos();
    for (int I = 0; I != Ops; ++I) {
      D.tryPush(&Item);
      D.pop();
    }
    std::uint64_t T1 = nowNanos();
    L.add("deque.push_pop", T0, T1);
    Ns.push_back(static_cast<double>(T1 - T0) / Ops);
  }
  return median(Ns);
}

/// Nanoseconds per successful steal by a thief thread draining a full,
/// otherwise idle deque.
double stealNs(Report &R, SpanLog &L) {
  constexpr int Items = 4096;
  atc::TheDeque D(Items);
  int Item = 0;
  std::vector<double> Ns;
  for (int Rep = 0; Rep != 20; ++Rep) {
    D.reset();
    for (int I = 0; I != Items; ++I)
      D.tryPush(&Item);
    int Stolen = 0;
    std::uint64_t T0 = 0, T1 = 0;
    std::thread Thief([&] {
      T0 = nowNanos();
      for (int I = 0; I != Items; ++I)
        Stolen += D.steal().Status == atc::StealResult::Status::Success;
      T1 = nowNanos();
    });
    Thief.join();
    L.add("deque.steal", T0, T1);
    R.check(Stolen == Items, "thief drained the deque");
    Ns.push_back(static_cast<double>(T1 - T0) / Items);
  }
  return median(Ns);
}

} // namespace

void perfbench::addLayerProbes(Report &R, SpanLog &L) {
  R.add("deque.push_pop_ns", pushPopNs(L), "ns");
  R.add("deque.steal_ns", stealNs(R, L), "ns");

  {
    atc::SchedulerPool Pool(4);
    std::vector<double> Us[2];
    for (int Rep = 0; Rep != 2000; ++Rep) {
      int Width = Rep % 2 == 0 ? 1 : 4;
      std::uint64_t T0 = nowNanos();
      Pool.dispatch(Width, [](int) {});
      std::uint64_t T1 = nowNanos();
      L.add("pool.dispatch", T0, T1);
      Us[Width == 4].push_back(static_cast<double>(T1 - T0) * 1e-3);
    }
    R.add("pool.dispatch_us_w1", median(Us[0]), "us");
    R.add("pool.dispatch_us_w4", median(Us[1]), "us");
  }

  atc::JobServerOptions Opts;
  Opts.HttpPort = 0;
  Opts.HttpThreads = 4;
  atc::JobServer Server(Opts);
  if (!Server.start())
    atc::reportFatalError("perfbench: cannot bind a loopback port");
  std::vector<double> Us;
  for (int Rep = 0; Rep != 300; ++Rep) {
    int Status = 0;
    std::string Body;
    std::uint64_t T0 = nowNanos();
    bool Ok = atc::httpRequest(Server.httpPort(), "GET", "/healthz", "",
                               Status, Body);
    std::uint64_t T1 = nowNanos();
    L.add("http.healthz", T0, T1);
    R.check(Ok && Status == 200, "GET /healthz");
    Us.push_back(static_cast<double>(T1 - T0) * 1e-3);
  }
  R.add("http.healthz_us", median(Us), "us");
}
