//===- tools/atc_server.cpp - Scheduler-as-a-service daemon ---------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scheduler service daemon: one persistent worker pool, a fair job
/// queue with admission control, and the loopback HTTP API from
/// server/Server.h. See docs/SERVING.md for the walkthrough.
///
///   atc_server --threads=4 --port=9900
///   curl -d '{"problem": "nqueens-array"}' http://127.0.0.1:9900/job
///   curl 'http://127.0.0.1:9900/result/1?wait=5000'
///
/// Runs until SIGINT/SIGTERM or a POST /shutdown, then drains the queue
/// and exits.
///
//===----------------------------------------------------------------------===//

#include "server/Server.h"
#include "support/Options.h"

#include <atomic>
#include <csignal>
#include <cstdio>

#include <unistd.h>

using namespace atc;

namespace {

std::atomic<bool> SignalStop{false};

void onSignal(int) { SignalStop.store(true, std::memory_order_release); }

} // namespace

int main(int argc, char **argv) {
  long long Threads = 4;
  long long Port = 9900;
  long long HttpThreads = 8;
  long long MaxQueued = 256;
  long long SoftWatermark = 64;
  long long DepthWatermark = 0;
  OptionSet Opts("Scheduler-as-a-service daemon (see docs/SERVING.md)");
  Opts.addInt("threads", &Threads,
              "persistent worker-pool width (default 4)", 1,
              MaxThreadsFlag);
  Opts.addInt("port", &Port,
              "loopback HTTP port; 0 picks an ephemeral one (default 9900)");
  Opts.addInt("http-threads", &HttpThreads,
              "HTTP serving threads (default 8)", 1, MaxThreadsFlag);
  Opts.addInt("max-queued", &MaxQueued,
              "hard admission cap: jobs queued beyond this are shed "
              "(default 256)");
  Opts.addInt("queue-watermark", &SoftWatermark,
              "soft queue watermark where the deque-depth backpressure "
              "check starts applying (default 64)");
  Opts.addInt("depth-watermark", &DepthWatermark,
              "live deque-depth watermark for backpressure shedding; "
              "0 disables (default 0)");
  Opts.parse(argc, argv);

  JobServerOptions O;
  O.PoolThreads = static_cast<int>(Threads);
  O.HttpPort = static_cast<int>(Port);
  O.HttpThreads = static_cast<int>(HttpThreads);
  O.MaxQueuedJobs = static_cast<std::size_t>(MaxQueued);
  O.QueueSoftWatermark = static_cast<std::size_t>(SoftWatermark);
  O.DequeDepthWatermark = DepthWatermark;

  JobServer Server(O);
  if (!Server.start()) {
    std::fprintf(stderr, "atc_server: cannot bind 127.0.0.1:%lld\n", Port);
    return 1;
  }
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  std::printf("atc_server: pool=%d threads, http=127.0.0.1:%d, "
              "max-queued=%lld\n",
              Server.pool().size(), Server.httpPort(), MaxQueued);
  std::fflush(stdout);

  while (!SignalStop.load(std::memory_order_acquire) &&
         !Server.shutdownRequested())
    ::usleep(50 * 1000);

  std::printf("atc_server: draining...\n");
  Server.stop();
  JobServer::Totals T = Server.totals();
  std::printf("atc_server: done — %llu submitted, %llu completed, "
              "%llu shed, %llu expired, %llu failed\n",
              static_cast<unsigned long long>(T.Submitted),
              static_cast<unsigned long long>(T.Completed),
              static_cast<unsigned long long>(T.Shed),
              static_cast<unsigned long long>(T.Expired),
              static_cast<unsigned long long>(T.Failed));
  return 0;
}
