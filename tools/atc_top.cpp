//===- tools/atc_top.cpp - live scheduler metrics dashboard ---------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A top(1)-style terminal dashboard over the live-metrics registry
/// (docs/METRICS.md): one row per worker with its current FSM mode,
/// deque depth, need_task flag, steal/spawn rates, histogram medians,
/// and a mode-residency sparkline, refreshed every --period-ms.
///
/// Three data sources:
///
///  * File tailing (the usual pairing with --metrics-file): point it at
///    the Prometheus snapshot any metrics-aware CLI rewrites periodically.
///
///      ./build/examples/nqueens --workers 4 --metrics-file m.prom &
///      ./build/tools/atc_top m.prom
///
///  * HTTP scraping: point it at a /metrics endpoint — a MetricsSampler
///    --metrics-port, or atc_server, whose exposition additionally
///    carries the job-layer series rendered as a jobs strip
///    (queued/running/completed/shed plus p50/p99 job latency).
///
///      ./build/tools/atc_top http://127.0.0.1:9900/metrics
///
///  * --demo: runs a registry problem in-process in a loop with an armed
///    registry and polls the worker cells directly — a self-contained
///    way to watch the five-version FSM breathe without any plumbing.
///
///      ./build/tools/atc_top --demo --workers 4 --problem fib --n 32
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "metrics/Exposition.h"
#include "metrics/MetricsCli.h"
#include "metrics/MetricsRegistry.h"
#include "problems/ProblemRegistry.h"
#include "support/Error.h"
#include "support/LoopbackHttp.h"
#include "support/Options.h"
#include "support/Timer.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>

using namespace atc;

namespace {

std::atomic<bool> Interrupted{false};

void onSignal(int) { Interrupted.store(true, std::memory_order_relaxed); }

void appendf(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string &Out, const char *Fmt, ...) {
  char Buf[256];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  Out += Buf;
}

/// Human-scaled nanoseconds ("1.5us", "52ns", ...); "-" when zero.
std::string fmtNs(double Ns) {
  char Buf[32];
  if (Ns <= 0)
    std::snprintf(Buf, sizeof(Buf), "-");
  else if (Ns < 1e3)
    std::snprintf(Buf, sizeof(Buf), "%.0fns", Ns);
  else if (Ns < 1e6)
    std::snprintf(Buf, sizeof(Buf), "%.1fus", Ns / 1e3);
  else if (Ns < 1e9)
    std::snprintf(Buf, sizeof(Buf), "%.1fms", Ns / 1e6);
  else
    std::snprintf(Buf, sizeof(Buf), "%.2fs", Ns / 1e9);
  return Buf;
}

/// One letter per FSM mode for the residency sparkline, in TraceMode
/// order (the array length is checked against the enum at compile time).
constexpr char ModeChars[NumTraceModes] = {
    '.', // idle
    'f', // fast
    'c', // check
    '2', // fast_2
    'q', // sequence
    's', // slow
    'y', // sync_wait
    'w', // work (Tascell)
};

/// Renders \p W's mode residency as a fixed-width bar where each mode
/// gets a share of columns proportional to its accumulated nanoseconds.
std::string sparkline(const WorkerSample &W, int Width) {
  double Total = 0;
  for (unsigned M = 0; M != NumTraceModes; ++M)
    Total += static_cast<double>(W.ModeNs[M]);
  if (Total <= 0)
    return std::string(static_cast<std::size_t>(Width), ' ');
  std::string Bar;
  double Cum = 0;
  int Used = 0;
  for (unsigned M = 0; M != NumTraceModes; ++M) {
    Cum += static_cast<double>(W.ModeNs[M]);
    int End = static_cast<int>(Cum / Total * Width + 0.5);
    for (; Used < End; ++Used)
      Bar += ModeChars[M];
  }
  Bar.resize(static_cast<std::size_t>(Width), ' ');
  return Bar;
}

/// Job-layer series scraped from an atc_server /metrics exposition;
/// absent (Present == false) for plain per-run snapshots.
struct JobsStrip {
  bool Present = false;
  std::uint64_t Submitted = 0, Completed = 0, Shed = 0, Expired = 0;
  std::uint64_t Queued = 0, Running = 0;
  HistogramCounts LatencyNs;
};

/// Renders one dashboard frame. \p Prev (may be null) supplies the
/// previous snapshot for per-second rates; with no usable time delta the
/// rate columns show cumulative totals instead. \p Jobs (may be null)
/// adds the server jobs strip.
std::string renderFrame(const MetricsSnapshot &Cur,
                        const MetricsSnapshot *Prev, const MetricsMeta &Meta,
                        const JobsStrip *Jobs = nullptr) {
  double Dt = 0;
  if (Prev && Cur.TimeNs > Prev->TimeNs)
    Dt = static_cast<double>(Cur.TimeNs - Prev->TimeNs) * 1e-9;

  std::string Out;
  appendf(Out, "atc-top — %s on %s (%s), %d workers%s\n",
          Meta.Scheduler.empty() ? "?" : Meta.Scheduler.c_str(),
          Meta.Workload.empty() ? "?" : Meta.Workload.c_str(),
          Meta.Source.empty() ? "?" : Meta.Source.c_str(),
          static_cast<int>(Cur.Workers.size()),
          Dt > 0 ? "" : "  [no rate window yet: totals shown]");
  appendf(Out,
          "totals: tasks=%llu special=%llu steals=%llu fails=%llu "
          "deque_hw=%llu\n",
          static_cast<unsigned long long>(Cur.total(StatField::TasksCreated)),
          static_cast<unsigned long long>(Cur.total(StatField::SpecialTasks)),
          static_cast<unsigned long long>(Cur.total(StatField::Steals)),
          static_cast<unsigned long long>(Cur.total(StatField::StealFails)),
          static_cast<unsigned long long>(
              Cur.total(StatField::DequeHighWater)));
  if (Jobs && Jobs->Present)
    appendf(Out,
            "jobs:   queued=%llu running=%llu done=%llu shed=%llu "
            "expired=%llu  latency p50=%s p99=%s\n",
            static_cast<unsigned long long>(Jobs->Queued),
            static_cast<unsigned long long>(Jobs->Running),
            static_cast<unsigned long long>(Jobs->Completed),
            static_cast<unsigned long long>(Jobs->Shed),
            static_cast<unsigned long long>(Jobs->Expired),
            fmtNs(Jobs->LatencyNs.quantile(0.50)).c_str(),
            fmtNs(Jobs->LatencyNs.quantile(0.99)).c_str());
  appendf(Out, "%3s %-9s %4s %2s %10s %10s %10s %10s  %s\n", "w", "mode",
          "dq", "nt", "steals/s", "spawns/s",
          "steal p50", "spawn p50",
          "residency (f=fast c=check 2=fast_2 q=seq s=slow y=sync "
          "w=work .=idle)");

  for (std::size_t W = 0; W != Cur.Workers.size(); ++W) {
    const WorkerSample &Ws = Cur.Workers[W];
    auto Rate = [&](StatField F) {
      char Buf[32];
      std::uint64_t C = Ws.stat(F);
      if (Dt <= 0 || !Prev || W >= Prev->Workers.size()) {
        std::snprintf(Buf, sizeof(Buf), "%llu",
                      static_cast<unsigned long long>(C));
        return std::string(Buf);
      }
      std::uint64_t P = Prev->Workers[W].stat(F);
      double R = C >= P ? static_cast<double>(C - P) / Dt : 0.0;
      std::snprintf(Buf, sizeof(Buf), "%.1f", R);
      return std::string(Buf);
    };
    appendf(Out, "%3d %-9s %4lld %2s %10s %10s %10s %10s  [%s]\n",
            static_cast<int>(W), traceModeName(Ws.Mode),
            static_cast<long long>(Ws.DequeDepth), Ws.NeedTask ? "!" : "",
            Rate(StatField::Steals).c_str(),
            Rate(StatField::Spawns).c_str(),
            fmtNs(Ws.StealLatencyNs.quantile(0.5)).c_str(),
            fmtNs(Ws.SpawnCostNs.quantile(0.5)).c_str(),
            sparkline(Ws, 24).c_str());
  }
  return Out;
}

/// Rebuilds a MetricsSnapshot (plus meta and, when the exposition came
/// from atc_server, the jobs strip) from Prometheus exposition text — the
/// shared back half of the file-tailing and HTTP-scraping sources.
bool frameFromPromText(const std::string &Text, MetricsSnapshot &Snap,
                       MetricsMeta &Meta, JobsStrip &Jobs, std::string &Err) {
  std::vector<PromSample> Samples = parsePrometheus(Text);

  int NumWorkers = 0;
  for (const PromSample &S : Samples)
    if (S.Name == "atc_workers")
      NumWorkers = static_cast<int>(S.Value);
  if (NumWorkers <= 0) {
    Err = "no atc_workers sample (not an atc metrics snapshot?)";
    return false;
  }
  Snap = MetricsSnapshot();
  Snap.Workers.resize(static_cast<std::size_t>(NumWorkers));

  auto WorkerOf = [&](const PromSample &S) {
    auto It = S.Labels.find("worker");
    if (It == S.Labels.end())
      return -1;
    int W = std::atoi(It->second.c_str());
    return W >= 0 && W < NumWorkers ? W : -1;
  };
  auto ModeIdx = [](const std::string &Name) {
    for (int M = 0; M != NumTraceModes; ++M)
      if (Name == traceModeName(static_cast<TraceMode>(M)))
        return M;
    return -1;
  };

  // Name -> stat field, built once from the X-macro list.
  struct StatName {
    std::string Name;
    StatField Field;
  };
  std::vector<StatName> StatNames;
  for (unsigned F = 0; F != NumStatFields; ++F) {
    auto SF = static_cast<StatField>(F);
    StatNames.push_back({std::string("atc_") + statFieldPromName(SF) +
                             (statFieldIsGauge(SF) ? "" : "_total"),
                         SF});
  }

  // Histogram buckets arrive as increasing cumulative counts per worker;
  // PrevCum turns them back into per-bucket counts.
  struct HistDef {
    const char *Name;
    HistogramCounts WorkerSample::*Field;
    std::vector<std::uint64_t> PrevCum;
  };
  HistDef Hists[] = {
      {"atc_steal_latency_ns", &WorkerSample::StealLatencyNs, {}},
      {"atc_spawn_cost_ns", &WorkerSample::SpawnCostNs, {}},
      {"atc_deque_depth_hist", &WorkerSample::DequeDepthHist, {}},
      {"atc_reseed_interval_ns", &WorkerSample::ReseedIntervalNs, {}},
  };
  for (HistDef &H : Hists)
    H.PrevCum.assign(static_cast<std::size_t>(NumWorkers), 0);

  // Job-latency buckets are unlabelled (one series per server, not per
  // worker), so their cumulative-to-bucket state is a single scalar.
  std::uint64_t JobLatPrevCum = 0;

  for (const PromSample &S : Samples) {
    if (S.Name.compare(0, 9, "atc_jobs_") == 0) {
      Jobs.Present = true;
      if (S.Name == "atc_jobs_submitted_total")
        Jobs.Submitted = S.asU64();
      else if (S.Name == "atc_jobs_completed_total")
        Jobs.Completed = S.asU64();
      else if (S.Name == "atc_jobs_shed_total")
        Jobs.Shed = S.asU64();
      else if (S.Name == "atc_jobs_expired_total")
        Jobs.Expired = S.asU64();
      else if (S.Name == "atc_jobs_queued")
        Jobs.Queued = S.asU64();
      else if (S.Name == "atc_jobs_running")
        Jobs.Running = S.asU64();
      continue;
    }
    if (S.Name.compare(0, 18, "atc_job_latency_ns") == 0) {
      Jobs.Present = true;
      std::string Suffix = S.Name.substr(18);
      if (Suffix == "_sum") {
        Jobs.LatencyNs.Sum = S.asU64();
      } else if (Suffix == "_count") {
        Jobs.LatencyNs.Count = S.asU64();
      } else if (Suffix == "_bucket") {
        auto It = S.Labels.find("le");
        if (It == S.Labels.end() || It->second == "+Inf")
          continue;
        std::uint64_t Ub = std::strtoull(It->second.c_str(), nullptr, 10);
        for (unsigned B = 0; B != NumLog2Buckets; ++B)
          if (log2BucketUpperBound(B) == Ub) {
            std::uint64_t Cum = S.asU64();
            Jobs.LatencyNs.Buckets[B] =
                Cum >= JobLatPrevCum ? Cum - JobLatPrevCum : 0;
            JobLatPrevCum = Cum;
            break;
          }
      }
      continue;
    }
    if (S.Name == "atc_run_info") {
      auto Get = [&](const char *K) {
        auto It = S.Labels.find(K);
        return It == S.Labels.end() ? std::string() : It->second;
      };
      Meta.Scheduler = Get("scheduler");
      Meta.Source = Get("source");
      Meta.Workload = Get("workload");
      continue;
    }
    if (S.Name == "atc_snapshot_time_ns") {
      Snap.TimeNs = S.asU64();
      continue;
    }
    int W = WorkerOf(S);
    if (W < 0)
      continue;
    WorkerSample &Ws = Snap.Workers[static_cast<std::size_t>(W)];
    if (S.Name == "atc_deque_depth") {
      Ws.DequeDepth = static_cast<std::int64_t>(S.Value);
      continue;
    }
    if (S.Name == "atc_worker_mode") {
      int M = static_cast<int>(S.Value);
      if (M >= 0 && M < NumTraceModes)
        Ws.Mode = static_cast<TraceMode>(M);
      continue;
    }
    if (S.Name == "atc_need_task") {
      Ws.NeedTask = S.Value != 0;
      continue;
    }
    if (S.Name == "atc_mode_ns_total") {
      auto It = S.Labels.find("mode");
      int M = It == S.Labels.end() ? -1 : ModeIdx(It->second);
      if (M >= 0)
        Ws.ModeNs[M] = S.asU64();
      continue;
    }
    bool Matched = false;
    for (const StatName &N : StatNames)
      if (S.Name == N.Name) {
        Ws.Stats[static_cast<unsigned>(N.Field)] = S.asU64();
        Matched = true;
        break;
      }
    if (Matched)
      continue;
    for (HistDef &H : Hists) {
      std::size_t Len = std::strlen(H.Name);
      if (S.Name.compare(0, Len, H.Name) != 0)
        continue;
      HistogramCounts &C = Ws.*H.Field;
      std::string Suffix = S.Name.substr(Len);
      if (Suffix == "_sum") {
        C.Sum = S.asU64();
      } else if (Suffix == "_count") {
        C.Count = S.asU64();
      } else if (Suffix == "_bucket") {
        auto It = S.Labels.find("le");
        if (It == S.Labels.end() || It->second == "+Inf")
          break;
        std::uint64_t Ub = std::strtoull(It->second.c_str(), nullptr, 10);
        for (unsigned B = 0; B != NumLog2Buckets; ++B)
          if (log2BucketUpperBound(B) == Ub) {
            std::uint64_t Cum = S.asU64();
            std::uint64_t &PrevC =
                H.PrevCum[static_cast<std::size_t>(W)];
            C.Buckets[B] = Cum >= PrevC ? Cum - PrevC : 0;
            PrevC = Cum;
            break;
          }
      }
      break;
    }
  }
  return true;
}

/// The file-tailing source: reads the Prometheus snapshot any
/// metrics-aware CLI rewrites periodically. Tolerates the transient
/// empty read that can race the writer's rename.
bool frameFromPromFile(const std::string &Path, MetricsSnapshot &Snap,
                       MetricsMeta &Meta, JobsStrip &Jobs, std::string &Err) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Err = "cannot open file";
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  return frameFromPromText(SS.str(), Snap, Meta, Jobs, Err);
}

/// The HTTP-scraping source: one GET per frame against a loopback
/// /metrics endpoint (MetricsSampler or atc_server).
bool frameFromHttp(int Port, const std::string &Path, MetricsSnapshot &Snap,
                   MetricsMeta &Meta, JobsStrip &Jobs, std::string &Err) {
  int Status = 0;
  std::string Body;
  if (!httpRequest(Port, "GET", Path, "", Status, Body)) {
    Err = "cannot reach 127.0.0.1:" + std::to_string(Port);
    return false;
  }
  if (Status != 200) {
    Err = "HTTP " + std::to_string(Status) + " from " + Path;
    return false;
  }
  return frameFromPromText(Body, Snap, Meta, Jobs, Err);
}

/// Accepts "http://127.0.0.1:PORT[/path]" (or localhost); anything else
/// is treated as a file path by the caller. The path defaults to
/// /metrics when absent.
bool parseHttpSource(const std::string &Url, int &Port, std::string &Path) {
  if (Url.compare(0, 7, "http://") != 0)
    return false;
  std::string Rest = Url.substr(7);
  std::size_t Slash = Rest.find('/');
  std::string HostPort = Rest.substr(0, Slash);
  Path = Slash == std::string::npos ? "/metrics" : Rest.substr(Slash);
  std::size_t Colon = HostPort.rfind(':');
  std::string Host =
      Colon == std::string::npos ? HostPort : HostPort.substr(0, Colon);
  if (Host != "127.0.0.1" && Host != "localhost")
    return false;
  Port = Colon == std::string::npos
             ? 80
             : std::atoi(HostPort.c_str() + Colon + 1);
  return Port > 0 && Port < 65536;
}

} // namespace

int main(int argc, char **argv) {
  bool Demo = false;
  long long Workers = 4;
  long long ProblemSize = 0;
  std::string Problem = "nqueens-array";
  std::string Scheduler = "adaptivetc";
  long long PeriodMs = 500;
  long long Frames = 0;
  bool Once = false;
  bool NoClear = false;
  OptionSet Opts("Live per-worker scheduler metrics dashboard: tail a "
                 "--metrics-file Prometheus snapshot, scrape an http:// "
                 "metrics endpoint, or --demo to watch an in-process run");
  Opts.addFlag("demo", &Demo,
               "run a registry problem in-process in a loop and poll its "
               "registry directly (no file needed)");
  Opts.addInt("workers", &Workers, "worker threads for --demo (default 4)",
              1, MaxThreadsFlag);
  Opts.addString("problem", &Problem,
                 "registry problem for --demo (default nqueens-array)");
  Opts.addInt("n", &ProblemSize,
              "problem size for --demo (default 0: the kind's default)");
  Opts.addString("sched", &Scheduler,
                 "scheduler for --demo (default adaptivetc)");
  Opts.addInt("period-ms", &PeriodMs, "refresh period (default 500)");
  Opts.addInt("frames", &Frames,
              "stop after this many frames (default 0: until Ctrl-C)");
  Opts.addFlag("once", &Once, "render a single frame and exit (no clear)");
  Opts.addFlag("no-clear", &NoClear,
               "append frames instead of redrawing (for logs/CI)");
  Opts.parse(argc, argv);
  if (Once)
    Frames = 1;
  bool Clear = !NoClear && !Once && isatty(1);
  if (!Demo && Opts.positionalArgs().size() != 1) {
    std::fprintf(stderr,
                 "usage: atc_top <metrics.prom>   (file written by "
                 "--metrics-file)\n"
                 "       atc_top http://127.0.0.1:<port>/metrics\n"
                 "       atc_top --demo [--workers N] [--problem K] "
                 "[--n N]\n");
    return 2;
  }
  int HttpPort = 0;
  std::string HttpPath;
  bool Http = !Demo && parseHttpSource(Opts.positionalArgs()[0], HttpPort,
                                       HttpPath);
  if (!Demo && !Http &&
      Opts.positionalArgs()[0].compare(0, 7, "http://") == 0) {
    std::fprintf(stderr,
                 "atc_top: only loopback URLs are supported "
                 "(http://127.0.0.1:<port>[/path])\n");
    return 2;
  }
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  // --demo: a background thread re-runs the workload with the registry
  // armed; the foreground polls the same cells in-process.
  MetricsRegistry Reg;
  std::thread Runner;
  std::atomic<bool> StopRunner{false};
  if (Demo) {
    SchedulerConfig Cfg;
    if (!parseSchedulerKind(Scheduler, Cfg.Kind))
      reportFatalError(unknownSchedulerKindError(Scheduler));
    Cfg.NumWorkers = static_cast<int>(Workers);
    Cfg.Metrics = true;
    Cfg.MetricsSink = &Reg;
    ProblemRunner Prob;
    std::string Err;
    if (!makeProblemRunner(Problem, static_cast<int>(ProblemSize), Prob, Err))
      reportFatalError(Err);
    Reg.reset(Cfg.NumWorkers);
    // The runtime leaves an external sink's Meta to its owner.
    Reg.Meta.Scheduler = schedulerKindName(Cfg.Kind);
    Reg.Meta.Source = "runtime";
    Reg.Meta.Workload = Prob.Workload + " (looping)";
    Runner = std::thread([Cfg, Prob, &StopRunner] {
      while (!StopRunner.load(std::memory_order_relaxed) &&
             !Interrupted.load(std::memory_order_relaxed))
        Prob.Run(Cfg);
    });
  }

  MetricsSnapshot Prev;
  bool HavePrev = false;
  long long Rendered = 0;
  int ConsecutiveErrors = 0;
  while (!Interrupted.load(std::memory_order_relaxed)) {
    MetricsSnapshot Cur;
    MetricsMeta Meta;
    JobsStrip Jobs;
    bool Ok;
    if (Demo) {
      // Each loop iteration re-arms the registry (run metadata included),
      // so read the meta after sampling.
      Cur = Reg.sample();
      Meta = Reg.Meta;
      Ok = true;
    } else {
      std::string Err;
      Ok = Http ? frameFromHttp(HttpPort, HttpPath, Cur, Meta, Jobs, Err)
                : frameFromPromFile(Opts.positionalArgs()[0], Cur, Meta,
                                    Jobs, Err);
      if (!Ok) {
        if (++ConsecutiveErrors > 20) {
          std::fprintf(stderr, "atc_top: %s: %s\n",
                       Opts.positionalArgs()[0].c_str(), Err.c_str());
          break;
        }
      }
    }
    if (Ok) {
      ConsecutiveErrors = 0;
      std::string Frame = renderFrame(Cur, HavePrev ? &Prev : nullptr, Meta,
                                      Jobs.Present ? &Jobs : nullptr);
      if (Clear)
        std::fputs("\x1b[H\x1b[2J", stdout);
      std::fputs(Frame.c_str(), stdout);
      if (!Clear)
        std::fputs("\n", stdout);
      std::fflush(stdout);
      Prev = Cur;
      HavePrev = true;
      if (Frames > 0 && ++Rendered >= Frames)
        break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(PeriodMs));
  }

  if (Runner.joinable()) {
    StopRunner.store(true, std::memory_order_relaxed);
    Runner.join();
  }
  return 0;
}
