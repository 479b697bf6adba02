//===- server/Server.cpp - The scheduler-as-a-service job server ----------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include "metrics/Exposition.h"
#include "problems/ProblemRegistry.h"
#include "trace/Json.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

using namespace atc;

namespace {

/// Emits one no-label histogram in Prometheus convention (cumulative le
/// buckets trimmed after the last non-empty one, +Inf, _sum, _count).
void renderJobHistogram(std::string &Out, const char *Name, const char *Help,
                        const HistogramCounts &H) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "# HELP %s %s\n# TYPE %s histogram\n",
                Name, Help, Name);
  Out += Buf;
  unsigned Last = 0;
  for (unsigned B = 0; B != NumLog2Buckets; ++B)
    if (H.Buckets[B] != 0)
      Last = B;
  std::uint64_t Cum = 0;
  for (unsigned B = 0; B <= Last; ++B) {
    Cum += H.Buckets[B];
    std::snprintf(Buf, sizeof(Buf), "%s_bucket{le=\"%llu\"} %llu\n", Name,
                  static_cast<unsigned long long>(log2BucketUpperBound(B)),
                  static_cast<unsigned long long>(Cum));
    Out += Buf;
  }
  std::snprintf(Buf, sizeof(Buf),
                "%s_bucket{le=\"+Inf\"} %llu\n%s_sum %llu\n%s_count %llu\n",
                Name, static_cast<unsigned long long>(H.Count), Name,
                static_cast<unsigned long long>(H.Sum), Name,
                static_cast<unsigned long long>(H.Count));
  Out += Buf;
}

bool isTerminal(JobState S) {
  return S != JobState::Queued && S != JobState::Running;
}

} // namespace

JobServer::JobServer(JobServerOptions O)
    : Opts(O), Pool(O.PoolThreads < 1 ? 1 : O.PoolThreads),
      Queue(O.MaxQueuedJobs) {
  // Long-lived registry: pre-sized to the pool so a sampler can attach
  // before the first job, history kept across the per-job resets the
  // runtime performs, epochs making those resets observable.
  Registry.ClearHistoryOnReset = false;
  Registry.reset(Pool.size());
  Registry.Meta.Source = "server";
  Registry.Meta.Workload = "idle";
}

JobServer::~JobServer() { stop(); }

bool JobServer::start() {
  if (Started)
    return true;
  if (Opts.HttpPort >= 0) {
    ListenFd = bindLoopbackListener(Opts.HttpPort, Port);
    if (ListenFd < 0)
      return false;
  }
  StopFlag.store(false, std::memory_order_release);
  Dispatcher = std::thread([this] { dispatcherMain(); });
  if (ListenFd >= 0) {
    int N = Opts.HttpThreads < 1 ? 1 : Opts.HttpThreads;
    for (int I = 0; I < N; ++I)
      HttpWorkers.emplace_back([this] { httpMain(); });
  }
  Started = true;
  return true;
}

void JobServer::stop() {
  if (!Started)
    return;
  Queue.close();
  StopFlag.store(true, std::memory_order_release);
  if (Dispatcher.joinable())
    Dispatcher.join();
  for (std::thread &T : HttpWorkers)
    T.join();
  HttpWorkers.clear();
  if (ListenFd >= 0) {
    closeFd(ListenFd);
    ListenFd = -1;
    Port = -1;
  }
  Started = false;
}

JobServer::SubmitResult JobServer::submit(const JobSpec &Spec) {
  SubmitResult Res;
  JobRecord R;
  R.Spec = Spec;
  R.SubmitNs = nowNanos();

  // Backpressure: past the soft queue watermark, consult the live
  // deque-depth gauges — a deep deque means the running job is still
  // producing work faster than the pool drains it, so adding queue depth
  // only grows latency. Shed early instead.
  std::string ShedReason;
  if (Opts.DequeDepthWatermark > 0 &&
      Queue.size() >= Opts.QueueSoftWatermark) {
    std::int64_t MaxDepth = 0;
    for (int W = 0; W != Registry.numWorkers(); ++W) {
      std::int64_t D = Registry.cell(W).dequeDepth();
      MaxDepth = D > MaxDepth ? D : MaxDepth;
    }
    if (MaxDepth > Opts.DequeDepthWatermark)
      ShedReason = "backpressure";
  }

  // The record must be visible in the results table BEFORE the id is
  // queued: the dispatcher can pop an id the instant push() releases it.
  R.State = JobState::Queued;
  {
    std::lock_guard<std::mutex> Guard(ResultsLock);
    R.Id = NextId++;
    if (ShedReason.empty())
      Results[R.Id] = R;
  }
  Res.Id = R.Id;

  if (ShedReason.empty()) {
    if (Queue.push(Spec.Tenant, R.Id)) {
      std::lock_guard<std::mutex> Guard(JobStatsLock);
      ++Submitted;
      Res.Accepted = true;
      return Res;
    }
    ShedReason = "queue-full";
  }

  R.State = JobState::Shed;
  R.Error = ShedReason;
  R.EndNs = nowNanos();
  {
    std::lock_guard<std::mutex> Guard(JobStatsLock);
    ++Submitted;
    ++Shed;
  }
  finishJob(R.Id, R);
  Res.Accepted = false;
  Res.Reason = ShedReason;
  return Res;
}

void JobServer::finishJob(std::uint64_t Id, const JobRecord &Terminal) {
  {
    std::lock_guard<std::mutex> Guard(ResultsLock);
    Results[Id] = Terminal;
    EvictFifo.push_back(Id);
    while (EvictFifo.size() > Opts.ResultCap) {
      Results.erase(EvictFifo.front());
      EvictFifo.pop_front();
    }
  }
  ResultChanged.notify_all();
}

void JobServer::runJob(std::uint64_t Id) {
  JobRecord R;
  {
    std::lock_guard<std::mutex> Guard(ResultsLock);
    auto It = Results.find(Id);
    if (It == Results.end())
      return; // evicted while queued (result cap far below queue cap)
    R = It->second;
  }

  std::uint64_t Now = nowNanos();
  if (R.Spec.DeadlineMs > 0 &&
      Now - R.SubmitNs >
          static_cast<std::uint64_t>(R.Spec.DeadlineMs) * 1000000ULL) {
    R.State = JobState::Expired;
    R.Error = "deadline passed while queued";
    R.EndNs = Now;
    {
      std::lock_guard<std::mutex> Guard(JobStatsLock);
      ++Expired;
    }
    finishJob(Id, R);
    return;
  }

  ProblemRunner Runner;
  std::string Err;
  if (!makeProblemRunner(R.Spec.Problem, R.Spec.Size, Runner, Err)) {
    R.State = JobState::Failed;
    R.Error = Err;
    R.EndNs = nowNanos();
    {
      std::lock_guard<std::mutex> Guard(JobStatsLock);
      ++Failed;
    }
    finishJob(Id, R);
    return;
  }

  SchedulerConfig Cfg;
  Cfg.Kind = R.Spec.Kind;
  Cfg.NumWorkers = R.Spec.Workers <= 0 ? Pool.size() : R.Spec.Workers;
  if (Cfg.NumWorkers > Pool.size())
    Cfg.NumWorkers = Pool.size();
  Cfg.Cutoff = R.Spec.Cutoff;
  Cfg.Executor = &Pool;
  Cfg.MetricsSink = &Registry;

  R.State = JobState::Running;
  R.StartNs = nowNanos();
  {
    std::lock_guard<std::mutex> Guard(ResultsLock);
    auto It = Results.find(Id);
    if (It != Results.end())
      It->second = R;
    ++RunningCount;
  }
  {
    std::lock_guard<std::mutex> Guard(MetaLock);
    Registry.Meta.Scheduler = schedulerKindName(Cfg.Kind);
    Registry.Meta.Workload = Runner.Workload;
  }

  RunResult<long long> Run = Runner.Run(Cfg);

  R.Value = Run.Value;
  R.Stats = Run.Stats;
  R.State = JobState::Done;
  R.EndNs = nowNanos();
  {
    std::lock_guard<std::mutex> Guard(ResultsLock);
    --RunningCount;
  }
  {
    std::lock_guard<std::mutex> Guard(JobStatsLock);
    ++Completed;
    JobLatencyNs.record(R.latencyNs());
    JobQueueNs.record(R.queueNs());
    JobRunNs.record(R.EndNs - R.StartNs);
  }
  finishJob(Id, R);
}

void JobServer::dispatcherMain() {
  std::uint64_t Id;
  // pop() drains queued jobs even after close(), so stop() is a
  // graceful drain by construction.
  while (Queue.pop(Id))
    runJob(Id);
}

bool JobServer::getResult(std::uint64_t Id, JobRecord &Out) const {
  std::lock_guard<std::mutex> Guard(ResultsLock);
  auto It = Results.find(Id);
  if (It == Results.end())
    return false;
  Out = It->second;
  return true;
}

bool JobServer::waitResult(std::uint64_t Id, JobRecord &Out, int TimeoutMs) {
  std::unique_lock<std::mutex> Guard(ResultsLock);
  auto Terminal = [&]() -> bool {
    auto It = Results.find(Id);
    return It != Results.end() && isTerminal(It->second.State);
  };
  if (!ResultChanged.wait_for(Guard, std::chrono::milliseconds(TimeoutMs),
                              Terminal))
    return false;
  Out = Results[Id];
  return true;
}

JobServer::Totals JobServer::totals() const {
  Totals T;
  {
    std::lock_guard<std::mutex> Guard(JobStatsLock);
    T.Submitted = Submitted;
    T.Completed = Completed;
    T.Failed = Failed;
    T.Shed = Shed;
    T.Expired = Expired;
  }
  T.Queued = Queue.size();
  {
    std::lock_guard<std::mutex> Guard(ResultsLock);
    T.Running = RunningCount;
  }
  return T;
}

double JobServer::latencyQuantileNs(double Q) const {
  std::lock_guard<std::mutex> Guard(JobStatsLock);
  return JobLatencyNs.quantile(Q);
}

std::string JobServer::metricsText() const {
  // Worker-level exposition from a fresh registry sample (includes
  // atc_epoch, which ticks once per job on this server), then the job
  // layer on top.
  MetricsMeta Meta;
  {
    std::lock_guard<std::mutex> Guard(MetaLock);
    Meta = Registry.Meta;
  }
  std::string Out = renderPrometheus(Registry.sample(), Meta);

  Totals T = totals();
  char Buf[256];
  auto Counter = [&](const char *Name, const char *Help, std::uint64_t V) {
    std::snprintf(Buf, sizeof(Buf),
                  "# HELP %s %s\n# TYPE %s counter\n%s %llu\n", Name, Help,
                  Name, Name, static_cast<unsigned long long>(V));
    Out += Buf;
  };
  auto Gauge = [&](const char *Name, const char *Help, std::uint64_t V) {
    std::snprintf(Buf, sizeof(Buf),
                  "# HELP %s %s\n# TYPE %s gauge\n%s %llu\n", Name, Help,
                  Name, Name, static_cast<unsigned long long>(V));
    Out += Buf;
  };
  Counter("atc_jobs_submitted_total", "Jobs submitted (shed included)",
          T.Submitted);
  Counter("atc_jobs_completed_total", "Jobs run to completion", T.Completed);
  Counter("atc_jobs_failed_total", "Jobs rejected at dispatch", T.Failed);
  Counter("atc_jobs_shed_total", "Jobs refused at admission", T.Shed);
  Counter("atc_jobs_expired_total", "Jobs whose deadline passed while queued",
          T.Expired);
  Gauge("atc_jobs_queued", "Jobs waiting for the pool", T.Queued);
  Gauge("atc_jobs_running", "Jobs on the pool right now", T.Running);
  Gauge("atc_pool_threads", "Persistent pool width",
        static_cast<std::uint64_t>(Pool.size()));

  std::lock_guard<std::mutex> Guard(JobStatsLock);
  renderJobHistogram(Out, "atc_job_latency_ns",
                     "End-to-end job latency (submit to done)",
                     JobLatencyNs);
  renderJobHistogram(Out, "atc_job_queue_ns",
                     "Queue residency (submit to dispatch)", JobQueueNs);
  renderJobHistogram(Out, "atc_job_run_ns", "Execution time on the pool",
                     JobRunNs);
  return Out;
}

std::string JobServer::statsJson() const {
  Totals T = totals();
  double P50, P99;
  {
    std::lock_guard<std::mutex> Guard(JobStatsLock);
    P50 = JobLatencyNs.quantile(0.50);
    P99 = JobLatencyNs.quantile(0.99);
  }
  char Buf[512];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\"submitted\": %llu, \"completed\": %llu, \"failed\": %llu, "
      "\"shed\": %llu, \"expired\": %llu, \"queued\": %zu, "
      "\"running\": %zu, \"pool_threads\": %d, \"jobs_dispatched\": %llu, "
      "\"epoch\": %llu, \"p50_latency_ns\": %.1f, \"p99_latency_ns\": %.1f}",
      static_cast<unsigned long long>(T.Submitted),
      static_cast<unsigned long long>(T.Completed),
      static_cast<unsigned long long>(T.Failed),
      static_cast<unsigned long long>(T.Shed),
      static_cast<unsigned long long>(T.Expired), T.Queued, T.Running,
      Pool.size(), static_cast<unsigned long long>(Pool.jobsRun()),
      static_cast<unsigned long long>(Registry.epoch()), P50, P99);
  return Buf;
}

std::string JobServer::handleRequest(const HttpRequest &Req, int &Status,
                                     std::string &ContentType) {
  Status = 200;
  ContentType = "application/json";

  if (Req.Method == "POST" && Req.Path == "/job") {
    JobSpec Spec;
    std::string Err;
    if (!parseJobSpec(Req.Body, Spec, Err)) {
      Status = 400;
      // Err can echo client input (unknown problem/scheduler names).
      return "{\"error\": \"" + escapeJson(Err) + "\"}";
    }
    SubmitResult R = submit(Spec);
    char Buf[160];
    if (R.Accepted) {
      std::snprintf(Buf, sizeof(Buf),
                    "{\"id\": %llu, \"state\": \"queued\"}",
                    static_cast<unsigned long long>(R.Id));
    } else {
      Status = 429;
      std::snprintf(Buf, sizeof(Buf),
                    "{\"id\": %llu, \"state\": \"shed\", \"reason\": "
                    "\"%s\"}",
                    static_cast<unsigned long long>(R.Id), R.Reason.c_str());
    }
    return Buf;
  }

  if (Req.Method == "GET" && Req.Path.rfind("/result/", 0) == 0) {
    std::string Rest = Req.Path.substr(8);
    long long WaitMs = 0;
    std::size_t Q = Rest.find('?');
    if (Q != std::string::npos) {
      std::string Query = Rest.substr(Q + 1);
      Rest = Rest.substr(0, Q);
      if (Query.rfind("wait=", 0) == 0)
        WaitMs = std::atoll(Query.c_str() + 5);
    }
    std::uint64_t Id = std::strtoull(Rest.c_str(), nullptr, 10);
    JobRecord R;
    if (WaitMs > 0) {
      if (!waitResult(Id, R, static_cast<int>(WaitMs)) &&
          !getResult(Id, R)) {
        Status = 404;
        return "{\"error\": \"unknown job id\"}";
      }
    } else if (!getResult(Id, R)) {
      Status = 404;
      return "{\"error\": \"unknown job id\"}";
    }
    return jobRecordJson(R);
  }

  if (Req.Method == "GET" && Req.Path == "/healthz") {
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"ok\": true, \"pool_threads\": %d, \"queued\": %zu}",
                  Pool.size(), Queue.size());
    return Buf;
  }

  if (Req.Method == "GET" && Req.Path == "/metrics") {
    ContentType = "text/plain; version=0.0.4; charset=utf-8";
    return metricsText();
  }

  if (Req.Method == "GET" && Req.Path == "/stats")
    return statsJson();

  if (Req.Method == "POST" && Req.Path == "/shutdown") {
    ShutdownFlag.store(true, std::memory_order_release);
    return "{\"ok\": true, \"state\": \"draining\"}";
  }

  Status = 404;
  return "{\"error\": \"no such endpoint\"}";
}

void JobServer::httpMain() {
  while (!StopFlag.load(std::memory_order_acquire)) {
    int Client = acceptOne(ListenFd, /*TimeoutMs=*/100);
    if (Client < 0)
      continue;
    HttpRequest Req;
    if (readHttpRequest(Client, Req)) {
      int Status;
      std::string ContentType;
      std::string Body = handleRequest(Req, Status, ContentType);
      writeHttpResponse(Client, Status, ContentType, Body);
    } else {
      writeHttpResponse(Client, 400, "application/json",
                        "{\"error\": \"malformed request\"}");
    }
    closeFd(Client);
  }
}
