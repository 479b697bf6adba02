//===- perfbench/src/Serve.cpp - The serve-small-jobs workload ------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-process JobServer (4 pool threads, 4 HTTP threads) driven open
/// loop over loopback HTTP by 4 client threads: one sender that posts
/// each job when it is due, and three collectors that long-poll results.
/// A job's latency runs from when it was due to be sent until its result
/// reaches a collector, so a stall also charges the jobs queued behind it.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "problems/ProblemRegistry.h"
#include "server/Server.h"
#include "support/Error.h"
#include "support/LoopbackHttp.h"
#include "support/Prng.h"
#include "trace/Json.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <thread>
#include <tuple>

using namespace perfbench;
using atc::nowNanos;

namespace {

/// The job mix, drawn uniformly. A third of the light jobs (a quarter of
/// all jobs) ask for one worker; the heavy one always takes the full pool,
/// since a 1-worker run of it would hold the whole pool for ~60 ms.
struct MixKind {
  const char *Kind;
  int Size;
  bool Heavy;
};
constexpr MixKind Mix[] = {{"nqueens-array", 10, false},
                           {"fib", 25, false},
                           {"strimko", 5, false},
                           {"knights", 5, true}};
constexpr int NumKinds = sizeof(Mix) / sizeof(Mix[0]);
constexpr int NumTenants = 4;
constexpr int NumCollectors = 3; // plus the sender: 4 client threads

/// The registry's sequential oracle of each mix kind, with its time.
struct Oracles {
  long long Value[NumKinds];
  double SeqMs[NumKinds];
};

Oracles computeOracles(SpanLog *L) {
  Oracles O{};
  for (int K = 0; K != NumKinds; ++K) {
    atc::ProblemRunner Runner;
    std::string Err;
    if (!atc::makeProblemRunner(Mix[K].Kind, Mix[K].Size, Runner, Err))
      atc::reportFatalError(Err);
    std::uint64_t T0 = nowNanos();
    O.Value[K] = Runner.RunSequential();
    std::uint64_t T1 = nowNanos();
    if (L)
      L->add("seq", T0, T1);
    O.SeqMs[K] = msBetween(T0, T1);
  }
  return O;
}

/// Draws the job mix: a seeded shuffle of a deck holding each kind three
/// times, one of each light kind's copies asking for one worker. Every
/// deck's worth of jobs holds the exact mix, so seeds change only the
/// order of the jobs.
class JobDeck {
public:
  explicit JobDeck(std::uint64_t Seed) : Rng(Seed) {}

  /// The next job's kind and worker count (0 = the pool's full width).
  std::pair<int, int> next() {
    if (Pos == Deck.size()) {
      Deck.clear();
      for (int K = 0; K != NumKinds; ++K)
        for (int Copy = 0; Copy != 3; ++Copy)
          Deck.emplace_back(K, !Mix[K].Heavy && Copy == 0 ? 1 : 0);
      for (std::size_t I = Deck.size() - 1; I > 0; --I)
        std::swap(Deck[I], Deck[Rng.nextBelow(I + 1)]);
      Pos = 0;
    }
    return Deck[Pos++];
  }

private:
  atc::SplitMix64 Rng;
  std::vector<std::pair<int, int>> Deck;
  std::size_t Pos = 0;
};

/// One job as the client saw it.
struct JobSample {
  std::uint64_t Id = 0;
  int Kind = 0;
  int Workers = 0; ///< 1, or 0 for the pool's full width.
  std::uint64_t DueNs = 0, PostBeginNs = 0, PostEndNs = 0, ReceiptNs = 0;
  bool Ok = false;   ///< Done, with the oracle's value.
  double QueueMs = 0; ///< Submit to dispatch, from the record.
  double RunMs = 0;   ///< Dispatch to done, from the record.
  bool Traced = false;
  atc::JobRecord Rec; ///< The server's record (traced jobs only).

  double latencyMs() const { return msBetween(DueNs, ReceiptNs); }
};

/// One open-loop segment: the jobs it sent.
struct Phase {
  std::vector<JobSample> Jobs;
  std::size_t BacklogAtEnd = 0; ///< Jobs without a result at the last send.

  std::vector<double> latencies() const {
    std::vector<double> V;
    for (const JobSample &J : Jobs)
      if (J.Ok)
        V.push_back(J.latencyMs());
    return V;
  }
};

/// A JobServer on loopback HTTP plus the client's collector threads.
class ServeRig {
public:
  ServeRig(Report &R, SpanLog &L, const Oracles &O)
      : R(R), L(L), O(O), Server(options()) {
    if (!Server.start())
      atc::reportFatalError("perfbench: cannot bind a loopback port");
    for (int I = 0; I != NumCollectors; ++I)
      Collectors.emplace_back([this] { collectorMain(); });
  }

  ~ServeRig() {
    {
      std::lock_guard<std::mutex> Guard(Lock);
      Stopping = true;
    }
    Changed.notify_all();
    for (std::thread &T : Collectors)
      T.join();
    Server.stop();
  }

  ServeRig(const ServeRig &) = delete;
  ServeRig &operator=(const ServeRig &) = delete;

  /// Sends \p Count jobs drawn from \p Deck open loop at \p Rate jobs/s,
  /// then waits until every result is in. A null \p Deck sends
  /// full-width jobs of the first kind.
  Phase run(double Rate, std::size_t Count, JobDeck *Deck) {
    Phase P;
    P.Jobs.resize(Count); // never reallocated while collectors hold jobs
    const std::uint64_t Start = nowNanos();
    for (std::size_t I = 0; I != Count; ++I) {
      JobSample &J = P.Jobs[I];
      J.DueNs = Start + static_cast<std::uint64_t>(1e9 * I / Rate);
      if (Deck)
        std::tie(J.Kind, J.Workers) = Deck->next();
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(J.DueNs)));
      if (post(J, static_cast<int>(I % NumTenants))) {
        std::lock_guard<std::mutex> Guard(Lock);
        Pending.push_back(&J);
        ++Outstanding;
      }
      Changed.notify_all();
    }
    std::unique_lock<std::mutex> Guard(Lock);
    P.BacklogAtEnd = Outstanding;
    Changed.wait(Guard, [this] { return Outstanding == 0; });
    return P;
  }

private:
  static atc::JobServerOptions options() {
    atc::JobServerOptions Opts;
    Opts.PoolThreads = 4;
    Opts.HttpPort = 0;
    Opts.HttpThreads = 4;
    // Open-loop rungs past capacity queue instead of shedding, and every
    // record stays until its collector has read it.
    Opts.MaxQueuedJobs = 1 << 16;
    Opts.ResultCap = 1 << 17;
    return Opts;
  }

  /// POST /job; false (and a failed check) unless the server accepted it.
  bool post(JobSample &J, int Tenant) {
    atc::JobSpec Spec;
    Spec.Problem = Mix[J.Kind].Kind;
    Spec.Size = Mix[J.Kind].Size;
    Spec.Tenant = "t" + std::to_string(Tenant);
    Spec.Workers = J.Workers;
    int Status = 0;
    std::string Body, Err;
    J.PostBeginNs = nowNanos();
    bool Sent = atc::httpRequest(Server.httpPort(), "POST", "/job",
                                 atc::jobSpecJson(Spec), Status, Body);
    J.PostEndNs = nowNanos();
    atc::json::Value Doc;
    if (Sent && Status == 200 && atc::json::parse(Body, Doc, Err))
      J.Id = static_cast<std::uint64_t>(Doc["id"].numberOr(0));
    R.check(J.Id != 0, "POST /job answered " + std::to_string(Status));
    return J.Id != 0;
  }

  void collectorMain() {
    for (;;) {
      JobSample *J = nullptr;
      {
        std::unique_lock<std::mutex> Guard(Lock);
        Changed.wait(Guard, [this] { return Stopping || !Pending.empty(); });
        if (Pending.empty())
          return;
        J = Pending.front();
        Pending.pop_front();
      }
      collect(*J);
      {
        std::lock_guard<std::mutex> Guard(Lock);
        --Outstanding;
      }
      Changed.notify_all();
    }
  }

  /// Long-polls GET /result/<id> until the job is terminal, then checks
  /// it against the oracle. Traced runs read every other job's record
  /// in-process for its stamps and stats, and record its spans.
  void collect(JobSample &J) {
    std::string Path = "/result/" + std::to_string(J.Id) + "?wait=5000";
    for (int Attempt = 0; Attempt != 24; ++Attempt) {
      int Status = 0;
      std::string Body, Err;
      if (!atc::httpRequest(Server.httpPort(), "GET", Path, "", Status,
                            Body)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      J.ReceiptNs = nowNanos();
      atc::json::Value Doc;
      if (Status != 200 || !atc::json::parse(Body, Doc, Err))
        continue;
      std::string State = Doc["state"].stringOr("");
      if (State == "queued" || State == "running")
        continue;
      double QueueNs = Doc["queue_ns"].numberOr(0);
      J.QueueMs = QueueNs * 1e-6;
      J.RunMs = (Doc["latency_ns"].numberOr(0) - QueueNs) * 1e-6;
      J.Ok = State == "done" &&
             static_cast<long long>(Doc["value"].numberOr(-1)) ==
                 O.Value[J.Kind];
      R.check(J.Ok, "job " + std::to_string(J.Id) + " (" + Mix[J.Kind].Kind +
                        ") ended " + State);
      if (L.enabled() && J.Id % 2 == 0 && Server.getResult(J.Id, J.Rec)) {
        J.Traced = true;
        std::uint64_t Root = L.add("job", J.DueNs, J.ReceiptNs, 0, J.Id);
        L.add("job.post", J.PostBeginNs, J.PostEndNs, Root, J.Id);
        L.add("job.queue", J.Rec.SubmitNs, J.Rec.StartNs, Root, J.Id);
        L.add("job.run", J.Rec.StartNs, J.Rec.EndNs, Root, J.Id);
        L.add("job.deliver", J.Rec.EndNs, J.ReceiptNs, Root, J.Id);
      }
      return;
    }
    R.check(false, "job " + std::to_string(J.Id) + " lost");
  }

  Report &R;
  SpanLog &L;
  const Oracles &O;
  atc::JobServer Server;

  std::mutex Lock;
  std::condition_variable Changed;
  std::deque<JobSample *> Pending; ///< Posted, not yet taken by a collector.
  std::size_t Outstanding = 0;     ///< Posted, result not yet read.
  bool Stopping = false;
  std::vector<std::thread> Collectors;
};

/// Adds the server / http / loadgen layer metrics from \p Jobs.
void addJobLayerMetrics(Report &R, const std::vector<const JobSample *> &Jobs,
                        double LagMsMax) {
  std::vector<double> Post, Queue, Run, Deliver, NonCompute;
  for (const JobSample *J : Jobs) {
    if (!J->Ok)
      continue;
    Post.push_back(msBetween(J->PostBeginNs, J->PostEndNs));
    Queue.push_back(J->QueueMs);
    Run.push_back(J->RunMs);
    NonCompute.push_back(1.0 - J->RunMs / J->latencyMs());
    if (J->Traced)
      Deliver.push_back(msBetween(J->Rec.EndNs, J->ReceiptNs));
  }
  if (Deliver.empty()) {
    R.check(false, "no traced job completed");
    return;
  }
  R.add("http.post_ms_p50", median(Post), "ms");
  R.add("server.queue_ms_p50", median(Queue), "ms");
  R.add("server.queue_ms_p99", quantile(Queue, 0.99), "ms");
  R.add("server.run_ms_p50", median(Run), "ms");
  R.add("http.deliver_ms_p50", median(Deliver), "ms");
  R.add("server.noncompute_share", median(NonCompute), "ratio");
  R.add("loadgen.lag_ms_max", LagMsMax, "ms");
}

double maxLagMs(const std::vector<const Phase *> &Phases) {
  double Max = 0;
  for (const Phase *P : Phases)
    for (const JobSample &J : P->Jobs)
      Max = std::max(Max, msBetween(J.DueNs, J.PostBeginNs));
  return Max;
}

/// Every segment sent at one rate, pooled.
struct Rung {
  double Rate = 0;
  std::vector<Phase> Segments;

  std::vector<double> latencies() const {
    std::vector<double> V;
    for (const Phase &P : Segments)
      for (double Ms : P.latencies())
        V.push_back(Ms);
    return V;
  }
};

// Fixed rates, in jobs/s. The low rate is about a third of this mix's
// capacity on a 4-CPU host; the ladder climbs past that capacity.
constexpr double LowRate = 20;
constexpr double Ladder[] = {50, 75, 100, 125, 150, 175, 200, 225};
constexpr int NumRounds = 8;

/// The rate at which the p90 reaches \p LimitMs: the highest rung that
/// meets the limit with a bounded backlog, interpolated toward the next
/// rung by where the limit falls between their p90s. By Little's law a
/// rung meeting the limit holds at most rate x limit jobs in flight.
double sloRate(const std::vector<Rung> &Rungs, double LimitMs) {
  int Best = -1;
  std::vector<double> P90;
  for (std::size_t I = 0; I != Rungs.size(); ++I) {
    const Rung &G = Rungs[I];
    std::vector<double> Lat = G.latencies();
    std::vector<double> Backlog;
    std::size_t Sent = 0;
    for (const Phase &P : G.Segments) {
      Backlog.push_back(static_cast<double>(P.BacklogAtEnd));
      Sent += P.Jobs.size();
    }
    P90.push_back(Lat.empty() ? 0 : quantile(Lat, 0.9));
    bool Meets = Lat.size() == Sent && P90[I] <= LimitMs &&
                 median(Backlog) <= G.Rate * LimitMs * 1e-3 + 4;
    std::fprintf(stderr,
                 "perfbench: rung %5.0f jobs/s: p50 %7.2f ms, p90 %7.2f ms, "
                 "backlog %5.1f -> %s\n",
                 G.Rate, Lat.empty() ? 0 : median(Lat), P90[I],
                 median(Backlog), Meets ? "meets" : "misses");
    if (Meets)
      Best = static_cast<int>(I);
  }
  if (Best < 0)
    return 0;
  std::size_t B = static_cast<std::size_t>(Best);
  if (B + 1 == Rungs.size() || P90[B + 1] <= LimitMs)
    return Rungs[B].Rate;
  double Frac = (LimitMs - P90[B]) / (P90[B + 1] - P90[B]);
  return Rungs[B].Rate + Frac * (Rungs[B + 1].Rate - Rungs[B].Rate);
}

} // namespace

void perfbench::runServe(const RunArgs &A, Report &R, SpanLog &L) {
  // Set-up: the oracles, then a cold server until its first result is in.
  std::vector<double> SetupS, SeqMs[NumKinds];
  Oracles O{};
  std::unique_ptr<ServeRig> Rig;
  for (int Rep = 0; Rep != 3; ++Rep) {
    Rig.reset();
    std::uint64_t T0 = nowNanos();
    Oracles Fresh = computeOracles(&L);
    R.check(Rep == 0 || std::equal(O.Value, O.Value + NumKinds, Fresh.Value),
            "sequential oracles repeat");
    O = Fresh;
    Rig = std::make_unique<ServeRig>(R, L, O);
    Rig->run(LowRate, 1, nullptr);
    SetupS.push_back(static_cast<double>(nowNanos() - T0) * 1e-9);
    for (int K = 0; K != NumKinds; ++K)
      SeqMs[K].push_back(O.SeqMs[K]);
  }

  // The measured phase: rounds that each visit the low rate and then every
  // rung in a short open-loop segment, so every rate samples the whole
  // run's host conditions. Half of each round goes to the low rate.
  JobDeck Deck(A.Seed);
  auto Jobs = [](double Rate, double Seconds) {
    return static_cast<std::size_t>(std::max(1.0, std::round(Rate * Seconds)));
  };
  const double RoundS = A.Seconds / NumRounds;
  constexpr int NumRungs = sizeof(Ladder) / sizeof(Ladder[0]);
  Rig->run(LowRate, Jobs(LowRate, RoundS / 2), &Deck); // warm-up
  std::vector<Rung> Rungs(1 + NumRungs);
  Rungs[0].Rate = LowRate;
  for (int I = 0; I != NumRungs; ++I)
    Rungs[1 + I].Rate = Ladder[I];
  for (int Round = 0; Round != NumRounds; ++Round)
    for (Rung &G : Rungs) {
      double Seconds = &G == &Rungs[0] ? RoundS / 2 : RoundS / 2 / NumRungs;
      G.Segments.push_back(Rig->run(G.Rate, Jobs(G.Rate, Seconds), &Deck));
    }
  const Rung &Low = Rungs[0];
  std::vector<const Phase *> All;
  for (const Rung &G : Rungs)
    for (const Phase &P : G.Segments)
      All.push_back(&P);
  double SloRate = sloRate(Rungs, A.SloMs);

  // The served problems' 1-worker overhead: each light kind's 1-worker
  // run time (queueing excluded, so every phase counts) over its
  // sequential time, geometric mean over the kinds.
  for (int Rep = 0; Rep != 5; ++Rep) {
    Oracles Again = computeOracles(&L);
    R.check(std::equal(O.Value, O.Value + NumKinds, Again.Value),
            "sequential oracles repeat");
    for (int K = 0; K != NumKinds; ++K)
      SeqMs[K].push_back(Again.SeqMs[K]);
  }
  for (int K = 0; K != NumKinds; ++K)
    O.SeqMs[K] = median(SeqMs[K]);
  double LogSum = 0;
  int Kinds = 0;
  for (int K = 0; K != NumKinds; ++K) {
    std::vector<double> Run;
    for (const Phase *P : All)
      for (const JobSample &J : P->Jobs)
        if (J.Ok && J.Kind == K && J.Workers == 1)
          Run.push_back(J.RunMs);
    if (Run.empty())
      continue;
    LogSum += std::log(median(Run) / O.SeqMs[K]);
    ++Kinds;
  }

  std::vector<double> Lat = Low.latencies();
  using K = Report::Kind;
  R.add("p50_ms", quantile(Lat, 0.5), "ms", K::EndToEnd);
  R.add("p90_ms", quantile(Lat, 0.9), "ms", K::EndToEnd);
  R.add("overhead_1w", Kinds ? std::exp(LogSum / Kinds) : 0, "ratio",
        K::EndToEnd);
  R.add("throughput_per_s", SloRate, "1/s", K::EndToEnd);
  R.add("setup_s", median(SetupS), "s", K::EndToEnd);

  double MeanSeqMs = 0;
  for (double Ms : O.SeqMs)
    MeanSeqMs += Ms / NumKinds;
  R.add("problems.seq_ms", MeanSeqMs, "ms");
  if (L.enabled()) {
    std::vector<const JobSample *> LowJobs;
    for (const Phase &P : Low.Segments)
      for (const JobSample &J : P.Jobs)
        LowJobs.push_back(&J);
    addJobLayerMetrics(R, LowJobs, maxLagMs(All));
    std::vector<RunCounters> Counters;
    std::vector<double> Traced, Untraced;
    for (const JobSample *J : LowJobs) {
      if (!J->Ok)
        continue;
      (J->Traced ? Traced : Untraced).push_back(J->latencyMs());
      if (J->Traced)
        Counters.push_back({J->Rec.Stats, J->RunMs, J->Workers == 1 ? 1 : 4});
    }
    addCounterMetrics(R, Counters);
    R.add("trace.overhead_ms", median(Traced) - median(Untraced), "ms");
  }
  std::fprintf(stderr, "perfbench: %zu jobs at the low rate\n", Lat.size());
}

void perfbench::addServeProbe(const RunArgs &A, Report &R, SpanLog &L) {
  Oracles O = computeOracles(nullptr);
  JobDeck Deck(A.Seed);
  ServeRig Rig(R, L, O);
  Phase P = Rig.run(LowRate, 60, &Deck);
  std::vector<const JobSample *> Jobs;
  for (const JobSample &J : P.Jobs)
    Jobs.push_back(&J);
  addJobLayerMetrics(R, Jobs, maxLagMs({&P}));
}
