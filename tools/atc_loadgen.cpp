//===- tools/atc_loadgen.cpp - Open-loop load generator -------------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Open-loop load generator for atc_server: submits jobs on a fixed
/// schedule (arrival rate independent of completions — the open-loop
/// discipline that actually exposes queueing delay), collects every
/// result, checks values against the sequential oracle, and reports
/// p50/p99 end-to-end latency, throughput, and shed rate.
///
///   atc_server --threads=4 --port=9900 &
///   atc_loadgen --port=9900 --jobs=200 --rate=100
///     with --mix='nqueens-array:10=3,fib:25=3,strimko:5=2'
///
/// Every accepted job is driven to a terminal state — a submission that
/// never resolves is reported as lost (exit 1), so "zero lost jobs" is
/// machine-checkable in CI.
///
//===----------------------------------------------------------------------===//

#include "metrics/Metrics.h"
#include "problems/ProblemRegistry.h"
#include "server/Job.h"
#include "support/LoopbackHttp.h"
#include "support/Options.h"
#include "support/Prng.h"
#include "trace/Json.h"

#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace atc;

namespace {

struct MixEntry {
  std::string Kind;
  int Size = 0;
  int Weight = 1;
};

/// Parses "kind:size=weight,kind:size=weight,...". Weight defaults to 1,
/// size to the kind's registry default.
bool parseMix(const std::string &Text, std::vector<MixEntry> &Out,
              std::string &Error) {
  std::size_t Pos = 0;
  while (Pos < Text.size()) {
    std::size_t End = Text.find(',', Pos);
    if (End == std::string::npos)
      End = Text.size();
    std::string Item = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Item.empty())
      continue;
    MixEntry E;
    std::size_t Eq = Item.find('=');
    if (Eq != std::string::npos) {
      E.Weight = std::atoi(Item.c_str() + Eq + 1);
      Item = Item.substr(0, Eq);
    }
    std::size_t Colon = Item.find(':');
    if (Colon != std::string::npos) {
      E.Size = std::atoi(Item.c_str() + Colon + 1);
      Item = Item.substr(0, Colon);
    }
    E.Kind = Item;
    if (E.Weight < 1) {
      Error = "mix weight must be >= 1 in '" + Text + "'";
      return false;
    }
    ProblemRunner Probe;
    if (!makeProblemRunner(E.Kind, E.Size, Probe, Error))
      return false;
    E.Kind = Probe.Kind;
    E.Size = Probe.Size;
    Out.push_back(E);
  }
  if (Out.empty()) {
    Error = "empty job mix";
    return false;
  }
  return true;
}

struct Collected {
  std::mutex Lock;
  std::uint64_t Completed = 0;
  std::uint64_t Failed = 0;
  std::uint64_t Expired = 0;
  std::uint64_t Lost = 0;
  std::uint64_t ValueMismatches = 0;
  HistogramCounts LatencyNs;
  HistogramCounts QueueNs;
};

/// One collector: long-polls /result/<id> until the job is terminal.
void collectOne(int Port, std::uint64_t Id,
                const std::map<std::string, long long> &Oracle,
                Collected &C) {
  for (int Attempt = 0; Attempt < 60; ++Attempt) {
    int Status = 0;
    std::string Body;
    char Path[64];
    std::snprintf(Path, sizeof(Path), "/result/%llu?wait=10000",
                  static_cast<unsigned long long>(Id));
    if (!httpRequest(Port, "GET", Path, "", Status, Body)) {
      ::usleep(10 * 1000);
      continue;
    }
    json::Value Doc;
    std::string Err;
    if (Status != 200 || !json::parse(Body, Doc, Err))
      continue;
    std::string State = Doc["state"].stringOr("");
    if (State == "queued" || State == "running" || State.empty())
      continue;
    std::lock_guard<std::mutex> Guard(C.Lock);
    if (State == "done") {
      ++C.Completed;
      C.LatencyNs.record(
          static_cast<std::uint64_t>(Doc["latency_ns"].numberOr(0)));
      C.QueueNs.record(
          static_cast<std::uint64_t>(Doc["queue_ns"].numberOr(0)));
      const json::Value &Spec = Doc["spec"];
      std::string Key = Spec["problem"].stringOr("") + ":" +
                        std::to_string(static_cast<long long>(
                            Spec["size"].numberOr(0)));
      auto It = Oracle.find(Key);
      if (It != Oracle.end() &&
          static_cast<long long>(Doc["value"].numberOr(0)) != It->second)
        ++C.ValueMismatches;
    } else if (State == "expired") {
      ++C.Expired;
    } else {
      ++C.Failed;
    }
    return;
  }
  std::lock_guard<std::mutex> Guard(C.Lock);
  ++C.Lost;
}

} // namespace

int main(int argc, char **argv) {
  long long Port = 9900;
  long long Jobs = 200;
  double Rate = 100.0;
  long long Tenants = 4;
  long long Workers = 0;
  long long DeadlineMs = 0;
  long long Collectors = 8;
  std::string Mix = "nqueens-array:10=3,fib:25=3,strimko:5=2,knights:5=1";
  std::string Scheduler = "adaptivetc";
  std::string JsonPath;
  long long Seed = 0x10adULL;
  OptionSet Opts("Open-loop load generator for atc_server");
  Opts.addInt("port", &Port, "server port (default 9900)");
  Opts.addInt("jobs", &Jobs, "total jobs to submit (default 200)");
  Opts.addDouble("rate", &Rate,
                 "arrival rate in jobs/second, open loop (default 100)");
  Opts.addString("mix", &Mix,
                 "weighted job mix 'kind:size=weight,...' (sizes 0 = "
                 "registry default)");
  Opts.addInt("tenants", &Tenants,
              "spread jobs across this many tenants (default 4)");
  Opts.addInt("workers", &Workers,
              "workers per job; 0 = server pool width (default 0)", 0,
              MaxThreadsFlag);
  Opts.addInt("deadline-ms", &DeadlineMs,
              "per-job queue deadline; 0 = none (default 0)");
  Opts.addInt("collectors", &Collectors,
              "result-collector threads (default 8)");
  Opts.addString("scheduler", &Scheduler,
                 "scheduler kind for every job (default adaptivetc)");
  Opts.addString("json", &JsonPath,
                 "write the machine-readable report here (the "
                 "BENCH_server.json family)");
  Opts.addInt("seed", &Seed, "mix-sampling seed");
  Opts.parse(argc, argv);

  std::vector<MixEntry> Entries;
  std::string Err;
  if (!parseMix(Mix, Entries, Err)) {
    std::fprintf(stderr, "atc_loadgen: %s\n", Err.c_str());
    return 2;
  }
  SchedulerKind Kind;
  if (!parseSchedulerKind(Scheduler, Kind)) {
    std::fprintf(stderr, "atc_loadgen: %s\n",
                 unknownSchedulerKindError(Scheduler).c_str());
    return 2;
  }

  // Sequential oracle per mix entry, computed locally once — every
  // completed job's value is checked against it.
  std::map<std::string, long long> Oracle;
  for (const MixEntry &E : Entries) {
    std::string Key = E.Kind + ":" + std::to_string(E.Size);
    if (Oracle.count(Key))
      continue;
    ProblemRunner R;
    if (!makeProblemRunner(E.Kind, E.Size, R, Err)) {
      std::fprintf(stderr, "atc_loadgen: %s\n", Err.c_str());
      return 2;
    }
    Oracle[Key] = R.RunSequential();
  }

  int TotalWeight = 0;
  for (const MixEntry &E : Entries)
    TotalWeight += E.Weight;
  SplitMix64 Rng(static_cast<std::uint64_t>(Seed));

  // Collector pool over a shared id queue.
  Collected C;
  std::mutex IdLock;
  std::deque<std::uint64_t> IdQueue;
  bool SubmitDone = false;
  std::vector<std::thread> Pool;
  for (long long I = 0; I < Collectors; ++I)
    Pool.emplace_back([&] {
      for (;;) {
        std::uint64_t Id = 0;
        {
          std::lock_guard<std::mutex> Guard(IdLock);
          if (!IdQueue.empty()) {
            Id = IdQueue.front();
            IdQueue.pop_front();
          } else if (SubmitDone) {
            return;
          }
        }
        if (Id == 0) {
          ::usleep(2 * 1000);
          continue;
        }
        collectOne(static_cast<int>(Port), Id, Oracle, C);
      }
    });

  // Open-loop submission: job i is due at Start + i/Rate regardless of
  // how the server is keeping up.
  std::uint64_t StartNs = nowNanos();
  std::uint64_t Accepted = 0, ShedCount = 0, SubmitErrors = 0;
  for (long long I = 0; I < Jobs; ++I) {
    std::uint64_t DueNs =
        StartNs + static_cast<std::uint64_t>(1e9 * I / Rate);
    std::uint64_t Now = nowNanos();
    if (DueNs > Now)
      ::usleep(static_cast<useconds_t>((DueNs - Now) / 1000));

    const MixEntry *Pick = &Entries[0];
    int Roll = static_cast<int>(
        Rng.nextBelow(static_cast<std::uint64_t>(TotalWeight)));
    for (const MixEntry &E : Entries) {
      if (Roll < E.Weight) {
        Pick = &E;
        break;
      }
      Roll -= E.Weight;
    }

    JobSpec Spec;
    Spec.Problem = Pick->Kind;
    Spec.Size = Pick->Size;
    // snprintf rather than string concatenation: the concat forms trip
    // a GCC 12 -Werror=restrict false positive (PR 105651) at -O2.
    char TenantBuf[32];
    std::snprintf(TenantBuf, sizeof(TenantBuf), "t%lld",
                  static_cast<long long>(I % Tenants));
    Spec.Tenant = TenantBuf;
    Spec.Kind = Kind;
    Spec.Workers = static_cast<int>(Workers);
    Spec.DeadlineMs = DeadlineMs;

    int Status = 0;
    std::string Body;
    if (!httpRequest(static_cast<int>(Port), "POST", "/job",
                     jobSpecJson(Spec), Status, Body)) {
      ++SubmitErrors;
      continue;
    }
    if (Status == 429) {
      ++ShedCount;
      continue;
    }
    if (Status != 200) {
      ++SubmitErrors;
      continue;
    }
    json::Value Doc;
    std::uint64_t Id =
        json::parse(Body, Doc, Err)
            ? static_cast<std::uint64_t>(Doc["id"].numberOr(0))
            : 0;
    if (Id == 0) {
      ++SubmitErrors;
      continue;
    }
    ++Accepted;
    std::lock_guard<std::mutex> Guard(IdLock);
    IdQueue.push_back(Id);
  }
  {
    std::lock_guard<std::mutex> Guard(IdLock);
    SubmitDone = true;
  }
  for (std::thread &T : Pool)
    T.join();
  double WallS = static_cast<double>(nowNanos() - StartNs) / 1e9;

  double P50 = C.LatencyNs.quantile(0.50);
  double P90 = C.LatencyNs.quantile(0.90);
  double P99 = C.LatencyNs.quantile(0.99);
  double Throughput = WallS > 0 ? C.Completed / WallS : 0;
  double ShedRate =
      Jobs > 0 ? static_cast<double>(ShedCount) / static_cast<double>(Jobs)
               : 0;

  std::printf("atc_loadgen: %lld jobs at %.0f/s over %.2f s\n", Jobs, Rate,
              WallS);
  std::printf("  accepted %llu, shed %llu (%.1f%%), submit errors %llu\n",
              static_cast<unsigned long long>(Accepted),
              static_cast<unsigned long long>(ShedCount), ShedRate * 100.0,
              static_cast<unsigned long long>(SubmitErrors));
  std::printf("  completed %llu, failed %llu, expired %llu, lost %llu, "
              "value mismatches %llu\n",
              static_cast<unsigned long long>(C.Completed),
              static_cast<unsigned long long>(C.Failed),
              static_cast<unsigned long long>(C.Expired),
              static_cast<unsigned long long>(C.Lost),
              static_cast<unsigned long long>(C.ValueMismatches));
  std::printf("  latency p50 %.2f ms, p90 %.2f ms, p99 %.2f ms; queue p50 "
              "%.2f ms\n",
              P50 / 1e6, P90 / 1e6, P99 / 1e6,
              C.QueueNs.quantile(0.50) / 1e6);
  std::printf("  throughput %.1f jobs/s\n", Throughput);

  if (!JsonPath.empty()) {
    std::FILE *F = std::fopen(JsonPath.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "atc_loadgen: cannot write '%s'\n",
                   JsonPath.c_str());
      return 2;
    }
    std::fprintf(
        F,
        "{\n  \"jobs\": %lld,\n  \"rate\": %.1f,\n  \"mix\": \"%s\",\n"
        "  \"wall_s\": %.3f,\n  \"accepted\": %llu,\n  \"shed\": %llu,\n"
        "  \"submit_errors\": %llu,\n  \"completed\": %llu,\n"
        "  \"failed\": %llu,\n  \"expired\": %llu,\n  \"lost\": %llu,\n"
        "  \"value_mismatches\": %llu,\n  \"shed_rate\": %.4f,\n"
        "  \"throughput_jobs_s\": %.2f,\n"
        "  \"latency_ns\": {\"p50\": %.1f, \"p90\": %.1f, \"p99\": %.1f},\n"
        "  \"queue_ns\": {\"p50\": %.1f, \"p99\": %.1f}\n}\n",
        Jobs, Rate, Mix.c_str(), WallS,
        static_cast<unsigned long long>(Accepted),
        static_cast<unsigned long long>(ShedCount),
        static_cast<unsigned long long>(SubmitErrors),
        static_cast<unsigned long long>(C.Completed),
        static_cast<unsigned long long>(C.Failed),
        static_cast<unsigned long long>(C.Expired),
        static_cast<unsigned long long>(C.Lost),
        static_cast<unsigned long long>(C.ValueMismatches), ShedRate,
        Throughput, P50, P90, P99, C.QueueNs.quantile(0.50),
        C.QueueNs.quantile(0.99));
    std::fclose(F);
  }

  bool Ok = C.Lost == 0 && C.Failed == 0 && C.ValueMismatches == 0 &&
            SubmitErrors == 0 &&
            C.Completed + C.Expired + ShedCount ==
                static_cast<std::uint64_t>(Jobs);
  return Ok ? 0 : 1;
}
