//===- perfbench/src/Harness.cpp - Shared benchmark plumbing --------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>

#include <sys/resource.h>

using namespace perfbench;

double perfbench::quantile(std::vector<double> V, double Q) {
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Pos);
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

void Report::add(const std::string &Name, double Value, const char *Unit,
                 Kind K) {
  if (!std::isfinite(Value)) {
    check(false, "metric " + Name + " is not a finite number");
    Value = 0;
  }
  std::lock_guard<std::mutex> Guard(Lock);
  Metrics.push_back({Name, Value, Unit, K});
}

void Report::check(bool Ok, const std::string &What) {
  std::lock_guard<std::mutex> Guard(Lock);
  ++Attempted;
  if (Ok)
    return;
  if (++Failed <= 5)
    std::fprintf(stderr, "perfbench: check failed: %s\n", What.c_str());
}

bool Report::correct() const {
  std::lock_guard<std::mutex> Guard(Lock);
  return Failed == 0 && Attempted > 0;
}

void Report::printSummary(const RunArgs &A) const {
  std::lock_guard<std::mutex> Guard(Lock);
  std::fprintf(stderr, "perfbench %s seed=%llu seconds=%g trace=%d\n",
               A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
               A.Seconds, A.Trace ? 1 : 0);
  for (const Metric &M : Metrics)
    std::fprintf(stderr, "  %-5s %-28s %14.4f %s\n",
                 M.K == Kind::EndToEnd ? "e2e" : "layer", M.Name.c_str(),
                 M.Value, M.Unit.c_str());
  std::fprintf(stderr, "  checked %llu, failed %llu\n",
               static_cast<unsigned long long>(Attempted),
               static_cast<unsigned long long>(Failed));
}

void Report::printJsonLine(bool Traced) const {
  std::lock_guard<std::mutex> Guard(Lock);
  Kind Want = Traced ? Kind::Layer : Kind::EndToEnd;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Failed == 0 && Attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  bool First = true;
  for (const Metric &M : Metrics) {
    if (M.K != Want)
      continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", M.Name.c_str(), M.Value, M.Unit.c_str());
    First = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::uint64_t SpanLog::add(const char *Name, std::uint64_t BeginNs,
                           std::uint64_t EndNs, std::uint64_t Parent,
                           std::uint64_t Job) {
  if (!Enabled)
    return 0;
  std::lock_guard<std::mutex> Guard(Lock);
  std::uint64_t Id = Spans.size() + 1;
  Spans.push_back({Name, Id, Parent, Job, BeginNs, std::max(BeginNs, EndNs)});
  return Id;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> Guard(Lock);
  return Spans.size();
}

std::map<std::string, double> SpanLog::meanSelfUs() const {
  std::lock_guard<std::mutex> Guard(Lock);
  // Ids are 1-based indices into Spans.
  std::vector<std::vector<std::size_t>> Children(Spans.size() + 1);
  for (std::size_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].Parent != 0)
      Children[Spans[I].Parent].push_back(I);

  std::map<std::string, std::pair<double, std::size_t>> SumCount;
  for (const Span &S : Spans) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> Kids;
    for (std::size_t C : Children[S.Id])
      Kids.emplace_back(std::max(Spans[C].BeginNs, S.BeginNs),
                        std::min(Spans[C].EndNs, S.EndNs));
    std::sort(Kids.begin(), Kids.end());
    std::uint64_t Covered = 0, Reach = S.BeginNs;
    for (auto [B, E] : Kids) {
      B = std::max(B, Reach);
      if (E > B) {
        Covered += E - B;
        Reach = E;
      }
    }
    auto &[Sum, Count] = SumCount[S.Name];
    Sum += static_cast<double>(S.EndNs - S.BeginNs - Covered) * 1e-3;
    ++Count;
  }
  std::map<std::string, double> Out;
  for (const auto &[Name, SC] : SumCount)
    Out[Name] = SC.first / static_cast<double>(SC.second);
  return Out;
}

bool SpanLog::writeJson(const std::string &Path) const {
  std::lock_guard<std::mutex> Guard(Lock);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::uint64_t Base = UINT64_MAX;
  for (const Span &S : Spans)
    Base = std::min(Base, S.BeginNs);
  auto Us = [Base](std::uint64_t Ns) {
    return static_cast<double>(Ns - Base) * 1e-3;
  };
  std::fprintf(F, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool First = true;
  for (const Span &S : Spans) {
    const char *Sep = First ? "" : ",\n";
    First = false;
    if (S.Job == 0) {
      std::fprintf(F,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f}",
                   Sep, S.Name, Us(S.BeginNs), Us(S.EndNs) - Us(S.BeginNs));
      continue;
    }
    // One nestable async track per job: its phases overlap other jobs'.
    for (int End = 0; End != 2; ++End)
      std::fprintf(F,
                   "%s{\"name\": \"%s\", \"cat\": \"job\", \"ph\": \"%s\", "
                   "\"id\": %llu, \"pid\": 1, \"tid\": 2, \"ts\": %.3f, "
                   "\"args\": {\"job\": %llu}}",
                   End ? ",\n" : Sep, S.Name, End ? "e" : "b",
                   static_cast<unsigned long long>(S.Job),
                   Us(End ? S.EndNs : S.BeginNs),
                   static_cast<unsigned long long>(S.Job));
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

namespace {

/// A fixed amount of integer work the compiler cannot remove.
void spin() {
  volatile std::uint64_t Sink = 0;
  for (std::uint64_t I = 0; I < 40'000'000; ++I)
    Sink = Sink + I;
}

} // namespace

double perfbench::hostParallelism() {
  int N = static_cast<int>(std::thread::hardware_concurrency());
  N = N < 1 ? 1 : N;
  std::vector<double> Ratios;
  for (int Rep = 0; Rep != 3; ++Rep) {
    double One = atc::timeSeconds(spin);
    double All = atc::timeSeconds([N] {
      std::vector<std::thread> Threads;
      for (int I = 0; I != N; ++I)
        Threads.emplace_back(spin);
      for (std::thread &T : Threads)
        T.join();
    });
    Ratios.push_back(N * One / All);
  }
  return median(Ratios);
}

double perfbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

void perfbench::addCounterMetrics(Report &R,
                                  const std::vector<RunCounters> &Runs) {
  atc::SchedulerStats Sum;
  double CapacityNs = 0;
  for (const RunCounters &C : Runs) {
    Sum += C.Stats;
    CapacityNs += C.Workers * C.WallMs * 1e6;
  }
  const double N = static_cast<double>(Runs.size());
  auto PerRun = [N](std::uint64_t Total) {
    return static_cast<double>(Total) / N;
  };

  R.add("problems.nodes", PerRun(Sum.TasksCreated + Sum.FakeTasks), "count");
  R.add("kernel.tasks_created", PerRun(Sum.TasksCreated), "count");
  R.add("kernel.fake_tasks", PerRun(Sum.FakeTasks), "count");
  R.add("kernel.special_tasks", PerRun(Sum.SpecialTasks), "count");
  R.add("kernel.copied_mb", PerRun(Sum.CopiedBytes) * 1e-6, "MB");
  R.add("kernel.steals", PerRun(Sum.Steals), "count");
  R.add("kernel.steal_attempts", PerRun(Sum.StealAttempts), "count");
  R.add("kernel.steal_success",
        Sum.StealAttempts ? static_cast<double>(Sum.Steals) /
                                static_cast<double>(Sum.StealAttempts)
                          : 0.0,
        "ratio");
  R.add("kernel.steal_wait_ms", PerRun(Sum.StealWaitNs) * 1e-6, "ms");
  R.add("kernel.wait_children_ms", PerRun(Sum.WaitChildrenNs) * 1e-6, "ms");
  R.add("kernel.idle_share",
        CapacityNs > 0 ? static_cast<double>(Sum.StealWaitNs) / CapacityNs
                       : 0.0,
        "ratio");
  R.add("deque.spawns", PerRun(Sum.Spawns), "count");
  R.add("deque.lock_acquires", PerRun(Sum.LockAcquires), "count");
  R.add("deque.cas_retries", PerRun(Sum.CasRetries), "count");
}
