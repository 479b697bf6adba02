//===- metrics/Exposition.cpp - Prometheus / JSON exposition --------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "metrics/Exposition.h"

#include "trace/Json.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

using namespace atc;

namespace {

void appendf(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string &Out, const char *Fmt, ...) {
  va_list Args, Sizing;
  va_start(Args, Fmt);
  va_copy(Sizing, Args);
  const int Len = std::vsnprintf(nullptr, 0, Fmt, Sizing);
  va_end(Sizing);
  const std::size_t Old = Out.size();
  Out.resize(Old + static_cast<std::size_t>(Len) + 1);
  std::vsnprintf(Out.data() + Old, static_cast<std::size_t>(Len) + 1, Fmt,
                 Args);
  va_end(Args);
  Out.resize(Old + static_cast<std::size_t>(Len));
}

/// Escapes a Prometheus label value (backslash, quote, newline).
std::string escapeLabel(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '\\' || C == '"')
      Out += '\\';
    if (C == '\n') {
      Out += "\\n";
      continue;
    }
    Out += C;
  }
  return Out;
}

/// Highest non-empty bucket index, or 0 when the histogram is empty.
unsigned lastUsedBucket(const HistogramCounts &H) {
  unsigned Last = 0;
  for (unsigned B = 0; B != NumLog2Buckets; ++B)
    if (H.Buckets[B] != 0)
      Last = B;
  return Last;
}

/// Emits one per-worker histogram in Prometheus histogram convention:
/// cumulative le buckets (trimmed after the last non-empty one), +Inf,
/// _sum and _count.
void renderHistogram(std::string &Out, const char *Name,
                     const HistogramCounts &H, int Worker) {
  unsigned Last = lastUsedBucket(H);
  std::uint64_t Cum = 0;
  for (unsigned B = 0; B <= Last; ++B) {
    Cum += H.Buckets[B];
    appendf(Out, "%s_bucket{worker=\"%d\",le=\"%llu\"} %llu\n", Name, Worker,
            static_cast<unsigned long long>(log2BucketUpperBound(B)),
            static_cast<unsigned long long>(Cum));
  }
  appendf(Out, "%s_bucket{worker=\"%d\",le=\"+Inf\"} %llu\n", Name, Worker,
          static_cast<unsigned long long>(H.Count));
  appendf(Out, "%s_sum{worker=\"%d\"} %llu\n", Name, Worker,
          static_cast<unsigned long long>(H.Sum));
  appendf(Out, "%s_count{worker=\"%d\"} %llu\n", Name, Worker,
          static_cast<unsigned long long>(H.Count));
}

struct HistogramDef {
  const char *Name;
  const char *Help;
  const HistogramCounts &(*Get)(const WorkerSample &);
};

const HistogramDef HistogramDefs[] = {
    {"atc_steal_latency_ns", "Idle-to-acquire latency per successful steal",
     [](const WorkerSample &W) -> const HistogramCounts & {
       return W.StealLatencyNs;
     }},
    {"atc_spawn_cost_ns", "Alloc+copy+push cost per real spawn",
     [](const WorkerSample &W) -> const HistogramCounts & {
       return W.SpawnCostNs;
     }},
    {"atc_deque_depth_hist", "Deque occupancy observed after each push",
     [](const WorkerSample &W) -> const HistogramCounts & {
       return W.DequeDepthHist;
     }},
    {"atc_reseed_interval_ns", "Interval between special-task publishes",
     [](const WorkerSample &W) -> const HistogramCounts & {
       return W.ReseedIntervalNs;
     }},
};

/// Appends one histogram's JSON summary (count, sum, p50/p90/p99).
void jsonHistogram(std::string &Out, const char *Key,
                   const HistogramCounts &H) {
  appendf(Out,
          "\"%s\": {\"count\": %llu, \"sum\": %llu, "
          "\"p50\": %.1f, \"p90\": %.1f, \"p99\": %.1f}",
          Key, static_cast<unsigned long long>(H.Count),
          static_cast<unsigned long long>(H.Sum), H.quantile(0.50),
          H.quantile(0.90), H.quantile(0.99));
}

} // namespace

std::string atc::renderPrometheus(const MetricsSnapshot &Snap,
                                  const MetricsMeta &Meta) {
  std::string Out;
  Out.reserve(16384);
  int NumWorkers = static_cast<int>(Snap.Workers.size());

  appendf(Out, "# atc metrics exposition (schema %d)\n", Meta.SchemaVersion);
  appendf(Out, "# HELP atc_run_info Run identity (value is always 1)\n");
  appendf(Out, "# TYPE atc_run_info gauge\n");
  appendf(Out,
          "atc_run_info{scheduler=\"%s\",source=\"%s\",workload=\"%s\"} 1\n",
          escapeLabel(Meta.Scheduler).c_str(),
          escapeLabel(Meta.Source).c_str(),
          escapeLabel(Meta.Workload).c_str());
  appendf(Out, "# TYPE atc_workers gauge\natc_workers %d\n", NumWorkers);
  appendf(Out, "# TYPE atc_snapshot_time_ns gauge\natc_snapshot_time_ns %llu\n",
          static_cast<unsigned long long>(Snap.TimeNs));
  appendf(Out, "# HELP atc_epoch Run epoch: registry reset count — ticks "
               "once per job on a server registry\n");
  appendf(Out, "# TYPE atc_epoch gauge\natc_epoch %llu\n",
          static_cast<unsigned long long>(Snap.Epoch));

  // Every SchedulerStats field, per worker, straight from the mirror.
  for (unsigned I = 0; I != NumStatFields; ++I) {
    auto F = static_cast<StatField>(I);
    bool Gauge = statFieldIsGauge(F);
    appendf(Out, "# HELP atc_%s %s\n", statFieldPromName(F), statFieldHelp(F));
    appendf(Out, "# TYPE atc_%s %s\n", statFieldPromName(F),
            Gauge ? "gauge" : "counter");
    for (int W = 0; W != NumWorkers; ++W)
      appendf(Out, "atc_%s%s{worker=\"%d\"} %llu\n", statFieldPromName(F),
              Gauge ? "" : "_total", W,
              static_cast<unsigned long long>(Snap.Workers[W].stat(F)));
  }

  // Live gauges.
  appendf(Out, "# HELP atc_deque_depth Current deque occupancy\n");
  appendf(Out, "# TYPE atc_deque_depth gauge\n");
  for (int W = 0; W != NumWorkers; ++W)
    appendf(Out, "atc_deque_depth{worker=\"%d\"} %lld\n", W,
            static_cast<long long>(Snap.Workers[W].DequeDepth));
  appendf(Out, "# HELP atc_worker_mode Current FSM mode (see mode label on "
               "atc_mode_ns_total)\n");
  appendf(Out, "# TYPE atc_worker_mode gauge\n");
  for (int W = 0; W != NumWorkers; ++W)
    appendf(Out, "atc_worker_mode{worker=\"%d\",mode=\"%s\"} %d\n", W,
            traceModeName(Snap.Workers[W].Mode),
            static_cast<int>(Snap.Workers[W].Mode));
  appendf(Out, "# HELP atc_need_task need_task flag (1 = a thief wants a "
               "special task from this worker)\n");
  appendf(Out, "# TYPE atc_need_task gauge\n");
  for (int W = 0; W != NumWorkers; ++W)
    appendf(Out, "atc_need_task{worker=\"%d\"} %d\n", W,
            Snap.Workers[W].NeedTask ? 1 : 0);

  // Mode residency.
  appendf(Out, "# HELP atc_mode_ns Nanoseconds spent in each FSM mode\n");
  appendf(Out, "# TYPE atc_mode_ns counter\n");
  for (int W = 0; W != NumWorkers; ++W)
    for (int M = 0; M != NumTraceModes; ++M)
      appendf(Out, "atc_mode_ns_total{worker=\"%d\",mode=\"%s\"} %llu\n", W,
              traceModeName(static_cast<TraceMode>(M)),
              static_cast<unsigned long long>(Snap.Workers[W].ModeNs[M]));

  // Histograms.
  for (const HistogramDef &D : HistogramDefs) {
    appendf(Out, "# HELP %s %s\n", D.Name, D.Help);
    appendf(Out, "# TYPE %s histogram\n", D.Name);
    for (int W = 0; W != NumWorkers; ++W)
      renderHistogram(Out, D.Name, D.Get(Snap.Workers[W]), W);
  }
  return Out;
}

std::string atc::renderJsonSeries(const std::vector<MetricsSnapshot> &History,
                                  const MetricsMeta &Meta) {
  std::string Out;
  Out.reserve(16384);
  appendf(Out,
          "{\n\"schema_version\": %d,\n\"scheduler\": \"%s\",\n"
          "\"source\": \"%s\",\n\"workload\": \"%s\",\n\"snapshots\": [",
          Meta.SchemaVersion, escapeJson(Meta.Scheduler).c_str(),
          escapeJson(Meta.Source).c_str(), escapeJson(Meta.Workload).c_str());
  for (std::size_t S = 0; S != History.size(); ++S) {
    const MetricsSnapshot &Snap = History[S];
    appendf(Out, "%s\n{\"time_ns\": %llu, \"workers\": [", S ? "," : "",
            static_cast<unsigned long long>(Snap.TimeNs));
    for (std::size_t W = 0; W != Snap.Workers.size(); ++W) {
      const WorkerSample &Ws = Snap.Workers[W];
      appendf(Out, "%s\n  {\"id\": %d, \"mode\": \"%s\", \"need_task\": %s, "
                   "\"deque_depth\": %lld,\n   \"stats\": {",
              W ? "," : "", static_cast<int>(W), traceModeName(Ws.Mode),
              Ws.NeedTask ? "true" : "false",
              static_cast<long long>(Ws.DequeDepth));
      for (unsigned F = 0; F != NumStatFields; ++F)
        appendf(Out, "%s\"%s\": %llu", F ? ", " : "",
                statFieldPromName(static_cast<StatField>(F)),
                static_cast<unsigned long long>(
                    Ws.stat(static_cast<StatField>(F))));
      Out += "},\n   \"mode_ns\": {";
      for (int M = 0; M != NumTraceModes; ++M)
        appendf(Out, "%s\"%s\": %llu", M ? ", " : "",
                traceModeName(static_cast<TraceMode>(M)),
                static_cast<unsigned long long>(Ws.ModeNs[M]));
      Out += "},\n   \"hist\": {";
      jsonHistogram(Out, "steal_latency_ns", Ws.StealLatencyNs);
      Out += ", ";
      jsonHistogram(Out, "spawn_cost_ns", Ws.SpawnCostNs);
      Out += ", ";
      jsonHistogram(Out, "deque_depth", Ws.DequeDepthHist);
      Out += ", ";
      jsonHistogram(Out, "reseed_interval_ns", Ws.ReseedIntervalNs);
      Out += "}}";
    }
    Out += "]}";
  }
  Out += "\n]\n}\n";
  return Out;
}

std::uint64_t PromSample::asU64() const {
  if (Raw.empty())
    return 0;
  for (char C : Raw)
    if (!std::isdigit(static_cast<unsigned char>(C)))
      return 0;
  return std::strtoull(Raw.c_str(), nullptr, 10);
}

std::vector<PromSample> atc::parsePrometheus(const std::string &Text) {
  std::vector<PromSample> Out;
  std::size_t Pos = 0;
  while (Pos < Text.size()) {
    std::size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size();
    std::string Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Line.empty() || Line[0] == '#')
      continue;

    PromSample S;
    std::size_t I = 0;
    while (I < Line.size() && Line[I] != '{' && Line[I] != ' ')
      ++I;
    S.Name = Line.substr(0, I);
    if (S.Name.empty())
      continue;
    if (I < Line.size() && Line[I] == '{') {
      ++I;
      while (I < Line.size() && Line[I] != '}') {
        std::size_t Eq = Line.find('=', I);
        if (Eq == std::string::npos || Eq + 1 >= Line.size() ||
            Line[Eq + 1] != '"')
          break;
        std::string Key = Line.substr(I, Eq - I);
        std::string Val;
        std::size_t J = Eq + 2;
        while (J < Line.size() && Line[J] != '"') {
          if (Line[J] == '\\' && J + 1 < Line.size()) {
            ++J;
            Val += Line[J] == 'n' ? '\n' : Line[J];
          } else {
            Val += Line[J];
          }
          ++J;
        }
        S.Labels[Key] = Val;
        I = J + 1;
        if (I < Line.size() && Line[I] == ',')
          ++I;
      }
      I = Line.find('}', I);
      if (I == std::string::npos)
        continue;
      ++I;
    }
    while (I < Line.size() && Line[I] == ' ')
      ++I;
    S.Raw = Line.substr(I);
    // Trim trailing whitespace / optional timestamp field.
    std::size_t Sp = S.Raw.find(' ');
    if (Sp != std::string::npos)
      S.Raw = S.Raw.substr(0, Sp);
    S.Value = std::strtod(S.Raw.c_str(), nullptr);
    Out.push_back(std::move(S));
  }
  return Out;
}

std::uint64_t atc::promTotal(const std::vector<PromSample> &Samples,
                             const std::string &Name, bool Gauge) {
  std::string Target = Gauge ? Name : Name + "_total";
  std::uint64_t T = 0;
  for (const PromSample &S : Samples) {
    if (S.Name != Target)
      continue;
    if (Gauge)
      T = T > S.asU64() ? T : S.asU64();
    else
      T += S.asU64();
  }
  return T;
}

bool atc::writeTextFileAtomic(const std::string &Path,
                              const std::string &Text) {
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Out << Text;
    if (!Out.flush())
      return false;
  }
  return std::rename(Tmp.c_str(), Path.c_str()) == 0;
}
