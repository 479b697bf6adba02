//===- trace/TraceJson.h - Chrome/Perfetto trace exporter -------*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exports a TraceLog as Chrome trace-event JSON, the format Perfetto
/// (https://ui.perfetto.dev) and chrome://tracing load directly. Layout:
/// one track (tid) per worker, the worker's mode intervals as complete
/// ("X") slices — so the five-version FSM reads as colored spans — every
/// other event as a thread-scoped instant ("i"), and each successful
/// steal as a flow arrow ("s" on the victim track, "f" on the thief)
/// so work movement is visible as arcs between tracks.
///
/// Header-only on purpose: atcc-generated programs compile standalone
/// with just `-I <repo>/src`, and they export their own traces.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_TRACE_TRACEJSON_H
#define ATC_TRACE_TRACEJSON_H

#include "trace/Json.h"
#include "trace/TraceLog.h"

#include <cinttypes>
#include <cstdio>
#include <string>

namespace atc {
namespace trace_json_detail {

/// Nanoseconds -> the Chrome format's microsecond field, keeping
/// sub-microsecond precision (the format accepts fractional ts).
inline double toMicros(std::uint64_t Ns) {
  return static_cast<double>(Ns) / 1000.0;
}

struct EventWriter {
  std::FILE *F;
  bool First = true;

  void sep() {
    if (!First)
      std::fputs(",\n", F);
    First = false;
  }

  void metaThreadName(int Tid, const std::string &Name) {
    sep();
    std::fprintf(F,
                 "  {\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":"
                 "\"thread_name\",\"args\":{\"name\":\"%s\"}}",
                 Tid, escapeJson(Name).c_str());
  }

  void modeSlice(int Tid, TraceMode M, std::uint64_t BeginNs,
                 std::uint64_t EndNs) {
    sep();
    std::fprintf(F,
                 "  {\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"cat\":\"mode\","
                 "\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f}",
                 Tid, traceModeName(M), toMicros(BeginNs),
                 toMicros(EndNs - BeginNs));
  }

  void instant(int Tid, const TraceEvent &E, std::uint64_t Ns) {
    sep();
    std::fprintf(F,
                 "  {\"ph\":\"i\",\"pid\":0,\"tid\":%d,\"s\":\"t\","
                 "\"cat\":\"event\",\"name\":\"%s\",\"ts\":%.3f,"
                 "\"args\":{\"a\":%" PRIu32 ",\"b\":%u}}",
                 Tid, traceEventKindName(E.kind()), toMicros(Ns), E.A,
                 static_cast<unsigned>(E.B));
  }

  /// One steal (or donation) as a flow pair: "s" starts the arrow on
  /// \p FromTid, "f" with bp:"e" ends it on \p ToTid. Perfetto binds
  /// each endpoint to the enclosing slice, which the wall-to-wall mode
  /// spans guarantee exists.
  void flow(int Id, const char *Name, int FromTid, int ToTid,
            std::uint64_t Ns) {
    double Ts = toMicros(Ns);
    sep();
    std::fprintf(F,
                 "  {\"ph\":\"s\",\"pid\":0,\"tid\":%d,\"cat\":\"steal\","
                 "\"name\":\"%s\",\"id\":%d,\"ts\":%.3f}",
                 FromTid, Name, Id, Ts);
    sep();
    std::fprintf(F,
                 "  {\"ph\":\"f\",\"pid\":0,\"tid\":%d,\"cat\":\"steal\","
                 "\"name\":\"%s\",\"id\":%d,\"ts\":%.3f,\"bp\":\"e\"}",
                 ToTid, Name, Id, Ts);
  }
};

} // namespace trace_json_detail

/// Writes \p Log to \p F in Chrome trace-event JSON. Timestamps are
/// rebased so the earliest retained event across all workers is t=0.
inline void writeChromeTrace(const TraceLog &Log, std::FILE *F) {
  using namespace trace_json_detail;

  // Rebase: raw stamps are monotonic-clock (or virtual-time) absolutes.
  std::uint64_t T0 = UINT64_MAX;
  std::uint64_t TEnd = 0;
  for (int W = 0; W < Log.numWorkers(); ++W) {
    const TraceBuffer &B = Log.buffer(W);
    if (B.size() == 0)
      continue;
    if (B.at(0).TimeNs < T0)
      T0 = B.at(0).TimeNs;
    if (B.at(B.size() - 1).TimeNs > TEnd)
      TEnd = B.at(B.size() - 1).TimeNs;
  }
  if (T0 == UINT64_MAX)
    T0 = TEnd = 0;

  std::fputs("{\n\"displayTimeUnit\":\"ms\",\n", F);
  std::fprintf(F,
               "\"otherData\":{\"schemaVersion\":%d,\"scheduler\":\"%s\","
               "\"source\":\"%s\",\"workload\":\"%s\",\"workers\":%d,"
               "\"dropped\":%" PRIu64 "},\n",
               Log.Meta.SchemaVersion, escapeJson(Log.Meta.Scheduler).c_str(),
               escapeJson(Log.Meta.Source).c_str(),
               escapeJson(Log.Meta.Workload).c_str(), Log.numWorkers(),
               Log.totalDropped());
  std::fputs("\"traceEvents\":[\n", F);

  EventWriter EW{F};
  int FlowId = 0;
  for (int W = 0; W < Log.numWorkers(); ++W) {
    const TraceBuffer &B = Log.buffer(W);
    EW.metaThreadName(W, "worker " + std::to_string(W));

    // Mode slices: each ModeBegin closes the previous interval. A ring
    // that overflowed may start mid-span with no ModeBegin in the
    // retained window; treat the window's first timestamp as the start
    // of an unknown-mode span only once a ModeBegin tells us the mode
    // changed (before that we have nothing to name, so we skip it).
    bool HaveMode = false;
    TraceMode Mode = TraceMode::Idle;
    std::uint64_t ModeSince = 0;
    for (std::size_t I = 0; I < B.size(); ++I) {
      const TraceEvent &E = B.at(I);
      std::uint64_t Ns = E.TimeNs - T0;
      switch (E.kind()) {
      case TraceEventKind::ModeBegin:
        if (HaveMode && Ns > ModeSince)
          EW.modeSlice(W, Mode, ModeSince, Ns);
        HaveMode = true;
        Mode = static_cast<TraceMode>(E.A);
        ModeSince = Ns;
        break;
      case TraceEventKind::StealSuccess:
        // Thief-side record; draw the arrow victim -> thief.
        EW.flow(FlowId++, "steal", static_cast<int>(E.A), W, Ns);
        EW.instant(W, E, Ns);
        break;
      case TraceEventKind::Donation:
        // Victim-side record; arrow victim -> requester.
        EW.flow(FlowId++, "donation", W, static_cast<int>(E.A), Ns);
        EW.instant(W, E, Ns);
        break;
      default:
        EW.instant(W, E, Ns);
        break;
      }
    }
    if (HaveMode && TEnd - T0 > ModeSince)
      EW.modeSlice(W, Mode, ModeSince, TEnd - T0);
  }

  std::fputs("\n]\n}\n", F);
}

/// writeChromeTrace to \p Path; returns false if the file can't be
/// opened.
inline bool writeChromeTraceFile(const TraceLog &Log,
                                 const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  writeChromeTrace(Log, F);
  std::fclose(F);
  return true;
}

} // namespace atc

#endif // ATC_TRACE_TRACEJSON_H
