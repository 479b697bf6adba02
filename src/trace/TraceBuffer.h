//===- trace/TraceBuffer.h - Per-worker event ring buffer -------*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size, single-writer event ring buffer — one per worker. The
/// storage is allocated once up front (TraceLog construction), so the
/// emission fast path never allocates: it stamps the clock, writes 16
/// bytes at Count % Capacity, and increments Count. There is no
/// synchronization anywhere — each worker writes only its own buffer, and
/// readers (the exporter, the summarizer, tests) run strictly after the
/// run's thread join.
///
/// Overflow semantics: the ring keeps the *newest* Capacity events; once
/// full, each emit overwrites the oldest retained record, and dropped()
/// reports how many were lost that way. Within the retained window,
/// events are in emission order (timestamps monotonic per worker).
///
//===----------------------------------------------------------------------===//

#ifndef ATC_TRACE_TRACEBUFFER_H
#define ATC_TRACE_TRACEBUFFER_H

#include "support/Compiler.h"
#include "support/Timer.h"
#include "trace/TraceEvent.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace atc {

/// Per-worker event ring (see file comment). Padded to the interference
/// line: TraceLog stores these contiguously, and two workers emitting
/// must not share a line for their Count / write cursors.
class alignas(ATC_CACHE_LINE_SIZE) TraceBuffer {
public:
  TraceBuffer() = default;

  /// Allocates the ring. Called once, before the run's threads start.
  /// The slots are left uninitialized: at() reads only slots an emit has
  /// written, and zero-filling a default 16 MiB ring per worker would
  /// cost a traced run far more than its events do.
  void init(std::size_t Capacity) {
    assert(Capacity > 0 && "trace ring needs at least one slot");
    Ev = std::make_unique_for_overwrite<TraceEvent[]>(Capacity);
    Cap = Capacity;
    Count = 0;
    Mode = TraceMode::Idle;
  }

  std::size_t capacity() const { return Cap; }

  /// Records an event stamped with the real monotonic clock.
  void emit(TraceEventKind K, std::uint32_t A = 0, std::uint16_t B = 0) {
    emitAt(nowNanos(), K, A, B);
  }

  /// Records an event with an explicit timestamp (the simulator's
  /// virtual clock; also used by tests for deterministic rings).
  void emitAt(std::uint64_t TimeNs, TraceEventKind K, std::uint32_t A = 0,
              std::uint16_t B = 0) {
    TraceEvent &E = Ev[static_cast<std::size_t>(Count % Cap)];
    E.TimeNs = TimeNs;
    E.A = A;
    E.B = B;
    E.Kind = static_cast<std::uint8_t>(K);
    E.Pad = 0;
    ++Count;
  }

  /// The worker's current mode (the span the trace is inside).
  TraceMode mode() const { return Mode; }

  /// Switches the worker's mode, emitting a ModeBegin event only when the
  /// mode actually changes — recursion within one mode (check calling
  /// check, fast spawning fast) emits nothing.
  void setMode(TraceMode M) {
    if (M == Mode)
      return;
    Mode = M;
    emit(TraceEventKind::ModeBegin, static_cast<std::uint32_t>(M));
  }

  /// setMode with an explicit (virtual) timestamp.
  void setModeAt(std::uint64_t TimeNs, TraceMode M) {
    if (M == Mode)
      return;
    Mode = M;
    emitAt(TimeNs, TraceEventKind::ModeBegin, static_cast<std::uint32_t>(M));
  }

  //===--------------------------------------------------------------------===//
  // Reading (after the run)
  //===--------------------------------------------------------------------===//

  /// Number of events retained (<= capacity).
  std::size_t size() const {
    return static_cast<std::size_t>(Count < Cap ? Count : Cap);
  }

  /// Total events ever emitted.
  std::uint64_t totalEmitted() const { return Count; }

  /// Events lost to ring overflow (oldest-first).
  std::uint64_t dropped() const { return Count > Cap ? Count - Cap : 0; }

  /// The \p I-th oldest *retained* event (0 .. size()-1).
  const TraceEvent &at(std::size_t I) const {
    assert(I < size() && "trace read out of range");
    std::uint64_t First = Count > Cap ? Count - Cap : 0;
    return Ev[static_cast<std::size_t>((First + I) % Cap)];
  }

private:
  std::unique_ptr<TraceEvent[]> Ev;
  std::uint64_t Cap = 0;
  std::uint64_t Count = 0;
  TraceMode Mode = TraceMode::Idle;
};

//===----------------------------------------------------------------------===//
// Emission macros — the only way runtime code should emit
//===----------------------------------------------------------------------===//
//
// Each costs one predictable null test on the worker's buffer pointer
// (the runtime gate: the pointer is null unless SchedulerConfig::Trace
// armed the run).

#define ATC_TRACE_EVENT(TB, ...)                                             \
  do {                                                                       \
    if (ATC_UNLIKELY((TB) != nullptr))                                       \
      (TB)->emit(__VA_ARGS__);                                               \
  } while (false)
#define ATC_TRACE_EVENT_AT(TB, ...)                                          \
  do {                                                                       \
    if (ATC_UNLIKELY((TB) != nullptr))                                       \
      (TB)->emitAt(__VA_ARGS__);                                             \
  } while (false)
#define ATC_TRACE_MODE_AT(TB, ...)                                           \
  do {                                                                       \
    if (ATC_UNLIKELY((TB) != nullptr))                                       \
      (TB)->setModeAt(__VA_ARGS__);                                          \
  } while (false)

/// Mode span on a worker's trace ring (see ModeScope).
using TraceModeScope = ModeScope<TraceBuffer>;

} // namespace atc

#endif // ATC_TRACE_TRACEBUFFER_H
