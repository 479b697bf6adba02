//===- bench/micro_deque.cpp - deque micro-benchmarks ---------------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark micro-benchmarks of the deque implementations: the
/// fixed-array THE-protocol deque (Cilk 5.4.6 / AdaptiveTC, the *The
/// rows) and the lock-free, growable special-task ChaseLevDeque (the
/// *ChaseLev rows, SchedulerConfig::Deque = chaselev). The single-thread
/// benches
/// are the unit costs the simulator's CostModel is calibrated against;
/// the Contended* benches measure steal throughput with 1/2/4/8 thief
/// threads hammering one owner — the scenario the lock-free steal path
/// exists for.
///
//===----------------------------------------------------------------------===//

#include "deque/ChaseLevDeque.h"
#include "deque/TheDeque.h"

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

using namespace atc;

static void BM_TheDequePushPop(benchmark::State &State) {
  TheDeque D(1024);
  int Dummy = 0;
  for (auto _ : State) {
    D.tryPush(&Dummy);
    benchmark::DoNotOptimize(D.pop());
  }
}
BENCHMARK(BM_TheDequePushPop);

static void BM_TheDequePushStealBatch(benchmark::State &State) {
  TheDeque D(1024);
  int Dummy = 0;
  for (auto _ : State) {
    for (int I = 0; I < 64; ++I)
      D.tryPush(&Dummy);
    for (int I = 0; I < 64; ++I)
      benchmark::DoNotOptimize(D.steal());
    D.reset();
  }
  State.SetItemsProcessed(State.iterations() * 64);
}
BENCHMARK(BM_TheDequePushStealBatch);

static void BM_TheDequeSpecialRoundTrip(benchmark::State &State) {
  // The AdaptiveTC check-version pattern: push special, push child, steal
  // child via H += 2, pop special (failure path with H = T reset).
  TheDeque D(1024);
  int Special = 0, Child = 0;
  for (auto _ : State) {
    D.tryPush(&Special, /*Special=*/true);
    D.tryPush(&Child);
    benchmark::DoNotOptimize(D.steal());
    benchmark::DoNotOptimize(D.pop());
    benchmark::DoNotOptimize(D.popSpecial());
    D.reset();
  }
}
BENCHMARK(BM_TheDequeSpecialRoundTrip);

/// Contended steal throughput: \p NumThieves thief threads spin on
/// steal() while the owner (the benchmark thread) keeps the deque
/// supplied with batches of 64 entries and pops back whatever the thieves
/// leave. Items processed = successful steals, so items_per_second is the
/// steal throughput under contention. With the mutex THE deque every
/// steal attempt serializes on the victim's lock (and on an
/// oversubscribed host a preempted lock holder stalls every other thief);
/// the CAS path stays wait-free for the winner.
template <typename DequeT>
static void contendedSteal(benchmark::State &State) {
  const int NumThieves = static_cast<int>(State.range(0));
  DequeT D(4096);
  std::atomic<bool> Stop{false};
  std::atomic<std::uint64_t> Stolen{0};
  int Dummy = 0;

  std::vector<std::thread> Thieves;
  Thieves.reserve(static_cast<std::size_t>(NumThieves));
  for (int I = 0; I < NumThieves; ++I)
    Thieves.emplace_back([&D, &Stop, &Stolen] {
      std::uint64_t N = 0;
      while (!Stop.load(std::memory_order_relaxed))
        if (D.steal().Status == StealResult::Status::Success)
          ++N;
      Stolen.fetch_add(N, std::memory_order_relaxed);
    });

  for (auto _ : State) {
    for (int I = 0; I < 64; ++I)
      if (!D.tryPush(&Dummy)) {
        // TheDeque indices are absolute: after enough steals they reach
        // the array end regardless of occupancy. Drain and rewind (the
        // owner-side recovery a real scheduler performs between runs).
        while (D.pop() == PopResult::Success) {
        }
        D.reset();
        break;
      }
    while (D.pop() == PopResult::Success) {
    }
  }

  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &T : Thieves)
    T.join();
  State.SetItemsProcessed(
      static_cast<std::int64_t>(Stolen.load(std::memory_order_relaxed)));
}

static void BM_ContendedStealThe(benchmark::State &State) {
  contendedSteal<TheDeque>(State);
}
BENCHMARK(BM_ContendedStealThe)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

/// Pure thief-side contention: \p NumThieves drain a pre-filled deque
/// with no owner interference, so items_per_second is the aggregate
/// contended steal throughput. This is the benchmark that isolates the
/// lock-vs-CAS difference even on a single-core host: every contended
/// mutex acquisition pays futex traffic, while a lost CAS just retries.
/// (The Contended* benches above measure the owner-active scenario, which
/// on an oversubscribed host is dominated by preemption timing.)
template <typename DequeT>
static void drainSteal(benchmark::State &State) {
  const int NumThieves = static_cast<int>(State.range(0));
  constexpr int Items = 200000;
  int Dummy = 0;
  for (auto _ : State) {
    DequeT D(Items + 8);
    for (int I = 0; I < Items; ++I)
      D.tryPush(&Dummy);
    std::atomic<int> Left{Items};
    auto T0 = std::chrono::steady_clock::now();
    std::vector<std::thread> Thieves;
    Thieves.reserve(static_cast<std::size_t>(NumThieves));
    for (int I = 0; I < NumThieves; ++I)
      Thieves.emplace_back([&D, &Left] {
        while (Left.load(std::memory_order_relaxed) > 0)
          if (D.steal().Status == StealResult::Status::Success)
            Left.fetch_sub(1, std::memory_order_relaxed);
      });
    for (std::thread &T : Thieves)
      T.join();
    auto T1 = std::chrono::steady_clock::now();
    State.SetIterationTime(
        std::chrono::duration<double>(T1 - T0).count());
  }
  State.SetItemsProcessed(State.iterations() * Items);
}

static void BM_DrainStealThe(benchmark::State &State) {
  drainSteal<TheDeque>(State);
}
BENCHMARK(BM_DrainStealThe)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseManualTime()->Unit(benchmark::kMillisecond);

/// The emptiness probe: thieves hammering an empty deque. This is the
/// dominant steal-path operation for AdaptiveTC (a victim busy in fake
/// tasks has an empty deque) — the lock-free pre-check answers it without
/// a lock acquisition on either deque kind.
template <typename DequeT>
static void emptyProbe(benchmark::State &State) {
  DequeT D(1024);
  for (auto _ : State)
    benchmark::DoNotOptimize(D.steal());
}

static void BM_EmptyProbeThe(benchmark::State &State) {
  emptyProbe<TheDeque>(State);
}
BENCHMARK(BM_EmptyProbeThe);

static void BM_EmptyProbeChaseLev(benchmark::State &State) {
  emptyProbe<ChaseLevDeque>(State);
}
BENCHMARK(BM_EmptyProbeChaseLev);

static void BM_ChaseLevPushPop(benchmark::State &State) {
  ChaseLevDeque D(1024);
  int Dummy = 0;
  for (auto _ : State) {
    D.tryPush(&Dummy);
    benchmark::DoNotOptimize(D.pop());
  }
}
BENCHMARK(BM_ChaseLevPushPop);

static void BM_ChaseLevPushStealBatch(benchmark::State &State) {
  ChaseLevDeque D(1024);
  int Dummy = 0;
  for (auto _ : State) {
    for (int I = 0; I < 64; ++I)
      D.tryPush(&Dummy);
    for (int I = 0; I < 64; ++I)
      benchmark::DoNotOptimize(D.steal());
  }
  State.SetItemsProcessed(State.iterations() * 64);
}
BENCHMARK(BM_ChaseLevPushStealBatch);

static void BM_ChaseLevSpecialRoundTrip(benchmark::State &State) {
  // Same protocol round-trip as BM_TheDequeSpecialRoundTrip: push special,
  // push child, steal child via the Head += 2 jump, fail the child pop,
  // fail the special pop (Tail restored to Head).
  ChaseLevDeque D(1024);
  int Special = 0, Child = 0;
  for (auto _ : State) {
    D.tryPush(&Special, /*Special=*/true);
    D.tryPush(&Child);
    benchmark::DoNotOptimize(D.steal());
    benchmark::DoNotOptimize(D.pop());
    benchmark::DoNotOptimize(D.popSpecial());
  }
}
BENCHMARK(BM_ChaseLevSpecialRoundTrip);

static void BM_ContendedStealChaseLev(benchmark::State &State) {
  contendedSteal<ChaseLevDeque>(State);
}
BENCHMARK(BM_ContendedStealChaseLev)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

static void BM_DrainStealChaseLev(benchmark::State &State) {
  drainSteal<ChaseLevDeque>(State);
}
BENCHMARK(BM_DrainStealChaseLev)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseManualTime()->Unit(benchmark::kMillisecond);

static void BM_ChaseLevGrowth(benchmark::State &State) {
  // Overflow behaviour: the Chase-Lev deque grows instead of rejecting.
  int Dummy = 0;
  for (auto _ : State) {
    ChaseLevDeque D(4);
    for (int I = 0; I < 512; ++I)
      D.tryPush(&Dummy);
    benchmark::DoNotOptimize(D.growCount());
  }
  State.SetItemsProcessed(State.iterations() * 512);
}
BENCHMARK(BM_ChaseLevGrowth);

BENCHMARK_MAIN();
