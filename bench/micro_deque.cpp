//===- bench/micro_deque.cpp - deque micro-benchmarks ---------------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark micro-benchmarks of the fixed-array THE-protocol
/// deque (Cilk 5.4.6 / AdaptiveTC). The single-thread benches are the
/// unit costs the simulator's CostModel is calibrated against; the
/// Contended* and DrainSteal* benches measure steal throughput with
/// 1/2/4/8 thief threads hammering one deque.
///
//===----------------------------------------------------------------------===//

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
  // child via H += 2, pop special (failure path: the indices rewind).
  TheDeque D(1024);
  int Special = 0, Child = 0;
  for (auto _ : State) {
    D.tryPush(&Special, /*Special=*/true);
    D.tryPush(&Child);
    benchmark::DoNotOptimize(D.steal());
    benchmark::DoNotOptimize(D.pop());
    benchmark::DoNotOptimize(D.popSpecial());
  }
}
BENCHMARK(BM_TheDequeSpecialRoundTrip);

/// Contended steal throughput: \p NumThieves thief threads spin on
/// steal() while the owner (the benchmark thread) keeps the deque
/// supplied with batches of 64 entries and pops back whatever the thieves
/// leave. Items processed = successful steals, so items_per_second is the
/// steal throughput under contention. Every steal attempt serializes on
/// the victim's lock (and on an oversubscribed host a preempted lock
/// holder stalls every other thief).
static void BM_ContendedStealThe(benchmark::State &State) {
  const int NumThieves = static_cast<int>(State.range(0));
  TheDeque D(4096);
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
      D.tryPush(&Dummy);
    // The pop that ends the loop fails, which empties the deque and
    // rewinds its indices for the next batch.
    while (D.pop() == PopResult::Success) {
    }
  }

  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &T : Thieves)
    T.join();
  State.SetItemsProcessed(
      static_cast<std::int64_t>(Stolen.load(std::memory_order_relaxed)));
}
BENCHMARK(BM_ContendedStealThe)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

/// Pure thief-side contention: \p NumThieves drain a pre-filled deque
/// with no owner interference, so items_per_second is the aggregate
/// contended steal throughput: every contended mutex acquisition pays
/// futex traffic. (The Contended* benches above measure the owner-active
/// scenario, which on an oversubscribed host is dominated by preemption
/// timing.)
static void BM_DrainStealThe(benchmark::State &State) {
  const int NumThieves = static_cast<int>(State.range(0));
  constexpr int Items = 200000;
  int Dummy = 0;
  for (auto _ : State) {
    TheDeque D(Items + 8);
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
BENCHMARK(BM_DrainStealThe)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseManualTime()->Unit(benchmark::kMillisecond);

/// The emptiness probe: thieves hammering an empty deque. This is the
/// dominant steal-path operation for AdaptiveTC (a victim busy in fake
/// tasks has an empty deque) — the lock-free pre-check answers it without
/// a lock acquisition.
static void BM_EmptyProbeThe(benchmark::State &State) {
  TheDeque D(1024);
  for (auto _ : State)
    benchmark::DoNotOptimize(D.steal());
}
BENCHMARK(BM_EmptyProbeThe);

BENCHMARK_MAIN();
