//===- tests/DequeTest.cpp - work-stealing deque unit tests ---------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Protocol tests shared by both deque kinds (the mutex THE deque and the
/// lock-free, growable ChaseLevDeque) run as a typed suite: the kinds
/// must be behaviourally indistinguishable to the engine, including the
/// special-task H += 2 / pop_specialtask reset protocol and exactly-once
/// consumption under owner-vs-many-thieves contention. The one sanctioned
/// divergence is a full deque: the fixed THE array rejects the push while
/// the ring grows, so that test branches on the kind.
/// Implementation-specific behaviour (locks, slot recycling, ring growth)
/// keeps its own tests at the bottom.
///
//===----------------------------------------------------------------------===//

#include "deque/ChaseLevDeque.h"
#include "deque/TheDeque.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <type_traits>
#include <vector>

using namespace atc;

namespace {

void *ptr(std::uintptr_t V) { return reinterpret_cast<void *>(V); }

template <typename DequeT> class WsDeque : public ::testing::Test {};
using DequeKinds = ::testing::Types<TheDeque, ChaseLevDeque>;
TYPED_TEST_SUITE(WsDeque, DequeKinds);

TYPED_TEST(WsDeque, PushPopLifo) {
  TypeParam D(16);
  EXPECT_TRUE(D.tryPush(ptr(1)));
  EXPECT_TRUE(D.tryPush(ptr(2)));
  EXPECT_EQ(D.size(), 2);
  EXPECT_EQ(D.pop(), PopResult::Success);
  EXPECT_EQ(D.pop(), PopResult::Success);
  EXPECT_TRUE(D.empty());
}

TYPED_TEST(WsDeque, StealTakesHead) {
  TypeParam D(16);
  D.tryPush(ptr(1));
  D.tryPush(ptr(2));
  StealResult R = D.steal();
  ASSERT_EQ(R.Status, StealResult::Status::Success);
  EXPECT_EQ(R.Frame, ptr(1));
  R = D.steal();
  ASSERT_EQ(R.Status, StealResult::Status::Success);
  EXPECT_EQ(R.Frame, ptr(2));
  EXPECT_EQ(D.steal().Status, StealResult::Status::Empty);
}

TYPED_TEST(WsDeque, StealFromEmptyFails) {
  TypeParam D(16);
  EXPECT_EQ(D.steal().Status, StealResult::Status::Empty);
}

TYPED_TEST(WsDeque, PopAfterStealOfOnlyEntryFails) {
  TypeParam D(16);
  D.tryPush(ptr(1));
  ASSERT_EQ(D.steal().Status, StealResult::Status::Success);
  EXPECT_EQ(D.pop(), PopResult::Failure);
  // The deque must read as empty afterwards (indices restored).
  EXPECT_TRUE(D.empty());
  // And be reusable.
  EXPECT_TRUE(D.tryPush(ptr(2)));
  EXPECT_EQ(D.pop(), PopResult::Success);
}

TYPED_TEST(WsDeque, SpecialAtHeadIsSkippedByThief) {
  TypeParam D(16);
  D.tryPush(ptr(10), /*Special=*/true);
  // Only the special present: nothing stealable.
  EXPECT_EQ(D.steal().Status, StealResult::Status::Empty);
  D.tryPush(ptr(11)); // the special's child
  StealResult R = D.steal();
  ASSERT_EQ(R.Status, StealResult::Status::Success);
  EXPECT_EQ(R.Frame, ptr(11)) << "thief must steal the special's child";
}

TYPED_TEST(WsDeque, PopSpecialSuccessWhenChildNotStolen) {
  TypeParam D(16);
  D.tryPush(ptr(10), /*Special=*/true);
  EXPECT_EQ(D.popSpecial(), PopResult::Success);
  EXPECT_TRUE(D.empty());
}

TYPED_TEST(WsDeque, PopOwnChildThenPopSpecial) {
  // The no-steal round trip of the check version: the owner pops its own
  // child back and then retires the special. On the ChaseLevDeque the child
  // pop is the jump-claim arbitration path (CAS Head -> Head + 2, with
  // the special entry re-published at the new head).
  TypeParam D(16);
  D.tryPush(ptr(10), /*Special=*/true);
  D.tryPush(ptr(11));
  EXPECT_EQ(D.pop(), PopResult::Success);
  EXPECT_EQ(D.popSpecial(), PopResult::Success);
  EXPECT_TRUE(D.empty());
}

TYPED_TEST(WsDeque, SpecialGuardsPushesAfterChildPop) {
  // Regression test: after the owner pops its own child back, the special
  // must still sit at the head guarding whatever the spawn loop pushes
  // next — a later child must be stolen through the H += 2 jump and show
  // up in popSpecial, not be taken as a plain entry. (A lock-free
  // owner-pop that consumed the special without re-publishing it broke
  // exactly this, silently downgrading later steals to unaccounted
  // plain steals.)
  TypeParam D(16);
  D.tryPush(ptr(10), /*Special=*/true);
  D.tryPush(ptr(11));
  ASSERT_EQ(D.pop(), PopResult::Success); // child back; special remains
  D.tryPush(ptr(12)); // next child in the same check-version round
  StealResult R = D.steal();
  ASSERT_EQ(R.Status, StealResult::Status::Success);
  EXPECT_EQ(R.Frame, ptr(12)) << "must be stolen as the special's child";
  EXPECT_EQ(D.pop(), PopResult::Failure);
  EXPECT_EQ(D.popSpecial(), PopResult::Failure);
  EXPECT_TRUE(D.empty());
}

TYPED_TEST(WsDeque, PopSpecialFailsAfterChildStolen) {
  TypeParam D(16);
  D.tryPush(ptr(10), /*Special=*/true);
  D.tryPush(ptr(11));
  ASSERT_EQ(D.steal().Status, StealResult::Status::Success); // takes child
  // The child's own pop fails first (it was stolen)...
  EXPECT_EQ(D.pop(), PopResult::Failure);
  // ...then pop_specialtask reports the stolen child and resets H = T.
  EXPECT_EQ(D.popSpecial(), PopResult::Failure);
  EXPECT_TRUE(D.empty());
}

TYPED_TEST(WsDeque, NormalEntriesBelowSpecialStolenFirst) {
  TypeParam D(16);
  D.tryPush(ptr(1));
  D.tryPush(ptr(2), /*Special=*/true);
  D.tryPush(ptr(3));
  StealResult R = D.steal();
  ASSERT_EQ(R.Status, StealResult::Status::Success);
  EXPECT_EQ(R.Frame, ptr(1));
  R = D.steal();
  ASSERT_EQ(R.Status, StealResult::Status::Success);
  EXPECT_EQ(R.Frame, ptr(3)) << "special skipped, child stolen";
}

TYPED_TEST(WsDeque, FullDequeOverflowsOrGrows) {
  TypeParam D(2);
  EXPECT_TRUE(D.tryPush(ptr(1)));
  EXPECT_TRUE(D.tryPush(ptr(2)));
  if constexpr (std::is_same_v<TypeParam, ChaseLevDeque>) {
    // The push past capacity succeeds by doubling the ring; nothing is
    // ever rejected.
    EXPECT_TRUE(D.tryPush(ptr(3)));
    EXPECT_EQ(D.growCount(), 1u);
    EXPECT_EQ(D.overflowCount(), 0u);
    EXPECT_EQ(D.size(), 3);
  } else {
    EXPECT_FALSE(D.tryPush(ptr(3)));
    EXPECT_EQ(D.overflowCount(), 1u);
    EXPECT_EQ(D.size(), 2);
  }
}

TYPED_TEST(WsDeque, OnStealCallbackRunsForEachSteal) {
  TypeParam D(16);
  D.tryPush(ptr(1));
  D.tryPush(ptr(2));
  int Count = 0;
  auto CB = [](void *, void *Ctx) { ++*static_cast<int *>(Ctx); };
  EXPECT_EQ(D.steal(CB, &Count).Status, StealResult::Status::Success);
  EXPECT_EQ(D.steal(CB, &Count).Status, StealResult::Status::Success);
  EXPECT_EQ(D.steal(CB, &Count).Status, StealResult::Status::Empty);
  EXPECT_EQ(Count, 2);
}

TYPED_TEST(WsDeque, HighWaterMarkTracksDepth) {
  TypeParam D(16);
  for (int I = 0; I < 5; ++I)
    D.tryPush(ptr(1));
  for (int I = 0; I < 5; ++I)
    D.pop();
  EXPECT_EQ(D.highWaterMark(), 5);
}

/// Owner-vs-N-thieves stress with exact-once accounting: the owner tracks
/// its own pops via a shadow stack (mirroring how the schedulers know
/// which frame they popped), so every token is attributed exactly once —
/// either to a successful owner pop or to exactly one thief. A pop
/// failure means the head passed the owner's Tail, i.e. everything still
/// in the shadow stack belongs to the thieves.
TYPED_TEST(WsDeque, ExactlyOnceOwnerVsManyThieves) {
  constexpr int NumTokens = 30000;
  constexpr int NumThieves = 3;
  // TheDeque indices are absolute (Head only climbs), so size the array
  // for the worst case of every token being stolen.
  TypeParam D(NumTokens + 8);
  std::atomic<bool> Stop{false};
  std::vector<std::atomic<int>> Seen(NumTokens + 1);

  std::vector<std::thread> Thieves;
  Thieves.reserve(NumThieves);
  for (int T = 0; T < NumThieves; ++T)
    Thieves.emplace_back([&] {
      while (!Stop.load(std::memory_order_acquire)) {
        StealResult R = D.steal();
        if (R.Status == StealResult::Status::Success)
          Seen[reinterpret_cast<std::uintptr_t>(R.Frame)].fetch_add(1);
      }
    });

  std::vector<std::uintptr_t> Shadow;
  for (std::uintptr_t I = 1; I <= NumTokens; ++I) {
    ASSERT_TRUE(D.tryPush(ptr(I)));
    Shadow.push_back(I);
    if (I % 16 == 0)
      std::this_thread::yield(); // give the thieves a slice
    if (I % 2 == 0) {
      // Pop everything we believe is there; stop at first failure.
      while (!Shadow.empty()) {
        if (D.pop() == PopResult::Success) {
          Seen[Shadow.back()].fetch_add(1);
          Shadow.pop_back();
        } else {
          Shadow.clear();
          break;
        }
      }
    }
  }
  while (!Shadow.empty()) {
    if (D.pop() == PopResult::Success) {
      Seen[Shadow.back()].fetch_add(1);
      Shadow.pop_back();
    } else {
      Shadow.clear();
    }
  }
  // Let the thieves drain any remainder, then stop them.
  while (!D.empty())
    std::this_thread::yield();
  Stop.store(true, std::memory_order_release);
  for (std::thread &T : Thieves)
    T.join();

  for (int I = 1; I <= NumTokens; ++I)
    ASSERT_EQ(Seen[static_cast<std::size_t>(I)].load(), 1)
        << "token " << I;
}

/// The full AdaptiveTC special-task protocol under contention: every
/// round the owner publishes a special plus its child, then runs the
/// check-version epilogue (pop the child, pop_specialtask). Invariants:
/// the two results always agree (child kept -> special intact, child
/// stolen -> H = T reset), a special is never stolen, each child is
/// consumed exactly once, and the deque is empty between rounds.
TYPED_TEST(WsDeque, SpecialProtocolOwnerVsManyThieves) {
  constexpr int Rounds = 4000;
  constexpr int NumThieves = 3;
  // TheDeque's absolute indices climb by one per stolen round.
  TypeParam D(Rounds + 8);
  std::atomic<bool> Stop{false};
  // Children are 1..Rounds; specials are Rounds+1..2*Rounds.
  std::vector<std::atomic<int>> Seen(2 * Rounds + 1);

  std::vector<std::thread> Thieves;
  Thieves.reserve(NumThieves);
  for (int T = 0; T < NumThieves; ++T)
    Thieves.emplace_back([&] {
      while (!Stop.load(std::memory_order_acquire)) {
        StealResult R = D.steal();
        if (R.Status == StealResult::Status::Success)
          Seen[reinterpret_cast<std::uintptr_t>(R.Frame)].fetch_add(1);
      }
    });

  int OwnerKept = 0, StolenRounds = 0;
  for (std::uintptr_t I = 1; I <= Rounds; ++I) {
    ASSERT_TRUE(D.tryPush(ptr(Rounds + I), /*Special=*/true));
    ASSERT_TRUE(D.tryPush(ptr(I)));
    if (I % 16 == 0)
      std::this_thread::yield(); // window for the thieves to jump in
    PopResult Child = D.pop();
    PopResult Special = D.popSpecial();
    ASSERT_EQ(Special, Child)
        << "round " << I
        << ": pop_specialtask must mirror the child pop result";
    if (Child == PopResult::Success) {
      Seen[I].fetch_add(1);
      ++OwnerKept;
    } else {
      ++StolenRounds;
    }
    ASSERT_TRUE(D.empty()) << "round " << I;
  }
  Stop.store(true, std::memory_order_release);
  for (std::thread &T : Thieves)
    T.join();

  for (int I = 1; I <= Rounds; ++I)
    ASSERT_EQ(Seen[static_cast<std::size_t>(I)].load(), 1)
        << "child " << I << " (owner kept " << OwnerKept << ", stolen "
        << StolenRounds << ")";
  for (int I = Rounds + 1; I <= 2 * Rounds; ++I)
    ASSERT_EQ(Seen[static_cast<std::size_t>(I)].load(), 0)
        << "special " << I << " was stolen";
}

//===----------------------------------------------------------------------===//
// Implementation-specific behaviour
//===----------------------------------------------------------------------===//

TEST(TheDeque, EmptyProbeSkipsTheLock) {
  TheDeque D(16);
  EXPECT_EQ(D.steal().Status, StealResult::Status::Empty);
  EXPECT_EQ(D.lockAcquireCount(), 0u)
      << "an empty steal probe must not take the mutex";
  D.tryPush(ptr(1));
  EXPECT_EQ(D.steal().Status, StealResult::Status::Success);
  EXPECT_EQ(D.lockAcquireCount(), 1u);
}

TEST(ChaseLev, NeverTakesALock) {
  ChaseLevDeque D(16);
  D.tryPush(ptr(1));
  EXPECT_EQ(D.steal().Status, StealResult::Status::Success);
  EXPECT_EQ(D.lockAcquireCount(), 0u);
}

TEST(ChaseLev, CircularBufferRecyclesSlots) {
  // Unlike TheDeque's absolute indices, the ChaseLevDeque maps monotonic
  // indices onto a small circular buffer: steady-state churn far beyond
  // the capacity needs no reset, and — the depth never exceeding the
  // ring — no growth either.
  ChaseLevDeque D(4);
  for (std::uintptr_t I = 1; I <= 100; ++I) {
    ASSERT_TRUE(D.tryPush(ptr(I), /*Special=*/I % 5 == 0));
    ASSERT_TRUE(D.tryPush(ptr(1000 + I)));
    if (I % 2 == 0) {
      StealResult R = D.steal();
      ASSERT_EQ(R.Status, StealResult::Status::Success);
      // The head entry, or — every tenth round — the special's child.
      ASSERT_EQ(R.Frame, I % 5 == 0 ? ptr(1000 + I) : ptr(I));
      ASSERT_EQ(D.pop(), I % 5 == 0 ? PopResult::Failure
                                    : PopResult::Success);
      if (I % 5 == 0) {
        ASSERT_EQ(D.popSpecial(), PopResult::Failure);
      }
    } else {
      // Popping the child jump-claims the special when one sits below it
      // and re-publishes it; popSpecial then retires the re-published
      // entry instead of a second pop.
      ASSERT_EQ(D.pop(), PopResult::Success);
      if (I % 5 == 0) {
        ASSERT_EQ(D.popSpecial(), PopResult::Success);
      } else {
        ASSERT_EQ(D.pop(), PopResult::Success);
      }
    }
    ASSERT_TRUE(D.empty()) << "round " << I;
  }
  EXPECT_EQ(D.growCount(), 0u);
  EXPECT_EQ(D.capacity(), 4);
}

TEST(ChaseLev, CapacityRoundsUpToPowerOfTwo) {
  ChaseLevDeque D(5);
  EXPECT_EQ(D.capacity(), 8);
}

TEST(ChaseLev, GrowsInsteadOfOverflowing) {
  ChaseLevDeque D(2);
  for (std::uintptr_t I = 1; I <= 100; ++I)
    ASSERT_TRUE(D.tryPush(ptr(I)));
  EXPECT_GT(D.growCount(), 0u);
  EXPECT_EQ(D.overflowCount(), 0u);
  EXPECT_GE(D.capacity(), 100);
  EXPECT_EQ(D.highWaterMark(), 100);
  // LIFO order survives the copies into successively larger rings.
  for (int I = 0; I < 100; ++I)
    ASSERT_EQ(D.pop(), PopResult::Success);
  EXPECT_TRUE(D.empty());
}

TEST(ChaseLev, GrowthPreservesSpecialProtocol) {
  // A special sitting at the head must guard its children across ring
  // growth: grow while the special is live, then check both epilogue
  // outcomes still hold.
  ChaseLevDeque D(2);
  ASSERT_TRUE(D.tryPush(ptr(100), /*Special=*/true));
  for (std::uintptr_t I = 1; I <= 9; ++I)
    ASSERT_TRUE(D.tryPush(ptr(I))); // forces at least two grows
  EXPECT_GT(D.growCount(), 0u);
  // A thief jump-claims the oldest child through the special.
  StealResult R = D.steal();
  ASSERT_EQ(R.Status, StealResult::Status::Success);
  EXPECT_EQ(R.Frame, ptr(1)) << "thief must steal the special's child";
  // The remaining children are plain entries again.
  for (std::uintptr_t I = 2; I <= 9; ++I) {
    R = D.steal();
    ASSERT_EQ(R.Status, StealResult::Status::Success);
    EXPECT_EQ(R.Frame, ptr(I));
  }
  EXPECT_EQ(D.pop(), PopResult::Failure);
  EXPECT_EQ(D.popSpecial(), PopResult::Failure);
  EXPECT_TRUE(D.empty());
}

/// Exactly-once accounting while the ring grows under live thieves: the
/// owner outruns its pops so the deque deepens past several doublings
/// with steals in flight — the ordering the grow publication (buffer
/// release-store before the Tail store that publishes into it) exists
/// for. Same shadow-stack attribution as the typed stress above.
TEST(ChaseLev, GrowsUnderContentionExactlyOnce) {
  constexpr int NumTokens = 50000;
  constexpr int NumThieves = 3;
  ChaseLevDeque D(8);
  std::atomic<bool> Stop{false};
  std::vector<std::atomic<int>> Seen(NumTokens + 1);

  std::vector<std::thread> Thieves;
  Thieves.reserve(NumThieves);
  for (int T = 0; T < NumThieves; ++T)
    Thieves.emplace_back([&] {
      while (!Stop.load(std::memory_order_acquire)) {
        StealResult R = D.steal();
        if (R.Status == StealResult::Status::Success)
          Seen[reinterpret_cast<std::uintptr_t>(R.Frame)].fetch_add(1);
      }
    });

  std::vector<std::uintptr_t> Shadow;
  for (std::uintptr_t I = 1; I <= NumTokens; ++I) {
    ASSERT_TRUE(D.tryPush(ptr(I)));
    Shadow.push_back(I);
    // Pop rarely relative to pushes so depth (and the ring) keeps
    // growing while the thieves race.
    if (I % 64 == 0) {
      if (D.pop() == PopResult::Success) {
        Seen[Shadow.back()].fetch_add(1);
        Shadow.pop_back();
      } else {
        Shadow.clear();
      }
    }
  }
  while (!Shadow.empty()) {
    if (D.pop() == PopResult::Success) {
      Seen[Shadow.back()].fetch_add(1);
      Shadow.pop_back();
    } else {
      Shadow.clear();
    }
  }
  while (!D.empty())
    std::this_thread::yield();
  Stop.store(true, std::memory_order_release);
  for (std::thread &T : Thieves)
    T.join();

  EXPECT_GT(D.growCount(), 0u) << "stress never exercised growth";
  for (int I = 1; I <= NumTokens; ++I)
    ASSERT_EQ(Seen[static_cast<std::size_t>(I)].load(), 1)
        << "token " << I;
}

} // namespace
