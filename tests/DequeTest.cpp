//===- tests/DequeTest.cpp - work-stealing deque unit tests ---------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Protocol tests of the THE deque, including the special-task H += 2 /
/// pop_specialtask reset protocol and exactly-once consumption under
/// owner-vs-many-thieves contention. They run as a typed suite over the
/// one deque type (WsDeque<atc::TheDeque>). Behaviour tied to the
/// implementation (the lock-free empty probe, the index rewind) keeps its
/// own tests at the bottom.
///
//===----------------------------------------------------------------------===//

#include "deque/TheDeque.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

using namespace atc;

namespace {

void *ptr(std::uintptr_t V) { return reinterpret_cast<void *>(V); }

template <typename DequeT> class WsDeque : public ::testing::Test {};
using DequeTypes = ::testing::Types<TheDeque>;
TYPED_TEST_SUITE(WsDeque, DequeTypes);

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
  // child back and then retires the special.
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
  EXPECT_FALSE(D.tryPush(ptr(3)));
  EXPECT_EQ(D.overflowCount(), 1u);
  EXPECT_EQ(D.size(), 2);
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
  // Room for every token, so no push can overflow whatever the thieves
  // do.
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

TEST(TheDeque, FailedPopsRewindTheIndices) {
  // Each round a thief takes the only entry and the owner's pop then
  // fails. The deque is empty after every round, so the next push must
  // land in slot 0 again: a 1-entry array holds the whole sequence and
  // the high-water mark stays at 1.
  TheDeque D(1);
  for (std::uintptr_t I = 1; I <= 100; ++I) {
    ASSERT_TRUE(D.tryPush(ptr(I))) << "round " << I;
    ASSERT_EQ(D.steal().Frame, ptr(I));
    ASSERT_EQ(D.pop(), PopResult::Failure);
    ASSERT_TRUE(D.empty());
  }
  EXPECT_EQ(D.highWaterMark(), 1);

  // The same for the special-task epilogue: the thief takes the special's
  // child through the H += 2 jump, then both owner pops fail, and the
  // next round's special lands in slot 0 again.
  TheDeque DS(2);
  for (std::uintptr_t I = 1; I <= 100; ++I) {
    ASSERT_TRUE(DS.tryPush(ptr(1000 + I), /*Special=*/true)) << "round " << I;
    ASSERT_TRUE(DS.tryPush(ptr(I))) << "round " << I;
    ASSERT_EQ(DS.steal().Frame, ptr(I));
    ASSERT_EQ(DS.pop(), PopResult::Failure);
    ASSERT_EQ(DS.popSpecial(), PopResult::Failure);
    ASSERT_TRUE(DS.empty());
  }
  EXPECT_EQ(DS.highWaterMark(), 2);
}

} // namespace
