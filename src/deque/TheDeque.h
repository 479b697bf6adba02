//===- deque/TheDeque.h - THE-protocol work-stealing deque ------*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simplified Cilk THE protocol deque of the paper (Figure 3), extended
/// with the special-task operations AdaptiveTC adds:
///
///  * push / pop / steal      - the classic THE operations (Fig. 3a, 3d)
///  * popSpecial              - pop of a special task; on detecting that the
///                              special's child was stolen, resets H = T so
///                              the (unstealable) special stays at the head
///                              (Fig. 3b)
///  * steal handles a special task at the head by stealing the special's
///    child instead, i.e. the H += 2 protocol (Fig. 3e)
///
/// The deque is a fixed-size array of entries, exactly as in Cilk 5.4.6 —
/// the paper calls out that this representation "is prone to overflow";
/// tryPush reports overflow instead of asserting so the schedulers can
/// count overflow pressure (AdaptiveTC pushes far fewer tasks and is less
/// prone to it).
///
/// Thread-safety contract: one owner thread calls push/pop/popSpecial;
/// any number of thief threads call steal. Thieves always take the lock;
/// the owner takes it only on conflict (the THE fast path).
///
/// Header-only: the deque layer has no translation units, so
/// atcc-generated code — which compiles with just -I <repo>/src and
/// links no libraries — can instantiate it, and the push/pop/steal fast
/// path inlines into the engines.
///
/// The indices rewind to 0 whenever an owner pop finds the deque empty
/// after a steal, so Tail counts the owner's current spawn chain rather
/// than every push since the run began: the high-water mark then tracks
/// the chain's depth, which the FSM bounds (FiveVersionFsm::
/// maxOwnerPushes), and a run needs no larger array than that bound.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_DEQUE_THEDEQUE_H
#define ATC_DEQUE_THEDEQUE_H

#include "support/Compiler.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>

namespace atc {

/// Result of an owner-side pop.
enum class PopResult {
  Success, ///< The tail entry was reclaimed by the owner.
  Failure, ///< The entry (or the special's child) had been stolen.
};

/// Result of a thief-side steal.
struct StealResult {
  enum class Status {
    Success, ///< Frame holds the stolen entry.
    Empty,   ///< Nothing stealable in this deque.
  } Status;
  void *Frame = nullptr;
};

/// Fixed-array THE-protocol deque storing opaque frame pointers.
class TheDeque {
public:
  /// Creates a deque with room for \p Capacity entries.
  explicit TheDeque(int Capacity = 8192)
      : Cap(Capacity), Slots(std::make_unique<Entry[]>(
                           static_cast<std::size_t>(Capacity))) {
    assert(Capacity > 0 && "deque capacity must be positive");
  }

  TheDeque(const TheDeque &) = delete;
  TheDeque &operator=(const TheDeque &) = delete;

  /// Owner: pushes \p Frame at the tail. \p Special marks the entry as an
  /// AdaptiveTC special task (never stolen itself; thieves skip to its
  /// child). Returns false on overflow (entry not pushed).
  bool tryPush(void *Frame, bool Special = false) {
    int T = Tail.load(std::memory_order_relaxed);
    if (ATC_UNLIKELY(T >= Cap)) {
      Overflows.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    Slots[T].Frame = Frame;
    Slots[T].Special.store(Special, std::memory_order_relaxed);
    // Publish the entry before the index: a thief that observes the new
    // Tail must see the slot contents.
    Tail.store(T + 1, std::memory_order_seq_cst);
    if (T + 1 > HighWater.load(std::memory_order_relaxed))
      HighWater.store(T + 1, std::memory_order_relaxed);
    publishDepth();
    return true;
  }

  /// Owner: pops the tail entry (Fig. 3a). Failure means the entry was
  /// stolen; the deque is then empty and both indices rewind to 0.
  PopResult pop() {
    // Fig. 3a. Fast path: decrement Tail; if no thief has passed it, done.
    int T = Tail.load(std::memory_order_relaxed) - 1;
    Tail.store(T, std::memory_order_seq_cst); // MEMBAR
    int H = Head.load(std::memory_order_seq_cst);
    if (ATC_LIKELY(H <= T)) {
      publishDepth();
      return PopResult::Success;
    }

    // Conflict: restore Tail and retry under the lock.
    Tail.store(T + 1, std::memory_order_seq_cst);
    LockAcquires.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> Guard(Lock);
    Tail.store(T, std::memory_order_seq_cst);
    H = Head.load(std::memory_order_seq_cst);
    if (H > T) {
      // The entry was stolen, and every entry below it with it: the
      // deque is empty, and the owner's next push starts at slot 0.
      rewind();
      return PopResult::Failure;
    }
    publishDepth();
    return PopResult::Success;
  }

  /// Owner: pops a special task from the tail (Fig. 3b). Failure means the
  /// special's child was stolen; the paper resets H = T so the special
  /// remains conceptually at the head, which leaves the deque empty, so
  /// both indices rewind to 0 instead.
  PopResult popSpecial() {
    // Fig. 3b: always under the lock. On failure the special stays at the
    // head (a special task can never be stolen) over an empty deque.
    LockAcquires.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> Guard(Lock);
    int T = Tail.load(std::memory_order_relaxed) - 1;
    Tail.store(T, std::memory_order_seq_cst);
    int H = Head.load(std::memory_order_seq_cst);
    if (H > T) {
      rewind();
      return PopResult::Failure;
    }
    publishDepth();
    return PopResult::Success;
  }

  /// Thief: steals the head entry (Fig. 3d). If the head entry is special,
  /// steals the special's child instead via the H += 2 protocol (Fig. 3e).
  ///
  /// A relaxed H/T emptiness check runs *before* the lock is acquired, so
  /// thieves probing an empty deque never contend on the mutex (the
  /// common case under high worker counts). The check is conservative:
  /// it can only report empty for a deque that really was empty at some
  /// point during the call, which is all a steal attempt may assume.
  ///
  /// \p OnSteal, when non-null, is invoked with the stolen frame *while the
  /// protocol lock is still held*. The schedulers use this to bump join
  /// counters with a happens-before edge to the owner's pop/popSpecial
  /// failure (which also resolves under this lock), so an owner that
  /// observes "stolen" is guaranteed to observe the bumped counters too.
  StealResult steal(void (*OnSteal)(void *Frame, void *Ctx) = nullptr,
                    void *Ctx = nullptr) {
    // Lock-free emptiness pre-check: most steal attempts under high worker
    // counts probe deques with nothing stealable, and taking the victim's
    // mutex for those serializes the whole steal path on lock and cache
    // line contention. A relaxed H >= T read can only misreport "empty"
    // for a deque that momentarily was (or will immediately read as)
    // empty, which a failed steal attempt already means.
    if (Head.load(std::memory_order_relaxed) >=
        Tail.load(std::memory_order_relaxed))
      return {StealResult::Status::Empty, nullptr};

    LockAcquires.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> Guard(Lock);
    int H = Head.load(std::memory_order_relaxed);
    int T = Tail.load(std::memory_order_seq_cst);
    if (H >= T)
      return {StealResult::Status::Empty, nullptr};

    // Peek the head entry's kind to pick the claim width. The peek can
    // race with the owner popping this very slot and re-pushing a
    // different entry at the same index (the H/T re-check cannot tell:
    // same index, new occupant), so it is only a *hint*: after the claim
    // succeeds the slot is frozen — Tail cannot drop below the claimed
    // index without the owner's pop conflicting into the lock this thief
    // holds — and the flag is re-read; a mismatch undoes the claim and
    // backs off.
    if (!Slots[H].Special.load(std::memory_order_relaxed)) {
      // Fig. 3d: claim the head entry, then re-check against the owner's
      // concurrent pop.
      Head.store(H + 1, std::memory_order_seq_cst); // MEMBAR
      T = Tail.load(std::memory_order_seq_cst);
      if (H + 1 > T) {
        Head.store(H, std::memory_order_seq_cst);
        return {StealResult::Status::Empty, nullptr};
      }
      if (ATC_UNLIKELY(Slots[H].Special.load(std::memory_order_relaxed))) {
        // The peek raced with a re-push that put a special at the head;
        // stealing it would violate the protocol. Undo and back off.
        Head.store(H, std::memory_order_seq_cst);
        return {StealResult::Status::Empty, nullptr};
      }
      void *Frame = Slots[H].Frame;
      if (OnSteal)
        OnSteal(Frame, Ctx);
      publishDepth();
      return {StealResult::Status::Success, Frame};
    }

    // Fig. 3e: the head is a special task, which can never be stolen;
    // steal its child (the next entry) instead: H += 2.
    Head.store(H + 2, std::memory_order_seq_cst); // MEMBAR
    T = Tail.load(std::memory_order_seq_cst);
    if (H + 2 > T) {
      Head.store(H, std::memory_order_seq_cst);
      return {StealResult::Status::Empty, nullptr};
    }
    if (ATC_UNLIKELY(!Slots[H].Special.load(std::memory_order_relaxed))) {
      // The peek raced with a re-push that replaced the special with an
      // ordinary entry; the H += 2 claim width was wrong. Undo, back off.
      Head.store(H, std::memory_order_seq_cst);
      return {StealResult::Status::Empty, nullptr};
    }
    void *Frame = Slots[H + 1].Frame;
    if (OnSteal)
      OnSteal(Frame, Ctx);
    publishDepth();
    return {StealResult::Status::Success, Frame};
  }

  /// Owner: the frame of the tail entry, the one the next pop reclaims;
  /// null when the deque is empty.
  void *top() const {
    int T = Tail.load(std::memory_order_relaxed);
    return T > Head.load(std::memory_order_relaxed) ? Slots[T - 1].Frame
                                                    : nullptr;
  }

  /// True when no entry is present (approximate under concurrency).
  bool empty() const { return Head.load(std::memory_order_relaxed) >=
                              Tail.load(std::memory_order_relaxed); }

  /// Number of entries between head and tail (approximate).
  int size() const {
    int H = Head.load(std::memory_order_relaxed);
    int T = Tail.load(std::memory_order_relaxed);
    return T > H ? T - H : 0;
  }

  int capacity() const { return Cap; }

  /// Number of tryPush calls rejected due to a full array.
  std::uint64_t overflowCount() const {
    return Overflows.load(std::memory_order_relaxed);
  }

  /// High-water mark of the tail index, an indicator of how deep the deque
  /// got (overflow pressure).
  int highWaterMark() const {
    return HighWater.load(std::memory_order_relaxed);
  }

  /// Number of protocol-lock acquisitions (thief steals past the empty
  /// pre-check, owner pop conflicts, popSpecial calls).
  std::uint64_t lockAcquireCount() const {
    return LockAcquires.load(std::memory_order_relaxed);
  }

  /// Owner: empties the deque; thieves may run concurrently.
  void reset() {
    std::lock_guard<std::mutex> Guard(Lock);
    rewind();
  }

  /// Live-metrics hook (src/metrics): when attached, every size-changing
  /// operation stores the new occupancy into \p Gauge with a relaxed
  /// atomic store — owner pushes/pops and thief steals alike. Null (the
  /// default) costs one predictable untaken branch per operation.
  void attachDepthGauge(std::atomic<std::int64_t> *Gauge) {
    DepthGauge = Gauge;
  }

private:
  /// Empties the deque by rewinding both indices to 0. The caller holds
  /// Lock, so no thief past the lock-free emptiness pre-check can
  /// interleave. The pre-check itself tolerates the rewind: a stale read
  /// costs at most a lock round trip or a spurious "empty", which a
  /// failed steal attempt already means.
  void rewind() {
    Head.store(0, std::memory_order_seq_cst);
    Tail.store(0, std::memory_order_seq_cst);
    publishDepth();
  }

  /// Publishes size() to the attached gauge (see attachDepthGauge).
  void publishDepth() {
    if (ATC_UNLIKELY(DepthGauge != nullptr))
      DepthGauge->store(size(), std::memory_order_relaxed);
  }

  /// Frame is plain: thieves read it only after the claim/re-check
  /// handshake on Head/Tail, whose seq_cst stores order it. Special is
  /// atomic because a thief peeks it *before* claiming, concurrently with
  /// the owner re-pushing into a popped slot at the same index; the peek
  /// is only a routing hint and is re-validated after the claim (see
  /// steal()).
  struct Entry {
    void *Frame;
    std::atomic<bool> Special;
  };

  const int Cap;
  std::unique_ptr<Entry[]> Slots;

  /// Head (steal end) and Tail (owner end); Head <= Tail when non-empty.
  alignas(ATC_CACHE_LINE_SIZE) std::atomic<int> Head{0};
  alignas(ATC_CACHE_LINE_SIZE) std::atomic<int> Tail{0};

  /// The protocol lock ("worker.L" / "victim.L" in the paper).
  std::mutex Lock;

  std::atomic<std::uint64_t> Overflows{0};
  std::atomic<std::uint64_t> LockAcquires{0};
  std::atomic<int> HighWater{0};
  std::atomic<std::int64_t> *DepthGauge = nullptr;
};

} // namespace atc

#endif // ATC_DEQUE_THEDEQUE_H
