//===- deque/ChaseLevDeque.h - Lock-free special-task WS deque --*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lock-free alternative to the THE-protocol deque (TheDeque), with
/// the same interface and the same AdaptiveTC special-task semantics.
/// Thieves claim entries with a CAS on Head (Chase & Lev, SPAA'05; C11
/// formulation after Le, Pop, Cohen, Zappa Nardelli, PPoPP'13) instead of
/// taking the victim's mutex, so steal attempts — and in particular the
/// very common probe of an *empty* deque — never serialize on a lock.
///
/// The ring grows geometrically instead of rejecting pushes, the
/// related-work answer to deque overflow the paper cites ("a
/// work-stealing d-e-que using a buffer pool that does not have the
/// overflow problem"). tryPush never fails, overflowCount() is always 0,
/// and growCount() reports how many times a fixed array of the initial
/// capacity would have overflowed. DequeCapacity is an *initial* capacity
/// here (rounded up to a power of two), not a limit; the bounded,
/// overflow-counting deque is TheDeque.
///
/// Differences from the textbook Chase-Lev deque:
///
///  * Entries carry a Special marker. A special task is never stolen: a
///    thief that finds a special at the head claims the special's *child*
///    (the next entry) with a single CAS Head -> Head+2, the lock-free
///    equivalent of the paper's "H += 2" protocol (Fig. 3e).
///  * popSpecial() reports whether the special's child was stolen, the
///    lock-free equivalent of Fig. 3b (the THE deque resets H = T there;
///    with monotonic indices the same state is reached by restoring Tail
///    to the observed Head).
///
/// Index discipline: Head and Tail are monotonically increasing 64-bit
/// counters over a power-of-two circular buffer (slot = index & mask).
/// They are never reset mid-run, which is what makes the CAS on Head
/// ABA-free — the THE deque's H = T / Tail-restore resets would re-issue
/// old index values and let a stale thief claim a recycled slot.
///
/// Owner-side races. A thief can only claim the owner's bottom entry
/// (index T-1) in two states, and only there must pop() arbitrate with a
/// CAS of its own:
///
///  * H == T-1: the classic single-entry race (Chase-Lev pop).
///  * H == T-2 with a special at H: a thief's H += 2 jump claims H+1 ==
///    T-1 without Head ever pointing at it. The owner claims by executing
///    the same jump itself (CAS Head -> Head+2), which consumes the
///    special entry as a side effect — so the owner immediately
///    re-publishes the special at the new head. The deque must keep
///    reading [special] after a successful child pop (exactly TheDeque's
///    state there): later pushes stay under the special's protection and
///    popSpecial() still finds the entry. A flag-based shortcut instead of
///    re-publication is wrong — the child's spawn loop keeps pushing
///    after the pop, and those entries would be stealable as *plain*
///    entries while popSpecial() later reported "nothing stolen".
///
/// For H < T-2 (or H == T-2 with a non-special head entry) the plain
/// fenced take is safe by the standard Chase-Lev argument extended to
/// jumps: claiming the bottom entry requires a thief to observe Head at
/// T-1 (plain claim) or T-2-with-special (jump), and the monotonicity of
/// Head makes either observation contradict the owner's fenced read.
/// Every case carries over across a growth unchanged, because growth is
/// owner-only and never moves a live entry to a new index.
///
/// Ring-buffer reclamation: a grown-out buffer may still be read by
/// in-flight thieves (they loaded the buffer pointer before the owner
/// swapped it), so old buffers are *retired* to a list owned by the deque
/// and freed only at destruction — safe memory reclamation without an
/// epoch/hazard scheme. Entries in [Head, Tail) are copied to the new
/// buffer at the same indices, so a thief holding the old buffer still
/// reads the correct entry for any index its CAS can certify; total
/// retired memory is bounded by twice the final capacity (geometric
/// growth).
///
/// Memory-ordering discipline: every protocol-critical access to Head and
/// Tail is a seq_cst *operation* (and the buffer pointer is an
/// acquire/release handoff), mirroring the fence placement of the C11
/// formulation without standalone fences — ThreadSanitizer models
/// operations precisely while its fence support is incomplete, so this
/// deque is TSan-clean by construction. The correctness argument leans on
/// the single-total-order guarantee: once the owner's Tail store + Head
/// load pair completes, any thief whose Head read postdates a conflicting
/// CAS is guaranteed to read the owner's new Tail, so stale-index claims
/// are impossible. Slot contents are relaxed atomics published by the
/// Tail store and validated by the claiming CAS.
///
/// Thread-safety contract: one owner thread calls tryPush/pop/popSpecial/
/// reset; any number of thief threads call steal. Identical to TheDeque.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_DEQUE_CHASELEVDEQUE_H
#define ATC_DEQUE_CHASELEVDEQUE_H

#include "deque/TheDeque.h" // PopResult / StealResult
#include "support/Compiler.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <vector>

namespace atc {

/// Lock-free work-stealing deque with AdaptiveTC special-task support.
/// Drop-in replacement for TheDeque whose ring grows (file comment).
class ChaseLevDeque {
public:
  /// Creates a deque over a ring of \p Capacity entries rounded up to a
  /// power of two. The capacity is only the initial size; the ring grows
  /// on demand.
  explicit ChaseLevDeque(int Capacity = 8192) {
    assert(Capacity > 0 && "deque capacity must be positive");
    std::int64_t N = 2;
    while (N < Capacity)
      N *= 2;
    Buffer.store(new RingBuffer(N), std::memory_order_relaxed);
  }

  ~ChaseLevDeque() {
    delete Buffer.load(std::memory_order_relaxed);
    for (RingBuffer *RB : Retired)
      delete RB;
  }

  ChaseLevDeque(const ChaseLevDeque &) = delete;
  ChaseLevDeque &operator=(const ChaseLevDeque &) = delete;

  /// Owner: pushes \p Frame at the tail. A full ring grows, so the push
  /// always succeeds.
  bool tryPush(void *Frame, bool Special = false) {
    std::int64_t T = Tail.load(std::memory_order_relaxed);
    std::int64_t H = Head.load(std::memory_order_acquire);
    RingBuffer *RB = Buffer.load(std::memory_order_relaxed);
    if (ATC_UNLIKELY(T - H >= RB->Capacity)) {
      RB = grow(RB, H, T);
      Buffer.store(RB, std::memory_order_release);
    }
    Slot &S = RB->slot(T);
    S.Frame.store(Frame, std::memory_order_relaxed);
    S.Special.store(Special, std::memory_order_relaxed);
    // Publish the entry before the index: a thief that observes the new
    // Tail must see the slot contents — and, across a growth, the new
    // buffer pointer (its release-store above precedes this seq_cst
    // store, so reading the new Tail acquires both).
    Tail.store(T + 1, std::memory_order_seq_cst);
    int Depth = static_cast<int>(T + 1 - H);
    if (Depth > HighWater.load(std::memory_order_relaxed))
      HighWater.store(Depth, std::memory_order_relaxed);
    publishDepth();
    return true;
  }

  /// Owner: pops the tail entry. Failure means the entry was stolen (or
  /// claimed by a thief's special-child jump); the indices are restored
  /// so the deque reads as empty. See the file comment's owner-side race
  /// cases.
  PopResult pop() {
    std::int64_t T = Tail.load(std::memory_order_relaxed) - 1; // our entry
    RingBuffer *RB = Buffer.load(std::memory_order_relaxed);
    Tail.store(T, std::memory_order_seq_cst);
    std::int64_t H = Head.load(std::memory_order_seq_cst);

    if (ATC_LIKELY(H < T)) {
      if (H == T - 1 && RB->slot(H).Special.load(std::memory_order_relaxed)) {
        // A special sits directly below our entry at the head: a thief's
        // H += 2 jump can claim our entry even though Head never points
        // at it. Arbitrate by executing the jump ourselves; that consumes
        // the special entry too, so on success re-publish it at the new
        // head (see the file comment for why a flag shortcut is wrong).
        void *SpecialFrame = RB->slot(H).Frame.load(std::memory_order_relaxed);
        if (Head.compare_exchange_strong(H, H + 2, std::memory_order_seq_cst,
                                         std::memory_order_relaxed)) {
          Slot &S = RB->slot(H + 2);
          S.Frame.store(SpecialFrame, std::memory_order_relaxed);
          S.Special.store(true, std::memory_order_relaxed);
          // Publish the slot before the index (release part of seq_cst).
          Tail.store(T + 2, std::memory_order_seq_cst); // [special] at H+2
          publishDepth();
          return PopResult::Success;
        }
        // A thief's jump won the race: our entry was stolen.
        Tail.store(T + 1, std::memory_order_seq_cst);
        publishDepth();
        return PopResult::Failure;
      }
      // At least one non-jumpable entry below ours: plain take (standard
      // Chase-Lev argument, see the file comment).
      publishDepth();
      return PopResult::Success;
    }

    if (H == T) {
      // Single entry: the classic Chase-Lev race, resolved by CAS.
      bool Won = Head.compare_exchange_strong(
          H, H + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
      Tail.store(T + 1, std::memory_order_seq_cst);
      publishDepth();
      return Won ? PopResult::Success : PopResult::Failure;
    }

    // H > T: the entry was already claimed before we decremented Tail.
    assert(H == T + 1 && "head advanced past an unpublished entry");
    Tail.store(H, std::memory_order_seq_cst);
    publishDepth();
    return PopResult::Failure;
  }

  /// Owner: pops a special task from the tail. Failure means the
  /// special's child was stolen (the thief's H += 2 jump consumed the
  /// special entry as well).
  PopResult popSpecial() {
    std::int64_t T = Tail.load(std::memory_order_relaxed) - 1; // special
    Tail.store(T, std::memory_order_seq_cst);
    std::int64_t H = Head.load(std::memory_order_seq_cst);
    if (H <= T) {
      // The special entry is intact; nothing below it is jumpable and a
      // special alone is unstealable, so no thief can contend.
      publishDepth();
      return PopResult::Success;
    }
    // A thief's jump consumed the special together with its stolen child.
    assert(H == T + 1 && "head in impossible state past a special");
    Tail.store(H, std::memory_order_seq_cst); // the THE "H = T" reset
    publishDepth();
    return PopResult::Failure;
  }

  /// Thief: steals the head entry; if the head is special, steals the
  /// special's child via a single CAS Head -> Head+2.
  ///
  /// \p OnSteal, when non-null, runs with the stolen frame immediately
  /// after the claiming CAS. Unlike TheDeque there is no lock, so there
  /// is NO happens-before edge to the owner's pop/popSpecial failure:
  /// callers must tolerate the callback's effects racing with the
  /// owner's failure handling (FramePolicy's join protocol does — see
  /// DESIGN.md "Lock-free steal path").
  StealResult steal(void (*OnSteal)(void *Frame, void *Ctx) = nullptr,
                    void *Ctx = nullptr) {
    std::int64_t H = Head.load(std::memory_order_seq_cst);
    std::int64_t T = Tail.load(std::memory_order_seq_cst);
    if (H >= T)
      return {StealResult::Status::Empty, nullptr};
    // Load the buffer *after* Tail: the owner release-stores the grown
    // buffer before the Tail store that publishes into it, so a thief
    // that read that Tail value reads a buffer holding every index in
    // [H, T). A stale (retired) buffer is still readable — it is freed
    // only at destruction — and holds the same entries at the indices a
    // successful CAS can certify.
    RingBuffer *RB = Buffer.load(std::memory_order_acquire);

    if (ATC_LIKELY(!RB->slot(H).Special.load(std::memory_order_relaxed))) {
      // Read the frame before the CAS: the slot may be recycled once
      // Head moves past it, and the CAS succeeding certifies the read.
      void *Frame = RB->slot(H).Frame.load(std::memory_order_relaxed);
      if (!Head.compare_exchange_strong(H, H + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        CasRetries.fetch_add(1, std::memory_order_relaxed);
        return {StealResult::Status::Empty, nullptr};
      }
      if (OnSteal)
        OnSteal(Frame, Ctx);
      publishDepth();
      return {StealResult::Status::Success, Frame};
    }

    // Special at the head: it can never be stolen; claim its child (the
    // next entry) with a single CAS Head -> Head+2 when one is present.
    if (T - H < 2)
      return {StealResult::Status::Empty, nullptr};
    void *Frame = RB->slot(H + 1).Frame.load(std::memory_order_relaxed);
    if (!Head.compare_exchange_strong(H, H + 2, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      CasRetries.fetch_add(1, std::memory_order_relaxed);
      return {StealResult::Status::Empty, nullptr};
    }
    if (OnSteal)
      OnSteal(Frame, Ctx);
    publishDepth();
    return {StealResult::Status::Success, Frame};
  }

  /// True when no entry is present (approximate under concurrency).
  /// Relaxed loads only — this is the thieves' lock-free emptiness probe.
  bool empty() const {
    return Head.load(std::memory_order_relaxed) >=
           Tail.load(std::memory_order_relaxed);
  }

  /// Number of entries between head and tail (approximate).
  int size() const {
    std::int64_t H = Head.load(std::memory_order_relaxed);
    std::int64_t T = Tail.load(std::memory_order_relaxed);
    return T > H ? static_cast<int>(T - H) : 0;
  }

  /// Current ring size (growing over the deque's lifetime).
  int capacity() const {
    return static_cast<int>(Buffer.load(std::memory_order_relaxed)->Capacity);
  }

  /// Rejected pushes — always 0, because the ring grows instead (see
  /// growCount()); present, like lockAcquireCount(), for interface parity.
  std::uint64_t overflowCount() const { return 0; }

  /// Number of ring growths performed (each one is an overflow a fixed
  /// array of the initial capacity would have hit).
  std::uint64_t growCount() const {
    return Grows.load(std::memory_order_relaxed);
  }

  /// High-water mark of the deque depth (entries present at once).
  int highWaterMark() const {
    return HighWater.load(std::memory_order_relaxed);
  }

  /// Thief-side CAS attempts that lost a race and had to report Empty.
  std::uint64_t casRetryCount() const {
    return CasRetries.load(std::memory_order_relaxed);
  }

  /// Lock acquisitions — always 0; present so the engines can report the
  /// same steal-path observability for every deque kind.
  std::uint64_t lockAcquireCount() const { return 0; }

  /// Owner: drops all entries. Must not race with thieves. Indices stay
  /// monotonic (Tail is pulled down to Head) so stale thieves can never
  /// observe a reused index value.
  void reset() {
    std::int64_t H = Head.load(std::memory_order_seq_cst);
    Tail.store(H, std::memory_order_seq_cst);
    publishDepth();
  }

  /// Live-metrics hook (src/metrics): when attached, every size-changing
  /// operation stores the new occupancy into \p Gauge with a relaxed
  /// atomic store. Same contract as the other deque kinds.
  void attachDepthGauge(std::atomic<std::int64_t> *Gauge) {
    DepthGauge = Gauge;
  }

private:
  /// Publishes size() to the attached gauge (see attachDepthGauge).
  void publishDepth() {
    if (ATC_UNLIKELY(DepthGauge != nullptr))
      DepthGauge->store(size(), std::memory_order_relaxed);
  }

  /// Slot contents are atomic because a thief may read a slot while the
  /// owner recycles (or re-publishes into) it; the claiming CAS discards
  /// any such stale read.
  struct Slot {
    std::atomic<void *> Frame{nullptr};
    std::atomic<bool> Special{false};
  };

  /// Circular array with power-of-two capacity; slot(I) = Slots[I & Mask]
  /// keeps indices monotonic across growths.
  struct RingBuffer {
    explicit RingBuffer(std::int64_t N)
        : Capacity(N), Mask(N - 1),
          Slots(new Slot[static_cast<std::size_t>(N)]) {}
    ~RingBuffer() { delete[] Slots; }

    RingBuffer(const RingBuffer &) = delete;
    RingBuffer &operator=(const RingBuffer &) = delete;

    Slot &slot(std::int64_t I) { return Slots[I & Mask]; }

    const std::int64_t Capacity;
    const std::int64_t Mask;
    Slot *Slots;
  };

  /// Owner-only: allocates a ring of twice the capacity, copies the live
  /// entries [H, T) across at unchanged indices, and retires the old
  /// buffer (in-flight thieves may still be reading it; see the file
  /// comment on reclamation).
  RingBuffer *grow(RingBuffer *Old, std::int64_t H, std::int64_t T) {
    auto *New = new RingBuffer(Old->Capacity * 2);
    for (std::int64_t I = H; I < T; ++I) {
      New->slot(I).Frame.store(
          Old->slot(I).Frame.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      New->slot(I).Special.store(
          Old->slot(I).Special.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    Retired.push_back(Old);
    Grows.fetch_add(1, std::memory_order_relaxed);
    return New;
  }

  /// Head (steal end) and Tail (owner end); Head <= Tail when quiescent.
  alignas(ATC_CACHE_LINE_SIZE) std::atomic<std::int64_t> Head{0};
  alignas(ATC_CACHE_LINE_SIZE) std::atomic<std::int64_t> Tail{0};

  std::atomic<RingBuffer *> Buffer{nullptr};
  std::vector<RingBuffer *> Retired; ///< Owner-only; freed at destruction.

  std::atomic<std::uint64_t> Grows{0};
  std::atomic<int> HighWater{0};
  std::atomic<std::int64_t> *DepthGauge = nullptr;

  /// The one field thieves write besides Head. Its own line keeps lost-CAS
  /// increments off the Tail/Buffer line that every steal reads (sharing
  /// it halved 2-8 thief drain throughput).
  alignas(ATC_CACHE_LINE_SIZE) std::atomic<std::uint64_t> CasRetries{0};
};

} // namespace atc

#endif // ATC_DEQUE_CHASELEVDEQUE_H
