// Lock-free bounded multi-producer ring buffer.
//
// The hand-off from the decode services' completion hooks back to the
// serve front-end's IO thread: producers TryPush from any thread, one
// consumer TryPops in FIFO-per-producer order. The queue is a fixed slot
// array with monotonically increasing producer/consumer indices and a
// per-cell sequence number (Vyukov's bounded queue) — no locks, no node
// allocation, and after construction the queue never touches the heap, so
// it sits on the zero-allocation-per-request serving path.
//
// A full queue fails TryPush immediately instead of blocking (the
// front-end sizes it to its in-flight bound, so it never fills). Capacity
// is rounded up to a power of two.
#ifndef DHMM_UTIL_MPSC_RING_H_
#define DHMM_UTIL_MPSC_RING_H_

#include <atomic>
#include <cstddef>
#include <memory>

#include "util/check.h"

namespace dhmm::util {

/// \brief Fixed-capacity lock-free MPSC (usable as MPMC) ring buffer.
///
/// T must be cheap to copy — the intended payload is a pointer to a pooled
/// request slot. Push/pop never allocate.
template <typename T>
class MpscRing {
 public:
  /// Capacity is rounded up to the next power of two (minimum 2).
  explicit MpscRing(size_t min_capacity) {
    size_t cap = 2;
    while (cap < min_capacity) cap *= 2;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  /// Slots in the ring (the rounded-up capacity).
  size_t capacity() const { return mask_ + 1; }

  /// \brief Enqueues `v`. Returns false when the ring is full — the
  /// caller's backpressure signal. Safe from any number of threads.
  bool TryPush(const T& v) {
    size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const size_t seq = cell.seq.load(std::memory_order_acquire);
      const intptr_t dif =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (dif == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.value = v;
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS lost: pos was reloaded, retry on the new cell.
      } else if (dif < 0) {
        return false;  // the cell still holds an unconsumed value: full
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// \brief Dequeues into *out. Returns false when the ring is empty.
  /// Safe from multiple threads, though the front-end runs one consumer.
  bool TryPop(T* out) {
    DHMM_DCHECK(out != nullptr);
    size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const size_t seq = cell.seq.load(std::memory_order_acquire);
      const intptr_t dif =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          *out = cell.value;
          cell.seq.store(pos + mask_ + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // empty
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

 private:
  struct Cell {
    std::atomic<size_t> seq;
    T value;
  };

  std::unique_ptr<Cell[]> cells_;
  size_t mask_ = 0;
  // Producer and consumer cursors on separate cache lines so producers'
  // CAS traffic does not steal the consumer's line.
  alignas(64) std::atomic<size_t> head_{0};  // next slot to produce into
  alignas(64) std::atomic<size_t> tail_{0};  // next slot to consume from
};

}  // namespace dhmm::util

#endif  // DHMM_UTIL_MPSC_RING_H_
