// Bounded FIFO ring buffer (queuing ports, buffers, bus slots).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace air::util {

/// FIFO of `T` with capacity fixed at construction. Overwrites are explicit:
/// push on a full ring fails instead of silently dropping, because ARINC 653
/// queuing-port semantics require the sender to observe overflow.
///
/// Storage is reserved at construction (so pushes never allocate) but slots
/// are constructed on first use: a large ring that only ever holds a few
/// elements builds and touches only those. Until the slots are all built,
/// head_ + count_ never passes slots_.size() (pops move both ends, clear()
/// resets them), so the write index is an existing slot or the next one to
/// build.
///
/// Not copyable: a copied vector keeps its elements but not its reserved
/// capacity, so a copy would allocate on its next push. A move keeps the
/// capacity and leaves the source an empty ring.
template <class T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : capacity_(capacity) {
    AIR_ASSERT(capacity > 0);
    slots_.reserve(capacity);
  }

  RingBuffer(const RingBuffer&) = delete;
  RingBuffer& operator=(const RingBuffer&) = delete;
  RingBuffer(RingBuffer&& other) noexcept
      : capacity_(other.capacity_),
        slots_(std::move(other.slots_)),
        head_(std::exchange(other.head_, 0)),
        count_(std::exchange(other.count_, 0)) {
    other.slots_.clear();
  }
  RingBuffer& operator=(RingBuffer&& other) noexcept {
    capacity_ = other.capacity_;
    slots_ = std::move(other.slots_);
    other.slots_.clear();
    head_ = std::exchange(other.head_, 0);
    count_ = std::exchange(other.count_, 0);
    return *this;
  }
  ~RingBuffer() = default;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] bool full() const { return count_ == capacity_; }

  /// Append `value`; returns false (and leaves the ring untouched) when full.
  [[nodiscard]] bool push(T value) {
    if (full()) return false;
    const std::size_t tail = (head_ + count_) % capacity_;
    if (tail == slots_.size()) {
      slots_.push_back(std::move(value));
    } else {
      slots_[tail] = std::move(value);
    }
    ++count_;
    return true;
  }

  /// Append `value`, evicting the oldest element when full (flight-recorder
  /// semantics -- keep the newest history). Returns true when an element was
  /// evicted, so callers can keep an exact dropped count.
  bool push_overwrite(T value) {
    if (!full()) {
      (void)push(std::move(value));
      return false;
    }
    slots_[head_] = std::move(value);
    head_ = (head_ + 1) % capacity_;
    return true;
  }

  /// Element `i` in FIFO order (0 = oldest). Valid for i < size().
  [[nodiscard]] const T& at(std::size_t i) const {
    AIR_ASSERT(i < count_);
    return slots_[(head_ + i) % capacity_];
  }

  /// Pop the oldest element into `out`; returns false when empty.
  [[nodiscard]] bool pop(T& out) {
    if (empty()) return false;
    out = std::move(slots_[head_]);
    head_ = (head_ + 1) % capacity_;
    --count_;
    return true;
  }

  [[nodiscard]] const T& peek() const {
    AIR_ASSERT(!empty());
    return slots_[head_];
  }

  void clear() {
    head_ = 0;
    count_ = 0;
  }

 private:
  std::size_t capacity_;
  std::vector<T> slots_;
  std::size_t head_{0};
  std::size_t count_{0};
};

}  // namespace air::util
