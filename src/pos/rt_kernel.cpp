#include "pos/rt_kernel.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace air::pos {

void RtKernel::enqueue_ready(ProcessControlBlock& pcb) {
  AIR_ASSERT(pcb.current_priority >= 0 &&
             pcb.current_priority < kPriorityLevels);
  const auto priority = static_cast<std::size_t>(pcb.current_priority);
  ready_[priority].push_back(pcb.id);
  occupancy_[priority >> 6] |= std::uint64_t{1} << (priority & 63);
}

void RtKernel::dequeue_ready(ProcessControlBlock& pcb) {
  const auto priority = static_cast<std::size_t>(pcb.current_priority);
  auto& queue = ready_[priority];
  auto it = std::find(queue.begin(), queue.end(), pcb.id);
  if (it != queue.end()) queue.erase(it);
  if (queue.empty()) {
    occupancy_[priority >> 6] &= ~(std::uint64_t{1} << (priority & 63));
  }
}

ProcessId RtKernel::pick_heir() const {
  for (std::size_t word = 0; word < kWords; ++word) {
    if (occupancy_[word] != 0) {
      const auto bit =
          static_cast<std::size_t>(std::countr_zero(occupancy_[word]));
      return ready_[(word << 6) | bit].front();
    }
  }
  return ProcessId::invalid();
}

ProcessId RtKernel::peek_heir() const {
  // With preemption locked, the current process runs on while schedulable.
  if (preemption_locked() && current_.valid()) {
    const ProcessControlBlock* cur = pcb(current_);
    if (cur != nullptr && cur->schedulable()) return current_;
  }
  return pick_heir();
}

ProcessId RtKernel::schedule() {
  const ProcessId heir = peek_heir();
  if (!heir.valid()) {
    current_ = ProcessId::invalid();
    return heir;
  }
  count_dispatch(heir != current_);
  if (heir != current_) {
    if (current_.valid()) {
      ProcessControlBlock* prev = pcb(current_);
      if (prev != nullptr && prev->state == ProcessState::kRunning) {
        set_state(*prev, ProcessState::kReady);
      }
    }
    current_ = heir;
  }
  set_state(pcb_ref(heir), ProcessState::kRunning);
  return heir;
}

void RtKernel::set_priority(ProcessId id, Priority priority) {
  AIR_ASSERT(priority >= 0 && priority < kPriorityLevels);
  ProcessControlBlock& p = pcb_ref(id);
  if (p.current_priority == priority) return;
  const bool queued = p.schedulable();
  if (queued) dequeue_ready(p);
  p.current_priority = priority;
  if (queued) {
    // ARINC 653: the process becomes the *newest* at its new priority.
    p.ready_seq = ++ready_counter_;
    enqueue_ready(p);
  }
}

}  // namespace air::pos
