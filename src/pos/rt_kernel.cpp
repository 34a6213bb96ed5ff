#include "pos/rt_kernel.hpp"

#include "util/assert.hpp"

namespace air::pos {

ProcessId RtKernel::peek_heir() const {
  // With preemption locked, the current process runs on while schedulable.
  if (preemption_locked() && current_.valid()) {
    const ProcessControlBlock* cur = pcb(current_);
    if (cur != nullptr && cur->schedulable()) return current_;
  }
  return ready_head();
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
  if (queued) dequeue(id);
  p.current_priority = priority;
  if (queued) {
    // ARINC 653: the process becomes the *newest* at its new priority.
    p.ready_seq = ++ready_counter_;
    enqueue(p);
  }
}

}  // namespace air::pos
