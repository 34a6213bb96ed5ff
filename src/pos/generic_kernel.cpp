#include "pos/generic_kernel.hpp"

#include <algorithm>

namespace air::pos {

ProcessId GenericKernel::peek_heir() const {
  // schedule() rotates a running head that has company to the tail.
  if (current_.valid() && ready_.size() > 1 && ready_.front() == current_) {
    return ready_[1];
  }
  return ready_head();
}

ProcessId GenericKernel::schedule() {
  const ProcessId heir = peek_heir();
  if (!heir.valid()) {
    current_ = ProcessId::invalid();
    return current_;
  }
  count_dispatch(heir != current_);
  // Round-robin: the previous head moves to the tail on every scheduling
  // decision, giving a one-tick time slice.
  if (heir != ready_.front()) {
    std::rotate(ready_.begin(), ready_.begin() + 1, ready_.end());
    ProcessControlBlock* prev = pcb(current_);
    if (prev != nullptr && prev->state == ProcessState::kRunning) {
      set_state(*prev, ProcessState::kReady);
    }
  }
  current_ = heir;
  set_state(pcb_ref(current_), ProcessState::kRunning);
  return current_;
}

void GenericKernel::set_priority(ProcessId id, Priority priority) {
  pcb_ref(id).current_priority = priority;  // recorded, not honoured
}

bool GenericKernel::try_disable_clock_interrupt() {
  ++traps_;
  if (on_paravirt_trap) on_paravirt_trap();
  return false;
}

}  // namespace air::pos
