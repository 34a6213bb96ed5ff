#include "pos/generic_kernel.hpp"

#include <algorithm>

namespace air::pos {

void GenericKernel::enqueue_ready(ProcessControlBlock& pcb) {
  run_queue_.push_back(pcb.id);
}

void GenericKernel::dequeue_ready(ProcessControlBlock& pcb) {
  auto it = std::find(run_queue_.begin(), run_queue_.end(), pcb.id);
  if (it != run_queue_.end()) run_queue_.erase(it);
}

ProcessId GenericKernel::pick_heir() const {
  return run_queue_.empty() ? ProcessId::invalid() : run_queue_.front();
}

ProcessId GenericKernel::peek_heir() const {
  // schedule() rotates a running head that has company to the tail.
  if (current_.valid() && run_queue_.size() > 1 &&
      run_queue_.front() == current_) {
    return run_queue_[1];
  }
  return pick_heir();
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
  if (heir != run_queue_.front()) {
    run_queue_.pop_front();
    run_queue_.push_back(current_);
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
