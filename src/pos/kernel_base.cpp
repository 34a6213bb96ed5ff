#include "pos/kernel_base.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace air::pos {

ProcessId KernelBase::create_process(ProcessAttributes attrs) {
  ProcessControlBlock pcb;
  pcb.id = ProcessId{static_cast<std::int32_t>(table_.size())};
  pcb.current_priority = attrs.priority;
  pcb.attrs = std::move(attrs);
  table_.push_back(std::move(pcb));
  wake_col_.push_back(kInfiniteTime);  // dormant: no timer armed
  susp_col_.push_back(0);
  ready_.reserve(table_.size());
  return table_.back().id;
}

ProcessControlBlock* KernelBase::pcb(ProcessId id) {
  if (!id.valid() || static_cast<std::size_t>(id.value()) >= table_.size()) {
    return nullptr;
  }
  return &table_[static_cast<std::size_t>(id.value())];
}

const ProcessControlBlock* KernelBase::pcb(ProcessId id) const {
  if (!id.valid() || static_cast<std::size_t>(id.value()) >= table_.size()) {
    return nullptr;
  }
  return &table_[static_cast<std::size_t>(id.value())];
}

ProcessId KernelBase::find_process(std::string_view name) const {
  for (const auto& pcb : table_) {
    if (pcb.attrs.name == name) return pcb.id;
  }
  return ProcessId::invalid();
}

ProcessControlBlock& KernelBase::pcb_ref(ProcessId id) {
  ProcessControlBlock* p = pcb(id);
  AIR_ASSERT_MSG(p != nullptr, "invalid process id");
  return *p;
}

void KernelBase::set_state(ProcessControlBlock& pcb, ProcessState state) {
  if (pcb.state == state) return;
  pcb.state = state;
  sync_wait_cols(pcb);
  if (on_state_change) on_state_change(pcb.id, state);
}

void KernelBase::enqueue(const ProcessControlBlock& pcb) {
  auto at = ready_.end();
  if (order_ == ReadyOrder::kPriority) {
    at = std::upper_bound(
        ready_.begin(), ready_.end(), pcb.current_priority,
        [this](Priority p, ProcessId id) {
          return p < table_[static_cast<std::size_t>(id.value())]
                         .current_priority;
        });
  }
  ready_.insert(at, pcb.id);
}

void KernelBase::dequeue(ProcessId id) {
  const auto it = std::find(ready_.begin(), ready_.end(), id);
  AIR_ASSERT_MSG(it != ready_.end(), "schedulable process not in ready list");
  ready_.erase(it);
}

void KernelBase::make_ready(ProcessId id) {
  ProcessControlBlock& p = pcb_ref(id);
  if (p.schedulable()) return;
  p.wait_reason = WaitReason::kNone;
  p.wake_time = kInfiniteTime;
  p.ready_seq = ++ready_counter_;
  set_state(p, ProcessState::kReady);
  enqueue(p);
}

void KernelBase::make_dormant(ProcessId id) {
  ProcessControlBlock& p = pcb_ref(id);
  if (p.schedulable()) dequeue(id);
  if (current_ == id) current_ = ProcessId::invalid();
  p.wait_reason = WaitReason::kNone;
  p.wake_time = kInfiniteTime;
  p.suspended = false;
  p.wake_result = WakeResult::kStopped;
  set_state(p, ProcessState::kDormant);
}

void KernelBase::block(ProcessId id, WaitReason reason, Ticks wake_time) {
  ProcessControlBlock& p = pcb_ref(id);
  AIR_ASSERT_MSG(p.schedulable(), "only a schedulable process can block");
  dequeue(id);
  if (current_ == id) current_ = ProcessId::invalid();
  p.wait_reason = reason;
  p.wake_time = wake_time;
  p.wake_result = WakeResult::kNone;
  set_state(p, ProcessState::kWaiting);
}

void KernelBase::wake(ProcessId id, WakeResult result) {
  ProcessControlBlock& p = pcb_ref(id);
  if (p.state != ProcessState::kWaiting) return;
  p.wake_result = result;
  if (p.suspended) {
    // ARINC 653: a suspended process stays ineligible until RESUME; remember
    // that its underlying wait has concluded.
    p.wait_reason = WaitReason::kSuspended;
    p.wake_time = kInfiniteTime;
    sync_wait_cols(p);  // disarms the timer column while still kWaiting
    return;
  }
  p.wait_reason = WaitReason::kNone;
  p.wake_time = kInfiniteTime;
  p.ready_seq = ++ready_counter_;
  set_state(p, ProcessState::kReady);
  enqueue(p);
}

void KernelBase::retarget_wait(ProcessId id, WaitReason reason,
                               Ticks wake_time) {
  ProcessControlBlock& p = pcb_ref(id);
  AIR_ASSERT_MSG(p.state == ProcessState::kWaiting,
                 "retarget_wait: process is not waiting");
  p.wait_reason = reason;
  p.wake_time = wake_time;
  sync_wait_cols(p);
}

void KernelBase::suspend(ProcessId id, Ticks wake_time) {
  ProcessControlBlock& p = pcb_ref(id);
  if (p.state == ProcessState::kDormant) return;
  p.suspended = true;
  if (p.schedulable()) {
    block(id, WaitReason::kSuspended, wake_time);
  } else {
    // A waiting process keeps its wait; the suspended flag defers
    // eligibility (and moves the armed timer to the suspended sweep).
    sync_wait_cols(p);
  }
}

void KernelBase::resume(ProcessId id) {
  ProcessControlBlock& p = pcb_ref(id);
  if (!p.suspended) return;
  p.suspended = false;
  sync_wait_cols(p);
  if (p.state == ProcessState::kWaiting &&
      p.wait_reason == WaitReason::kSuspended) {
    // Either the suspension itself, or an underlying wait that has already
    // concluded (wake_result set by wake() while suspended).
    wake(id, p.wake_result == WakeResult::kNone ? WakeResult::kOk
                                                : p.wake_result);
  }
}

void KernelBase::tick_announce(Ticks now, Ticks elapsed) {
  AIR_ASSERT(elapsed >= 0);
  now_ = now;

  // Wake expired timed waits in deterministic (wake_time, id) order.
  // due_scratch_ keeps its capacity across announces: the steady state
  // sweeps without touching the heap. The sweep reads only the hot
  // columns (wake_col_ is kInfiniteTime unless the process is waiting, so
  // one compare covers the state + armed-timer + expiry predicate).
  due_scratch_.clear();
  for (std::size_t i = 0; i < wake_col_.size(); ++i) {
    if (wake_col_[i] <= now_ && susp_col_[i] == 0) {
      due_scratch_.emplace_back(wake_col_[i],
                                ProcessId{static_cast<std::int32_t>(i)});
    }
  }
  std::sort(due_scratch_.begin(), due_scratch_.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first
                                        : a.second < b.second;
            });
  for (const auto& d : due_scratch_) {
    ProcessControlBlock& p = pcb_ref(d.second);
    const bool timeoutish = p.wait_reason == WaitReason::kDelay ||
                            p.wait_reason == WaitReason::kNextRelease ||
                            p.wait_reason == WaitReason::kDelayedStart;
    wake(d.second, timeoutish ? WakeResult::kOk : WakeResult::kTimeout);
  }

  // Suspended-with-timeout processes whose timeout expired.
  for (std::size_t i = 0; i < wake_col_.size(); ++i) {
    if (wake_col_[i] <= now_ && susp_col_[i] != 0) {
      ProcessControlBlock& p = table_[i];
      p.suspended = false;
      p.wake_time = kInfiniteTime;
      sync_wait_cols(p);
      wake(p.id, WakeResult::kTimeout);
    }
  }
}

void KernelBase::reset_all() {
  for (auto& p : table_) {
    p.state = ProcessState::kDormant;
    p.wait_reason = WaitReason::kNone;
    p.wake_time = kInfiniteTime;
    p.wake_result = WakeResult::kNone;
    p.suspended = false;
    p.release_pending = false;
    p.sporadic_active = false;
    p.pc = 0;
    p.op_progress = 0;
    p.inbox.clear();
    p.current_priority = p.attrs.priority;
    p.absolute_deadline = kInfiniteTime;
    p.next_release = 0;
    if (on_state_change) on_state_change(p.id, ProcessState::kDormant);
  }
  // The loop edits PCBs in place (deliberately not via set_state: restart
  // traces one dormant event per process); reset the columns wholesale.
  std::fill(wake_col_.begin(), wake_col_.end(), kInfiniteTime);
  std::fill(susp_col_.begin(), susp_col_.end(), std::uint8_t{0});
  ready_.clear();
  current_ = ProcessId::invalid();
  preemption_lock_ = 0;
}

Ticks KernelBase::next_wake() const {
  // Both tick_announce loops key on the same predicate (waiting with a
  // finite wake_time; the suspended flag only changes *how* the expiry is
  // handled), so one min-fold over the timer column covers every armed
  // timer -- non-waiting entries sit at kInfiniteTime and fold away.
  Ticks earliest = kInfiniteTime;
  for (const Ticks w : wake_col_) earliest = std::min(earliest, w);
  return earliest;
}

}  // namespace air::pos
