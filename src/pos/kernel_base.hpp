// Shared POS kernel machinery: process table, wait/wake bookkeeping, timed
// wake-ups, and the one ready list both kernels elect from. The list holds
// exactly the ready and running processes, always in heir order; the only
// policy difference -- insert by priority or at the back -- is fixed at
// construction. Subclasses add their election rule (schedule/peek_heir).
#pragma once

#include <cstdint>
#include <vector>

#include "pos/kernel.hpp"

namespace air::pos {

// The overrides below are `final`: subclasses customise *policy* through
// kind/schedule/set_priority and their ReadyOrder, never the table/time
// machinery itself. Sealing it lets calls through a KernelBase* -- notably
// the KernelDispatch fast path -- devirtualize.
class KernelBase : public IKernel {
 public:
  ProcessId create_process(ProcessAttributes attrs) final;
  [[nodiscard]] ProcessControlBlock* pcb(ProcessId id) final;
  [[nodiscard]] const ProcessControlBlock* pcb(ProcessId id) const final;
  [[nodiscard]] std::size_t process_count() const final {
    return table_.size();
  }
  [[nodiscard]] ProcessId find_process(std::string_view name) const final;

  void make_ready(ProcessId id) final;
  void make_dormant(ProcessId id) final;
  void block(ProcessId id, WaitReason reason, Ticks wake_time) final;
  void wake(ProcessId id, WakeResult result) final;
  void retarget_wait(ProcessId id, WaitReason reason, Ticks wake_time) final;
  void suspend(ProcessId id, Ticks wake_time) final;
  void resume(ProcessId id) final;

  void tick_announce(Ticks now, Ticks elapsed) final;
  [[nodiscard]] Ticks now() const final { return now_; }
  [[nodiscard]] Ticks next_wake() const final;

  [[nodiscard]] ProcessId current() const final { return current_; }

  void lock_preemption() final { ++preemption_lock_; }
  void unlock_preemption() final {
    if (preemption_lock_ > 0) --preemption_lock_;
  }
  [[nodiscard]] bool preemption_locked() const final {
    return preemption_lock_ > 0;
  }

  void reset_all() final;

  [[nodiscard]] std::uint64_t dispatch_count() const final {
    return dispatches_;
  }
  [[nodiscard]] std::uint64_t process_switches() const final {
    return process_switches_;
  }
  [[nodiscard]] std::size_t ready_depth() const final {
    return ready_.size();
  }

  /// Bulk equivalent of `n` schedule() calls that each re-elect the
  /// running process (the time warp's compute spans, DESIGN.md §7).
  void count_repeat_dispatches(std::uint64_t n) { dispatches_ += n; }

 protected:
  /// Where a process entering the ready state goes in the ready list.
  enum class ReadyOrder : std::uint8_t {
    kPriority,  // after the last entry of equal or greater priority
    kBack,      // at the back (round-robin)
  };
  explicit KernelBase(ReadyOrder order) : order_(order) {}

  /// Subclass schedule() bookkeeping: an heir was selected; `switched`
  /// when it differs from the previously running process.
  void count_dispatch(bool switched) {
    ++dispatches_;
    if (switched) ++process_switches_;
  }

  /// Insert `pcb` into the ready list at its ReadyOrder position.
  void enqueue(const ProcessControlBlock& pcb);
  /// Remove a schedulable process from the ready list.
  void dequeue(ProcessId id);
  /// Head of the ready list; invalid() when nothing is schedulable.
  [[nodiscard]] ProcessId ready_head() const {
    return ready_.empty() ? ProcessId::invalid() : ready_.front();
  }

  void set_state(ProcessControlBlock& pcb, ProcessState state);

  [[nodiscard]] ProcessControlBlock& pcb_ref(ProcessId id);

  /// Mirror a PCB's timer/eligibility fields into the hot columns. Must be
  /// called after any in-place edit of state/wake_time/suspended that
  /// bypasses set_state (wake-while-suspended, suspend of a waiter,
  /// retarget_wait). Index = id: create_process assigns ids densely.
  void sync_wait_cols(const ProcessControlBlock& pcb) {
    const auto i = static_cast<std::size_t>(pcb.id.value());
    wake_col_[i] =
        pcb.state == ProcessState::kWaiting ? pcb.wake_time : kInfiniteTime;
    susp_col_[i] = pcb.suspended ? 1 : 0;
  }

  std::vector<ProcessControlBlock> table_;
  // --- constellation hot columns (DESIGN.md §13) ---
  // Timer and eligibility state split from the cold PCB rows (~1 KiB each
  // with attributes, script and inbox): the per-tick sweeps -- the
  // tick_announce due scan, next_wake() (the time-warp horizon query, run
  // for every partition of every module per epoch), ready_depth() -- read
  // only these contiguous columns and never page in a PCB row.
  std::vector<Ticks> wake_col_;  // kWaiting ? wake_time : kInfiniteTime
  std::vector<std::uint8_t> susp_col_;  // suspended flag, 0/1
  // The ready and running processes in heir order. Under kPriority it is
  // sorted by current_priority and, within a priority, by ready_seq: every
  // enqueue takes a fresh ready_seq, so inserting after the last entry of
  // equal priority is eq. (14)'s age tie-break. A running process keeps its
  // place. create_process reserves one slot per process, so no enqueue
  // allocates.
  std::vector<ProcessId> ready_;
  // Scratch for tick_announce's due-timer sweep; a member so the steady
  // state reuses its capacity instead of allocating per expiry.
  std::vector<std::pair<Ticks, ProcessId>> due_scratch_;
  ProcessId current_{ProcessId::invalid()};
  Ticks now_{0};
  std::uint64_t ready_counter_{0};
  int preemption_lock_{0};
  std::uint64_t dispatches_{0};
  std::uint64_t process_switches_{0};

 private:
  ReadyOrder order_;
};

}  // namespace air::pos
