// Real-time POS kernel: preemptive, priority-driven scheduling with
// FIFO-within-priority, i.e. exactly the heir rule of eq. (14):
//
//   heir(t) = the ready/running process with the greatest priority (lowest
//   numeric value); ties resolved to the oldest in the ready state.
//
// This stands in for RTEMS in the paper's prototype (Sect. 6).
#pragma once

#include <array>
#include <cstdint>
#include <deque>

#include "pos/kernel_base.hpp"

namespace air::pos {

// `final` seals the class for the KernelDispatch fast path (pos/dispatch.hpp)
// and lets LTO devirtualize through RtKernel* references.
class RtKernel final : public KernelBase {
 public:
  /// Valid priority range [0, kPriorityLevels).
  static constexpr Priority kPriorityLevels = 256;

  [[nodiscard]] std::string_view kind() const override { return "rt"; }

  ProcessId schedule() override;
  void set_priority(ProcessId id, Priority priority) override;

  /// The process the next schedule() elects, without electing it (no state
  /// change, no counter); invalid() when none is schedulable.
  [[nodiscard]] ProcessId peek_heir() const;

 protected:
  void enqueue_ready(ProcessControlBlock& pcb) override;
  void dequeue_ready(ProcessControlBlock& pcb) override;
  [[nodiscard]] ProcessId pick_heir() const override;

 private:
  // One FIFO per priority level. The running process stays at the front of
  // its queue: it entered the ready state before every process behind it,
  // so eq. (14)'s age tie-break is the queue order itself.
  std::array<std::deque<ProcessId>, kPriorityLevels> ready_;
  // Occupancy bitmap over ready_: bit p set iff ready_[p] is non-empty.
  // pick_heir() runs per simulated tick; find-first-set over four words
  // replaces a scan of 256 deque headers (DESIGN.md §11).
  static constexpr std::size_t kWords = kPriorityLevels / 64;
  std::array<std::uint64_t, kWords> occupancy_{};
};

}  // namespace air::pos
