// Real-time POS kernel: preemptive, priority-driven scheduling with
// FIFO-within-priority, i.e. exactly the heir rule of eq. (14):
//
//   heir(t) = the ready/running process with the greatest priority (lowest
//   numeric value); ties resolved to the oldest in the ready state.
//
// The ready list (KernelBase) is kept in that order -- by priority, then by
// age -- so the heir is its head.
//
// This stands in for RTEMS in the paper's prototype (Sect. 6).
#pragma once

#include "pos/kernel_base.hpp"

namespace air::pos {

// `final` seals the class for the KernelDispatch fast path (pos/dispatch.hpp)
// and lets LTO devirtualize through RtKernel* references.
class RtKernel final : public KernelBase {
 public:
  /// Valid priority range [0, kPriorityLevels).
  static constexpr Priority kPriorityLevels = 256;

  RtKernel() : KernelBase(ReadyOrder::kPriority) {}

  [[nodiscard]] std::string_view kind() const override { return "rt"; }

  ProcessId schedule() override;
  void set_priority(ProcessId id, Priority priority) override;

  /// The process the next schedule() elects, without electing it (no state
  /// change, no counter); invalid() when none is schedulable.
  [[nodiscard]] ProcessId peek_heir() const;
};

}  // namespace air::pos
