// Generic non-real-time POS kernel (Sect. 2.5).
//
// Stands in for the embedded Linux variant the paper integrates alongside
// RTOS partitions: a fair round-robin scheduler that ignores priorities.
// Its one safety-relevant property is *paravirtualisation*: the instructions
// that could disable or divert the system clock interrupt are wrapped -- the
// kernel cannot undermine the module-wide time guarantees, it can only trap
// (counted, traced, and reported by the system layer).
#pragma once

#include <deque>
#include <functional>

#include "pos/kernel_base.hpp"

namespace air::pos {

// `final` seals the class for the KernelDispatch fast path (pos/dispatch.hpp)
// and lets LTO devirtualize through GenericKernel* references.
class GenericKernel final : public KernelBase {
 public:
  [[nodiscard]] std::string_view kind() const override { return "generic"; }

  ProcessId schedule() override;

  /// The process the next schedule() elects, without electing it (no
  /// rotation, no state change, no counter); invalid() when none is ready.
  [[nodiscard]] ProcessId peek_heir() const;

  /// Priorities are accepted (APEX requires the service) but do not affect
  /// scheduling order.
  void set_priority(ProcessId id, Priority priority) override;

  /// The paravirtualised "disable clock interrupt" gate: refuses, counts,
  /// and notifies the trap hook. Returns false always (the guest cannot
  /// mask the module timer).
  bool try_disable_clock_interrupt();

  [[nodiscard]] std::uint64_t paravirt_traps() const { return traps_; }

  /// Invoked on every refused clock-interrupt manipulation.
  std::function<void()> on_paravirt_trap;

 protected:
  void enqueue_ready(ProcessControlBlock& pcb) override;
  void dequeue_ready(ProcessControlBlock& pcb) override;
  [[nodiscard]] ProcessId pick_heir() const override;

 private:
  std::deque<ProcessId> run_queue_;
  std::uint64_t traps_{0};
};

}  // namespace air::pos
