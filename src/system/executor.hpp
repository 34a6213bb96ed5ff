// Workload executor: interprets the running process's script against the
// APEX interface, one tick at a time.
//
// This plays the role of the application code in the paper's prototype: a
// process body is a loop of computation and APEX service calls. Only
// OpCompute consumes processor time; service calls are instantaneous (a
// bounded number per tick models syscall overhead). A blocking service
// leaves the program counter in place and the op is re-issued with
// resumed = true when the process wakes.
#pragma once

#include "util/types.hpp"

namespace air::pal {
class Pal;
}  // namespace air::pal

namespace air::system {

class Module;

class Executor {
 public:
  /// Run partition `id`'s heir process for (up to) one tick of execution.
  /// Returns true when any process executed (compute or service calls);
  /// false when no process was schedulable -- window slack, which the
  /// module accounts per partition for integrator diagnostics.
  static bool step(Module& module, PartitionId id, Ticks now);

  // --- time-warp compute spans (DESIGN.md §7) ---

  /// Upcoming ticks in which step() would provably do nothing but
  /// re-elect the partition's running process and advance its OpCompute:
  /// r - 1 for a compute op with r ticks left (the completing tick moves
  /// the program counter, so it is stepped), kInfiniteTime for a
  /// script-less busy process, 0 when the next step() would elect another
  /// process, interpret a service or find nothing schedulable.
  [[nodiscard]] static Ticks compute_headroom(const pal::Pal& pal);

  /// Bulk equivalent of `n` step() calls: `n` repeat dispatches and `n`
  /// ticks of compute progress. `n` must not exceed compute_headroom()
  /// unless nothing is schedulable. Returns step()'s verdict: false (window
  /// slack, nothing advanced) when no process is schedulable.
  static bool advance(pal::Pal& pal, Ticks n);

  /// Upper bound of zero-time service calls interpreted per tick before the
  /// tick is charged to syscall overhead.
  static constexpr int kMaxServicesPerTick = 64;
};

}  // namespace air::system
