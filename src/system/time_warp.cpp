// Next-event time-warp engine.
//
// The paper's Algorithm 1 is built so the frequent case of the clock-tick
// ISR does almost nothing ("two computations", Sect. 4.3). The simulation
// exploits the same property wholesale. The rule: a tick is stepped only
// if it records something (a trace event, a span, an HM report, a message
// movement, a digest) or if the scan cannot prove it silent without
// interpreting an op. A tick that provably does nothing but move state
// the bulk advance can replay -- no preemption point, no process election
// other than re-electing a running process inside a compute op, no timer
// wake, no deadline edge, no channel movement -- is collapsed with the rest
// of its span into O(1) bulk advances. Two per-tick effects ride along in
// bulk: a span may end on the tick that completes a compute op (the
// executor moves the program counter), and the PAL takes the slack sample
// of a deadline episode that starts just before the span.
//
// Correctness contract (asserted layer by layer, proven by the equivalence
// suite in tests/test_time_warp.cpp): executing warp_advance(n) from a
// quiescent state with n <= warp_headroom() leaves every observable bit of
// module state -- metrics snapshots, trace/flight-recorder contents, APEX
// process state -- identical to n calls of tick_once(). Hence warp_advance
// (a) then warp_advance(b) equals warp_advance(a + b) within one scan's
// headroom, and advance() may owe ticks across calls and settle them in
// one span (a World epoch end does not cut a span).
//
// Why schedule switches cannot be skipped: a pending SET_MODULE_SCHEDULE
// takes effect at an MTF boundary (phase 0), and every compiled table has a
// preemption point at tick 0, so the boundary *is* a preemption point.
// next_preemption_point() therefore always stops the warp at or before the
// boundary, and Algorithm 1 lines 3-7 run normally on the stepped tick.
#include <algorithm>

#include "system/executor.hpp"
#include "system/module.hpp"
#include "util/assert.hpp"

namespace air::system {

Module::Quiescence Module::quiescence() const {
  if (stopped_) return {};
  // The scan itself is a per-tick host cost worth attributing: run it
  // under a profiler scope even though an enabled profiler then forces
  // stepping (below) -- warping would skip ticks the profiler wants to
  // observe, changing its (intentionally non-deterministic) report.
  telemetry::HostProfiler::Scope profile_scope(
      profiler_, telemetry::ProfilePoint::kWarpScan);
  // Boot tick not executed yet: the time-0 preemption point is ahead.
  const Ticks t = cores_.front().scheduler.ticks();
  if (t < 0) return {};
  // A queuing backlog would move a message or refresh its depth gauge.
  if (!router_.quiescent()) return {};

  Ticks next_event = kInfiniteTime;
  // Compute spans bound the headroom as a tick count, never as an absolute
  // time: t + r would overflow for compute lengths near kInfiniteTime.
  Ticks compute = kInfiniteTime;
  bool runnable = false;
  for (const Core& core : cores_) {
    // A not-yet-dispatched heir means the next tick context-switches.
    if (core.scheduler.heir_partition() !=
        core.dispatcher->active_partition()) {
      return {};
    }
    next_event = std::min(next_event, core.scheduler.next_preemption_point());

    const PartitionId active = core.dispatcher->active_partition();
    if (!active.valid()) continue;  // idle window: nothing else to consult
    const pmk::PartitionControlBlock& pcb =
        pcbs_[static_cast<std::size_t>(active.value())];
    // Non-NORMAL partitions are dispatched but not stepped (tick_once
    // skips them entirely), so they impose no constraint.
    if (pcb.mode != pmk::OperatingMode::kNormal) continue;

    const pal::Pal& p = *partitions_[static_cast<std::size_t>(active.value())]
                             .pal;
    // Runnable work: only ticks in which the executor re-elects the
    // running process and advances its compute op may be spanned, and
    // the module is not idle at all.
    if (p.kernel().ready_depth() != 0) {
      runnable = true;
      compute = std::min(compute, Executor::compute_headroom(p));
      if (compute == 0) return {};
    }
    next_event = std::min(next_event, p.next_attention_tick());
  }

  // A tick hook (fault injector) must observe its event ticks stepped.
  if (tick_hook_ != nullptr) {
    next_event = std::min(next_event, tick_hook_->next_event(t));
  }

  // The online plane closes a digest window at the end of its boundary
  // tick; that tick must be stepped so every execution mode samples the
  // same cumulative totals at the same instant.
  if (online_ != nullptr) {
    next_event = std::min(next_event, online_->next_close_tick());
  }

  // An enabled profiler observes every stepped tick; report zero headroom
  // *after* the scan so the scan's own cost is still attributed.
  if (profiler_.enabled()) return {};

  // Ticks t+1 .. next_event-1 are boring; the event tick itself is stepped.
  const Ticks quiet = std::max<Ticks>(next_event - t - 1, 0);
  return {runnable ? 0 : quiet, std::min(quiet, compute)};
}

void Module::scan(Deferral& deferral) const {
  AIR_ASSERT(deferral.owed == 0);
  const Quiescence q = quiescence();
  deferral.headroom = q.warp;
  deferral.runnable = q.idle == 0;
}

void Module::advance(Ticks span, Deferral& deferral) {
  while (span > 0 && !stopped_) {
    Ticks room = 0;
    if (time_warp_) {
      if (!deferral.scanned()) scan(deferral);
      room = deferral.headroom - deferral.owed;
      // The whole span is boring: owe it, so that a span cut by the
      // caller (an epoch end) still costs one scan and one warp.
      if (span <= room) {
        deferral.owed += span;
        return;
      }
    }
    // The headroom runs out inside the span: warp through it in one go and
    // step the event tick after it without scanning again (stepping is
    // always exact).
    warp_advance(deferral.owed + room);
    deferral = {};
    span -= room + 1;
    tick_once();
  }
}

void Module::settle(Deferral& deferral) {
  warp_advance(deferral.owed);
  deferral = {};
}

void Module::warp_advance(Ticks n) {
  if (stopped_ || n <= 0) return;

  // HAL: one clock bump of n plus a timer-interrupt raise/take pair leaves
  // the interrupt controller exactly as n per-tick raise/take pairs would.
  machine_.advance(n);
  (void)machine_.interrupts().take(hal::IrqLine::kTimer);

  // PMK: n best-case Algorithm 1 iterations (counter increments only;
  // scheduler.advance asserts no preemption point lies inside the span)
  // and n same-partition Algorithm 2 fast paths per core.
  for (Core& core : cores_) {
    core.scheduler.advance(n);
    core.dispatcher->advance_same_partition(n);
  }

  // PAL/POS: for each active NORMAL partition, one batched surrogate
  // clock-tick announce (Algorithm 3 steady state, n deadline checks, the
  // episode's slack sample), then n executor steps in bulk: n busy ticks of
  // the running process's compute op, or n slack ticks when nothing is
  // runnable.
  for (Core& core : cores_) {
    const PartitionId active = core.dispatcher->active_partition();
    if (!active.valid()) continue;
    pmk::PartitionControlBlock& pcb =
        pcbs_[static_cast<std::size_t>(active.value())];
    if (pcb.mode != pmk::OperatingMode::kNormal) continue;
    pal::Pal& pal = *partitions_[static_cast<std::size_t>(active.value())].pal;
    pal.advance_idle(now(), n);
    if (Executor::advance(pal, n)) {
      pcb.busy_ticks += n;
    } else {
      pcb.slack_ticks += n;
    }
  }

  warp_stats_.warped_ticks += static_cast<std::uint64_t>(n);
  ++warp_stats_.warp_spans;
}

}  // namespace air::system
