// The integrated module: one onboard computer running the full AIR stack.
//
// Composes the simulated machine (HAL), the PMK (partition scheduler Alg. 1,
// dispatcher Alg. 2, spatial manager, channel router), one PAL + POS kernel +
// APEX instance per partition, the Health Monitor and the event trace, and
// drives them tick by tick:
//
//   per tick:  machine.tick()                      (timer interrupt)
//              scheduler.tick()                    (Algorithm 1)
//              dispatcher.dispatch(heir, ticks)    (Algorithm 2)
//              router.pump_all()                   (PMK channel service)
//              pal.announce_ticks(now, elapsed)    (Algorithm 3, active
//                                                   partition only)
//              executor.step()                     (run the heir process)
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "apex/apex.hpp"
#include "hal/machine.hpp"
#include "hm/health_monitor.hpp"
#include "ipc/router.hpp"
#include "pal/pal.hpp"
#include "pmk/partition.hpp"
#include "pmk/partition_dispatcher.hpp"
#include "pmk/partition_scheduler.hpp"
#include "pmk/spatial.hpp"
#include "system/module_config.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/online.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/spans.hpp"
#include "util/fixed_vector.hpp"
#include "util/trace.hpp"

namespace air::system {

class Module;

/// Per-tick observation/injection hook (fault injection, instrumentation).
/// The module invokes on_tick() at the end of every *stepped* tick, and the
/// time-warp engine bounds its fast-forward spans by next_event() so a hook
/// never misses a tick it declared interesting -- which is what makes a
/// hook's effects byte-identical under per-tick, warped, lockstep and
/// parallel World execution.
class TickHook {
 public:
  virtual ~TickHook() = default;
  /// Earliest tick strictly greater than `now` that must be stepped (the
  /// hook will act on it). kInfiniteTime = no constraint.
  [[nodiscard]] virtual Ticks next_event(Ticks now) const = 0;
  /// Invoked at the end of each stepped tick (module not stopped).
  virtual void on_tick(Module& module, Ticks now) = 0;
};

class Module {
 public:
  explicit Module(ModuleConfig config);
  ~Module();

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Advance the module by `ticks` clock ticks (no-op once stopped or when
  /// `ticks` <= 0). Quiescent spans are fast-forwarded by the time-warp
  /// engine when enabled.
  void run(Ticks ticks);

  /// Advance until the module clock reaches `time` (no-op when `time` is
  /// now or in the past). Delegates to the same warp engine as run().
  void run_until(Ticks time);

  /// Execute exactly one clock tick.
  void tick_once();

  // --- next-event time warp ---

  /// Warped-vs-stepped tick accounting. Deliberately kept outside the
  /// metrics registry: snapshots must stay byte-identical with warp on and
  /// off, so the engine's own counters cannot live in the oracle.
  struct WarpStats {
    std::uint64_t stepped_ticks{0};  // ticks executed via tick_once()
    std::uint64_t warped_ticks{0};   // ticks skipped via warp_advance()
    std::uint64_t warp_spans{0};     // warp_advance() invocations
  };

  /// Enable/disable the time warp at runtime (benches and equivalence
  /// tests flip it on an already-built module).
  void set_time_warp(bool on) { time_warp_ = on; }
  [[nodiscard]] bool time_warp_enabled() const { return time_warp_; }
  [[nodiscard]] const WarpStats& warp_stats() const { return warp_stats_; }

  /// Number of upcoming ticks that are provably boring: the module is
  /// quiescent (each active partition either has nothing runnable or keeps
  /// re-electing a running process inside a compute op that does not
  /// complete in the span; no pending context switch, no router backlog,
  /// no pending telemetry sample) and no layer has an event before
  /// now() + headroom + 1. Returns 0 when any of that fails, when the
  /// module is stopped or not yet booted, or when the per-tick host
  /// profiler is enabled (it observes every stepped tick).
  [[nodiscard]] Ticks warp_headroom() const;

  /// warp_headroom() without compute spans: 0 whenever an active partition
  /// has runnable work. It bounds the ticks in which the module is idle,
  /// which is what the World paces its epochs by (World::epoch_horizon).
  [[nodiscard]] Ticks idle_headroom() const;

  /// Fast-forward the module by `n` boring ticks in O(1): bulk-advance the
  /// HAL clock, every core's scheduler/dispatcher and the active
  /// partitions' PAL/POS, replicating exactly the per-tick counter effects
  /// of `n` quiescent tick_once() calls. `n` must not exceed
  /// warp_headroom() (layer asserts enforce it).
  void warp_advance(Ticks n);

  /// Module time. The scheduler's counter sits at -1 before the first tick
  /// (so that tick 0 is the first preemption point); boot-time actions are
  /// stamped at time 0.
  [[nodiscard]] Ticks now() const {
    const Ticks t = cores_.front().scheduler.ticks();
    return t < 0 ? 0 : t;
  }
  [[nodiscard]] bool stopped() const { return stopped_; }

  /// Install (or clear, with nullptr) the per-tick hook. Borrowed pointer;
  /// the caller keeps ownership and must outlive the module's runs.
  void set_tick_hook(TickHook* hook) { tick_hook_ = hook; }
  [[nodiscard]] TickHook* tick_hook() const { return tick_hook_; }

  // --- component access ---
  [[nodiscard]] util::Trace& trace() { return trace_; }
  [[nodiscard]] const util::Trace& trace() const { return trace_; }
  [[nodiscard]] telemetry::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const telemetry::MetricsRegistry& metrics() const {
    return metrics_;
  }
  [[nodiscard]] telemetry::HostProfiler& profiler() { return profiler_; }
  [[nodiscard]] const telemetry::HostProfiler& profiler() const {
    return profiler_;
  }
  /// Arena backing span/trace labels and root-cause strings. Module-owned
  /// so both recorders share symbols and its stats() describe the whole
  /// telemetry plane (status_report, profiler allocation attribution).
  [[nodiscard]] const telemetry::StringArena& arena() const { return arena_; }
  /// Causal span recorder (windows, jobs, message legs, HM handlers,
  /// root-cause chains). Export with telemetry::spans_to_json.
  [[nodiscard]] telemetry::SpanRecorder& spans() { return spans_; }
  [[nodiscard]] const telemetry::SpanRecorder& spans() const {
    return spans_;
  }

  /// Deterministic metrics snapshot at the current module time: scrapes the
  /// layer-local totals (PAL deadline counters, POS kernel counters, MMU
  /// statistics) into the registry, then returns the ordered sample set.
  [[nodiscard]] telemetry::MetricsSnapshot metrics_snapshot();

  /// In-flight observability plane (nullptr when config.telemetry.online
  /// is disabled). Digests close on deterministic tick boundaries in every
  /// execution mode; see telemetry/online.hpp.
  [[nodiscard]] telemetry::OnlinePlane* online() { return online_.get(); }
  [[nodiscard]] const telemetry::OnlinePlane* online() const {
    return online_.get();
  }

  /// Register/remove a streaming observer of trace events (vitral console,
  /// online monitors, tests). Sinks fire synchronously inside record().
  void add_trace_sink(util::TraceSink* sink) { trace_.add_sink(sink); }
  void remove_trace_sink(util::TraceSink* sink) { trace_.remove_sink(sink); }
  [[nodiscard]] hal::Machine& machine() { return machine_; }
  [[nodiscard]] std::size_t core_count() const { return cores_.size(); }
  /// Scheduler / dispatcher of one core (core 0 by default, which is the
  /// whole machine for single-core configurations).
  [[nodiscard]] pmk::PartitionScheduler& scheduler(std::size_t core = 0) {
    return cores_[core].scheduler;
  }
  [[nodiscard]] pmk::PartitionDispatcher& dispatcher(std::size_t core = 0) {
    return *cores_[core].dispatcher;
  }
  /// The core whose schedules host `partition`.
  [[nodiscard]] std::size_t core_of(PartitionId partition) const;
  [[nodiscard]] hm::HealthMonitor& health() { return health_; }
  [[nodiscard]] ipc::Router& router() { return router_; }
  [[nodiscard]] pmk::SpatialManager& spatial() { return spatial_; }
  [[nodiscard]] const ModuleConfig& config() const { return config_; }

  [[nodiscard]] std::size_t partition_count() const {
    return partitions_.size();
  }
  [[nodiscard]] PartitionId partition_id(std::string_view name) const;
  [[nodiscard]] apex::Apex& apex(PartitionId id);
  [[nodiscard]] pal::Pal& pal(PartitionId id);
  [[nodiscard]] pos::IKernel& kernel(PartitionId id);
  [[nodiscard]] pmk::PartitionControlBlock& partition_pcb(PartitionId id);

  /// Lines written by the partition (REPORT_APPLICATION_MESSAGE / OpLog).
  [[nodiscard]] const std::vector<std::string>& console(PartitionId id) const;

  /// Human-readable module status: per-partition mode, window usage and
  /// per-process statistics, plus HM and scheduler summaries. Integrator
  /// observability; used by the examples.
  [[nodiscard]] std::string status_report();

  /// (Re)initialise a partition: cold/warm start, run its init code
  /// (create objects + processes, start them) and enter NORMAL mode.
  void init_partition(PartitionId id, bool cold);

  /// Start a (dormant) process by name -- how examples/tests "inject" the
  /// faulty process of the paper's prototype (Sect. 6). Returns false when
  /// the process does not exist or is not dormant.
  bool start_process_by_name(PartitionId id, std::string_view name);

  // --- remote communication wiring (used by World) ---
  /// Deliver a message arriving from the bus to a destination port.
  void deliver_remote(PartitionId partition, const std::string& port,
                      const ipc::Message& message, ipc::ChannelKind kind);
  /// Hook invoked when a local channel has a remote destination.
  std::function<void(const ipc::RemotePortRef&, const ipc::Message&,
                     ipc::ChannelKind)>
      remote_send;

 private:
  friend class Executor;
  struct PartitionRuntime {
    std::unique_ptr<pal::Pal> pal;
    std::unique_ptr<apex::Apex> apex;
    std::vector<std::string> console_lines;
  };
  struct Core {
    pmk::PartitionScheduler scheduler;
    std::unique_ptr<pmk::PartitionDispatcher> dispatcher;
  };

  void wire_partition(PartitionId id);
  void apply_pending_change_action(PartitionId id);
  void step_active_partition(PartitionId id, Ticks elapsed);
  /// warp_headroom() when `compute_spans`, else idle_headroom().
  [[nodiscard]] Ticks headroom(bool compute_spans) const;
  /// Walk the span recorder's causal caches backwards from a just-detected
  /// deadline miss and attach the root-cause chain (Algorithm 3 hook).
  void build_miss_anomaly(PartitionId id, ProcessId pid, Ticks deadline,
                          Ticks detected_at);
  /// Cumulative totals for the online plane at the end of the current tick
  /// (direct layer/registry reads -- cheaper and snapshot-neutral, so
  /// metrics snapshots stay byte-identical with the plane on or off).
  [[nodiscard]] telemetry::OnlineSample build_online_sample() const;

  ModuleConfig config_;
  // Declared before every consumer: label symbols must outlive the trace,
  // the span recorder and anything retaining InternedStrings from them.
  telemetry::StringArena arena_;
  util::Trace trace_;
  telemetry::MetricsRegistry metrics_;
  // Mutable: the warp scan (const warp_headroom()) carries a profiler
  // scope; host-time accounting is not module state.
  mutable telemetry::HostProfiler profiler_;
  telemetry::SpanRecorder spans_;
  std::unique_ptr<telemetry::OnlinePlane> online_;
  hal::Machine machine_;
  pmk::SpatialManager spatial_;
  ipc::Router router_;
  hm::HealthMonitor health_;
  std::vector<pmk::PartitionControlBlock> pcbs_;
  std::vector<Core> cores_;
  std::vector<std::size_t> core_affinity_;  // partition value -> core index
  std::vector<PartitionRuntime> partitions_;
  bool stopped_{false};
  bool time_warp_{true};
  WarpStats warp_stats_;
  TickHook* tick_hook_{nullptr};
};

}  // namespace air::system
