#include "system/world.hpp"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "util/assert.hpp"

namespace air::system {

World::~World() = default;

Module& World::add_module(ModuleConfig config) {
  const ModuleId id = config.id;
  // The bus recorder owns the 0xFFFF origin namespace; a module there would
  // alias its span ids and break cross-module flow stitching.
  AIR_ASSERT_MSG(static_cast<std::uint32_t>(id.value()) !=
                     telemetry::SpanRecorder::kBusOrigin,
                 "module id collides with the bus span origin");
  for (const auto& existing : modules_) {
    AIR_ASSERT_MSG(existing->config().id != id, "duplicate module id");
  }
  modules_.push_back(std::make_unique<Module>(std::move(config)));
  staged_.emplace_back();
  Module& module = *modules_.back();
  mods_.push_back(&module);
  live_.push_back(1);
  staged_dirty_.push_back(0);
  ++live_count_;
  // Telemetry state must be module-confined: workers advance modules
  // concurrently, so no recorder may be shared with the bus (or, by unique
  // origin above, with any other module).
  AIR_ASSERT_MSG(module.spans().origin() != bus_spans_.origin(),
                 "module span recorder aliases the bus recorder");

  // Remote sends are staged, never injected directly: during a parallel
  // epoch this closure runs on a worker thread, and the per-module queue is
  // the only state it may write. The driver merges staged frames into the
  // bus at the barrier in (tick, module attach order), which is exactly the
  // order direct Bus::send calls had under per-tick lockstep -- TDMA
  // arbitration and bus span numbering stay independent of the thread
  // interleaving.
  const std::size_t index = modules_.size() - 1;
  module.remote_send = [this, index](const ipc::RemotePortRef& dest,
                                     const ipc::Message& message,
                                     ipc::ChannelKind kind) {
    staged_[index].push_back({mods_[index]->now(), dest, message, kind});
    staged_dirty_[index] = 1;  // own lane's byte: race-free under the pool
  };
  bus_.attach(id, [&module](PartitionId partition, const std::string& port,
                            const ipc::Message& message,
                            ipc::ChannelKind kind) {
    module.deliver_remote(partition, port, message, kind);
  });
  return module;
}

void World::enable_online(telemetry::OnlineOptions options) {
  AIR_ASSERT_MSG(now_ == 0, "enable the bus plane before the first run");
  bus_plane_ = std::make_unique<telemetry::BusPlane>(options, "bus");
  bus_plane_->set_spans(&bus_spans_);
}

const telemetry::BusSample& World::sample_bus() const {
  telemetry::BusSample& sample = bus_sample_;
  const net::BusStats& stats = bus_.stats();
  sample.frames_sent = stats.frames_sent;
  sample.frames_delivered = stats.frames_delivered;
  sample.backlog = bus_.pending_total();
  sample.spans_dropped = bus_spans_.dropped_spans();
  bus_.station_stats(station_scratch_);
  sample.stations.clear();
  sample.stations.reserve(station_scratch_.size());
  for (const net::StationStats& s : station_scratch_) {
    telemetry::StationWindow w;
    w.module = s.module.value();
    w.frames_sent = static_cast<std::int64_t>(s.frames_sent);
    w.frames_delivered = static_cast<std::int64_t>(s.frames_delivered);
    w.backlog = static_cast<std::int64_t>(s.backlog);
    sample.stations.push_back(w);
  }
  return sample;
}

void World::refresh_live() {
  // `stopped` is monotone, so demotion is the only transition; scan the
  // compact byte column and only dereference modules still marked live.
  for (std::size_t i = 0; i < live_.size(); ++i) {
    if (live_[i] != 0 && mods_[i]->stopped()) {
      live_[i] = 0;
      --live_count_;
    }
  }
}

void World::set_workers(std::size_t workers) {
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (workers == workers_) return;
  workers_ = workers;
  pool_.reset();
}

Ticks World::epoch_horizon(Ticks limit) const {
  AIR_ASSERT(limit > 0);
  Ticks horizon = limit;
  // Pre-existing traffic: nothing already queued or in flight may arrive
  // before the epoch's final tick (arrival exactly there is fine -- every
  // module has completed that tick when the barrier replays the bus, which
  // is precisely when lockstep would have delivered).
  const Ticks next = bus_.next_delivery(now_);
  if (next < kInfiniteTime) horizon = std::min(horizon, next - now_ + 1);
  // New traffic: a module idle for q ticks cannot emit a frame before
  // now + q, so nothing it sends can arrive before now + q + delay. A
  // module with runnable work (q = 0) may send on the very next tick.
  // A compute span would bound emissions too, but epochs are paced by idle
  // spans only: that keeps the epoch structure of the idle-only warp rule,
  // and perfbench's traced world pass needs it (it expects >= 1000 epochs
  // from 10'000 ticks). Modules still warp compute spans inside an epoch.
  const Ticks delay = bus_.config().propagation_delay;
  for (std::size_t i = 0; i < live_.size(); ++i) {
    if (live_[i] == 0) continue;
    const Ticks quiet = mods_[i]->idle_headroom();
    if (quiet >= kInfiniteTime - delay - 1) continue;  // no constraint
    horizon = std::min(horizon, quiet + delay + 1);
  }
  return horizon > 1 ? horizon : 1;
}

void World::merge_and_run_bus(Ticks start, Ticks ticks) {
  // The dirty byte column is the only full-width scan: one byte per module,
  // written solely by its own lane during the epoch, read here after the
  // pool joined. Modules that stayed silent cost one byte load each.
  merge_list_.clear();
  for (std::size_t i = 0; i < staged_dirty_.size(); ++i) {
    if (staged_dirty_[i] != 0) merge_list_.push_back(i);
  }
  if (merge_list_.empty() && bus_.pending_total() == 0) {
    // Every earlier tick of the span is provably a no-op (no queued
    // frames, and the horizon placed the first possible arrival at the
    // final tick): jump straight to the delivery edge. Digest boundaries
    // inside the skipped prefix close with the frozen pre-delivery stats,
    // exactly what per-tick replay would have sampled there.
    if (bus_plane_ != nullptr && ticks > 1) {
      bus_plane_->close_through(start + ticks - 2, sample_bus());
    }
    bus_.tick(start + ticks - 1);
    if (bus_plane_ != nullptr) {
      bus_plane_->close_through(start + ticks - 1, sample_bus());
    }
    return;
  }
  // Per-tick merge walks only the dirty modules (attach order is preserved
  // because merge_list_ is built in index order); the cursors are member
  // scratch so an epoch barrier allocates nothing in the steady state.
  merge_cursor_.assign(merge_list_.size(), 0);
  for (Ticks u = start; u < start + ticks; ++u) {
    for (std::size_t m = 0; m < merge_list_.size(); ++m) {
      const std::size_t i = merge_list_[m];
      std::vector<StagedFrame>& queue = staged_[i];
      std::size_t& next = merge_cursor_[m];
      while (next < queue.size() && queue[next].tick == u) {
        bus_.send(mods_[i]->config().id, queue[next].dest,
                  queue[next].message, queue[next].kind, u);
        ++stats_.frames_merged;
        ++next;
      }
    }
    {
      telemetry::HostProfiler::Scope scope(profiler_,
                                           telemetry::ProfilePoint::kBusPump);
      bus_.tick(u);
    }
    if (bus_plane_ != nullptr && bus_plane_->next_close_tick() == u) {
      bus_plane_->close_through(u, sample_bus());
    }
  }
  for (std::size_t m = 0; m < merge_list_.size(); ++m) {
    const std::size_t i = merge_list_[m];
    AIR_ASSERT_MSG(merge_cursor_[m] == staged_[i].size(),
                   "staged frame timestamped outside its epoch");
    staged_[i].clear();
    staged_dirty_[i] = 0;
  }
}

void World::run(Ticks ticks) {
  if (ticks <= 0) return;
  if (workers_ > 1 && !pool_) {
    // The epoch caller claims work alongside the pool, so `workers_` lanes
    // need one fewer thread.
    pool_ = std::make_unique<WorkerPool>(workers_ - 1);
  }
  const bool pooled =
      pool_ != nullptr && pool_->thread_count() > 0 && modules_.size() > 1;
  Ticks done = 0;
  while (done < ticks) {
    // One epoch round is the World profiler's sampling unit. The scopes
    // attribute the cross-module machinery only; module-interior cost
    // lands in each module's own profiler tree (which workers advance
    // concurrently -- a shared tree would race).
    profiler_.begin_tick();
    telemetry::HostProfiler::Scope epoch_scope(
        profiler_, telemetry::ProfilePoint::kEpoch);
    // Stopped modules fall out of every scan below: refresh the live
    // column once per epoch (modules only stop while running, so the bits
    // are exact until the pool runs again).
    refresh_live();
    const Ticks span = epoch_horizon(ticks - done);
    const Ticks start = now_;
    const std::uint64_t active = live_count_;
    if (pooled) {
      // Workers read the live byte (frozen during the epoch) to skip dead
      // lanes without touching the module row.
      const auto task = [this, span](std::size_t i) {
        if (live_[i] != 0) mods_[i]->run(span);
      };
      pool_->run(mods_.size(), task);
    } else {
      for (std::size_t i = 0; i < live_.size(); ++i) {
        if (live_[i] != 0) mods_[i]->run(span);
      }
    }
    {
      telemetry::HostProfiler::Scope barrier_scope(
          profiler_, telemetry::ProfilePoint::kEpochBarrier);
      merge_and_run_bus(start, span);
    }
    now_ += span;
    done += span;
    ++stats_.epochs;
    stats_.epoch_ticks += static_cast<std::uint64_t>(span);
    stats_.module_ticks += active * static_cast<std::uint64_t>(span);
  }
}

Ticks World::lockstep_headroom(Ticks limit) {
  // Fast recheck: whatever forced stepping last tick almost always still
  // does; while it holds, the scan over every other module is skipped.
  if (warp_blocker_ != kUnblocked) {
    if (warp_blocker_ == kBusBlocked) {
      if (bus_.idle_ticks(now_) == 0) return 0;
    } else {
      const Module& module = *modules_[warp_blocker_];
      if (!module.stopped() &&
          (!module.time_warp_enabled() || module.warp_headroom() == 0)) {
        return 0;
      }
    }
    warp_blocker_ = kUnblocked;  // the blocker cleared: full rescan
  }
  Ticks n = std::min(limit, bus_.idle_ticks(now_));
  if (n == 0) {
    warp_blocker_ = kBusBlocked;
    return 0;
  }
  // A stopped module never changes state again, so it bounds nothing.
  refresh_live();
  for (std::size_t i = 0; i < live_.size(); ++i) {
    if (live_[i] == 0) continue;
    const Module& module = *mods_[i];
    if (!module.time_warp_enabled()) {
      warp_blocker_ = i;
      return 0;
    }
    const Ticks headroom = module.warp_headroom();
    if (headroom == 0) {
      warp_blocker_ = i;
      return 0;
    }
    n = std::min(n, headroom);
  }
  return n;
}

void World::run_lockstep(Ticks ticks) {
  if (ticks <= 0) return;
  Ticks done = 0;
  while (done < ticks) {
    // Lockstep time warp: skip a span only when *every* module is
    // quiescent for it and the bus would neither transmit nor deliver.
    const Ticks n = lockstep_headroom(ticks - done);
    if (n > 0) {
      // warp_advance is a no-op on stopped modules, so walking only the
      // live column is byte-identical to walking every module.
      for (std::size_t i = 0; i < live_.size(); ++i) {
        if (live_[i] != 0) mods_[i]->warp_advance(n);
      }
      // Bus stats are provably frozen across the warped span (no queued
      // frames, no delivery before its end), so boundaries inside it close
      // with exactly the values per-tick stepping would have sampled.
      if (bus_plane_ != nullptr) {
        bus_plane_->close_through(now_ + n - 1, sample_bus());
      }
      now_ += n;
      done += n;
      stats_.lockstep_warped += static_cast<std::uint64_t>(n);
      ++stats_.lockstep_spans;
      continue;
    }
    profiler_.begin_tick();
    for (std::size_t i = 0; i < live_.size(); ++i) {
      if (live_[i] != 0) mods_[i]->tick_once();
    }
    // Inject this tick's staged frames in module attach order -- exactly
    // where the modules' direct Bus::send calls used to land. The dirty
    // column keeps the injection sweep O(senders), not O(modules).
    for (std::size_t i = 0; i < staged_dirty_.size(); ++i) {
      if (staged_dirty_[i] == 0) continue;
      for (const StagedFrame& frame : staged_[i]) {
        bus_.send(mods_[i]->config().id, frame.dest, frame.message,
                  frame.kind, now_);
      }
      staged_[i].clear();
      staged_dirty_[i] = 0;
    }
    {
      telemetry::HostProfiler::Scope scope(profiler_,
                                           telemetry::ProfilePoint::kBusPump);
      bus_.tick(now_);
    }
    if (bus_plane_ != nullptr && bus_plane_->next_close_tick() == now_) {
      bus_plane_->close_through(now_, sample_bus());
    }
    ++now_;
    ++done;
    ++stats_.lockstep_ticks;
  }
}

std::string World::status_report() const {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof line, "world t=%lld  modules=%zu  workers=%zu\n",
                static_cast<long long>(now_), modules_.size(), workers_);
  out += line;
  const double mean_epoch =
      stats_.epochs > 0 ? static_cast<double>(stats_.epoch_ticks) /
                              static_cast<double>(stats_.epochs)
                        : 0.0;
  // Pool feed ratio: module-lane ticks actually offered per worker lane.
  // 1.0 = every lane busy each epoch; < 1.0 = more workers than runnable
  // modules. Deterministic by construction (no wall clock in the core).
  const double utilisation =
      stats_.epoch_ticks > 0
          ? static_cast<double>(stats_.module_ticks) /
                (static_cast<double>(stats_.epoch_ticks) *
                 static_cast<double>(workers_))
          : 0.0;
  std::snprintf(line, sizeof line,
                "  epochs: %llu (ticks=%llu, mean length=%.1f, "
                "worker utilisation=%.2f)\n",
                static_cast<unsigned long long>(stats_.epochs),
                static_cast<unsigned long long>(stats_.epoch_ticks),
                mean_epoch, utilisation);
  out += line;
  std::snprintf(line, sizeof line,
                "  lockstep: ticks=%llu warped=%llu spans=%llu\n",
                static_cast<unsigned long long>(stats_.lockstep_ticks),
                static_cast<unsigned long long>(stats_.lockstep_warped),
                static_cast<unsigned long long>(stats_.lockstep_spans));
  out += line;
  const net::BusStats& bus = bus_.stats();
  std::snprintf(line, sizeof line,
                "  bus: sent=%llu delivered=%llu dropped=%llu merged=%llu\n",
                static_cast<unsigned long long>(bus.frames_sent),
                static_cast<unsigned long long>(bus.frames_delivered),
                static_cast<unsigned long long>(bus.frames_dropped),
                static_cast<unsigned long long>(stats_.frames_merged));
  out += line;
  const telemetry::StringArena::Stats& arena = arena_.stats();
  std::snprintf(line, sizeof line,
                "  bus arena: symbols=%zu blocks=%zu bytes=%zu "
                "high_water=%zu trims=%llu\n",
                arena.symbols, arena.blocks, arena.bytes_used,
                arena.high_water,
                static_cast<unsigned long long>(arena.trims));
  out += line;
  if (profiler_.enabled() && profiler_.ticks() > 0) {
    const telemetry::HostProfiler::PathStats epoch =
        profiler_.point_stats(telemetry::ProfilePoint::kEpoch);
    std::snprintf(line, sizeof line,
                  "  profile: sampled=%llu rounds (stride %u), "
                  "mean epoch=%.1f ns\n",
                  static_cast<unsigned long long>(profiler_.ticks()),
                  profiler_.stride(),
                  epoch.calls > 0 ? static_cast<double>(epoch.total_ns) /
                                        static_cast<double>(epoch.calls)
                                  : 0.0);
    out += line;
  }
  if (bus_plane_ != nullptr) out += bus_plane_->summary_line();
  return out;
}

}  // namespace air::system
