// Parallel-world equivalence: the epoch driver (World::run, inline or on
// the worker pool) must be byte-identical to the per-tick lockstep
// reference (World::run_lockstep) -- per-module traces, metrics exports,
// span streams, bus-transit spans, bus statistics and final APEX-visible
// state -- across randomized multi-module missions with remote IPC traffic
// (sampling rings + queuing links) and mid-mission mode switches.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "config/busy_world.hpp"
#include "config/fig8.hpp"
#include "pos/workload.hpp"
#include "system/module.hpp"
#include "system/world.hpp"
#include "telemetry/export.hpp"
#include "telemetry/spans.hpp"
#include "util/rng.hpp"
#include "util/trace_export.hpp"

namespace air {
namespace {

using pos::ScriptBuilder;

// Serialize everything a partition application could observe through APEX.
std::string apex_visible_state(system::Module& module) {
  std::string out;
  for (std::size_t p = 0; p < module.partition_count(); ++p) {
    const PartitionId id{static_cast<std::int32_t>(p)};
    const pmk::PartitionControlBlock& pcb = module.partition_pcb(id);
    out += "partition " + std::to_string(p) +
           " mode=" + std::to_string(static_cast<int>(pcb.mode)) +
           " busy=" + std::to_string(pcb.busy_ticks) +
           " slack=" + std::to_string(pcb.slack_ticks) + "\n";
    auto& kernel = module.kernel(id);
    for (std::size_t q = 0; q < kernel.process_count(); ++q) {
      apex::ProcessStatus st;
      if (module.apex(id).get_process_status(
              ProcessId{static_cast<std::int32_t>(q)}, st) !=
          apex::ReturnCode::kNoError) {
        continue;
      }
      out += "  " + st.name + " state=" +
             std::to_string(static_cast<int>(st.state)) +
             " deadline=" + std::to_string(st.deadline_time) +
             " completions=" + std::to_string(st.completions) +
             " max_resp=" + std::to_string(st.max_response) +
             " misses=" + std::to_string(st.deadline_misses) + "\n";
    }
    for (const std::string& line : module.console(id)) {
      out += "  console: " + line + "\n";
    }
  }
  out += "now=" + std::to_string(module.now());
  out += " stopped=" + std::to_string(module.stopped() ? 1 : 0);
  return out;
}

/// Full observable fingerprint of a world: every byte the equivalence
/// contract covers.
std::string fingerprint(system::World& world) {
  std::string out;
  for (std::size_t m = 0; m < world.module_count(); ++m) {
    system::Module& module = world.module(m);
    out += "=== module " + std::to_string(m) + "\n";
    out += util::to_json(module.trace());
    const telemetry::MetricsSnapshot snap = module.metrics_snapshot();
    out += telemetry::to_json(snap) + "\n" + telemetry::to_csv(snap);
    out += telemetry::spans_to_json(module.spans());
    out += apex_visible_state(module);
  }
  out += "=== bus\n" + telemetry::spans_to_json(world.bus_spans());
  const net::BusStats& bus = world.bus().stats();
  out += "sent=" + std::to_string(bus.frames_sent) +
         " delivered=" + std::to_string(bus.frames_delivered) +
         " dropped=" + std::to_string(bus.frames_dropped) +
         " latency=" + std::to_string(bus.total_latency) +
         " now=" + std::to_string(world.now());
  return out;
}

struct Mission {
  net::BusConfig bus;
  std::vector<system::ModuleConfig> modules;
  Ticks phase1{0};
  Ticks phase2{0};
  bool mode_switch{false};
};

model::Schedule round_robin(ScheduleId id, std::size_t partitions,
                            Ticks slice) {
  model::Schedule s;
  s.id = id;
  s.mtf = static_cast<Ticks>(partitions) * slice;
  for (std::size_t i = 0; i < partitions; ++i) {
    const PartitionId p{static_cast<std::int32_t>(i)};
    s.requirements.push_back({p, s.mtf, slice});
    s.windows.push_back({p, static_cast<Ticks>(i) * slice, slice});
  }
  return s;
}

// Randomized multi-module mission: a sampling ring (module i broadcasts to
// module i+1), an optional queuing link from module 0 to module 1, worker
// processes of varying density (some with tight time capacities, so HM and
// anomaly chains engage), and optionally a mode switch between phases.
Mission random_mission(std::uint64_t seed) {
  util::Rng rng(seed);
  Mission mission;
  mission.bus.slot_length = static_cast<Ticks>(rng.uniform(2, 10));
  mission.bus.frames_per_slot = static_cast<std::size_t>(rng.uniform(1, 4));
  mission.bus.propagation_delay = static_cast<Ticks>(rng.uniform(1, 6));
  mission.phase1 = static_cast<Ticks>(rng.uniform(150, 600));
  mission.phase2 = static_cast<Ticks>(rng.uniform(800, 2500));
  mission.mode_switch = rng.chance(0.5);

  const int nmodules = static_cast<int>(rng.uniform(2, 4));
  const bool queuing_link = rng.chance(0.6);
  for (int m = 0; m < nmodules; ++m) {
    system::ModuleConfig config;
    config.id = ModuleId{m};
    config.name = "m" + std::to_string(m);
    const std::size_t nparts = static_cast<std::size_t>(rng.uniform(1, 2));
    const Ticks slice = static_cast<Ticks>(rng.uniform(20, 60));

    for (std::size_t p = 0; p < nparts; ++p) {
      system::PartitionConfig partition;
      partition.name = "p" + std::to_string(p);
      if (p == 0) {
        // Ring endpoints live on partition 0 of every module.
        partition.sampling_ports.push_back(
            {"OUT", ipc::PortDirection::kSource, 64, kInfiniteTime});
        partition.sampling_ports.push_back(
            {"IN", ipc::PortDirection::kDestination, 64, 200});
        if (queuing_link && m == 0) {
          partition.queuing_ports.push_back(
              {"QOUT", ipc::PortDirection::kSource, 64, 8,
               ipc::QueuingDiscipline::kFifo});
        }
        if (queuing_link && m == 1) {
          partition.queuing_ports.push_back(
              {"QIN", ipc::PortDirection::kDestination, 64, 8,
               ipc::QueuingDiscipline::kFifo});
        }
        system::ProcessConfig chatter;
        chatter.attrs.name = "chatter";
        chatter.attrs.priority = 5;
        ScriptBuilder script;
        script.compute(rng.uniform(1, 5))
            .sampling_write(0, "ring-" + std::to_string(m))
            .sampling_read(1);
        if (queuing_link && m == 0) {
          script.queuing_send(0, "q-" + std::to_string(seed), 0);
        }
        if (queuing_link && m == 1) script.queuing_receive(0, 0);
        script.timed_wait(static_cast<Ticks>(rng.uniform(15, 90)));
        chatter.attrs.script = script.build();
        partition.processes.push_back(std::move(chatter));
      }
      const int nprocs = static_cast<int>(rng.uniform(1, 2));
      for (int q = 0; q < nprocs; ++q) {
        system::ProcessConfig process;
        process.attrs.name = "w" + std::to_string(q);
        process.attrs.priority = 10 + q;
        ScriptBuilder script;
        if (rng.chance(0.5)) {
          const Ticks period = slice * static_cast<Ticks>(nparts) *
                               static_cast<Ticks>(rng.uniform(1, 4));
          process.attrs.period = period;
          process.attrs.time_capacity =
              rng.chance(0.25) ? period / 4 : period;
          script.compute(rng.uniform(1, 15));
          if (rng.chance(0.3)) script.log("beat");
          script.periodic_wait();
        } else {
          script.compute(rng.uniform(1, 8));
          script.timed_wait(static_cast<Ticks>(rng.uniform(30, 400)));
        }
        process.attrs.script = script.build();
        partition.processes.push_back(std::move(process));
      }
      config.partitions.push_back(std::move(partition));
    }

    ipc::ChannelConfig ring;
    ring.id = ChannelId{0};
    ring.kind = ipc::ChannelKind::kSampling;
    ring.source = {PartitionId{0}, "OUT"};
    ring.remote_destinations = {
        {ModuleId{(m + 1) % nmodules}, PartitionId{0}, "IN"}};
    config.channels.push_back(std::move(ring));
    if (queuing_link && m == 0) {
      ipc::ChannelConfig link;
      link.id = ChannelId{1};
      link.kind = ipc::ChannelKind::kQueuing;
      link.source = {PartitionId{0}, "QOUT"};
      link.remote_destinations = {{ModuleId{1}, PartitionId{0}, "QIN"}};
      config.channels.push_back(std::move(link));
    }

    config.schedules = {round_robin(ScheduleId{0}, nparts, slice)};
    if (m == 0 && mission.mode_switch) {
      // A second table (same windows, its own id): switching to it at the
      // MTF boundary exercises the full switch machinery either way.
      model::Schedule alt = round_robin(ScheduleId{1}, nparts, slice);
      alt.name = "alt";
      config.schedules.push_back(std::move(alt));
    }
    mission.modules.push_back(std::move(config));
  }
  return mission;
}

enum class Driver { kLockstep, kEpochInline, kEpochPooled };

std::string fly(const Mission& mission, Driver driver,
                std::size_t workers = 4, system::World::Stats* stats = nullptr,
                std::string* report = nullptr) {
  system::World world(mission.bus);
  for (const system::ModuleConfig& config : mission.modules) {
    world.add_module(config);
  }
  if (driver == Driver::kEpochPooled) world.set_workers(workers);
  const auto advance = [&](Ticks ticks) {
    if (driver == Driver::kLockstep) {
      world.run_lockstep(ticks);
    } else {
      world.run(ticks);
    }
  };
  advance(mission.phase1);
  if (mission.mode_switch) {
    (void)world.module(0).apex(PartitionId{0}).set_module_schedule(
        ScheduleId{1});
  }
  advance(mission.phase2);
  if (stats != nullptr) *stats = world.stats();
  if (report != nullptr) *report = world.status_report();
  return fingerprint(world);
}

TEST(ParallelWorld, RandomizedMissionsAreByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Mission mission = random_mission(seed);
    const std::string label = "seed " + std::to_string(seed);
    const std::string reference = fly(mission, Driver::kLockstep);
    system::World::Stats stats;
    const std::string inline_epochs =
        fly(mission, Driver::kEpochInline, 1, &stats);
    EXPECT_EQ(reference, inline_epochs)
        << label << ": inline epoch driver diverges from lockstep";
    const std::string pooled = fly(mission, Driver::kEpochPooled, 4);
    EXPECT_EQ(reference, pooled)
        << label << ": pooled epoch driver diverges from lockstep";
    EXPECT_GT(stats.epochs, 0u) << label;
    EXPECT_EQ(stats.epoch_ticks,
              static_cast<std::uint64_t>(mission.phase1 + mission.phase2))
        << label;
  }
}

TEST(ParallelWorld, MissionsCarryRemoteTraffic) {
  // Separate sanity pass: every seed's mission delivers real bus frames.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Mission mission = random_mission(seed);
    system::World world(mission.bus);
    for (const auto& config : mission.modules) world.add_module(config);
    world.set_workers(3);
    world.run(mission.phase1 + mission.phase2);
    EXPECT_GT(world.bus().stats().frames_delivered, 0u)
        << "seed " << seed << " exchanged no remote messages";
  }
}

TEST(ParallelWorld, Fig8WithGroundStationFaultAndModeSwitch) {
  // The air_record mission shape: the Fig. 8 prototype (faulty process on
  // AOCS, chi_1 -> chi_2 switch at t=500) feeding a ground archiver over
  // the bus -- HM recovery, schedule switch and cross-bus queuing flows,
  // byte-identical under the pooled epoch driver.
  auto mission = [](Driver driver) {
    system::ModuleConfig fig8 = scenarios::fig8_config();
    fig8.id = ModuleId{0};
    for (ipc::ChannelConfig& channel : fig8.channels) {
      if (channel.kind == ipc::ChannelKind::kQueuing) {
        channel.remote_destinations.push_back(
            {ModuleId{1}, PartitionId{0}, "SCI_IN"});
      }
    }
    system::ModuleConfig ground;
    ground.id = ModuleId{1};
    ground.name = "ground";
    system::PartitionConfig archive;
    archive.name = "GROUND";
    archive.queuing_ports.push_back(
        {"SCI_IN", ipc::PortDirection::kDestination, 64, 16,
         ipc::QueuingDiscipline::kFifo});
    system::ProcessConfig archiver;
    archiver.attrs.name = "archiver";
    archiver.attrs.priority = 10;
    archiver.attrs.script = ScriptBuilder{}
                                .queuing_receive(0, /*timeout=*/0)  // poll
                                .timed_wait(40)
                                .jump(0)
                                .build();
    archive.processes.push_back(std::move(archiver));
    ground.partitions.push_back(std::move(archive));
    model::Schedule s;
    s.id = ScheduleId{0};
    s.mtf = scenarios::kFig8Mtf;
    s.requirements = {{PartitionId{0}, scenarios::kFig8Mtf,
                       scenarios::kFig8Mtf}};
    s.windows = {{PartitionId{0}, 0, scenarios::kFig8Mtf}};
    ground.schedules = {s};

    system::World world(
        {.slot_length = 10, .frames_per_slot = 2, .propagation_delay = 2});
    system::Module& prototype = world.add_module(std::move(fig8));
    world.add_module(std::move(ground));
    if (driver == Driver::kEpochPooled) world.set_workers(4);
    prototype.start_process_by_name(prototype.partition_id("AOCS"),
                                    scenarios::kFaultyProcessName);
    const auto advance = [&](Ticks ticks) {
      driver == Driver::kLockstep ? world.run_lockstep(ticks)
                                  : world.run(ticks);
    };
    advance(500);
    (void)prototype.apex(prototype.partition_id("AOCS"))
        .set_module_schedule(ScheduleId{1});
    advance(5 * scenarios::kFig8Mtf);
    return fingerprint(world);
  };
  const std::string reference = mission(Driver::kLockstep);
  EXPECT_EQ(reference, mission(Driver::kEpochInline));
  EXPECT_EQ(reference, mission(Driver::kEpochPooled));
  EXPECT_GT(reference.size(), 10'000u) << "the mission is non-trivial";
  EXPECT_NE(reference.find("\"anomalies\""), std::string::npos);
}

TEST(ParallelWorld, WorkerCountNeverChangesBytes) {
  const Mission mission = random_mission(7);
  const std::string reference = fly(mission, Driver::kLockstep);
  for (std::size_t workers : {2u, 3u, 8u}) {
    EXPECT_EQ(reference, fly(mission, Driver::kEpochPooled, workers))
        << workers << " workers";
  }
}

TEST(ParallelWorld, StatusReportDescribesTheWorld) {
  const Mission mission = random_mission(3);
  system::World::Stats stats;
  std::string report;
  (void)fly(mission, Driver::kEpochPooled, 2, &stats, &report);
  EXPECT_NE(report.find("world t="), std::string::npos) << report;
  EXPECT_NE(report.find("epochs:"), std::string::npos) << report;
  EXPECT_NE(report.find("worker utilisation="), std::string::npos) << report;
  EXPECT_NE(report.find("bus:"), std::string::npos) << report;
  EXPECT_GT(stats.epochs, 0u);
  EXPECT_GE(stats.epoch_ticks, stats.epochs)
      << "mean epoch length must be >= 1 tick";
}

TEST(ParallelWorld, EpochsFastForwardIdleWorlds) {
  // All-quiescent worlds must still advance in large strides (the epoch
  // horizon subsumes the lockstep warp): far fewer epochs than ticks.
  Mission mission = random_mission(5);
  for (auto& module : mission.modules) {
    module.partitions[0].processes.resize(1);  // keep only the ring chatter
  }
  system::World world(mission.bus);
  for (const auto& config : mission.modules) world.add_module(config);
  world.run(50'000);
  const system::World::Stats& stats = world.stats();
  EXPECT_EQ(stats.epoch_ticks, 50'000u);
  EXPECT_LT(stats.epochs, 30'000u)
      << "horizon never exceeded one tick; idle spans are not amortized";
}

TEST(ParallelWorld, EpochsDoNotCutWarpSpans) {
  // A module alone in a World is cut into short epochs (runnable work
  // paces them at propagation_delay + 1 ticks) but carries its warp spans
  // across them, so it warps exactly like the same module run on its own.
  system::ModuleConfig config = scenarios::busy_module(0, 1);
  config.channels.clear();
  system::World world(scenarios::busy_world_bus());
  system::Module& in_world = world.add_module(config);
  system::Module standalone(config);
  for (int chunk = 0; chunk < 10; ++chunk) {
    world.run(1'000);
    standalone.run(1'000);
  }
  EXPECT_GT(world.stats().epochs, 1'000u) << "epochs must cut the chunks";
  const system::Module::WarpStats& a = in_world.warp_stats();
  const system::Module::WarpStats& b = standalone.warp_stats();
  EXPECT_EQ(a.warp_spans, b.warp_spans);
  EXPECT_EQ(a.warped_ticks, b.warped_ticks);
  EXPECT_EQ(a.stepped_ticks, b.stepped_ticks);
  EXPECT_GT(a.warped_ticks, a.stepped_ticks);
  EXPECT_EQ(util::to_json(in_world.trace()), util::to_json(standalone.trace()));
  EXPECT_EQ(apex_visible_state(in_world), apex_visible_state(standalone));
}

TEST(ParallelWorld, DeliveryIntoADeferredModuleIsByteIdentical) {
  // The receiver crunches 400-tick compute ops, so it stays runnable and
  // paces 4-tick epochs while owing ticks across dozens of them. Every
  // 137 ticks the sender's frame lands on it mid-span and wakes a blocked
  // listener: the delivery must first settle the owed ticks.
  const auto fly = [](Driver driver, std::size_t workers,
                      system::World::Stats* stats = nullptr) {
    system::ModuleConfig sender;
    sender.id = ModuleId{0};
    sender.name = "sender";
    system::PartitionConfig tx;
    tx.name = "TX";
    tx.queuing_ports.push_back({"QOUT", ipc::PortDirection::kSource, 64, 8,
                                ipc::QueuingDiscipline::kFifo});
    system::ProcessConfig talker;
    talker.attrs.name = "talker";
    talker.attrs.priority = 10;
    talker.attrs.script = ScriptBuilder{}
                              .queuing_send(0, "ping", 0)
                              .timed_wait(137)
                              .jump(0)
                              .build();
    tx.processes.push_back(std::move(talker));
    sender.partitions.push_back(std::move(tx));
    ipc::ChannelConfig link;
    link.id = ChannelId{0};
    link.kind = ipc::ChannelKind::kQueuing;
    link.source = {PartitionId{0}, "QOUT"};
    link.remote_destinations = {{ModuleId{1}, PartitionId{0}, "QIN"}};
    sender.channels.push_back(std::move(link));
    sender.schedules = {round_robin(ScheduleId{0}, 1, 1'000)};

    system::ModuleConfig receiver;
    receiver.id = ModuleId{1};
    receiver.name = "receiver";
    system::PartitionConfig rx;
    rx.name = "RX";
    rx.queuing_ports.push_back({"QIN", ipc::PortDirection::kDestination, 64,
                                8, ipc::QueuingDiscipline::kFifo});
    system::ProcessConfig listener;
    listener.attrs.name = "listener";
    listener.attrs.priority = 5;
    listener.attrs.script =
        ScriptBuilder{}.queuing_receive(0).log("got").jump(0).build();
    rx.processes.push_back(std::move(listener));
    system::ProcessConfig cruncher;
    cruncher.attrs.name = "cruncher";
    cruncher.attrs.priority = 20;
    cruncher.attrs.script = ScriptBuilder{}.compute(400).jump(0).build();
    rx.processes.push_back(std::move(cruncher));
    receiver.partitions.push_back(std::move(rx));
    receiver.schedules = {round_robin(ScheduleId{0}, 1, 1'000)};

    system::World world(
        {.slot_length = 4, .frames_per_slot = 1, .propagation_delay = 3});
    world.add_module(std::move(sender));
    world.add_module(std::move(receiver));
    if (driver == Driver::kEpochPooled) world.set_workers(workers);
    for (int chunk = 0; chunk < 3; ++chunk) {
      driver == Driver::kLockstep ? world.run_lockstep(1'000)
                                  : world.run(1'000);
    }
    if (stats != nullptr) {
      *stats = world.stats();
      // Deferred across epochs: the receiver warps far fewer spans than
      // there are epochs, each span spanning many of them.
      EXPECT_LT(world.module(1).warp_stats().warp_spans * 4, stats->epochs);
      EXPECT_GE(world.bus().stats().frames_delivered, 20u);
    }
    return fingerprint(world);
  };
  const std::string reference = fly(Driver::kLockstep, 1);
  EXPECT_NE(reference.find("got"), std::string::npos);
  system::World::Stats stats;
  EXPECT_EQ(reference, fly(Driver::kEpochInline, 1, &stats));
  EXPECT_GT(stats.epochs, 500u);
  for (std::size_t workers : {2u, 4u}) {
    EXPECT_EQ(reference, fly(Driver::kEpochPooled, workers))
        << workers << " workers";
  }
}

}  // namespace
}  // namespace air
