// Time-warp equivalence: running a mission with the next-event fast-forward
// enabled must be byte-identical -- metrics snapshot, trace contents, final
// APEX-visible process state -- to stepping every tick. The randomized suite
// generates missions with model::generate_schedule and compares both
// executions over a bag of seeds.
#include <gtest/gtest.h>

#include <string>

#include "config/busy_world.hpp"
#include "config/fig8.hpp"
#include "fi/campaign.hpp"
#include "fi/injector.hpp"
#include "model/generator.hpp"
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
             " prio=" + std::to_string(st.current_priority) +
             " deadline=" + std::to_string(st.deadline_time) +
             " completions=" + std::to_string(st.completions) +
             " max_resp=" + std::to_string(st.max_response) +
             " mean_resp=" + std::to_string(st.mean_response) +
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

struct RunResult {
  std::string trace;
  std::string metrics;
  std::string apex;
  std::string spans;
  system::Module::WarpStats warp;
  std::uint64_t busy_ticks{0};  // summed over partitions
};

RunResult capture(system::Module& module) {
  RunResult result;
  result.trace = util::to_json(module.trace());
  const telemetry::MetricsSnapshot snap = module.metrics_snapshot();
  result.metrics = telemetry::to_json(snap) + "\n" + telemetry::to_csv(snap);
  result.apex = apex_visible_state(module);
  result.spans = telemetry::spans_to_json(module.spans());
  result.warp = module.warp_stats();
  for (std::size_t p = 0; p < module.partition_count(); ++p) {
    result.busy_ticks +=
        module.partition_pcb(PartitionId{static_cast<std::int32_t>(p)})
            .busy_ticks;
  }
  return result;
}

RunResult run_mission(system::ModuleConfig config, bool warp, Ticks span) {
  system::Module module(std::move(config));
  module.set_time_warp(warp);
  module.run(span);
  return capture(module);
}

void expect_equivalent(const RunResult& stepped, const RunResult& warped,
                       const std::string& label) {
  EXPECT_EQ(stepped.trace, warped.trace) << label << ": traces diverge";
  EXPECT_EQ(stepped.metrics, warped.metrics)
      << label << ": metrics snapshots diverge";
  EXPECT_EQ(stepped.apex, warped.apex)
      << label << ": final APEX-visible state diverges";
  EXPECT_EQ(stepped.spans, warped.spans)
      << label << ": span streams diverge";
  EXPECT_EQ(stepped.warp.warped_ticks, 0u) << label << ": baseline warped";
  EXPECT_EQ(stepped.warp.stepped_ticks,
            warped.warp.stepped_ticks + warped.warp.warped_ticks)
      << label << ": tick accounting mismatch";
}

// One sparse partition: 5 busy ticks out of every 10'000.
system::ModuleConfig idle_heavy_config() {
  system::ModuleConfig config;
  config.name = "idle_heavy";
  constexpr Ticks kMtf = 10'000;
  model::Schedule schedule;
  schedule.id = ScheduleId{0};
  schedule.mtf = kMtf;
  system::PartitionConfig partition;
  partition.name = "sparse";
  system::ProcessConfig process;
  process.attrs.name = "beacon";
  process.attrs.period = kMtf;
  process.attrs.time_capacity = kMtf;
  process.attrs.priority = 10;
  process.attrs.script =
      pos::ScriptBuilder{}.compute(5).periodic_wait().build();
  partition.processes.push_back(std::move(process));
  config.partitions.push_back(std::move(partition));
  schedule.requirements.push_back({PartitionId{0}, kMtf, kMtf});
  schedule.windows.push_back({PartitionId{0}, 0, kMtf});
  config.schedules = {schedule};
  return config;
}

TEST(TimeWarp, IdleHeavyMissionWarpsAndMatches) {
  const Ticks span = 50'000;
  const RunResult stepped = run_mission(idle_heavy_config(), false, span);
  const RunResult warped = run_mission(idle_heavy_config(), true, span);
  expect_equivalent(stepped, warped, "idle_heavy");
  // The engine must actually engage: the mission is >99% idle.
  EXPECT_GT(warped.warp.warped_ticks,
            static_cast<std::uint64_t>(span) * 9 / 10);
  EXPECT_GT(warped.warp.warp_spans, 0u);
}

TEST(TimeWarp, Fig8MissionWithFaultAndModeSwitchMatches) {
  auto mission = [](bool warp) {
    auto config = scenarios::fig8_config();
    system::Module module(std::move(config));
    module.set_time_warp(warp);
    module.start_process_by_name(module.partition_id("AOCS"),
                                 scenarios::kFaultyProcessName);
    module.run(500);
    (void)module.apex(module.partition_id("AOCS"))
        .set_module_schedule(ScheduleId{1});
    module.run(5 * scenarios::kFig8Mtf);
    return capture(module);
  };
  const RunResult stepped = mission(false);
  const RunResult warped = mission(true);
  expect_equivalent(stepped, warped, "fig8");
  EXPECT_GT(stepped.trace.size(), 1000u) << "the mission is non-trivial";
  // The mission produces real span traffic (windows, jobs, messages, the
  // mode-switch span and miss anomalies), all byte-identical under warp.
  EXPECT_GT(stepped.spans.size(), 1000u);
  EXPECT_NE(stepped.spans.find("\"anomalies\""), std::string::npos);
  // The faulty process misses inside its compute op, and compute spans
  // (not only idle ones) were warped.
  EXPECT_NE(stepped.trace.find("deadline_miss"), std::string::npos);
  EXPECT_LT(warped.warp.stepped_ticks, warped.busy_ticks);
}

TEST(TimeWarp, Fig8FlightRecorderMatches) {
  auto mission = [](bool warp) {
    auto config = scenarios::fig8_config();
    config.telemetry.flight_recorder_capacity = 128;
    system::Module module(std::move(config));
    module.set_time_warp(warp);
    module.start_process_by_name(module.partition_id("AOCS"),
                                 scenarios::kFaultyProcessName);
    module.run(5 * scenarios::kFig8Mtf);
    return util::to_json(module.trace()) + "#" +
           std::to_string(module.trace().dropped_events());
  };
  EXPECT_EQ(mission(false), mission(true));
}

// Randomized missions: partitions with generated PSTs and a mix of
// periodic, timed-wait and logging processes at varying density.
system::ModuleConfig random_mission(std::uint64_t seed) {
  util::Rng rng(seed);
  system::ModuleConfig config;
  config.name = "random_" + std::to_string(seed);
  config.trace_enabled = true;

  const int nparts = static_cast<int>(rng.uniform(1, 3));
  std::vector<model::ScheduleRequirement> requirements;
  for (int i = 0; i < nparts; ++i) {
    const Ticks period = 100 << rng.uniform(0, 2);  // 100 / 200 / 400
    const Ticks duration = rng.uniform(10, period / 5);
    requirements.push_back({PartitionId{i}, period, duration});

    system::PartitionConfig partition;
    partition.name = "part" + std::to_string(i);
    const int nprocs = static_cast<int>(rng.uniform(1, 2));
    for (int p = 0; p < nprocs; ++p) {
      system::ProcessConfig process;
      process.attrs.name = "proc" + std::to_string(p);
      process.attrs.priority = 10 + p;
      pos::ScriptBuilder script;
      if (rng.chance(0.5)) {
        // Periodic worker; occasionally too slow for its deadline.
        const Ticks pperiod = period * rng.uniform(1, 4);
        process.attrs.period = pperiod;
        process.attrs.time_capacity =
            rng.chance(0.2) ? pperiod / 4 : pperiod;
        script.compute(rng.uniform(1, 12));
        if (rng.chance(0.3)) script.log("beat");
        script.periodic_wait();
      } else {
        // Delay-loop worker (timed waits exercise next_wake()).
        script.compute(rng.uniform(1, 6));
        script.timed_wait(rng.uniform(20, 600));
        if (rng.chance(0.3)) script.log("tw");
      }
      process.attrs.script = script.build();
      partition.processes.push_back(std::move(process));
    }
    config.partitions.push_back(std::move(partition));
  }

  model::GeneratorInput input;
  input.requirements = requirements;
  input.mtf = 0;  // lcm of the periods
  input.id = ScheduleId{0};
  input.name = "generated";
  auto schedule = model::generate_schedule(input);
  EXPECT_TRUE(schedule.has_value()) << "seed " << seed << " infeasible";
  config.schedules = {*schedule};
  return config;
}

TEST(TimeWarp, RandomizedMissionsAreEquivalent) {
  std::uint64_t total_warped = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Ticks span = 6'000;
    const RunResult stepped = run_mission(random_mission(seed), false, span);
    const RunResult warped = run_mission(random_mission(seed), true, span);
    expect_equivalent(stepped, warped, "seed " + std::to_string(seed));
    total_warped += warped.warp.warped_ticks;
  }
  // Across the suite the engine must have found real headroom.
  EXPECT_GT(total_warped, 0u);
}

TEST(TimeWarp, RunZeroAndRunUntilPastAreNoOps) {
  system::Module module(idle_heavy_config());
  module.run(1'000);
  const Ticks before = module.now();
  const auto stats_before = module.warp_stats();
  const std::string trace_before = util::to_json(module.trace());

  module.run(0);
  module.run(-25);
  module.run_until(before);      // "until now" does nothing
  module.run_until(before - 1);  // past target does nothing

  EXPECT_EQ(module.now(), before);
  EXPECT_EQ(module.warp_stats().stepped_ticks, stats_before.stepped_ticks);
  EXPECT_EQ(module.warp_stats().warped_ticks, stats_before.warped_ticks);
  EXPECT_EQ(util::to_json(module.trace()), trace_before);
}

TEST(TimeWarp, RunUntilDelegatesToWarpEngine) {
  system::Module warped(idle_heavy_config());
  warped.set_time_warp(true);
  warped.run_until(30'000);
  EXPECT_EQ(warped.now(), 30'000);
  EXPECT_GT(warped.warp_stats().warped_ticks, 0u);

  system::Module stepped(idle_heavy_config());
  stepped.set_time_warp(false);
  stepped.run_until(30'000);
  EXPECT_EQ(stepped.now(), 30'000);
  EXPECT_EQ(util::to_json(stepped.trace()), util::to_json(warped.trace()));
}

TEST(TimeWarp, WorldLockstepWarpMatchesStepped) {
  auto mission = [](bool warp) {
    system::World world({.slot_length = 7, .frames_per_slot = 2,
                         .propagation_delay = 3});
    auto config_a = scenarios::fig8_config();
    config_a.id = ModuleId{0};
    auto config_b = idle_heavy_config();
    config_b.id = ModuleId{1};
    system::Module& a = world.add_module(std::move(config_a));
    system::Module& b = world.add_module(std::move(config_b));
    a.set_time_warp(warp);
    b.set_time_warp(warp);
    world.run(3 * scenarios::kFig8Mtf);
    return util::to_json(a.trace()) + util::to_json(b.trace()) +
           apex_visible_state(a) + apex_visible_state(b) +
           telemetry::spans_to_json(a.spans()) +
           telemetry::spans_to_json(b.spans()) +
           telemetry::spans_to_json(world.bus_spans()) + "@" +
           std::to_string(world.now());
  };
  EXPECT_EQ(mission(false), mission(true));
}

TEST(TimeWarp, ProfilerForcesStepping) {
  auto config = idle_heavy_config();
  config.telemetry.profiler_enabled = true;
  system::Module module(std::move(config));
  module.set_time_warp(true);
  module.run(2'000);
  EXPECT_EQ(module.warp_stats().warped_ticks, 0u)
      << "per-tick host profiling must disable the warp";
}


// ---------------------------------------------------------------------------
// Compute spans: the warp also covers ticks in which the running process
// only advances an OpCompute (DESIGN.md §7).
// ---------------------------------------------------------------------------

system::ProcessConfig process(std::string name, Priority priority,
                              pos::Script script,
                              Ticks period = kInfiniteTime,
                              Ticks capacity = kInfiniteTime) {
  system::ProcessConfig config;
  config.attrs.name = std::move(name);
  config.attrs.priority = priority;
  config.attrs.period = period;
  config.attrs.time_capacity = capacity;
  config.attrs.script = std::move(script);
  return config;
}

/// One partition owning a `window`-tick window of every `mtf` ticks (the
/// rest of the frame is idle, so preemption points recur).
system::ModuleConfig one_partition(std::vector<system::ProcessConfig> procs,
                                   std::string pos_kind = "rt",
                                   Ticks mtf = 200, Ticks window = 150) {
  system::ModuleConfig config;
  config.name = "compute";
  system::PartitionConfig partition;
  partition.name = "P";
  partition.pos_kind = std::move(pos_kind);
  partition.processes = std::move(procs);
  config.partitions.push_back(std::move(partition));
  model::Schedule schedule;
  schedule.id = ScheduleId{0};
  schedule.mtf = mtf;
  schedule.requirements = {{PartitionId{0}, mtf, window}};
  schedule.windows = {{PartitionId{0}, 0, window}};
  config.schedules = {schedule};
  return config;
}

/// Fly `config` stepped and warped, assert byte identity, return the
/// warped run.
RunResult expect_warp_equivalent(const system::ModuleConfig& config,
                                 Ticks span, const std::string& label) {
  const RunResult stepped = run_mission(config, false, span);
  RunResult warped = run_mission(config, true, span);
  expect_equivalent(stepped, warped, label);
  return warped;
}

/// On one core, stepping fewer ticks than the partitions spent busy means
/// compute ticks were warped; an idle-only warp steps every busy tick.
void expect_compute_spans(const RunResult& warped, const std::string& label) {
  EXPECT_LT(warped.warp.stepped_ticks, warped.busy_ticks)
      << label << ": no compute span was warped";
}

double warped_share(const system::Module::WarpStats& stats) {
  return static_cast<double>(stats.warped_ticks) /
         static_cast<double>(stats.warped_ticks + stats.stepped_ticks);
}

TEST(TimeWarpCompute, RtComputeWithLowerPriorityReadyQueued) {
  // `lo` is ready the whole window; `hi` computes above it. Only compute
  // spans can warp here: the partition is never idle inside its window.
  const auto config = one_partition(
      {process("hi", 5, ScriptBuilder{}.compute(70).periodic_wait().build(),
               200, 200),
       process("lo", 20,
               ScriptBuilder{}.compute(33).log("lo").timed_wait(4).build())});
  const RunResult warped =
      expect_warp_equivalent(config, 4'000, "rt_lower_ready");
  expect_compute_spans(warped, "rt_lower_ready");
}

TEST(TimeWarpCompute, HigherPriorityWakeInterruptsCompute) {
  // `hi` wakes from a timed wait part-way through `lo`'s long compute and
  // preempts it; the wake tick and the switch must be stepped.
  const auto config = one_partition(
      {process("lo", 20, ScriptBuilder{}.compute(400).log("lo").build()),
       process("hi", 5,
               ScriptBuilder{}.timed_wait(37).compute(6).log("hi").build())});
  const RunResult warped =
      expect_warp_equivalent(config, 4'000, "rt_wake_preempts");
  expect_compute_spans(warped, "rt_wake_preempts");
}

TEST(TimeWarpCompute, PreemptionLockedCompute) {
  // `hi` wakes while `locker` holds the preemption lock: the locked compute
  // runs on (and keeps warping) until the unlock.
  const auto config = one_partition(
      {process("locker", 20,
               ScriptBuilder{}
                   .lock_preemption()
                   .compute(60)
                   .unlock_preemption()
                   .compute(5)
                   .timed_wait(15)
                   .build()),
       process("hi", 5, ScriptBuilder{}.compute(2).timed_wait(23).build())});
  const RunResult warped = expect_warp_equivalent(config, 4'000, "rt_locked");
  expect_compute_spans(warped, "rt_locked");
}

TEST(TimeWarpCompute, GenericKernelWithOneRunnableProcessWarps) {
  const auto config = one_partition(
      {process("solo", 10,
               ScriptBuilder{}.compute(45).log("solo").timed_wait(9).build())},
      "generic");
  const RunResult warped =
      expect_warp_equivalent(config, 4'000, "generic_one");
  expect_compute_spans(warped, "generic_one");
}

TEST(TimeWarpCompute, GenericKernelWithTwoRunnableProcessesSteps) {
  // Round-robin rotates the running process every tick: no compute span,
  // and the partition owns the whole frame, so nothing warps at all.
  const auto config = one_partition(
      {process("a", 10, ScriptBuilder{}.compute(45).log("a").build()),
       process("b", 10, ScriptBuilder{}.compute(31).log("b").build())},
      "generic", 200, 200);
  const RunResult warped =
      expect_warp_equivalent(config, 2'000, "generic_two");
  EXPECT_EQ(warped.warp.warped_ticks, 0u);
}

TEST(TimeWarpCompute, ScriptlessBusyProcessWarps) {
  // A script-less process is busy forever (r = infinity); a periodic
  // higher-priority process still interrupts it on time.
  const auto config = one_partition(
      {process("spin", 30, {}),
       process("beat", 5, ScriptBuilder{}.compute(3).periodic_wait().build(),
               100, 100)});
  const RunResult warped =
      expect_warp_equivalent(config, 4'000, "scriptless");
  expect_compute_spans(warped, "scriptless");
}

TEST(TimeWarpCompute, DeadlineMissInsideCompute) {
  // The job overruns its 30-tick capacity mid-compute: the miss tick is
  // stepped and detected exactly when stepping detects it.
  const auto config = one_partition(
      {process("late", 10, ScriptBuilder{}.compute(50).periodic_wait().build(),
               200, 30)});
  const RunResult warped =
      expect_warp_equivalent(config, 2'000, "miss_in_compute");
  EXPECT_NE(warped.trace.find("deadline_miss"), std::string::npos);
  expect_compute_spans(warped, "miss_in_compute");
}

TEST(TimeWarpCompute, MulticoreComputingOnBothCores) {
  auto worker = [](std::string name) {
    system::PartitionConfig partition;
    partition.name = std::move(name);
    partition.processes.push_back(
        process("work", 10,
                ScriptBuilder{}.compute(40).log("done").periodic_wait().build(),
                100, 100));
    return partition;
  };
  auto half_half = [](ScheduleId id, PartitionId a, PartitionId b) {
    model::Schedule schedule;
    schedule.id = id;
    schedule.mtf = 100;
    schedule.requirements = {{a, 100, 50}, {b, 100, 50}};
    schedule.windows = {{a, 0, 50}, {b, 50, 50}};
    return schedule;
  };
  system::ModuleConfig config;
  config.name = "dual";
  for (const char* name : {"A", "B", "C", "D"}) {
    config.partitions.push_back(worker(name));
  }
  config.cores.push_back(
      {{half_half(ScheduleId{0}, PartitionId{0}, PartitionId{1})},
       ScheduleId{0}});
  config.cores.push_back(
      {{half_half(ScheduleId{1}, PartitionId{2}, PartitionId{3})},
       ScheduleId{1}});
  // Both cores' partitions count busy ticks, so compare shares instead:
  // an idle-only warp could skip at most the 10 idle ticks of each window.
  const RunResult warped = expect_warp_equivalent(config, 3'000, "dual_core");
  EXPECT_GT(warped_share(warped.warp), 0.5);
}

TEST(TimeWarpCompute, NearInfiniteComputeLengthsDoNotOverflow) {
  // Compute lengths at and next to kInfiniteTime: the headroom bound must
  // be formed as a tick count (no t + r), which UBSan checks.
  const auto config = one_partition(
      {process("endless", 20, ScriptBuilder{}.compute(kInfiniteTime).build()),
       process("almost", 25,
               ScriptBuilder{}.compute(kInfiniteTime - 1).jump(0).build()),
       process("beat", 5, ScriptBuilder{}.compute(4).periodic_wait().build(),
               200, 200)});
  const RunResult warped =
      expect_warp_equivalent(config, 3'000, "near_infinite");
  expect_compute_spans(warped, "near_infinite");
}

TEST(TimeWarpCompute, FaultInjectionsLandMidCompute) {
  // A dormant top-priority CPU hog (the kProcessStuck vehicle) next to a
  // long periodic compute; the overrun and the hog start both land while
  // `work` is inside its 120-tick compute op.
  system::ProcessConfig hog = process(
      fi::Injector::kHogProcessName, 0,
      ScriptBuilder{}.compute(1'000'000).jump(0).build());
  hog.auto_start = false;
  const auto config = one_partition(
      {process("work", 10, ScriptBuilder{}.compute(120).periodic_wait().build(),
               400, 400),
       std::move(hog)},
      "rt", 400, 300);
  fi::FaultPlan plan;
  plan.injections = {
      {/*tick=*/47, fi::FaultClass::kProcessOverrun, /*target=*/0, /*a=*/0},
      {/*tick=*/463, fi::FaultClass::kProcessStuck, /*target=*/0}};
  auto mission = [&](bool warp) {
    fi::Injector injector(plan);
    system::Module module(config);
    module.set_time_warp(warp);
    injector.arm(module);
    module.run(2'000);
    EXPECT_TRUE(injector.log().size() == 2 && injector.log()[0].applied &&
                injector.log()[1].applied);
    return capture(module);
  };
  const RunResult stepped = mission(false);
  const RunResult warped = mission(true);
  expect_equivalent(stepped, warped, "fi_mid_compute");
  expect_compute_spans(warped, "fi_mid_compute");
}

TEST(TimeWarpCompute, CampaignPlansWithOverrunAndHogMatch) {
  // The fault campaign's own mission and seeded plans restricted to the
  // two compute-affecting classes.
  fi::PlanSpec spec;
  spec.classes = {fi::FaultClass::kProcessOverrun,
                  fi::FaultClass::kProcessStuck};
  const auto config = fi::campaign_fig8_config(false);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const fi::FaultPlan plan = fi::generate_plan(spec, seed);
    auto mission = [&](bool warp) {
      fi::Injector injector(plan);
      system::Module module(config);
      module.set_time_warp(warp);
      injector.arm(module);
      module.run(3 * scenarios::kFig8Mtf);
      return capture(module);
    };
    expect_equivalent(mission(false), mission(true),
                      "campaign seed " + std::to_string(seed));
  }
}

// Randomized compute-heavy missions: RT and generic partitions, several
// processes per partition at random priorities, preemption-locked computes,
// script-less spinners, capacities that overrun mid-compute.
system::ModuleConfig random_compute_mission(std::uint64_t seed) {
  util::Rng rng(seed);
  system::ModuleConfig config;
  config.name = "compute_" + std::to_string(seed);
  const int nparts = static_cast<int>(rng.uniform(1, 3));
  std::vector<model::ScheduleRequirement> requirements;
  for (int i = 0; i < nparts; ++i) {
    const Ticks period = 100 << rng.uniform(0, 2);
    const Ticks duration = rng.uniform(period / 6, period / 3);
    requirements.push_back({PartitionId{i}, period, duration});
    system::PartitionConfig partition;
    partition.name = "part" + std::to_string(i);
    if (rng.chance(0.25)) partition.pos_kind = "generic";
    const int nprocs = static_cast<int>(rng.uniform(1, 3));
    for (int p = 0; p < nprocs; ++p) {
      const auto priority = static_cast<Priority>(rng.uniform(1, 30));
      const std::string name = "proc" + std::to_string(p);
      const double shape = rng.uniform01();
      ScriptBuilder script;
      if (shape < 0.1) {
        partition.processes.push_back(process(name, priority, {}));
        continue;
      }
      const bool locked = rng.chance(0.2);
      if (locked) script.lock_preemption();
      script.compute(rng.uniform(1, 80));
      if (locked) script.unlock_preemption();
      if (shape < 0.55) {
        const Ticks pperiod = period * rng.uniform(1, 3);
        script.periodic_wait();
        partition.processes.push_back(process(
            name, priority, script.build(), pperiod,
            rng.chance(0.3) ? rng.uniform(5, 40) : pperiod));
      } else {
        script.timed_wait(rng.uniform(1, 150));
        if (rng.chance(0.3)) script.log("tw");
        partition.processes.push_back(process(name, priority, script.build()));
      }
    }
    config.partitions.push_back(std::move(partition));
  }
  model::GeneratorInput input;
  input.requirements = requirements;
  auto schedule = model::generate_schedule(input);
  EXPECT_TRUE(schedule.has_value()) << "seed " << seed << " infeasible";
  config.schedules = {*schedule};
  return config;
}

TEST(TimeWarpCompute, RandomizedComputeMissionsAreEquivalent) {
  RunResult total;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const RunResult warped = expect_warp_equivalent(
        random_compute_mission(seed), 5'000, "seed " + std::to_string(seed));
    total.warp.stepped_ticks += warped.warp.stepped_ticks;
    total.busy_ticks += warped.busy_ticks;
  }
  expect_compute_spans(total, "randomized suite");
}

// The world-scale bench's busy world (scenarios::busy_module, 8 modules):
// its compute spans are warped inside the epochs, and flying it epoch by
// epoch equals flying it stepped.
TEST(TimeWarpCompute, WorldScaleBusyModulesWarpMostTicks) {
  constexpr int kModules = 8;
  auto fly = [](bool warp, std::vector<system::Module::WarpStats>* stats) {
    system::World world(scenarios::busy_world_bus());
    for (int m = 0; m < kModules; ++m) {
      world.add_module(scenarios::busy_module(m, kModules))
          .set_time_warp(warp);
    }
    world.run(1'000);
    std::string out;
    for (int m = 0; m < kModules; ++m) {
      system::Module& module = world.module(static_cast<std::size_t>(m));
      out += util::to_json(module.trace()) + apex_visible_state(module);
      if (stats != nullptr) stats->push_back(module.warp_stats());
    }
    return out + telemetry::spans_to_json(world.bus_spans());
  };
  std::vector<system::Module::WarpStats> stats;
  EXPECT_EQ(fly(false, nullptr), fly(true, &stats));
  for (const auto& module_stats : stats) {
    EXPECT_GE(warped_share(module_stats), 0.7);
  }
}

}  // namespace
}  // namespace air
