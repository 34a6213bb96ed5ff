// JSON integration-file loader tests: full round trip into a running
// module, name resolution, op table coverage, and error reporting.
#include <gtest/gtest.h>

#include <string>

#include "config/loader.hpp"
#include "system/module.hpp"

namespace air {
namespace {

constexpr const char* kMinimal = R"({
  "name": "minimal",
  "partitions": [
    { "name": "MAIN",
      "processes": [
        { "name": "p", "priority": 10,
          "script": [ { "op": "compute", "ticks": 3 },
                      { "op": "log", "text": "hello" },
                      { "op": "stop_self" } ] } ] }
  ],
  "schedules": [
    { "id": 0, "mtf": 10,
      "requirements": [ { "partition": "MAIN", "period": 10, "duration": 10 } ],
      "windows": [ { "partition": "MAIN", "offset": 0, "duration": 10 } ] }
  ]
})";

TEST(ConfigLoader, MinimalConfigBootsAndRuns) {
  const auto result = config::load_module_config(kMinimal);
  ASSERT_TRUE(result.ok()) << result.error;
  system::Module module(*result.config);
  module.run(10);
  const auto& console = module.console(module.partition_id("MAIN"));
  ASSERT_EQ(console.size(), 1u);
  EXPECT_EQ(console[0], "hello");
}

TEST(ConfigLoader, FullFeaturedConfigParses) {
  const auto result = config::load_module_config(R"({
    "name": "full",
    "memory_bytes": 8388608,
    "initial_schedule": 0,
    "partitions": [
      { "name": "SYS", "system": true, "pos": "rt", "registry": "tree",
        "sampling_ports": [
          { "name": "OUT", "direction": "source", "max_bytes": 32 } ],
        "queuing_ports": [
          { "name": "QOUT", "direction": "source", "capacity": 4 } ],
        "buffers": [ { "name": "buf", "capacity": 2 } ],
        "blackboards": [ { "name": "bb" } ],
        "semaphores": [ { "name": "sem", "initial": 0, "maximum": 3 } ],
        "events": [ { "name": "ev" } ],
        "error_handler": [ { "op": "log", "text": "err" },
                           { "op": "stop_self" } ],
        "hm_table": [ { "error": "deadline_missed", "level": "process",
                        "action": "ignore" } ],
        "processes": [
          { "name": "main", "period": 100, "time_capacity": 50,
            "priority": 5, "auto_start": true,
            "script": [ { "op": "periodic_wait" } ] } ] },
      { "name": "GEN", "pos": "generic",
        "sampling_ports": [
          { "name": "IN", "direction": "destination", "refresh": 200 } ],
        "queuing_ports": [
          { "name": "QIN", "direction": "destination" } ],
        "processes": [
          { "name": "bg", "priority": 50,
            "script": [ { "op": "compute", "ticks": 5 },
                        { "op": "try_disable_clock_irq" } ] } ] }
    ],
    "schedules": [
      { "id": 0, "name": "nominal", "mtf": 100,
        "requirements": [
          { "partition": "SYS", "period": 100, "duration": 50 },
          { "partition": "GEN", "period": 100, "duration": 50 } ],
        "windows": [
          { "partition": "SYS", "offset": 0, "duration": 50 },
          { "partition": "GEN", "offset": 50, "duration": 50 } ],
        "change_actions": [
          { "partition": "GEN", "action": "cold_restart" } ] }
    ],
    "channels": [
      { "kind": "sampling",
        "source": { "partition": "SYS", "port": "OUT" },
        "destinations": [ { "partition": "GEN", "port": "IN" } ] },
      { "kind": "queuing",
        "source": { "partition": "SYS", "port": "QOUT" },
        "destinations": [ { "partition": "GEN", "port": "QIN" },
                          { "module": 1, "partition_id": 0, "port": "R" } ] }
    ],
    "module_hm_table": [
      { "error": "power_fail", "level": "module", "action": "stop_module" } ]
  })");
  ASSERT_TRUE(result.ok()) << result.error;
  const auto& config = *result.config;
  EXPECT_EQ(config.partitions.size(), 2u);
  EXPECT_TRUE(config.partitions[0].system_partition);
  EXPECT_EQ(config.partitions[0].deadline_registry, pal::RegistryKind::kTree);
  EXPECT_EQ(config.partitions[1].pos_kind, "generic");
  EXPECT_EQ(config.partitions[0].error_handler.size(), 2u);
  ASSERT_EQ(config.channels.size(), 2u);
  EXPECT_EQ(config.channels[1].remote_destinations.size(), 1u);
  ASSERT_EQ(config.change_actions.size(), 1u);
  EXPECT_EQ(
      (config.change_actions.at({ScheduleId{0}, PartitionId{1}})),
      pmk::ScheduleChangeAction::kColdRestart);

  // And the whole thing boots.
  system::Module module(config);
  module.run(200);
  EXPECT_GT(module.trace().count(util::EventKind::kClockParavirtTrap), 0u);
}

TEST(ConfigLoader, UnknownPartitionNameIsAnError) {
  const auto result = config::load_module_config(R"({
    "partitions": [ { "name": "A" } ],
    "schedules": [
      { "id": 0, "mtf": 10,
        "requirements": [ { "partition": "NOPE", "period": 10, "duration": 5 } ],
        "windows": [] } ]
  })");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("NOPE"), std::string::npos);
}

TEST(ConfigLoader, UnknownOpIsAnError) {
  const auto result = config::load_module_config(R"({
    "partitions": [ { "name": "A", "processes": [
      { "name": "p", "script": [ { "op": "warp_drive" } ] } ] } ],
    "schedules": [ { "id": 0, "mtf": 10,
      "requirements": [ { "partition": "A", "period": 10, "duration": 10 } ],
      "windows": [ { "partition": "A", "offset": 0, "duration": 10 } ] } ]
  })");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("warp_drive"), std::string::npos);
}

TEST(ConfigLoader, NonPositiveComputeIsAnError) {
  for (const char* ticks : {"0", "-1", "-9223372036854775807"}) {
    const std::string json = std::string{R"({
    "partitions": [ { "name": "A", "processes": [
      { "name": "p", "script": [ { "op": "compute", "ticks": )"} +
                             ticks + R"( } ] } ] } ],
    "schedules": [ { "id": 0, "mtf": 10,
      "requirements": [ { "partition": "A", "period": 10, "duration": 10 } ],
      "windows": [ { "partition": "A", "offset": 0, "duration": 10 } ] } ]
  })";
    const auto result = config::load_module_config(json);
    ASSERT_FALSE(result.ok()) << "ticks " << ticks;
    EXPECT_NE(result.error.find("compute"), std::string::npos) << result.error;
    EXPECT_NE(result.error.find(ticks), std::string::npos) << result.error;
  }
}

TEST(ConfigLoader, SyntaxErrorsCarryPosition) {
  const auto result = config::load_module_config("{ \"partitions\": [ }");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("parse error"), std::string::npos);
}

TEST(ConfigLoader, NegativeTimesMeanInfinite) {
  const auto result = config::load_module_config(R"({
    "partitions": [ { "name": "A", "processes": [
      { "name": "p", "period": -1, "time_capacity": -1,
        "script": [ { "op": "suspend_self", "timeout": -1 } ] } ] } ],
    "schedules": [ { "id": 0, "mtf": 10,
      "requirements": [ { "partition": "A", "period": 10, "duration": 10 } ],
      "windows": [ { "partition": "A", "offset": 0, "duration": 10 } ] } ]
  })");
  ASSERT_TRUE(result.ok()) << result.error;
  const auto& attrs = result.config->partitions[0].processes[0].attrs;
  EXPECT_EQ(attrs.period, kInfiniteTime);
  EXPECT_EQ(attrs.time_capacity, kInfiniteTime);
}

TEST(ConfigLoader, NetworkConfigParsesTopologyAndVirtualLinks) {
  const auto result = config::load_network_config(R"({
    "network": {
      "slot_length": 2, "frames_per_slot": 4, "propagation_delay": 6,
      "stations_per_switch": 32, "switch_hop_delay": 3,
      "virtual_links": [
        { "source": 0, "dest": 1, "min_gap": 100, "jitter_budget": 50 },
        { "source": 1, "dest": 0 }
      ] }
  })");
  ASSERT_TRUE(result.ok()) << result.error;
  const config::NetworkConfig& net = *result.config;
  EXPECT_EQ(net.bus.slot_length, 2);
  EXPECT_EQ(net.bus.frames_per_slot, 4u);
  EXPECT_EQ(net.bus.propagation_delay, 6);
  EXPECT_EQ(net.bus.stations_per_switch, 32u);
  EXPECT_EQ(net.bus.switch_hop_delay, 3);
  ASSERT_EQ(net.virtual_links.size(), 2u);
  EXPECT_EQ(net.virtual_links[0].source, ModuleId{0});
  EXPECT_EQ(net.virtual_links[0].dest, ModuleId{1});
  EXPECT_EQ(net.virtual_links[0].min_gap, 100);
  EXPECT_EQ(net.virtual_links[0].jitter_budget, 50);
  EXPECT_EQ(net.virtual_links[1].min_gap, 0) << "defaults apply";
  EXPECT_EQ(net.virtual_links[1].jitter_budget, kInfiniteTime);
}

TEST(ConfigLoader, NetworkConfigDefaultsToFlatBroadcast) {
  // Top-level form (no "network" wrapper), everything defaulted.
  const auto result = config::load_network_config("{}");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.config->bus.stations_per_switch, 0u);
  EXPECT_TRUE(result.config->virtual_links.empty());
}

TEST(ConfigLoader, NetworkConfigRejectsBadGeometry) {
  const auto zero_slot =
      config::load_network_config(R"({ "slot_length": 0 })");
  ASSERT_FALSE(zero_slot.ok());
  EXPECT_NE(zero_slot.error.find("slot_length"), std::string::npos);

  const auto bad_vl = config::load_network_config(
      R"({ "virtual_links": [ { "source": 0 } ] })");
  ASSERT_FALSE(bad_vl.ok());
  EXPECT_NE(bad_vl.error.find("dest"), std::string::npos);
}

TEST(ConfigLoader, InvalidScheduleIsCaughtAtModuleConstruction) {
  const auto result = config::load_module_config(R"({
    "partitions": [ { "name": "A" } ],
    "schedules": [ { "id": 0, "mtf": 10,
      "requirements": [ { "partition": "A", "period": 10, "duration": 8 } ],
      "windows": [ { "partition": "A", "offset": 0, "duration": 4 } ] } ]
  })");
  ASSERT_TRUE(result.ok()) << result.error;  // syntactically fine
  EXPECT_THROW(system::Module{*result.config}, std::invalid_argument)
      << "eq. (23) violation: cycle gets 4 < 8";
}

}  // namespace
}  // namespace air
