#include "config/busy_world.hpp"

#include <string>

#include "pos/workload.hpp"

namespace air::scenarios {

namespace {

model::Schedule round_robin(std::size_t partitions, Ticks slice) {
  model::Schedule s;
  s.id = ScheduleId{0};
  s.mtf = static_cast<Ticks>(partitions) * slice;
  for (std::size_t i = 0; i < partitions; ++i) {
    const PartitionId p{static_cast<std::int32_t>(i)};
    s.requirements.push_back({p, s.mtf, slice});
    s.windows.push_back({p, static_cast<Ticks>(i) * slice, slice});
  }
  return s;
}

}  // namespace

net::BusConfig busy_world_bus() {
  return {.slot_length = 8, .frames_per_slot = 2, .propagation_delay = 6};
}

system::ModuleConfig busy_module(int id, int nmodules) {
  using pos::ScriptBuilder;
  system::ModuleConfig config;
  config.id = ModuleId{id};
  config.name = "m" + std::to_string(id);
  config.telemetry.flight_recorder_capacity = 256;
  config.telemetry.spans_capacity = 1024;
  constexpr std::size_t kParts = 4;
  constexpr Ticks kSlice = 25;
  for (std::size_t p = 0; p < kParts; ++p) {
    system::PartitionConfig partition;
    partition.name = "p" + std::to_string(p);
    if (p == 0) {
      partition.sampling_ports.push_back(
          {"OUT", ipc::PortDirection::kSource, 64, kInfiniteTime});
      partition.sampling_ports.push_back(
          {"IN", ipc::PortDirection::kDestination, 64, kInfiniteTime});
      system::ProcessConfig chatter;
      chatter.attrs.name = "chatter";
      chatter.attrs.priority = 20;
      chatter.attrs.script = ScriptBuilder{}
                                 .sampling_write(0, "ring")
                                 .sampling_read(1)
                                 .timed_wait(150)
                                 .build();
      partition.processes.push_back(std::move(chatter));
    }
    system::ProcessConfig worker;
    worker.attrs.name = "work";
    worker.attrs.period = static_cast<Ticks>(kParts) * kSlice;
    worker.attrs.time_capacity = kInfiniteTime;
    worker.attrs.priority = 10;
    worker.attrs.script = ScriptBuilder{}.compute(20).periodic_wait().build();
    partition.processes.push_back(std::move(worker));
    config.partitions.push_back(std::move(partition));
  }
  ipc::ChannelConfig ring;
  ring.id = ChannelId{0};
  ring.kind = ipc::ChannelKind::kSampling;
  ring.source = {PartitionId{0}, "OUT"};
  ring.remote_destinations = {
      {ModuleId{(id + 1) % nmodules}, PartitionId{0}, "IN"}};
  config.channels.push_back(std::move(ring));
  config.schedules = {round_robin(kParts, kSlice)};
  return config;
}

}  // namespace air::scenarios
