#include "config/loader.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace air::config {

namespace {

using util::json::Value;

/// Thrown internally; converted to LoadResult::error at the boundary.
struct LoadError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void fail(const std::string& message) { throw LoadError(message); }

Ticks time_field(const Value& obj, std::string_view key, Ticks fallback) {
  const Ticks v = obj.get_int(key, fallback);
  return v < 0 ? kInfiniteTime : v;
}

PartitionId resolve_partition(const system::ModuleConfig& config,
                              const std::string& name) {
  for (std::size_t i = 0; i < config.partitions.size(); ++i) {
    if (config.partitions[i].name == name) {
      return PartitionId{static_cast<std::int32_t>(i)};
    }
  }
  fail("unknown partition name: " + name);
}

std::string required_string(const Value& obj, std::string_view key,
                            const std::string& context) {
  const Value* v = obj.find(key);
  if (v == nullptr || !v->is_string()) {
    fail("missing string field \"" + std::string{key} + "\" in " + context);
  }
  return v->as_string();
}

// ---------- workload scripts ----------

pos::Op parse_op(const Value& op) {
  const std::string kind = required_string(op, "op", "script op");
  const auto timeout = [&] { return time_field(op, "timeout", -1); };
  const auto message = [&] { return op.get_string("message", ""); };
  const auto i32 = [&](std::string_view key) {
    return static_cast<std::int32_t>(op.get_int(key, 0));
  };

  if (kind == "compute") {
    const Ticks ticks = op.get_int("ticks", 1);
    if (ticks < 1) {
      fail("script op \"compute\": ticks must be >= 1, got " +
           std::to_string(ticks));
    }
    return pos::OpCompute{ticks};
  }
  if (kind == "periodic_wait") return pos::OpPeriodicWait{};
  if (kind == "sporadic_wait") return pos::OpSporadicWait{};
  if (kind == "release_process") {
    return pos::OpReleaseProcess{
        required_string(op, "process", "release_process")};
  }
  if (kind == "timed_wait") return pos::OpTimedWait{op.get_int("delay", 1)};
  if (kind == "suspend_self") return pos::OpSuspendSelf{timeout()};
  if (kind == "stop_self") return pos::OpStopSelf{};
  if (kind == "replenish") return pos::OpReplenish{op.get_int("budget", 0)};
  if (kind == "lock_preemption") return pos::OpLockPreemption{};
  if (kind == "unlock_preemption") return pos::OpUnlockPreemption{};
  if (kind == "sem_wait") return pos::OpSemWait{i32("semaphore"), timeout()};
  if (kind == "sem_signal") return pos::OpSemSignal{i32("semaphore")};
  if (kind == "event_set") return pos::OpEventSet{i32("event")};
  if (kind == "event_reset") return pos::OpEventReset{i32("event")};
  if (kind == "event_wait") return pos::OpEventWait{i32("event"), timeout()};
  if (kind == "buffer_send") {
    return pos::OpBufferSend{i32("buffer"), message(), timeout()};
  }
  if (kind == "buffer_receive") {
    return pos::OpBufferReceive{i32("buffer"), timeout()};
  }
  if (kind == "blackboard_display") {
    return pos::OpBlackboardDisplay{i32("blackboard"), message()};
  }
  if (kind == "blackboard_read") {
    return pos::OpBlackboardRead{i32("blackboard"), timeout()};
  }
  if (kind == "sampling_write") {
    return pos::OpSamplingWrite{i32("port"), message()};
  }
  if (kind == "sampling_read") return pos::OpSamplingRead{i32("port")};
  if (kind == "queuing_send") {
    return pos::OpQueuingSend{i32("port"), message(), timeout()};
  }
  if (kind == "queuing_receive") {
    return pos::OpQueuingReceive{i32("port"), timeout()};
  }
  if (kind == "set_module_schedule") {
    return pos::OpSetModuleSchedule{i32("schedule")};
  }
  if (kind == "raise_error") {
    return pos::OpRaiseError{i32("code"), message()};
  }
  if (kind == "try_disable_clock_irq") return pos::OpTryDisableClockIrq{};
  if (kind == "memory_access") {
    return pos::OpMemoryAccess{
        static_cast<std::uint32_t>(op.get_int("vaddr", 0)),
        op.get_bool("write", false)};
  }
  if (kind == "stop_process") {
    return pos::OpStopProcess{required_string(op, "process", "stop_process")};
  }
  if (kind == "start_process") {
    return pos::OpStartProcess{
        required_string(op, "process", "start_process")};
  }
  if (kind == "log") return pos::OpLog{op.get_string("text", "")};
  if (kind == "goto") {
    return pos::OpGoto{static_cast<std::size_t>(op.get_int("target", 0))};
  }
  fail("unknown script op: " + kind);
}

pos::Script parse_script(const Value* value) {
  pos::Script script;
  if (value == nullptr) return script;
  if (!value->is_array()) fail("script must be an array of ops");
  for (const Value& op : value->as_array()) script.push_back(parse_op(op));
  return script;
}

// ---------- HM tables ----------

hm::ErrorCode parse_error_code(const std::string& s) {
  if (s == "deadline_missed") return hm::ErrorCode::kDeadlineMissed;
  if (s == "application_error") return hm::ErrorCode::kApplicationError;
  if (s == "numeric_error") return hm::ErrorCode::kNumericError;
  if (s == "illegal_request") return hm::ErrorCode::kIllegalRequest;
  if (s == "stack_overflow") return hm::ErrorCode::kStackOverflow;
  if (s == "memory_violation") return hm::ErrorCode::kMemoryViolation;
  if (s == "hardware_fault") return hm::ErrorCode::kHardwareFault;
  if (s == "power_fail") return hm::ErrorCode::kPowerFail;
  if (s == "config_error") return hm::ErrorCode::kConfigError;
  fail("unknown error code: " + s);
}

hm::ErrorLevel parse_error_level(const std::string& s) {
  if (s == "process") return hm::ErrorLevel::kProcess;
  if (s == "partition") return hm::ErrorLevel::kPartition;
  if (s == "module") return hm::ErrorLevel::kModule;
  fail("unknown error level: " + s);
}

hm::RecoveryAction parse_action(const std::string& s) {
  if (s == "ignore") return hm::RecoveryAction::kIgnore;
  if (s == "stop_process") return hm::RecoveryAction::kStopProcess;
  if (s == "restart_process") return hm::RecoveryAction::kRestartProcess;
  if (s == "stop_partition") return hm::RecoveryAction::kStopPartition;
  if (s == "warm_restart_partition") {
    return hm::RecoveryAction::kWarmRestartPartition;
  }
  if (s == "cold_restart_partition") {
    return hm::RecoveryAction::kColdRestartPartition;
  }
  if (s == "stop_module") return hm::RecoveryAction::kStopModule;
  if (s == "reset_module") return hm::RecoveryAction::kResetModule;
  fail("unknown recovery action: " + s);
}

hm::HmTable parse_hm_table(const Value* value) {
  hm::HmTable table;
  if (value == nullptr) return table;
  if (!value->is_array()) fail("hm table must be an array");
  for (const Value& entry : value->as_array()) {
    table.set(parse_error_code(required_string(entry, "error", "hm entry")),
              parse_error_level(required_string(entry, "level", "hm entry")),
              parse_action(required_string(entry, "action", "hm entry")),
              static_cast<std::uint32_t>(entry.get_int("threshold", 1)));
  }
  return table;
}

// ---------- partitions ----------

ipc::PortDirection parse_direction(const std::string& s) {
  if (s == "source") return ipc::PortDirection::kSource;
  if (s == "destination") return ipc::PortDirection::kDestination;
  fail("unknown port direction: " + s);
}

ipc::QueuingDiscipline parse_discipline(const Value& obj) {
  const std::string s = obj.get_string("discipline", "fifo");
  if (s == "fifo") return ipc::QueuingDiscipline::kFifo;
  if (s == "priority") return ipc::QueuingDiscipline::kPriority;
  fail("unknown queuing discipline: " + s);
}

system::PartitionConfig parse_partition(const Value& p) {
  system::PartitionConfig out;
  out.name = required_string(p, "name", "partition");
  out.system_partition = p.get_bool("system", false);
  out.pos_kind = p.get_string("pos", "rt");
  const std::string registry = p.get_string("registry", "list");
  if (registry == "tree") {
    out.deadline_registry = pal::RegistryKind::kTree;
  } else if (registry != "list") {
    fail("unknown deadline registry: " + registry);
  }

  if (const Value* processes = p.find("processes")) {
    for (const Value& proc : processes->as_array()) {
      system::ProcessConfig pc;
      pc.attrs.name = required_string(proc, "name", "process");
      pc.attrs.period = time_field(proc, "period", -1);
      pc.attrs.time_capacity = time_field(proc, "time_capacity", -1);
      pc.attrs.priority =
          static_cast<Priority>(proc.get_int("priority", 100));
      pc.attrs.stack_bytes =
          static_cast<std::size_t>(proc.get_int("stack_bytes", 4096));
      pc.attrs.sporadic = proc.get_bool("sporadic", false);
      pc.attrs.script = parse_script(proc.find("script"));
      pc.auto_start = proc.get_bool("auto_start", true);
      out.processes.push_back(std::move(pc));
    }
  }
  if (const Value* ports = p.find("sampling_ports")) {
    for (const Value& port : ports->as_array()) {
      out.sampling_ports.push_back(
          {required_string(port, "name", "sampling port"),
           parse_direction(required_string(port, "direction", "sampling port")),
           static_cast<std::size_t>(port.get_int("max_bytes", 64)),
           time_field(port, "refresh", -1)});
    }
  }
  if (const Value* ports = p.find("queuing_ports")) {
    for (const Value& port : ports->as_array()) {
      out.queuing_ports.push_back(
          {required_string(port, "name", "queuing port"),
           parse_direction(required_string(port, "direction", "queuing port")),
           static_cast<std::size_t>(port.get_int("max_bytes", 64)),
           static_cast<std::size_t>(port.get_int("capacity", 8)),
           parse_discipline(port)});
    }
  }
  if (const Value* buffers = p.find("buffers")) {
    for (const Value& b : buffers->as_array()) {
      out.buffers.push_back(
          {required_string(b, "name", "buffer"),
           static_cast<std::size_t>(b.get_int("max_bytes", 64)),
           static_cast<std::size_t>(b.get_int("capacity", 8)),
           parse_discipline(b)});
    }
  }
  if (const Value* blackboards = p.find("blackboards")) {
    for (const Value& b : blackboards->as_array()) {
      out.blackboards.push_back(
          {required_string(b, "name", "blackboard"),
           static_cast<std::size_t>(b.get_int("max_bytes", 64))});
    }
  }
  if (const Value* semaphores = p.find("semaphores")) {
    for (const Value& s : semaphores->as_array()) {
      out.semaphores.push_back(
          {required_string(s, "name", "semaphore"),
           static_cast<std::int32_t>(s.get_int("initial", 1)),
           static_cast<std::int32_t>(s.get_int("maximum", 1)),
           parse_discipline(s)});
    }
  }
  if (const Value* events = p.find("events")) {
    for (const Value& e : events->as_array()) {
      out.events.push_back({required_string(e, "name", "event")});
    }
  }
  out.error_handler = parse_script(p.find("error_handler"));
  out.hm_table = parse_hm_table(p.find("hm_table"));
  return out;
}

pmk::ScheduleChangeAction parse_change_action(const std::string& s) {
  if (s == "none") return pmk::ScheduleChangeAction::kNone;
  if (s == "warm_restart") return pmk::ScheduleChangeAction::kWarmRestart;
  if (s == "cold_restart") return pmk::ScheduleChangeAction::kColdRestart;
  fail("unknown schedule change action: " + s);
}

}  // namespace

LoadResult load_module_config(std::string_view json_text) {
  const util::json::ParseResult parsed = util::json::parse(json_text);
  if (!parsed.ok()) return {std::nullopt, parsed.error->to_string()};

  try {
    const Value& root = *parsed.value;
    if (!root.is_object()) fail("top-level value must be an object");

    system::ModuleConfig config;
    config.name = root.get_string("name", "module");
    config.id = ModuleId{static_cast<std::int32_t>(root.get_int("id", 0))};
    config.memory_bytes =
        static_cast<std::size_t>(root.get_int("memory_bytes", 16 << 20));
    config.validate = root.get_bool("validate", true);
    config.trace_enabled = root.get_bool("trace_enabled", true);

    if (const Value* telemetry = root.find("telemetry")) {
      if (!telemetry->is_object()) fail("\"telemetry\" must be an object");
      config.telemetry.metrics_enabled =
          telemetry->get_bool("metrics", true);
      config.telemetry.profiler_enabled =
          telemetry->get_bool("profiler", false);
      config.telemetry.profiler_stride =
          static_cast<std::uint32_t>(telemetry->get_int(
              "profiler_stride",
              telemetry::HostProfiler::kDefaultStride));
      config.telemetry.flight_recorder_capacity = static_cast<std::size_t>(
          telemetry->get_int("flight_recorder_capacity", 0));
      config.telemetry.flight_recorder_critical_capacity =
          static_cast<std::size_t>(
              telemetry->get_int("flight_recorder_critical_capacity", 256));
    }

    const Value* partitions = root.find("partitions");
    if (partitions == nullptr || !partitions->is_array()) {
      fail("\"partitions\" array is required");
    }
    for (const Value& p : partitions->as_array()) {
      config.partitions.push_back(parse_partition(p));
    }

    const Value* schedules = root.find("schedules");
    if (schedules == nullptr || !schedules->is_array()) {
      fail("\"schedules\" array is required");
    }
    for (const Value& s : schedules->as_array()) {
      model::Schedule schedule;
      schedule.id =
          ScheduleId{static_cast<std::int32_t>(s.get_int("id", 0))};
      schedule.name = s.get_string("name", "schedule");
      schedule.mtf = s.get_int("mtf", 0);
      if (const Value* reqs = s.find("requirements")) {
        for (const Value& r : reqs->as_array()) {
          schedule.requirements.push_back(
              {resolve_partition(config,
                                 required_string(r, "partition", "requirement")),
               r.get_int("period", 0), r.get_int("duration", 0)});
        }
      }
      if (const Value* windows = s.find("windows")) {
        for (const Value& w : windows->as_array()) {
          schedule.windows.push_back(
              {resolve_partition(config,
                                 required_string(w, "partition", "window")),
               w.get_int("offset", 0), w.get_int("duration", 0)});
        }
      }
      if (const Value* actions = s.find("change_actions")) {
        for (const Value& a : actions->as_array()) {
          config.change_actions[{schedule.id,
                                 resolve_partition(
                                     config, required_string(a, "partition",
                                                             "change action"))}] =
              parse_change_action(required_string(a, "action", "change action"));
        }
      }
      config.schedules.push_back(std::move(schedule));
    }
    config.initial_schedule = ScheduleId{
        static_cast<std::int32_t>(root.get_int("initial_schedule", 0))};

    // Multicore: "cores": [ { "schedules": [ids...], "initial_schedule": id } ]
    // referencing entries of the global "schedules" array by id.
    if (const Value* cores = root.find("cores")) {
      for (const Value& c : cores->as_array()) {
        system::CoreConfig core;
        const Value* ids = c.find("schedules");
        if (ids == nullptr || !ids->is_array()) {
          fail("core entry missing \"schedules\" id array");
        }
        for (const Value& id_value : ids->as_array()) {
          const ScheduleId id{
              static_cast<std::int32_t>(id_value.as_int())};
          bool found = false;
          for (const auto& schedule : config.schedules) {
            if (schedule.id == id) {
              core.schedules.push_back(schedule);
              found = true;
              break;
            }
          }
          if (!found) {
            fail("core references unknown schedule id " +
                 std::to_string(id.value()));
          }
        }
        core.initial_schedule = ScheduleId{static_cast<std::int32_t>(
            c.get_int("initial_schedule",
                      core.schedules.empty()
                          ? 0
                          : core.schedules.front().id.value()))};
        config.cores.push_back(std::move(core));
      }
    }

    if (const Value* channels = root.find("channels")) {
      std::int32_t next_id = 0;
      for (const Value& c : channels->as_array()) {
        ipc::ChannelConfig channel;
        channel.id = ChannelId{next_id++};
        const std::string kind = required_string(c, "kind", "channel");
        if (kind == "sampling") {
          channel.kind = ipc::ChannelKind::kSampling;
        } else if (kind == "queuing") {
          channel.kind = ipc::ChannelKind::kQueuing;
        } else {
          fail("unknown channel kind: " + kind);
        }
        const Value* source = c.find("source");
        if (source == nullptr) fail("channel missing source");
        channel.source = {
            resolve_partition(config,
                              required_string(*source, "partition", "source")),
            required_string(*source, "port", "source")};
        if (const Value* dests = c.find("destinations")) {
          for (const Value& d : dests->as_array()) {
            if (d.find("module") != nullptr) {
              channel.remote_destinations.push_back(
                  {ModuleId{static_cast<std::int32_t>(d.get_int("module", 0))},
                   PartitionId{static_cast<std::int32_t>(
                       d.get_int("partition_id", 0))},
                   required_string(d, "port", "remote destination")});
            } else {
              channel.local_destinations.push_back(
                  {resolve_partition(
                       config, required_string(d, "partition", "destination")),
                   required_string(d, "port", "destination")});
            }
          }
        }
        config.channels.push_back(std::move(channel));
      }
    }

    config.module_hm_table = parse_hm_table(root.find("module_hm_table"));
    return {std::move(config), {}};
  } catch (const LoadError& e) {
    return {std::nullopt, e.what()};
  }
}

LoadResult load_module_config_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {std::nullopt, "cannot open " + path};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return load_module_config(buffer.str());
}

NetworkLoadResult load_network_config(std::string_view json_text) {
  const util::json::ParseResult parsed = util::json::parse(json_text);
  if (!parsed.ok()) return {std::nullopt, parsed.error->to_string()};

  try {
    const Value* root = &*parsed.value;
    if (!root->is_object()) fail("top-level value must be an object");
    if (const Value* wrapped = root->find("network")) {
      if (!wrapped->is_object()) fail("\"network\" must be an object");
      root = wrapped;
    }

    NetworkConfig config;
    config.bus.slot_length = root->get_int("slot_length", 10);
    if (config.bus.slot_length <= 0) fail("\"slot_length\" must be > 0");
    config.bus.frames_per_slot =
        static_cast<std::size_t>(root->get_int("frames_per_slot", 4));
    if (config.bus.frames_per_slot == 0) {
      fail("\"frames_per_slot\" must be > 0");
    }
    config.bus.propagation_delay = root->get_int("propagation_delay", 1);
    if (config.bus.propagation_delay < 0) {
      fail("\"propagation_delay\" must be >= 0");
    }
    config.bus.stations_per_switch =
        static_cast<std::size_t>(root->get_int("stations_per_switch", 0));
    config.bus.switch_hop_delay = root->get_int("switch_hop_delay", 2);
    if (config.bus.switch_hop_delay < 0) {
      fail("\"switch_hop_delay\" must be >= 0");
    }

    if (const Value* vls = root->find("virtual_links")) {
      if (!vls->is_array()) fail("\"virtual_links\" must be an array");
      for (const Value& vl : vls->as_array()) {
        if (!vl.is_object()) fail("virtual link entries must be objects");
        net::VirtualLinkConfig link;
        const Value* source = vl.find("source");
        const Value* dest = vl.find("dest");
        if (source == nullptr || !source->is_number() || dest == nullptr ||
            !dest->is_number()) {
          fail("virtual link needs numeric \"source\" and \"dest\" ids");
        }
        link.source = ModuleId{static_cast<std::int32_t>(source->as_int())};
        link.dest = ModuleId{static_cast<std::int32_t>(dest->as_int())};
        link.min_gap = vl.get_int("min_gap", 0);
        if (link.min_gap < 0) fail("\"min_gap\" must be >= 0");
        link.jitter_budget = time_field(vl, "jitter_budget", -1);
        config.virtual_links.push_back(link);
      }
    }
    return {std::move(config), {}};
  } catch (const LoadError& e) {
    return {std::nullopt, e.what()};
  }
}

NetworkLoadResult load_network_config_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {std::nullopt, "cannot open " + path};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return load_network_config(buffer.str());
}

}  // namespace air::config
