#include "hm/health_monitor.hpp"

namespace air::hm {

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kDeadlineMissed: return "deadline_missed";
    case ErrorCode::kApplicationError: return "application_error";
    case ErrorCode::kNumericError: return "numeric_error";
    case ErrorCode::kIllegalRequest: return "illegal_request";
    case ErrorCode::kStackOverflow: return "stack_overflow";
    case ErrorCode::kMemoryViolation: return "memory_violation";
    case ErrorCode::kHardwareFault: return "hardware_fault";
    case ErrorCode::kPowerFail: return "power_fail";
    case ErrorCode::kConfigError: return "config_error";
  }
  return "unknown";
}

const char* to_string(ErrorLevel level) {
  switch (level) {
    case ErrorLevel::kProcess: return "process";
    case ErrorLevel::kPartition: return "partition";
    case ErrorLevel::kModule: return "module";
  }
  return "unknown";
}

const char* to_string(RecoveryAction action) {
  switch (action) {
    case RecoveryAction::kIgnore: return "ignore";
    case RecoveryAction::kStopProcess: return "stop_process";
    case RecoveryAction::kRestartProcess: return "restart_process";
    case RecoveryAction::kStopPartition: return "stop_partition";
    case RecoveryAction::kWarmRestartPartition: return "warm_restart_partition";
    case RecoveryAction::kColdRestartPartition: return "cold_restart_partition";
    case RecoveryAction::kStopModule: return "stop_module";
    case RecoveryAction::kResetModule: return "reset_module";
  }
  return "unknown";
}

void HmTable::set(ErrorCode code, ErrorLevel level, RecoveryAction action,
                  std::uint32_t log_threshold) {
  entries_[{code, level}] = {action, log_threshold == 0 ? 1u : log_threshold};
}

HmTableEntry HmTable::lookup(ErrorCode code, ErrorLevel level) const {
  auto it = entries_.find({code, level});
  if (it != entries_.end()) return it->second;
  // Defaults chosen for containment: a process error stops the process; a
  // partition error restarts the partition warm; a module error stops it.
  switch (level) {
    case ErrorLevel::kProcess: return {RecoveryAction::kStopProcess, 1};
    case ErrorLevel::kPartition:
      return {RecoveryAction::kWarmRestartPartition, 1};
    case ErrorLevel::kModule: return {RecoveryAction::kStopModule, 1};
  }
  return {};
}

void HealthMonitor::set_partition_table(PartitionId partition, HmTable table) {
  partition_tables_[partition] = std::move(table);
}

void HealthMonitor::reset_occurrences(PartitionId partition) {
  for (auto it = occurrence_.begin(); it != occurrence_.end();) {
    if (it->first.first == partition) {
      it = occurrence_.erase(it);
    } else {
      ++it;
    }
  }
}

std::size_t HealthMonitor::error_count(PartitionId partition,
                                       ErrorCode code) const {
  auto it = occurrence_.find({partition, code});
  return it != occurrence_.end() ? it->second : 0;
}

void HealthMonitor::set_log_capacity(std::size_t capacity) {
  AIR_ASSERT(log_.empty() && ring_ == nullptr);
  log_capacity_ = capacity;
}

void HealthMonitor::clear_log() {
  log_.clear();
  if (ring_ != nullptr) ring_->clear();
  view_dirty_ = false;
  dropped_reports_ = 0;
}

const std::vector<ErrorReport>& HealthMonitor::log() const {
  if (ring_ != nullptr && view_dirty_) {
    log_.clear();
    log_.reserve(ring_->size());
    for (std::size_t i = 0; i < ring_->size(); ++i) {
      log_.push_back(ring_->at(i));
    }
    view_dirty_ = false;
  }
  return log_;
}

void HealthMonitor::append(const ErrorReport& report) {
  if (log_capacity_ == 0) {
    log_.push_back(report);
    return;
  }
  if (ring_ == nullptr) {
    ring_ = std::make_unique<util::RingBuffer<ErrorReport>>(log_capacity_);
  }
  if (ring_->push_overwrite(report)) ++dropped_reports_;
  view_dirty_ = true;
}

const ErrorReport& HealthMonitor::latest() const {
  return ring_ != nullptr ? ring_->at(ring_->size() - 1) : log_.back();
}

RecoveryAction HealthMonitor::report(Ticks now, ErrorCode code,
                                     ErrorLevel level, PartitionId partition,
                                     ProcessId process, std::string message) {
  ErrorReport report;
  report.time = now;
  report.code = code;
  report.level = level;
  report.partition = partition;
  report.process = process;
  report.message = std::move(message);

  const std::uint32_t count = ++occurrence_[{partition, code}];

  // Process-level errors go to the partition's application error handler
  // first (Sect. 2.4); only when none exists does the HM table act.
  if (level == ErrorLevel::kProcess && invoke_error_handler &&
      invoke_error_handler(partition, report)) {
    report.handled_by_error_handler = true;
    report.action_taken = RecoveryAction::kIgnore;
    append(report);
    note(latest());
    note_span(latest());
    if (on_report) on_report(latest());
    return report.action_taken;
  }

  const HmTable* table = &module_table_;
  if (level != ErrorLevel::kModule) {
    auto it = partition_tables_.find(partition);
    if (it != partition_tables_.end()) table = &it->second;
  }
  if (escalation_ && level == ErrorLevel::kPartition &&
      !table->has(code, ErrorLevel::kPartition)) {
    // No partition-level response configured anywhere: the error exceeds
    // what the partition's policy can contain, so it is promoted to module
    // level and the module table decides (ARINC 653 HM dispatch).
    report.escalated = true;
    report.level = ErrorLevel::kModule;
    level = ErrorLevel::kModule;
    table = &module_table_;
  }
  const HmTableEntry entry = table->lookup(code, level);

  if (count < entry.log_threshold) {
    // "Logging the error a certain number of times before acting upon it."
    report.deferred_by_threshold = true;
    report.action_taken = RecoveryAction::kIgnore;
    append(report);
    note(latest());
    note_span(latest());
    if (on_report) on_report(latest());
    return report.action_taken;
  }

  report.action_taken = entry.action;
  append(report);
  note(latest());
  note_span(latest());
  execute(latest());
  if (on_report) on_report(latest());
  return report.action_taken;
}

void HealthMonitor::note(const ErrorReport& report) {
  if (metrics_ == nullptr) return;
  metrics_->add(telemetry::Metric::kHmErrors,
                report.partition.valid() ? report.partition.value() : -1);
  metrics_->add(telemetry::Metric::kHmErrorsByCode,
                static_cast<std::int32_t>(report.code));
  metrics_->add(telemetry::Metric::kHmActionsByKind,
                static_cast<std::int32_t>(report.action_taken));
}

void HealthMonitor::note_span(const ErrorReport& report) {
  if (spans_ == nullptr) return;
  // The reporting layer (PAL deadline check, spatial guard, APEX error
  // service) latched the causal span just before calling report().
  spans_->instant(telemetry::SpanKind::kHmHandler, report.time,
                  spans_->take_pending_cause(), 0,
                  report.partition.valid() ? report.partition.value() : -1,
                  report.process.valid() ? report.process.value() : -1,
                  static_cast<std::int64_t>(report.code),
                  to_string(report.action_taken));
}

void HealthMonitor::execute(const ErrorReport& report) {
  switch (report.action_taken) {
    case RecoveryAction::kIgnore:
      break;
    case RecoveryAction::kStopProcess:
      if (stop_process) stop_process(report.partition, report.process);
      break;
    case RecoveryAction::kRestartProcess:
      if (restart_process) restart_process(report.partition, report.process);
      break;
    case RecoveryAction::kStopPartition:
      if (stop_partition) stop_partition(report.partition);
      break;
    case RecoveryAction::kWarmRestartPartition:
      if (restart_partition) restart_partition(report.partition, false);
      break;
    case RecoveryAction::kColdRestartPartition:
      if (restart_partition) restart_partition(report.partition, true);
      break;
    case RecoveryAction::kStopModule:
      if (stop_module) stop_module(false);
      break;
    case RecoveryAction::kResetModule:
      if (stop_module) stop_module(true);
      break;
  }
}

}  // namespace air::hm
