// AIR Health Monitoring (Sect. 2.4, Sect. 5).
//
// Handles hardware and software errors (missed deadlines, memory protection
// violations, application errors, ...) with the ARINC 653 containment rule:
// process-level errors invoke the partition's application error handler;
// partition-level errors trigger a response action defined at integration
// time; module-level errors may stop or reinitialise the whole system.
//
// The monitor itself is policy + bookkeeping; the *mechanisms* (stopping a
// process, restarting a partition) are injected by the system layer, which
// keeps this library free of upward dependencies.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/spans.hpp"
#include "util/ring_buffer.hpp"
#include "util/types.hpp"

namespace air::hm {

enum class ErrorCode : std::uint8_t {
  kDeadlineMissed = 0,
  kApplicationError,
  kNumericError,
  kIllegalRequest,
  kStackOverflow,
  kMemoryViolation,
  kHardwareFault,
  kPowerFail,
  kConfigError,
};

[[nodiscard]] const char* to_string(ErrorCode code);

enum class ErrorLevel : std::uint8_t { kProcess, kPartition, kModule };

[[nodiscard]] const char* to_string(ErrorLevel level);

/// Recovery actions from Sect. 5 ("Possible recovery actions in the event of
/// such an error are ...") plus the module-level ones of ARINC 653.
enum class RecoveryAction : std::uint8_t {
  kIgnore = 0,        // log it, take no action
  kStopProcess,       // stop the faulty process (partition recovers by itself)
  kRestartProcess,    // stop + start again from the entry address
  kStopPartition,     // partition to idle mode
  kWarmRestartPartition,
  kColdRestartPartition,
  kStopModule,
  kResetModule,
};

[[nodiscard]] const char* to_string(RecoveryAction action);

/// One HM table entry: what to do for `code` at `level`. `log_threshold`
/// implements "logging the error a certain number of times before acting
/// upon it": occurrences 1..threshold-1 are logged only.
struct HmTableEntry {
  RecoveryAction action{RecoveryAction::kIgnore};
  std::uint32_t log_threshold{1};
};

/// Per-partition (or module) HM table.
class HmTable {
 public:
  void set(ErrorCode code, ErrorLevel level, RecoveryAction action,
           std::uint32_t log_threshold = 1);
  [[nodiscard]] HmTableEntry lookup(ErrorCode code, ErrorLevel level) const;

  /// True when the table has an *explicit* entry for (code, level) --
  /// lookup() falls back to defaults, has() distinguishes configured
  /// responses from fallbacks (the escalation rule needs the difference).
  [[nodiscard]] bool has(ErrorCode code, ErrorLevel level) const {
    return entries_.find({code, level}) != entries_.end();
  }

  /// Explicitly configured entries (defaults are not listed).
  [[nodiscard]] const std::map<std::pair<ErrorCode, ErrorLevel>,
                               HmTableEntry>&
  entries() const {
    return entries_;
  }

 private:
  std::map<std::pair<ErrorCode, ErrorLevel>, HmTableEntry> entries_;
};

struct ErrorReport {
  Ticks time{0};
  ErrorCode code{ErrorCode::kApplicationError};
  ErrorLevel level{ErrorLevel::kProcess};
  PartitionId partition;
  ProcessId process;
  std::string message;
  RecoveryAction action_taken{RecoveryAction::kIgnore};
  bool handled_by_error_handler{false};
  bool deferred_by_threshold{false};
  /// Partition-level error with no configured partition-level response:
  /// promoted to module level and decided by the module table (`level` then
  /// reads kModule -- the level the error was *handled* at).
  bool escalated{false};
};

class HealthMonitor {
 public:
  /// Integration-time configuration.
  void set_module_table(HmTable table) { module_table_ = std::move(table); }
  void set_partition_table(PartitionId partition, HmTable table);

  /// Escalation rule (ARINC 653 HM dispatch, Sect. 2.4): a partition-level
  /// error for which neither the partition's nor the module's table holds a
  /// partition-level entry is promoted to module level and decided there.
  /// Off by default (raw monitors keep the contained partition-level
  /// fallback); the system layer enables it for integrated modules.
  void set_escalation(bool on) { escalation_ = on; }
  [[nodiscard]] bool escalation() const { return escalation_; }

  /// Report an error. Returns the action that was carried out.
  RecoveryAction report(Ticks now, ErrorCode code, ErrorLevel level,
                        PartitionId partition, ProcessId process,
                        std::string message = {});

  /// Retained reports, oldest first: all of them, or the newest `capacity`
  /// once set_log_capacity() bounds the log. Like SpanRecorder::closed(): a
  /// lazily materialised view of the ring in bounded mode, the backing
  /// vector itself in unbounded mode.
  [[nodiscard]] const std::vector<ErrorReport>& log() const;
  [[nodiscard]] std::size_t error_count(PartitionId partition,
                                        ErrorCode code) const;
  void clear_log();

  /// Keep only the newest `capacity` reports (0 = unbounded, the default),
  /// so a long faulty flight holds O(capacity) memory. Evictions are counted
  /// exactly: log().size() + dropped_reports() is every report since the
  /// last clear_log(). Integration-time configuration: call it before the
  /// first report.
  void set_log_capacity(std::size_t capacity);
  [[nodiscard]] std::uint64_t dropped_reports() const {
    return dropped_reports_;
  }

  /// Forget `partition`'s error occurrence history (called on partition
  /// restart, so log-threshold counting starts afresh in the new life).
  void reset_occurrences(PartitionId partition);

  // --- mechanisms, wired by the system layer ---
  /// Try to activate the partition's application error handler process for a
  /// process-level error; returns false when the partition created none.
  std::function<bool(PartitionId, const ErrorReport&)> invoke_error_handler;
  std::function<void(PartitionId, ProcessId)> stop_process;
  std::function<void(PartitionId, ProcessId)> restart_process;
  std::function<void(PartitionId)> stop_partition;
  std::function<void(PartitionId, bool cold)> restart_partition;
  std::function<void(bool reset)> stop_module;
  /// Observation hook: every report, after the action is decided.
  std::function<void(const ErrorReport&)> on_report;

  /// Publish error-rate metrics: errors per partition, per error code, and
  /// actions per recovery kind. nullptr = off.
  void set_metrics(telemetry::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Record a handler span per report, parented on the span that caused it
  /// (the recorder's pending-cause latch, set by the reporting layer).
  /// nullptr = off.
  void set_spans(telemetry::SpanRecorder* spans) { spans_ = spans; }

 private:
  void append(const ErrorReport& report);
  /// The report append() just retained.
  [[nodiscard]] const ErrorReport& latest() const;
  void execute(const ErrorReport& report);
  void note(const ErrorReport& report);
  void note_span(const ErrorReport& report);

  bool escalation_{false};
  HmTable module_table_;
  std::map<PartitionId, HmTable> partition_tables_;
  std::map<std::pair<PartitionId, ErrorCode>, std::uint32_t> occurrence_;
  // Unbounded-mode storage; in bounded mode, the lazily rebuilt view of
  // ring_ (mutable so the const log() accessor can refresh it). A bounded
  // report is one O(1) ring write; the first report creates the ring.
  mutable std::vector<ErrorReport> log_;
  mutable bool view_dirty_{false};
  std::unique_ptr<util::RingBuffer<ErrorReport>> ring_;
  std::size_t log_capacity_{0};
  std::uint64_t dropped_reports_{0};
  telemetry::MetricsRegistry* metrics_{nullptr};
  telemetry::SpanRecorder* spans_{nullptr};
};

}  // namespace air::hm
