// Health Monitor unit tests (Sect. 2.4, Sect. 5): table lookup and defaults,
// log-N-times-before-acting thresholds, error-handler-first routing for
// process-level errors, and every recovery mechanism.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hm/health_monitor.hpp"

namespace air::hm {
namespace {

class HmTest : public ::testing::Test {
 protected:
  HmTest() {
    monitor_.stop_process = [this](PartitionId p, ProcessId pid) {
      actions_.push_back("stop_process " + std::to_string(p.value()) + "/" +
                         std::to_string(pid.value()));
    };
    monitor_.restart_process = [this](PartitionId p, ProcessId pid) {
      actions_.push_back("restart_process " + std::to_string(p.value()) +
                         "/" + std::to_string(pid.value()));
    };
    monitor_.stop_partition = [this](PartitionId p) {
      actions_.push_back("stop_partition " + std::to_string(p.value()));
    };
    monitor_.restart_partition = [this](PartitionId p, bool cold) {
      actions_.push_back((cold ? "cold_restart " : "warm_restart ") +
                         std::to_string(p.value()));
    };
    monitor_.stop_module = [this](bool reset) {
      actions_.push_back(reset ? "reset_module" : "stop_module");
    };
  }

  HealthMonitor monitor_;
  std::vector<std::string> actions_;
};

TEST_F(HmTest, DefaultProcessLevelActionStopsTheProcess) {
  const auto action =
      monitor_.report(10, ErrorCode::kNumericError, ErrorLevel::kProcess,
                      PartitionId{1}, ProcessId{2});
  EXPECT_EQ(action, RecoveryAction::kStopProcess);
  ASSERT_EQ(actions_.size(), 1u);
  EXPECT_EQ(actions_[0], "stop_process 1/2");
}

TEST_F(HmTest, ConfiguredActionOverridesTheDefault) {
  HmTable table;
  table.set(ErrorCode::kNumericError, ErrorLevel::kProcess,
            RecoveryAction::kRestartProcess);
  monitor_.set_partition_table(PartitionId{1}, table);
  monitor_.report(10, ErrorCode::kNumericError, ErrorLevel::kProcess,
                  PartitionId{1}, ProcessId{2});
  ASSERT_EQ(actions_.size(), 1u);
  EXPECT_EQ(actions_[0], "restart_process 1/2");
}

TEST_F(HmTest, PartitionLevelDefaultIsWarmRestart) {
  monitor_.report(10, ErrorCode::kMemoryViolation, ErrorLevel::kPartition,
                  PartitionId{3}, ProcessId::invalid());
  ASSERT_EQ(actions_.size(), 1u);
  EXPECT_EQ(actions_[0], "warm_restart 3");
}

TEST_F(HmTest, ModuleLevelErrorsUseTheModuleTable) {
  HmTable table;
  table.set(ErrorCode::kPowerFail, ErrorLevel::kModule,
            RecoveryAction::kResetModule);
  monitor_.set_module_table(table);
  monitor_.report(10, ErrorCode::kPowerFail, ErrorLevel::kModule,
                  PartitionId::invalid(), ProcessId::invalid());
  ASSERT_EQ(actions_.size(), 1u);
  EXPECT_EQ(actions_[0], "reset_module");
}

TEST_F(HmTest, LogThresholdDefersTheAction) {
  // "Logging the error a certain number of times before acting upon it."
  HmTable table;
  table.set(ErrorCode::kDeadlineMissed, ErrorLevel::kProcess,
            RecoveryAction::kStopProcess, /*log_threshold=*/3);
  monitor_.set_partition_table(PartitionId{0}, table);

  for (int i = 0; i < 2; ++i) {
    const auto action =
        monitor_.report(i, ErrorCode::kDeadlineMissed, ErrorLevel::kProcess,
                        PartitionId{0}, ProcessId{1});
    EXPECT_EQ(action, RecoveryAction::kIgnore);
  }
  EXPECT_TRUE(actions_.empty());
  const auto third =
      monitor_.report(2, ErrorCode::kDeadlineMissed, ErrorLevel::kProcess,
                      PartitionId{0}, ProcessId{1});
  EXPECT_EQ(third, RecoveryAction::kStopProcess);
  ASSERT_EQ(actions_.size(), 1u);
  // All three occurrences were logged.
  EXPECT_EQ(monitor_.log().size(), 3u);
  EXPECT_TRUE(monitor_.log()[0].deferred_by_threshold);
  EXPECT_FALSE(monitor_.log()[2].deferred_by_threshold);
}

TEST_F(HmTest, OccurrencesAreCountedPerPartitionAndCode) {
  monitor_.report(1, ErrorCode::kDeadlineMissed, ErrorLevel::kProcess,
                  PartitionId{0}, ProcessId{1});
  monitor_.report(2, ErrorCode::kDeadlineMissed, ErrorLevel::kProcess,
                  PartitionId{1}, ProcessId{1});
  monitor_.report(3, ErrorCode::kApplicationError, ErrorLevel::kProcess,
                  PartitionId{0}, ProcessId{1});
  EXPECT_EQ(monitor_.error_count(PartitionId{0}, ErrorCode::kDeadlineMissed),
            1u);
  EXPECT_EQ(monitor_.error_count(PartitionId{1}, ErrorCode::kDeadlineMissed),
            1u);
  EXPECT_EQ(monitor_.error_count(PartitionId{0}, ErrorCode::kApplicationError),
            1u);
  EXPECT_EQ(monitor_.error_count(PartitionId{2}, ErrorCode::kDeadlineMissed),
            0u);
}

TEST_F(HmTest, ProcessLevelErrorsGoToTheErrorHandlerFirst) {
  bool handler_called = false;
  monitor_.invoke_error_handler = [&](PartitionId, const ErrorReport& r) {
    handler_called = true;
    EXPECT_EQ(r.code, ErrorCode::kApplicationError);
    return true;  // partition has a handler
  };
  const auto action =
      monitor_.report(5, ErrorCode::kApplicationError, ErrorLevel::kProcess,
                      PartitionId{0}, ProcessId{1});
  EXPECT_TRUE(handler_called);
  EXPECT_EQ(action, RecoveryAction::kIgnore) << "handler owns recovery";
  EXPECT_TRUE(actions_.empty());
  ASSERT_EQ(monitor_.log().size(), 1u);
  EXPECT_TRUE(monitor_.log()[0].handled_by_error_handler);
}

TEST_F(HmTest, TableActsWhenNoHandlerExists) {
  monitor_.invoke_error_handler = [](PartitionId, const ErrorReport&) {
    return false;  // no handler created
  };
  monitor_.report(5, ErrorCode::kApplicationError, ErrorLevel::kProcess,
                  PartitionId{0}, ProcessId{1});
  ASSERT_EQ(actions_.size(), 1u);
  EXPECT_EQ(actions_[0], "stop_process 0/1");
}

TEST_F(HmTest, PartitionLevelErrorsBypassTheHandler) {
  bool handler_called = false;
  monitor_.invoke_error_handler = [&](PartitionId, const ErrorReport&) {
    handler_called = true;
    return true;
  };
  monitor_.report(5, ErrorCode::kMemoryViolation, ErrorLevel::kPartition,
                  PartitionId{0}, ProcessId::invalid());
  EXPECT_FALSE(handler_called);
  ASSERT_EQ(actions_.size(), 1u);
}

TEST_F(HmTest, ReportHookSeesTheFinalReport) {
  std::vector<RecoveryAction> seen;
  monitor_.on_report = [&](const ErrorReport& r) {
    seen.push_back(r.action_taken);
  };
  monitor_.report(5, ErrorCode::kNumericError, ErrorLevel::kProcess,
                  PartitionId{0}, ProcessId{1});
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], RecoveryAction::kStopProcess);
}

TEST_F(HmTest, BoundedLogKeepsTheNewestAndCountsEvictions) {
  auto report_at = [this](Ticks t) {
    monitor_.report(t, ErrorCode::kApplicationError, ErrorLevel::kProcess,
                    PartitionId{0}, ProcessId{1}, std::to_string(t));
  };
  std::vector<Ticks> hooked;
  monitor_.on_report = [&](const ErrorReport& r) { hooked.push_back(r.time); };
  monitor_.set_log_capacity(3);
  EXPECT_TRUE(monitor_.log().empty());
  for (Ticks t = 1; t <= 7; ++t) report_at(t);
  ASSERT_EQ(monitor_.log().size(), 3u);
  EXPECT_EQ(monitor_.dropped_reports(), 4u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(monitor_.log()[i].time, static_cast<Ticks>(5 + i));
    EXPECT_EQ(monitor_.log()[i].message, std::to_string(5 + i));
  }
  EXPECT_EQ(hooked, (std::vector<Ticks>{1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(monitor_.error_count(PartitionId{0}, ErrorCode::kApplicationError),
            7u);

  monitor_.clear_log();
  EXPECT_TRUE(monitor_.log().empty());
  EXPECT_EQ(monitor_.dropped_reports(), 0u);
  report_at(8);
  ASSERT_EQ(monitor_.log().size(), 1u);
  EXPECT_EQ(monitor_.log()[0].time, 8);
  EXPECT_EQ(monitor_.dropped_reports(), 0u);
}

}  // namespace
}  // namespace air::hm
