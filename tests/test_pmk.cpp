// PMK unit tests: schedule compilation, the Partition Scheduler
// (Algorithm 1) and the Partition Dispatcher (Algorithm 2) in isolation.
#include <gtest/gtest.h>

#include "pmk/partition_dispatcher.hpp"
#include "pmk/partition_scheduler.hpp"
#include "pmk/schedule.hpp"

namespace air::pmk {
namespace {

model::Schedule two_window_schedule(ScheduleId id = ScheduleId{0}) {
  model::Schedule s;
  s.id = id;
  s.mtf = 100;
  s.requirements = {{PartitionId{0}, 100, 40}, {PartitionId{1}, 100, 30}};
  s.windows = {{PartitionId{0}, 0, 40}, {PartitionId{1}, 50, 30}};
  return s;
}

// ---------- compile_schedule ----------

TEST(CompileSchedule, InsertsIdlePointsForGaps) {
  const RuntimeSchedule rt = compile_schedule(two_window_schedule());
  // Points: P0@0, idle@40, P1@50, idle@80.
  ASSERT_EQ(rt.table.size(), 4u);
  EXPECT_EQ(rt.table[0].tick, 0);
  EXPECT_EQ(rt.table[0].partition, PartitionId{0});
  EXPECT_EQ(rt.table[1].tick, 40);
  EXPECT_FALSE(rt.table[1].partition.valid());
  EXPECT_EQ(rt.table[2].tick, 50);
  EXPECT_EQ(rt.table[2].partition, PartitionId{1});
  EXPECT_EQ(rt.table[3].tick, 80);
  EXPECT_FALSE(rt.table[3].partition.valid());
}

TEST(CompileSchedule, LeadingGapGetsAnIdlePointAtZero) {
  model::Schedule s = two_window_schedule();
  s.windows[0].offset = 10;
  s.windows[0].duration = 30;
  const RuntimeSchedule rt = compile_schedule(s);
  EXPECT_EQ(rt.table.front().tick, 0);
  EXPECT_FALSE(rt.table.front().partition.valid());
}

TEST(CompileSchedule, BackToBackWindowsHaveNoIdlePoint) {
  model::Schedule s;
  s.id = ScheduleId{0};
  s.mtf = 100;
  s.requirements = {{PartitionId{0}, 100, 50}, {PartitionId{1}, 100, 50}};
  s.windows = {{PartitionId{0}, 0, 50}, {PartitionId{1}, 50, 50}};
  const RuntimeSchedule rt = compile_schedule(s);
  ASSERT_EQ(rt.table.size(), 2u);
}

// ---------- Algorithm 1 ----------

class SchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scheduler_.add_schedule(compile_schedule(two_window_schedule()));
    model::Schedule alt = two_window_schedule(ScheduleId{1});
    alt.windows = {{PartitionId{1}, 0, 30}, {PartitionId{0}, 30, 40}};
    scheduler_.add_schedule(compile_schedule(alt));
    scheduler_.set_initial_schedule(ScheduleId{0});
  }

  PartitionScheduler scheduler_;
};

TEST_F(SchedulerTest, FollowsThePreemptionPointTable) {
  std::vector<std::pair<Ticks, std::int32_t>> changes;
  PartitionId last = PartitionId{-2};
  for (Ticks t = 0; t < 200; ++t) {
    scheduler_.tick();
    if (scheduler_.heir_partition() != last) {
      last = scheduler_.heir_partition();
      changes.emplace_back(t, last.value());
    }
  }
  // P0@0, idle@40, P1@50, idle@80, then the same pattern next MTF.
  ASSERT_GE(changes.size(), 8u);
  EXPECT_EQ(changes[0], (std::pair<Ticks, std::int32_t>{0, 0}));
  EXPECT_EQ(changes[1], (std::pair<Ticks, std::int32_t>{40, -1}));
  EXPECT_EQ(changes[2], (std::pair<Ticks, std::int32_t>{50, 1}));
  EXPECT_EQ(changes[3], (std::pair<Ticks, std::int32_t>{80, -1}));
  EXPECT_EQ(changes[4], (std::pair<Ticks, std::int32_t>{100, 0}));
}

TEST_F(SchedulerTest, BestCaseTickHitsNoPreemptionPoint) {
  // Sect. 4.3: the most frequent case is a tick with no point reached.
  scheduler_.tick();  // t=0, point hit
  EXPECT_FALSE(scheduler_.tick());  // t=1
  EXPECT_FALSE(scheduler_.tick());  // t=2
  EXPECT_EQ(scheduler_.preemption_points_hit(), 1u);
  EXPECT_EQ(scheduler_.tick_count(), 3u);
}

TEST_F(SchedulerTest, SwitchRequestIsDeferredToTheMtfBoundary) {
  // Run into the MTF before requesting (a request landing exactly on a
  // boundary takes effect immediately -- the boundary *is* the switch
  // point).
  for (Ticks t = 0; t < 10; ++t) scheduler_.tick();
  ASSERT_TRUE(scheduler_.request_schedule(ScheduleId{1}));
  const auto pending = scheduler_.status();
  EXPECT_EQ(pending.current, ScheduleId{0});
  EXPECT_EQ(pending.next, ScheduleId{1});
  EXPECT_EQ(pending.last_switch_time, 0) << "no switch occurred yet";

  // The rest of the first MTF still follows schedule 0.
  for (Ticks t = 10; t < 100; ++t) {
    scheduler_.tick();
    if (t == 50) EXPECT_EQ(scheduler_.heir_partition(), PartitionId{1});
  }
  // t=100: MTF boundary, schedule 1 becomes effective; its first window
  // belongs to partition 1.
  scheduler_.tick();
  EXPECT_EQ(scheduler_.heir_partition(), PartitionId{1});
  const auto status = scheduler_.status();
  EXPECT_EQ(status.current, ScheduleId{1});
  EXPECT_EQ(status.last_switch_time, 100);
}

TEST_F(SchedulerTest, LastRequestBeforeBoundaryWins) {
  // Sect. 4.2: SET_MODULE_SCHEDULE only stores the identifier; repeated
  // calls overwrite it and the boundary honours the latest.
  ASSERT_TRUE(scheduler_.request_schedule(ScheduleId{1}));
  ASSERT_TRUE(scheduler_.request_schedule(ScheduleId{0}));
  for (Ticks t = 0; t <= 150; ++t) scheduler_.tick();
  EXPECT_EQ(scheduler_.status().current, ScheduleId{0});
  EXPECT_EQ(scheduler_.status().last_switch_time, 0) << "no actual switch";
}

TEST_F(SchedulerTest, RequestForUnknownScheduleFails) {
  EXPECT_FALSE(scheduler_.request_schedule(ScheduleId{7}));
}

TEST_F(SchedulerTest, SwitchCallbackFires) {
  std::vector<std::pair<std::int32_t, std::int32_t>> switches;
  scheduler_.on_schedule_switch = [&](ScheduleId next, ScheduleId old) {
    switches.emplace_back(next.value(), old.value());
  };
  ASSERT_TRUE(scheduler_.request_schedule(ScheduleId{1}));
  for (Ticks t = 0; t <= 100; ++t) scheduler_.tick();
  ASSERT_EQ(switches.size(), 1u);
  EXPECT_EQ(switches[0], (std::pair<std::int32_t, std::int32_t>{1, 0}));
}

TEST_F(SchedulerTest, SchedulesWithDifferentMtfs) {
  PartitionScheduler scheduler;
  model::Schedule small;
  small.id = ScheduleId{0};
  small.mtf = 50;
  small.requirements = {{PartitionId{0}, 50, 50}};
  small.windows = {{PartitionId{0}, 0, 50}};
  model::Schedule large;
  large.id = ScheduleId{1};
  large.mtf = 80;
  large.requirements = {{PartitionId{1}, 80, 80}};
  large.windows = {{PartitionId{1}, 0, 80}};
  scheduler.add_schedule(compile_schedule(small));
  scheduler.add_schedule(compile_schedule(large));
  scheduler.set_initial_schedule(ScheduleId{0});

  scheduler.tick();  // t=0: enter the first MTF before requesting
  ASSERT_TRUE(scheduler.request_schedule(ScheduleId{1}));
  for (Ticks t = 1; t < 50; ++t) scheduler.tick();
  EXPECT_EQ(scheduler.status().current, ScheduleId{0});
  scheduler.tick();  // t=50: boundary of the 50-tick MTF
  EXPECT_EQ(scheduler.status().current, ScheduleId{1});
  EXPECT_EQ(scheduler.heir_partition(), PartitionId{1});
  // The new MTF is 80 ticks long: next boundary at 130.
  ASSERT_TRUE(scheduler.request_schedule(ScheduleId{0}));
  for (Ticks t = 51; t < 130; ++t) {
    scheduler.tick();
    ASSERT_EQ(scheduler.status().current, ScheduleId{1}) << "t=" << t;
  }
  scheduler.tick();
  EXPECT_EQ(scheduler.status().current, ScheduleId{0});
  EXPECT_EQ(scheduler.status().last_switch_time, 130);
}

// ---------- Algorithm 2 ----------

class DispatcherTest : public ::testing::Test {
 protected:
  DispatcherTest() {
    for (int i = 0; i < 2; ++i) {
      PartitionControlBlock pcb;
      pcb.id = PartitionId{i};
      pcb.name = "P" + std::to_string(i);
      pcb.last_tick = -1;
      pcbs_.push_back(std::move(pcb));
    }
    dispatcher_ = std::make_unique<PartitionDispatcher>(pcbs_, nullptr);
  }

  std::vector<PartitionControlBlock> pcbs_;
  std::unique_ptr<PartitionDispatcher> dispatcher_;
};

TEST_F(DispatcherTest, SamePartitionElapsesOneTick) {
  auto first = dispatcher_->dispatch(PartitionId{0}, 0);
  EXPECT_TRUE(first.context_switched);
  EXPECT_EQ(first.elapsed_ticks, 1) << "first dispatch: ticks since -1";
  auto second = dispatcher_->dispatch(PartitionId{0}, 1);
  EXPECT_FALSE(second.context_switched);
  EXPECT_EQ(second.elapsed_ticks, 1);
}

TEST_F(DispatcherTest, RedispatchAnnouncesTheWholeGap) {
  // P0 runs ticks 0..4, P1 runs 5..9, P0 resumes at 10: P0's announce must
  // cover the 5 ticks it missed plus its own (Algorithm 2 line 6).
  for (Ticks t = 0; t < 5; ++t) dispatcher_->dispatch(PartitionId{0}, t);
  for (Ticks t = 5; t < 10; ++t) dispatcher_->dispatch(PartitionId{1}, t);
  const auto result = dispatcher_->dispatch(PartitionId{0}, 10);
  EXPECT_TRUE(result.context_switched);
  // lastTick was stamped 4 when P0 was switched out; 10 - 4 = 6.
  EXPECT_EQ(result.elapsed_ticks, 6);
}

TEST_F(DispatcherTest, IdleSlotHasNoActivePartition) {
  dispatcher_->dispatch(PartitionId{0}, 0);
  const auto idle = dispatcher_->dispatch(PartitionId::invalid(), 1);
  EXPECT_FALSE(idle.active.valid());
  EXPECT_EQ(idle.elapsed_ticks, 0);
  // Coming back from idle still accounts the gap: P0 last saw tick 0, so
  // ticks 1..5 (five of them) are announced.
  const auto back = dispatcher_->dispatch(PartitionId{0}, 5);
  EXPECT_EQ(back.elapsed_ticks, 5);
}

TEST_F(DispatcherTest, ContextSaveRestoreCountsTrackSwitches) {
  dispatcher_->dispatch(PartitionId{0}, 0);
  dispatcher_->dispatch(PartitionId{1}, 1);
  dispatcher_->dispatch(PartitionId{0}, 2);
  EXPECT_EQ(pcbs_[0].context_restores, 2u);
  EXPECT_EQ(pcbs_[0].context_saves, 1u);
  EXPECT_EQ(pcbs_[1].context_saves, 1u);
  EXPECT_EQ(dispatcher_->context_switches(), 3u);
  EXPECT_EQ(dispatcher_->dispatch_count(), 3u);
}

TEST_F(DispatcherTest, PendingChangeActionFiresOnFirstDispatchOnly) {
  std::vector<std::int32_t> fired;
  dispatcher_->on_pending_schedule_change_action = [&](PartitionId id) {
    fired.push_back(id.value());
    pcbs_[static_cast<std::size_t>(id.value())].schedule_change_pending =
        false;
  };
  pcbs_[1].schedule_change_pending = true;
  pcbs_[1].pending_action = ScheduleChangeAction::kWarmRestart;

  dispatcher_->dispatch(PartitionId{0}, 0);
  EXPECT_TRUE(fired.empty());
  dispatcher_->dispatch(PartitionId{1}, 1);  // P1's first dispatch
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 1);
  dispatcher_->dispatch(PartitionId{0}, 2);
  dispatcher_->dispatch(PartitionId{1}, 3);
  EXPECT_EQ(fired.size(), 1u) << "action must fire exactly once";
}

}  // namespace
}  // namespace air::pmk
