// POS kernel tests: the heir rule of eq. (14) for the RT kernel
// (priority-preemptive, FIFO within priority), process state machinery,
// timed wake-ups, preemption locking, and the generic kernel's round-robin
// and paravirtualisation behaviour. A differential test drives both
// kernels through random operation sequences against a reference model of
// their election rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "pos/generic_kernel.hpp"
#include "pos/rt_kernel.hpp"

namespace air::pos {
namespace {

ProcessAttributes attrs(std::string name, Priority priority,
                        Ticks period = kInfiniteTime) {
  ProcessAttributes a;
  a.name = std::move(name);
  a.priority = priority;
  a.period = period;
  return a;
}

class RtKernelTest : public ::testing::Test {
 protected:
  ProcessId spawn(std::string name, Priority priority) {
    const ProcessId pid = kernel_.create_process(attrs(std::move(name), priority));
    kernel_.pcb(pid)->current_priority = priority;
    return pid;
  }

  RtKernel kernel_;
};

TEST_F(RtKernelTest, HighestPriorityReadyProcessWins) {
  const ProcessId low = spawn("low", 50);
  const ProcessId high = spawn("high", 10);
  kernel_.make_ready(low);
  kernel_.make_ready(high);
  EXPECT_EQ(kernel_.schedule(), high);
  EXPECT_EQ(kernel_.pcb(high)->state, ProcessState::kRunning);
  EXPECT_EQ(kernel_.pcb(low)->state, ProcessState::kReady);
}

TEST_F(RtKernelTest, FifoWithinPriorityPicksTheOldest) {
  // eq. (14) tie-break: equal priority -> oldest in the ready state.
  const ProcessId first = spawn("first", 20);
  const ProcessId second = spawn("second", 20);
  kernel_.make_ready(first);
  kernel_.make_ready(second);
  EXPECT_EQ(kernel_.schedule(), first);
  // Blocking the first hands over to the second.
  kernel_.block(first, WaitReason::kDelay, 100);
  EXPECT_EQ(kernel_.schedule(), second);
  // When the first wakes it goes to the back of the queue.
  kernel_.wake(first, WakeResult::kOk);
  EXPECT_EQ(kernel_.schedule(), second);
}

TEST_F(RtKernelTest, RunningProcessIsNotPreemptedByEqualPriority) {
  const ProcessId a = spawn("a", 20);
  kernel_.make_ready(a);
  EXPECT_EQ(kernel_.schedule(), a);
  const ProcessId b = spawn("b", 20);
  kernel_.make_ready(b);
  EXPECT_EQ(kernel_.schedule(), a) << "same priority must not preempt";
}

TEST_F(RtKernelTest, HigherPriorityArrivalPreempts) {
  const ProcessId low = spawn("low", 50);
  kernel_.make_ready(low);
  EXPECT_EQ(kernel_.schedule(), low);
  const ProcessId high = spawn("high", 5);
  kernel_.make_ready(high);
  EXPECT_EQ(kernel_.schedule(), high);
  EXPECT_EQ(kernel_.pcb(low)->state, ProcessState::kReady)
      << "preempted process returns to ready";
}

TEST_F(RtKernelTest, SetPriorityRequeuesAsNewest) {
  const ProcessId a = spawn("a", 20);
  const ProcessId b = spawn("b", 20);
  const ProcessId c = spawn("c", 30);
  kernel_.make_ready(a);
  kernel_.make_ready(b);
  kernel_.make_ready(c);
  // Raising c to 20 places it behind a and b.
  kernel_.set_priority(c, 20);
  EXPECT_EQ(kernel_.schedule(), a);
  kernel_.make_dormant(a);
  EXPECT_EQ(kernel_.schedule(), b);
  kernel_.make_dormant(b);
  EXPECT_EQ(kernel_.schedule(), c);
}

TEST_F(RtKernelTest, LoweringTheRunningProcessPriorityPreempts) {
  const ProcessId a = spawn("a", 10);
  const ProcessId b = spawn("b", 20);
  kernel_.make_ready(a);
  kernel_.make_ready(b);
  EXPECT_EQ(kernel_.schedule(), a);
  kernel_.set_priority(a, 30);
  EXPECT_EQ(kernel_.schedule(), b);
}

TEST_F(RtKernelTest, PreemptionLockKeepsTheCurrentProcess) {
  const ProcessId low = spawn("low", 50);
  kernel_.make_ready(low);
  EXPECT_EQ(kernel_.schedule(), low);
  kernel_.lock_preemption();
  const ProcessId high = spawn("high", 5);
  kernel_.make_ready(high);
  EXPECT_EQ(kernel_.schedule(), low) << "preemption locked";
  kernel_.unlock_preemption();
  EXPECT_EQ(kernel_.schedule(), high);
}

TEST_F(RtKernelTest, TickAnnounceWakesExpiredWaits) {
  const ProcessId a = spawn("a", 10);
  const ProcessId b = spawn("b", 20);
  kernel_.make_ready(a);
  kernel_.make_ready(b);
  kernel_.block(a, WaitReason::kDelay, 10);
  kernel_.block(b, WaitReason::kDelay, 5);
  kernel_.tick_announce(4, 4);
  EXPECT_EQ(kernel_.pcb(a)->state, ProcessState::kWaiting);
  EXPECT_EQ(kernel_.pcb(b)->state, ProcessState::kWaiting);
  kernel_.tick_announce(10, 6);
  EXPECT_EQ(kernel_.pcb(a)->state, ProcessState::kReady);
  EXPECT_EQ(kernel_.pcb(b)->state, ProcessState::kReady);
  EXPECT_EQ(kernel_.pcb(a)->wake_result, WakeResult::kOk);
}

TEST_F(RtKernelTest, BatchedAnnounceWakesEverythingInBetween) {
  // The surrogate announce after partition inactivity passes elapsed > 1;
  // every wait expiring in the gap must wake.
  const ProcessId a = spawn("a", 10);
  kernel_.make_ready(a);
  kernel_.block(a, WaitReason::kDelay, 3);
  kernel_.tick_announce(100, 100);
  EXPECT_EQ(kernel_.pcb(a)->state, ProcessState::kReady);
}

TEST_F(RtKernelTest, SemaphoreStyleTimeoutYieldsTimeoutResult) {
  const ProcessId a = spawn("a", 10);
  kernel_.make_ready(a);
  kernel_.block(a, WaitReason::kSemaphore, 7);
  kernel_.tick_announce(7, 7);
  EXPECT_EQ(kernel_.pcb(a)->state, ProcessState::kReady);
  EXPECT_EQ(kernel_.pcb(a)->wake_result, WakeResult::kTimeout);
}

TEST_F(RtKernelTest, SuspendDefersWakeUntilResume) {
  const ProcessId a = spawn("a", 10);
  kernel_.make_ready(a);
  kernel_.block(a, WaitReason::kSemaphore, kInfiniteTime);
  kernel_.suspend(a, kInfiniteTime);
  // The semaphore becomes available while suspended.
  kernel_.wake(a, WakeResult::kOk);
  EXPECT_EQ(kernel_.pcb(a)->state, ProcessState::kWaiting)
      << "suspended process stays ineligible";
  kernel_.resume(a);
  EXPECT_EQ(kernel_.pcb(a)->state, ProcessState::kReady);
  EXPECT_EQ(kernel_.pcb(a)->wake_result, WakeResult::kOk);
}

TEST_F(RtKernelTest, MakeDormantClearsFromQueues) {
  const ProcessId a = spawn("a", 10);
  kernel_.make_ready(a);
  EXPECT_EQ(kernel_.schedule(), a);
  kernel_.make_dormant(a);
  EXPECT_EQ(kernel_.schedule(), ProcessId::invalid());
  EXPECT_EQ(kernel_.pcb(a)->state, ProcessState::kDormant);
}

TEST_F(RtKernelTest, ResetAllRewindsEveryProcess) {
  const ProcessId a = spawn("a", 10);
  kernel_.make_ready(a);
  kernel_.pcb(a)->pc = 3;
  kernel_.pcb(a)->absolute_deadline = 99;
  kernel_.reset_all();
  EXPECT_EQ(kernel_.pcb(a)->state, ProcessState::kDormant);
  EXPECT_EQ(kernel_.pcb(a)->pc, 0u);
  EXPECT_EQ(kernel_.pcb(a)->absolute_deadline, kInfiniteTime);
  EXPECT_EQ(kernel_.schedule(), ProcessId::invalid());
}

TEST_F(RtKernelTest, StateChangeHookObservesTransitions) {
  std::vector<std::pair<ProcessId, ProcessState>> events;
  kernel_.on_state_change = [&](ProcessId pid, ProcessState state) {
    events.emplace_back(pid, state);
  };
  const ProcessId a = spawn("a", 10);
  kernel_.make_ready(a);
  (void)kernel_.schedule();
  kernel_.block(a, WaitReason::kDelay, 5);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].second, ProcessState::kReady);
  EXPECT_EQ(events[1].second, ProcessState::kRunning);
  EXPECT_EQ(events[2].second, ProcessState::kWaiting);
}

TEST_F(RtKernelTest, FindProcessByName) {
  const ProcessId a = spawn("alpha", 10);
  EXPECT_EQ(kernel_.find_process("alpha"), a);
  EXPECT_FALSE(kernel_.find_process("beta").valid());
}

// ---------- GenericKernel ----------

TEST(GenericKernel, RoundRobinRotatesThroughReadyProcesses) {
  GenericKernel kernel;
  const ProcessId a = kernel.create_process(attrs("a", 10));
  const ProcessId b = kernel.create_process(attrs("b", 200));
  const ProcessId c = kernel.create_process(attrs("c", 50));
  kernel.make_ready(a);
  kernel.make_ready(b);
  kernel.make_ready(c);
  // Priorities are ignored; each schedule() call advances the rotation.
  EXPECT_EQ(kernel.schedule(), a);
  EXPECT_EQ(kernel.schedule(), b);
  EXPECT_EQ(kernel.schedule(), c);
  EXPECT_EQ(kernel.schedule(), a);
}

TEST(GenericKernel, ParavirtTrapRefusesClockManipulation) {
  GenericKernel kernel;
  int traps = 0;
  kernel.on_paravirt_trap = [&] { ++traps; };
  EXPECT_FALSE(kernel.try_disable_clock_interrupt());
  EXPECT_FALSE(kernel.try_disable_clock_interrupt());
  EXPECT_EQ(kernel.paravirt_traps(), 2u);
  EXPECT_EQ(traps, 2);
}

TEST(GenericKernel, SetPriorityIsRecordedButNotHonoured) {
  GenericKernel kernel;
  const ProcessId a = kernel.create_process(attrs("a", 10));
  const ProcessId b = kernel.create_process(attrs("b", 20));
  kernel.make_ready(a);
  kernel.make_ready(b);
  kernel.set_priority(b, 1);  // "highest"
  EXPECT_EQ(kernel.pcb(b)->current_priority, 1);
  EXPECT_EQ(kernel.schedule(), a) << "round robin ignores priorities";
}

// ---------- differential test against a reference model ----------

// The election rules written the obvious way: one FIFO per priority level
// for eq. (14), one rotating list for the generic kernel. The model follows
// the ready-set membership each operation produces and checks every
// election the kernel makes.
class ElectionModel {
 public:
  ElectionModel(bool rt, std::vector<Priority> base)
      : rt_(rt), base_(base), priority_(std::move(base)) {}

  void entered(ProcessId id) {
    if (rt_) {
      fifo_[level(id)].push_back(id);
    } else {
      rotation_.push_back(id);
    }
  }

  void left(ProcessId id) {
    auto& list = rt_ ? fifo_[level(id)] : rotation_;
    const auto it = std::find(list.begin(), list.end(), id);
    ASSERT_NE(it, list.end());
    list.erase(it);
    if (current_ == id) current_ = ProcessId::invalid();
  }

  void set_priority(ProcessId id, Priority priority, bool schedulable) {
    if (!rt_ || priority_[index(id)] == priority) {
      priority_[index(id)] = priority;
      return;
    }
    const ProcessId keep = current_;  // a requeue does not deschedule
    if (schedulable) left(id);
    priority_[index(id)] = priority;
    if (schedulable) entered(id);  // newest at its new priority
    current_ = keep;
  }

  void reset_all() {
    for (auto& fifo : fifo_) fifo.clear();
    rotation_.clear();
    priority_ = base_;
    current_ = ProcessId::invalid();
    lock_ = 0;
  }

  void lock() { ++lock_; }
  void unlock() {
    if (lock_ > 0) --lock_;
  }

  // current_ is invalidated whenever it leaves the ready set, so a valid
  // current_ is always schedulable.
  [[nodiscard]] ProcessId peek() const {
    if (rt_) {
      if (lock_ > 0 && current_.valid()) return current_;
      for (const auto& fifo : fifo_) {
        if (!fifo.empty()) return fifo.front();
      }
      return ProcessId::invalid();
    }
    if (rotation_.empty()) return ProcessId::invalid();
    if (current_.valid() && rotation_.size() > 1 &&
        rotation_.front() == current_) {
      return rotation_[1];
    }
    return rotation_.front();
  }

  void elected(ProcessId heir) {
    if (!rt_ && heir.valid() && heir != rotation_.front()) {
      rotation_.pop_front();
      rotation_.push_back(current_);
    }
    current_ = heir;
  }

  [[nodiscard]] ProcessId current() const { return current_; }
  [[nodiscard]] Priority priority(ProcessId id) const {
    return priority_[index(id)];
  }

 private:
  static std::size_t index(ProcessId id) {
    return static_cast<std::size_t>(id.value());
  }
  std::size_t level(ProcessId id) const {
    return static_cast<std::size_t>(priority_[index(id)]);
  }

  bool rt_;
  std::vector<Priority> base_;
  std::vector<Priority> priority_;
  std::array<std::deque<ProcessId>, RtKernel::kPriorityLevels> fifo_;
  std::deque<ProcessId> rotation_;
  ProcessId current_{ProcessId::invalid()};
  int lock_{0};
};

template <typename Kernel>
void run_differential(std::uint32_t seed) {
  constexpr bool kRt = std::is_same_v<Kernel, RtKernel>;
  constexpr int kProcesses = 7;
  // Few priority levels, so ties (the age tie-break) are common; 255 keeps
  // the bottom of the range in play.
  constexpr std::array<Priority, 5> kLevels{0, 1, 2, 3, 255};
  std::mt19937 rng(seed);
  Kernel kernel;
  std::vector<Priority> base;
  for (int i = 0; i < kProcesses; ++i) {
    const Priority p = kLevels[rng() % kLevels.size()];
    kernel.create_process(attrs("p" + std::to_string(i), p));
    base.push_back(p);
  }
  ElectionModel model(kRt, base);

  const auto schedulable = [&kernel](ProcessId id) {
    return kernel.pcb(id)->schedulable();
  };
  const auto schedulable_count = [&] {
    std::size_t n = 0;
    for (int i = 0; i < kProcesses; ++i) n += schedulable(ProcessId{i});
    return n;
  };

  for (int step = 0; step < 3000; ++step) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " step " << step);
    const ProcessId id{static_cast<std::int32_t>(rng() % kProcesses)};
    const bool was = schedulable(id);
    const std::uint32_t op = rng() % 13;
    switch (op) {
      case 0:
      case 1:
        kernel.make_ready(id);
        EXPECT_TRUE(schedulable(id));
        break;
      case 2:
        if (was) {
          kernel.block(id, WaitReason::kSemaphore, kInfiniteTime);
          EXPECT_FALSE(schedulable(id));
        }
        break;
      case 3:
        kernel.wake(id, WakeResult::kOk);
        break;
      case 4:
        kernel.suspend(id, kInfiniteTime);
        EXPECT_FALSE(schedulable(id));
        break;
      case 5:
        kernel.resume(id);
        break;
      case 6: {
        const Priority p = kLevels[rng() % kLevels.size()];
        kernel.set_priority(id, p);
        model.set_priority(id, p, was);
        break;
      }
      case 7:
        kernel.lock_preemption();
        model.lock();
        break;
      case 8:
        kernel.unlock_preemption();
        model.unlock();
        break;
      case 9:
        if (rng() % 4 == 0) {
          kernel.make_dormant(id);
          EXPECT_EQ(kernel.pcb(id)->state, ProcessState::kDormant);
        }
        break;
      case 10:
        if (rng() % 16 == 0) {
          kernel.reset_all();
          model.reset_all();
          EXPECT_EQ(schedulable_count(), 0u);
        }
        break;
      case 11:
        ASSERT_EQ(kernel.peek_heir(), model.peek());
        break;
      default: {
        const ProcessId expected = model.peek();
        const ProcessId heir = kernel.schedule();
        ASSERT_EQ(heir, expected);
        model.elected(heir);
        if (heir.valid()) {
          EXPECT_EQ(kernel.pcb(heir)->state, ProcessState::kRunning);
        }
        break;
      }
    }
    // Membership: every other operation changes at most `id`'s; the model
    // already applied reset_all and set_priority itself.
    const bool is = schedulable(id);
    if (op != 10 && op != 6) {
      if (!was && is) model.entered(id);
      if (was && !is) model.left(id);
    }
    ASSERT_EQ(kernel.ready_depth(), schedulable_count());
    ASSERT_EQ(kernel.current(), model.current());
    for (int i = 0; i < kProcesses; ++i) {
      ASSERT_EQ(kernel.pcb(ProcessId{i})->current_priority,
                model.priority(ProcessId{i}));
    }
    ASSERT_EQ(kernel.peek_heir(), model.peek());
  }
}

TEST(KernelDifferential, RtKernelElectsLikePerPriorityFifos) {
  for (std::uint32_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    run_differential<RtKernel>(seed);
  }
}

TEST(KernelDifferential, GenericKernelElectsLikeARotatingList) {
  for (std::uint32_t seed : {11u, 12u, 13u, 14u, 15u, 16u, 17u, 18u}) {
    run_differential<GenericKernel>(seed);
  }
}

}  // namespace
}  // namespace air::pos
