#include "system/executor.hpp"

#include <variant>

#include "pos/generic_kernel.hpp"
#include "system/module.hpp"
#include "util/assert.hpp"

namespace air::system {

namespace {

using util::EventKind;

struct OpOutcome {
  bool blocked{false};
  bool jumped{false};
};

/// Interpret one zero-time op. Returns its outcome; stores the service
/// return code in the PCB for observability.
OpOutcome apply_service(Module& module, apex::Apex& apex,
                        pos::ProcessControlBlock& pcb, const pos::Op& op,
                        PartitionId partition, Ticks now, bool resumed) {
  OpOutcome outcome;
  // Receive-style ops copy the message into this scratch; thread_local so
  // its capacity survives across calls (per worker thread under the
  // parallel driver) and the steady state never reallocates it.
  thread_local std::string message_scratch;
  auto done = [&](apex::ReturnCode code) {
    pcb.last_status = static_cast<std::int32_t>(code);
  };
  auto service = [&](apex::ServiceResult result) {
    outcome.blocked = result.blocked;
    if (!result.blocked) done(result.code);
  };

  std::visit(
      [&](const auto& o) {
        using T = std::decay_t<decltype(o)>;
        if constexpr (std::is_same_v<T, pos::OpCompute>) {
          AIR_ASSERT_MSG(false, "OpCompute handled by the caller");
        } else if constexpr (std::is_same_v<T, pos::OpPeriodicWait>) {
          service(apex.periodic_wait());
        } else if constexpr (std::is_same_v<T, pos::OpSporadicWait>) {
          service(apex.sporadic_wait());
        } else if constexpr (std::is_same_v<T, pos::OpReleaseProcess>) {
          ProcessId target;
          if (apex.get_process_id(o.process, target) ==
              apex::ReturnCode::kNoError) {
            done(apex.release_process(target));
          } else {
            done(apex::ReturnCode::kInvalidConfig);
          }
        } else if constexpr (std::is_same_v<T, pos::OpTimedWait>) {
          service(apex.timed_wait(o.delay));
        } else if constexpr (std::is_same_v<T, pos::OpSuspendSelf>) {
          service(apex.suspend_self(o.timeout, resumed));
        } else if constexpr (std::is_same_v<T, pos::OpStopSelf>) {
          done(apex.stop_self());
        } else if constexpr (std::is_same_v<T, pos::OpReplenish>) {
          done(apex.replenish(o.budget));
        } else if constexpr (std::is_same_v<T, pos::OpLockPreemption>) {
          done(apex.lock_preemption());
        } else if constexpr (std::is_same_v<T, pos::OpUnlockPreemption>) {
          done(apex.unlock_preemption());
        } else if constexpr (std::is_same_v<T, pos::OpSemWait>) {
          service(apex.wait_semaphore(SemaphoreId{o.semaphore}, o.timeout,
                                      resumed));
        } else if constexpr (std::is_same_v<T, pos::OpSemSignal>) {
          done(apex.signal_semaphore(SemaphoreId{o.semaphore}));
        } else if constexpr (std::is_same_v<T, pos::OpEventSet>) {
          done(apex.set_event(EventId{o.event}));
        } else if constexpr (std::is_same_v<T, pos::OpEventReset>) {
          done(apex.reset_event(EventId{o.event}));
        } else if constexpr (std::is_same_v<T, pos::OpEventWait>) {
          service(apex.wait_event(EventId{o.event}, o.timeout, resumed));
        } else if constexpr (std::is_same_v<T, pos::OpBufferSend>) {
          service(apex.send_buffer(BufferId{o.buffer}, o.message, o.timeout,
                                   resumed));
        } else if constexpr (std::is_same_v<T, pos::OpBufferReceive>) {
          std::string& message = message_scratch;
          message.clear();
          service(
              apex.receive_buffer(BufferId{o.buffer}, o.timeout, message,
                                  resumed));
        } else if constexpr (std::is_same_v<T, pos::OpBlackboardDisplay>) {
          done(apex.display_blackboard(BlackboardId{o.blackboard}, o.message));
        } else if constexpr (std::is_same_v<T, pos::OpBlackboardRead>) {
          std::string& message = message_scratch;
          message.clear();
          service(apex.read_blackboard(BlackboardId{o.blackboard}, o.timeout,
                                       message, resumed));
        } else if constexpr (std::is_same_v<T, pos::OpSamplingWrite>) {
          done(apex.write_sampling_message(PortId{o.port}, o.message));
          module.trace().record(now, EventKind::kPortSend, partition.value(),
                                o.port,
                                static_cast<std::int64_t>(o.message.size()));
        } else if constexpr (std::is_same_v<T, pos::OpSamplingRead>) {
          std::string& message = message_scratch;
          message.clear();
          bool valid = false;
          done(apex.read_sampling_message(PortId{o.port}, message, valid));
          module.trace().record(now, EventKind::kPortReceive,
                                partition.value(), o.port,
                                valid ? 1 : 0);
        } else if constexpr (std::is_same_v<T, pos::OpQueuingSend>) {
          service(apex.send_queuing_message(PortId{o.port}, o.message,
                                            o.timeout, resumed));
          if (!outcome.blocked) {
            module.trace().record(
                now, EventKind::kPortSend, partition.value(), o.port,
                static_cast<std::int64_t>(o.message.size()));
          }
        } else if constexpr (std::is_same_v<T, pos::OpQueuingReceive>) {
          std::string& message = message_scratch;
          message.clear();
          service(apex.receive_queuing_message(PortId{o.port}, o.timeout,
                                               message, resumed));
          if (!outcome.blocked) {
            module.trace().record(
                now, EventKind::kPortReceive, partition.value(), o.port,
                static_cast<std::int64_t>(message.size()));
          }
        } else if constexpr (std::is_same_v<T, pos::OpSetModuleSchedule>) {
          done(apex.set_module_schedule(ScheduleId{o.schedule}));
          module.trace().record(now, EventKind::kScheduleSwitchReq,
                                o.schedule, partition.value());
        } else if constexpr (std::is_same_v<T, pos::OpRaiseError>) {
          done(apex.raise_application_error(o.code, o.message));
        } else if constexpr (std::is_same_v<T, pos::OpTryDisableClockIrq>) {
          // Paravirtualisation gate (Sect. 2.5): the attempt is refused and
          // trapped no matter which POS issues it.
          if (auto* generic =
                  dynamic_cast<pos::GenericKernel*>(&apex.kernel())) {
            (void)generic->try_disable_clock_interrupt();
          } else {
            module.trace().record(now, EventKind::kClockParavirtTrap,
                                  partition.value());
          }
          done(apex::ReturnCode::kNoError);
        } else if constexpr (std::is_same_v<T, pos::OpMemoryAccess>) {
          std::uint32_t word = 0;
          auto bytes = std::as_writable_bytes(std::span{&word, 1});
          const hal::TranslateResult result =
              o.write ? module.machine().checked_write(
                            o.vaddr, std::as_bytes(std::span{&word, 1}),
                            hal::ExecLevel::kApplication)
                      : module.machine().checked_read(
                            o.vaddr, bytes, hal::ExecLevel::kApplication);
          if (!result.ok()) {
            module.trace().record(now, EventKind::kSpatialViolation,
                                  partition.value(), pcb.id.value(),
                                  static_cast<std::int64_t>(o.vaddr));
            module.metrics().add(telemetry::Metric::kSpatialViolations,
                                 partition.value());
            module.health().report(now, hm::ErrorCode::kMemoryViolation,
                                   hm::ErrorLevel::kProcess, partition,
                                   pcb.id, "access outside partition space");
            done(apex::ReturnCode::kInvalidParam);
          } else {
            done(apex::ReturnCode::kNoError);
          }
        } else if constexpr (std::is_same_v<T, pos::OpStopProcess>) {
          ProcessId target;
          if (apex.get_process_id(o.process, target) ==
              apex::ReturnCode::kNoError) {
            done(apex.stop(target));
          } else {
            done(apex::ReturnCode::kInvalidConfig);
          }
        } else if constexpr (std::is_same_v<T, pos::OpStartProcess>) {
          ProcessId target;
          if (apex.get_process_id(o.process, target) ==
              apex::ReturnCode::kNoError) {
            done(apex.start(target));
          } else {
            done(apex::ReturnCode::kInvalidConfig);
          }
        } else if constexpr (std::is_same_v<T, pos::OpLog>) {
          done(apex.report_application_message(o.text));
        } else if constexpr (std::is_same_v<T, pos::OpGoto>) {
          pcb.pc = o.target;
          outcome.jumped = true;
        }
      },
      op);
  return outcome;
}

/// The running process the next schedule() re-elects, or nullptr when it
/// would elect another one (or none).
const pos::ProcessControlBlock* repeat_heir(
    const pos::KernelDispatch& kernel) {
  const ProcessId pid = kernel.peek_heir();
  if (!pid.valid() || pid != kernel.current()) return nullptr;
  const pos::ProcessControlBlock* pcb = kernel.pcb(pid);
  return pcb->state == pos::ProcessState::kRunning ? pcb : nullptr;
}

}  // namespace

bool Executor::step(Module& module, PartitionId id, Ticks now) {
  auto& apex = module.apex(id);
  // Sealed fast path over the partition's kernel: schedule() + pcb() run
  // once per simulated tick, so they go through the devirtualized dispatch
  // bound at PAL construction rather than the vtable.
  pos::KernelDispatch& kernel = module.pal(id).dispatch();

  bool did_work = false;
  int budget = kMaxServicesPerTick;
  while (budget-- > 0) {
    ProcessId pid;
    {
      // Attribute the heir-election fast path (O(1) bitmap scan) under the
      // executor: "tick;executor;kernel_dispatch" in the host profile.
      telemetry::HostProfiler::Scope scope(
          module.profiler_, telemetry::ProfilePoint::kKernelDispatch);
      pid = kernel.schedule();
    }
    if (!pid.valid()) return did_work;  // nothing schedulable: window slack

    did_work = true;
    pos::ProcessControlBlock& pcb = *kernel.pcb(pid);
    if (pcb.attrs.script.empty()) return true;  // busy idle process

    const pos::Op& op = pcb.attrs.script[pcb.pc];

    if (const auto* compute = std::get_if<pos::OpCompute>(&op)) {
      ++pcb.op_progress;
      if (pcb.op_progress >= compute->ticks) {
        pcb.op_progress = 0;
        pcb.pc = (pcb.pc + 1) % pcb.attrs.script.size();
      }
      return true;  // the tick was spent computing
    }

    const bool resumed = pcb.op_blocked;
    pcb.op_blocked = false;
    const std::uint64_t epoch_before = pcb.start_epoch;
    const OpOutcome outcome =
        apply_service(module, apex, pcb, op, id, now, resumed);

    if (outcome.blocked) {
      pcb.op_blocked = true;
      continue;  // process is waiting; give the tick to the next ready one
    }
    if (module.stopped() ||
        module.partition_pcb(id).mode != pmk::OperatingMode::kNormal) {
      return true;  // the service shut down / restarted the partition
    }
    if (pcb.state == pos::ProcessState::kDormant) {
      continue;  // stopped itself; schedule the next ready process
    }
    if (pcb.start_epoch != epoch_before) {
      continue;  // the call restarted this process from its entry address
    }
    if (!outcome.jumped) {
      pcb.pc = (pcb.pc + 1) % pcb.attrs.script.size();
    }
  }
  // Service budget exhausted: the tick is charged to syscall overhead.
  return true;
}

Ticks Executor::compute_headroom(const pal::Pal& pal) {
  const pos::ProcessControlBlock* pcb = repeat_heir(pal.dispatch());
  if (pcb == nullptr) return 0;
  if (pcb->attrs.script.empty()) return kInfiniteTime;  // busy idle process
  const auto* compute =
      std::get_if<pos::OpCompute>(&pcb->attrs.script[pcb->pc]);
  if (compute == nullptr) return 0;
  // op_progress counts up from 0 to ticks, so the difference cannot
  // overflow; a non-positive length completes on the very next tick.
  const Ticks left = compute->ticks - pcb->op_progress;
  return left > 1 ? left - 1 : 0;
}

bool Executor::advance(pal::Pal& pal, Ticks n) {
  if (pal.kernel().ready_depth() == 0) return false;  // window slack
  AIR_ASSERT_MSG(compute_headroom(pal) >= n,
                 "time-warp span reaches the end of a compute op");
  pos::KernelDispatch& kernel = pal.dispatch();
  kernel.count_repeat_dispatches(static_cast<std::uint64_t>(n));
  pos::ProcessControlBlock& pcb = *kernel.pcb(kernel.current());
  if (!pcb.attrs.script.empty()) pcb.op_progress += n;
  return true;
}

}  // namespace air::system
