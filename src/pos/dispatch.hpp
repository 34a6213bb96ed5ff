// Sealed fast-path dispatch over the concrete POS kernels.
//
// pos::IKernel stays the extension seam -- any operating system can be
// wrapped behind it -- but the per-tick hot path (Algorithm 3's announce,
// the warp engine's next_wake probe, the executor's schedule/pcb pair) paid
// a virtual dispatch per simulated tick for what is, in every stock
// configuration, one of exactly two final classes. KernelDispatch binds
// once at Pal construction: it classifies the kernel (RtKernel /
// GenericKernel / anything else) and routes the hot calls through
// *qualified* member calls on the sealed types, which the compiler can
// resolve -- and, under LTO, inline -- statically. Unknown IKernel
// implementations fall back to plain virtual dispatch, so the fast path is
// an optimization, never a semantic fork (tests/test_kernel_dispatch.cpp
// drives both paths through randomized schedules and asserts identical
// behaviour).
//
// RtKernel and GenericKernel are `final` and KernelBase's table/time
// machinery overrides are `final`: the qualified calls below are provably
// the calls virtual dispatch would have made.
#pragma once

#include "pos/generic_kernel.hpp"
#include "pos/kernel.hpp"
#include "pos/rt_kernel.hpp"
#include "util/assert.hpp"

namespace air::pos {

enum class KernelKind : std::uint8_t { kRt, kGeneric, kVirtual };

class KernelDispatch {
 public:
  KernelDispatch() = default;
  explicit KernelDispatch(IKernel* kernel) { bind(kernel); }

  /// Classify `kernel` once; hot calls thereafter branch on the sealed
  /// kind instead of loading a vtable entry per tick.
  void bind(IKernel* kernel) {
    iface_ = kernel;
    if (dynamic_cast<RtKernel*>(kernel) != nullptr) {
      kind_ = KernelKind::kRt;
    } else if (dynamic_cast<GenericKernel*>(kernel) != nullptr) {
      kind_ = KernelKind::kGeneric;
    } else {
      kind_ = KernelKind::kVirtual;
    }
  }

  [[nodiscard]] IKernel* get() const { return iface_; }
  [[nodiscard]] KernelKind kind() const { return kind_; }

  // --- per-tick hot calls ---

  void tick_announce(Ticks now, Ticks elapsed) {
    // Both sealed kernels inherit KernelBase's (final) announce; one
    // qualified call covers them.
    if (kind_ != KernelKind::kVirtual) {
      static_cast<KernelBase*>(iface_)->KernelBase::tick_announce(now,
                                                                  elapsed);
    } else {
      iface_->tick_announce(now, elapsed);
    }
  }

  [[nodiscard]] Ticks next_wake() const {
    if (kind_ != KernelKind::kVirtual) {
      return static_cast<const KernelBase*>(iface_)->KernelBase::next_wake();
    }
    return iface_->next_wake();
  }

  [[nodiscard]] Ticks now() const {
    if (kind_ != KernelKind::kVirtual) {
      return static_cast<const KernelBase*>(iface_)->KernelBase::now();
    }
    return iface_->now();
  }

  [[nodiscard]] ProcessId current() const {
    if (kind_ != KernelKind::kVirtual) {
      return static_cast<const KernelBase*>(iface_)->KernelBase::current();
    }
    return iface_->current();
  }

  ProcessId schedule() {
    switch (kind_) {
      case KernelKind::kRt:
        return static_cast<RtKernel*>(iface_)->RtKernel::schedule();
      case KernelKind::kGeneric:
        return static_cast<GenericKernel*>(iface_)->GenericKernel::schedule();
      case KernelKind::kVirtual:
        break;
    }
    return iface_->schedule();
  }

  [[nodiscard]] ProcessControlBlock* pcb(ProcessId id) {
    if (kind_ != KernelKind::kVirtual) {
      return static_cast<KernelBase*>(iface_)->KernelBase::pcb(id);
    }
    return iface_->pcb(id);
  }

  [[nodiscard]] const ProcessControlBlock* pcb(ProcessId id) const {
    if (kind_ != KernelKind::kVirtual) {
      return static_cast<const KernelBase*>(iface_)->KernelBase::pcb(id);
    }
    return iface_->pcb(id);
  }

  // --- time-warp compute spans (DESIGN.md §7) ---

  /// The process the next schedule() would elect, with no side effect.
  /// Unknown kernels report invalid(): their policy cannot be peeked, so
  /// the warp never spans their compute.
  [[nodiscard]] ProcessId peek_heir() const {
    switch (kind_) {
      case KernelKind::kRt:
        return static_cast<const RtKernel*>(iface_)->peek_heir();
      case KernelKind::kGeneric:
        return static_cast<const GenericKernel*>(iface_)->peek_heir();
      case KernelKind::kVirtual:
        break;
    }
    return ProcessId::invalid();
  }

  /// Bulk equivalent of `n` schedule() calls that re-elect the running
  /// process; only valid when peek_heir() == current().
  void count_repeat_dispatches(std::uint64_t n) {
    AIR_ASSERT(kind_ != KernelKind::kVirtual);
    static_cast<KernelBase*>(iface_)->count_repeat_dispatches(n);
  }

 private:
  IKernel* iface_{nullptr};
  KernelKind kind_{KernelKind::kVirtual};
};

}  // namespace air::pos
