// Zero-allocation steady state (the DESIGN.md section 12 claim).
//
// After PR 7 pooled message payloads and this PR interned every telemetry
// label, a warmed-up flight with the full observability stack enabled --
// metrics, bounded flight recorder, spans, host profiler -- must execute
// ticks without touching the heap at all. This test proves it with a
// counting global operator new (every allocation in the process increments
// an atomic), cross-checked against the two subsystem counters the claim
// rests on: StringArena::Stats::bytes_used and Payload::PoolStats::
// heap_allocs.
//
// The counting operator new/delete pair replaces the global ones for the
// whole test binary; it only counts and delegates, so the other suites are
// unaffected. Under ASan/TSan the sanitizer owns the allocator, so the
// replacement is compiled out and the test skips.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "config/busy_world.hpp"
#include "config/fig8.hpp"
#include "ipc/payload.hpp"
#include "pos/generic_kernel.hpp"
#include "pos/rt_kernel.hpp"
#include "system/module.hpp"
#include "system/world.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define AIR_ALLOC_COUNTING_DISABLED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define AIR_ALLOC_COUNTING_DISABLED 1
#endif
#endif

namespace {
std::atomic<std::uint64_t> g_allocations{0};

[[maybe_unused]] std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}
}  // namespace

#ifndef AIR_ALLOC_COUNTING_DISABLED

namespace {
void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // AIR_ALLOC_COUNTING_DISABLED

namespace air {
namespace {

TEST(ZeroAlloc, SteadyStateFlightNeverTouchesTheHeap) {
#ifdef AIR_ALLOC_COUNTING_DISABLED
  GTEST_SKIP() << "allocation counting is owned by the sanitizer runtime";
#else
  // Full observability stack: metrics, bounded trace rings, bounded span
  // ring, host profiler at stride 1 (which also forces per-tick stepping,
  // so every tick below really executes the whole hot path).
  auto config = scenarios::fig8_config({.with_faulty_process = false});
  config.telemetry.flight_recorder_capacity = 4096;
  config.telemetry.spans_capacity = 4096;
  config.telemetry.profiler_enabled = true;
  config.telemetry.profiler_stride = 1;
  system::Module module(std::move(config));

  // Warm-up: first occurrence of every label lands in the arena, window
  // caches and the span ring materialise, the payload pool fills.
  module.run(4 * scenarios::kFig8Mtf);

  const std::uint64_t heap_before = allocation_count();
  const std::size_t arena_before = module.arena().stats().bytes_used;
  const std::uint64_t pool_before = ipc::Payload::pool_stats().heap_allocs;

  module.run(4 * scenarios::kFig8Mtf);

  EXPECT_EQ(allocation_count(), heap_before)
      << "a steady-state tick allocated on the host heap";
  EXPECT_EQ(module.arena().stats().bytes_used, arena_before)
      << "steady-state labels must all be arena hits";
  EXPECT_EQ(ipc::Payload::pool_stats().heap_allocs, pool_before)
      << "steady-state payloads must all come from the pool";
  // And the flight did real work while not allocating. now() is the
  // timestamp of the last executed tick, so 8*MTF ticks end at 8*MTF - 1.
  EXPECT_EQ(module.now(), 8 * scenarios::kFig8Mtf - 1);
  EXPECT_GT(module.spans().recorded_spans(), 0u);
  EXPECT_GT(module.profiler().ticks(), 0u);
#endif
}

TEST(ZeroAlloc, BusyWorldEpochsNeverTouchTheHeap) {
#ifdef AIR_ALLOC_COUNTING_DISABLED
  GTEST_SKIP() << "allocation counting is owned by the sanitizer runtime";
#else
  // The epoch driver's steady state: eight busy modules trading ring
  // frames over the TDMA bus (staging queues, merge, tx queues, in-flight
  // heap, deliveries), inline and on four lanes.
  constexpr int kModules = 8;
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
    system::World world(scenarios::busy_world_bus());
    // Bus transit spans are unbounded by default; bound them like the
    // modules' own (a bounded recorder reserves its ring up front).
    world.bus_spans().set_capacity(4'096);
    for (int m = 0; m < kModules; ++m) {
      world.add_module(scenarios::busy_module(m, kModules));
    }
    world.set_workers(lanes);
    for (int chunk = 0; chunk < 20; ++chunk) world.run(1'000);
    const std::uint64_t delivered = world.bus().stats().frames_delivered;
    const std::uint64_t before = allocation_count();
    for (int chunk = 0; chunk < 10; ++chunk) world.run(1'000);
    EXPECT_EQ(allocation_count(), before)
        << "a steady-state epoch allocated, " << lanes << " lanes";
    EXPECT_GT(world.bus().stats().frames_delivered, delivered)
        << "the measured chunks carried bus traffic";
  }
#endif
}

TEST(ZeroAlloc, ArenaHitsDoNotAllocate) {
#ifdef AIR_ALLOC_COUNTING_DISABLED
  GTEST_SKIP() << "allocation counting is owned by the sanitizer runtime";
#else
  util::StringArena arena;
  arena.intern("window");
  arena.intern("job");
  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 10000; ++i) {
    arena.intern("window");
    arena.intern("job");
  }
  EXPECT_EQ(allocation_count(), before);
#endif
}

TEST(ZeroAlloc, ConstructingAKernelDoesNotAllocate) {
#ifdef AIR_ALLOC_COUNTING_DISABLED
  GTEST_SKIP() << "allocation counting is owned by the sanitizer runtime";
#else
  // Every partition builds one kernel; its ready list starts empty and is
  // sized by create_process, so an empty kernel owns no heap memory.
  std::size_t depth = 0;
  const std::uint64_t before = allocation_count();
  {
    pos::RtKernel rt;
    pos::GenericKernel generic;
    // Keep the optimizer from eliding the constructions.
    asm volatile("" : : "r"(&rt), "r"(&generic) : "memory");
    depth = rt.ready_depth() + generic.ready_depth();
  }
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after, before)
      << "constructing a POS kernel allocated on the host heap";
  EXPECT_EQ(depth, 0u);
#endif
}

}  // namespace
}  // namespace air
