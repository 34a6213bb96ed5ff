// World scaling: sequential (lockstep) vs epoch-parallel execution of a
// multi-module world as the module count grows. Modules are busy
// (scenarios::busy_module: periodic compute load in every partition window,
// telemetry on) and exchange light
// sampling-ring traffic over the TDMA bus, so the epoch driver must win by
// overlapping module execution, not by skipping idle time. The checked
// figure is sim_ticks_per_second at 8 modules: parallel / lockstep >= 2 on
// a multicore host (bench/check_world_scale.py; the JSON context's num_cpus
// records the host parallelism for the gate).
#include <benchmark/benchmark.h>

#include "config/busy_world.hpp"
#include "system/world.hpp"

namespace {

using namespace air;

constexpr Ticks kTicks = 1000;  // simulated span per iteration

std::unique_ptr<system::World> build_world(int nmodules) {
  auto world = std::make_unique<system::World>(scenarios::busy_world_bus());
  for (int m = 0; m < nmodules; ++m) {
    world->add_module(scenarios::busy_module(m, nmodules));
  }
  return world;
}

void run_scaling(benchmark::State& state, bool parallel) {
  const int nmodules = static_cast<int>(state.range(0));
  double sim_ticks = 0;
  double epochs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto world = build_world(nmodules);
    if (parallel) world->set_workers(0);  // one lane per hardware thread
    state.ResumeTiming();
    if (parallel) {
      world->run(kTicks);
    } else {
      world->run_lockstep(kTicks);
    }
    state.PauseTiming();
    sim_ticks += static_cast<double>(kTicks);
    epochs += static_cast<double>(world->stats().epochs);
    state.ResumeTiming();
  }
  state.counters["sim_ticks_per_second"] =
      benchmark::Counter(sim_ticks, benchmark::Counter::kIsRate);
  state.counters["modules"] = benchmark::Counter(nmodules);
  if (parallel && epochs > 0) {
    state.counters["mean_epoch_ticks"] = benchmark::Counter(sim_ticks / epochs);
  }
}

void BM_WorldScale_Lockstep(benchmark::State& state) {
  run_scaling(state, /*parallel=*/false);
}
BENCHMARK(BM_WorldScale_Lockstep)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_WorldScale_Parallel(benchmark::State& state) {
  run_scaling(state, /*parallel=*/true);
}
BENCHMARK(BM_WorldScale_Parallel)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
