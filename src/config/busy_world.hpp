// The busy world of the scaling experiments (bench_world_scale).
//
// Every module runs four partitions in 25-tick round-robin slices. Each
// partition has a periodic worker that computes 20 ticks of every 100, so
// the module is busy through most of each window; partition 0 additionally
// runs a chatter process that feeds a sampling ring to the next module over
// the TDMA bus. Recorder and span capacities are bounded so memory stays
// flat over long runs, and nothing logs to the console.
#pragma once

#include "net/bus.hpp"
#include "system/module_config.hpp"

namespace air::scenarios {

/// The TDMA bus the busy modules share.
[[nodiscard]] net::BusConfig busy_world_bus();

/// Module `id` of an `nmodules`-module ring (its chatter writes to module
/// (id + 1) % nmodules).
[[nodiscard]] system::ModuleConfig busy_module(int id, int nmodules);

}  // namespace air::scenarios
