// The four benchmark workloads. Each one builds its inputs from the seed,
// runs timed chunks through the library's public entry points, checks its
// outputs against the repository's own oracles, and measures its layers in
// a separate traced pass.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "measure.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed{1};
  std::size_t lanes{1};
  /// tests/golden/fig8_mission_trace.digest of the checkout (read only).
  std::string golden_path;
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  /// Build configuration, instance and inputs from the seed. Called several
  /// times, each after teardown(); setup_s is the median.
  virtual void setup() = 0;
  /// Drop the instance setup() built (untimed: freeing it is not set-up).
  virtual void teardown() = 0;

  /// Untimed input for chunk k (e.g. a schedule request), then the timed
  /// chunk, then untimed bookkeeping (oracle snapshots, memory bounds).
  virtual void before_chunk(std::size_t /*k*/) {}
  virtual void chunk(std::size_t k) = 0;
  virtual void after_chunk(std::size_t /*k*/) {}

  /// Work units retired by one chunk (module-ticks or candidates).
  [[nodiscard]] virtual double work_per_chunk() const = 0;
  /// Name of the workload's own throughput figure ("module_ticks_per_s").
  [[nodiscard]] virtual const char* throughput_name() const = 0;
  /// Lanes the timed chunks run on (the untraced run's lane count).
  [[nodiscard]] virtual std::size_t timed_lanes() const { return 1; }
  /// Fewest chunks per run segment: one whole oracle unit (a sortie, a
  /// session), and enough that a run holds the p95's 200 chunks.
  [[nodiscard]] virtual std::size_t min_chunks() const { return 40; }

  /// Output oracles over the `chunks` chunks just flown (untimed).
  virtual void check(std::size_t chunks, Checks& checks) = 0;

  /// Layer attribution: untraced, traced and probe passes on fresh
  /// instances. `full` repeats rounds until `budget_s` is spent; otherwise
  /// one short round. Writes every row this workload can measure.
  virtual void layer_pass(double budget_s, bool full, MetricTable& rows,
                          Checks& checks) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      const RunConfig& config);

}  // namespace perfbench
