#include "workloads.hpp"

#include <fstream>
#include <functional>
#include <map>
#include <optional>

#include "config/fig8.hpp"
#include "fi/fault_plan.hpp"
#include "ipc/payload.hpp"
#include "model/batch.hpp"
#include "model/generator.hpp"
#include "model/schedulability.hpp"
#include "model/validation.hpp"
#include "system/module.hpp"
#include "system/world.hpp"
#include "telemetry/export.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/spans.hpp"
#include "util/rng.hpp"
#include "util/worker_pool.hpp"

namespace perfbench {
namespace {

using namespace air;
using pos::ScriptBuilder;
using telemetry::HostProfiler;
using telemetry::ProfilePoint;

constexpr std::uint64_t kFnvBasis = fi::digest64("");

// Defeats dead-code elimination of timed const queries (unsigned, so
// folding kInfiniteTime results in cannot overflow).
volatile std::uint64_t g_sink = 0;

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Everything the equivalence contract covers for one module: trace,
/// metrics export and span stream.
std::uint64_t module_digest(system::Module& module, std::uint64_t h) {
  h = fi::digest64(module.trace().to_text(), h);
  h = fi::digest64(telemetry::to_csv(module.metrics_snapshot()), h);
  return fi::digest64(telemetry::spans_to_json(module.spans()), h);
}

std::uint64_t world_digest(system::World& world) {
  std::uint64_t h = kFnvBasis;
  for (std::size_t m = 0; m < world.module_count(); ++m) {
    h = module_digest(world.module(m), h);
  }
  h = fi::digest64(telemetry::spans_to_json(world.bus_spans()), h);
  const net::BusStats& bus = world.bus().stats();
  return fi::digest64(std::to_string(bus.frames_sent) + " " +
                          std::to_string(bus.frames_delivered) + " " +
                          std::to_string(bus.frames_dropped) + " " +
                          std::to_string(bus.total_latency) + " " +
                          std::to_string(world.now()),
                      h);
}

/// Sum of self time over every stack path of `point`.
double self_ns(const HostProfiler& profiler, ProfilePoint point) {
  double total = 0.0;
  const auto& nodes = profiler.nodes();
  for (std::uint32_t i = 1; i < nodes.size(); ++i) {
    if (nodes[i].point == point) {
      total += static_cast<double>(profiler.self_ns(i));
    }
  }
  return total;
}

double total_ns(const HostProfiler& profiler, ProfilePoint point) {
  return static_cast<double>(profiler.point_stats(point).total_ns);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Host ns per call of `query`, timed over a burst of calls.
template <typename Query>
double ns_per_call(Query&& query, int calls = 64) {
  const auto t0 = Clock::now();
  std::uint64_t acc = 0;
  for (int i = 0; i < calls; ++i) acc += static_cast<std::uint64_t>(query());
  g_sink = g_sink + acc;
  return seconds_since(t0) * 1e9 / calls;
}

/// Median host ns of an empty-task util::WorkerPool::run over `items`
/// items with `lanes` lanes (the caller plus lanes - 1 pool threads, as
/// World and BatchAnalyzer size their pools).
double pool_run_ns(std::size_t lanes, std::size_t items) {
  util::WorkerPool pool(lanes > 1 ? lanes - 1 : 0);
  const std::function<void(std::size_t)> task = [](std::size_t) {};
  for (int i = 0; i < 64; ++i) pool.run(items, task);
  std::vector<double> samples;
  for (int s = 0; s < 256; ++s) {
    const auto t0 = Clock::now();
    for (int i = 0; i < 4; ++i) pool.run(items, task);
    samples.push_back(seconds_since(t0) * 1e9 / 4);
  }
  return median(std::move(samples));
}

/// Per-round layer values: `exact` rows are work counts that must repeat
/// bit-for-bit across rounds; `timed` rows are reduced to their median.
struct Round {
  MetricTable exact;
  MetricTable timed;
};

void merge_rounds(const std::vector<Round>& rounds, MetricTable& rows,
                  Checks& checks) {
  if (rounds.empty()) return;
  for (const Metric& m : rounds.front().exact.rows()) {
    for (std::size_t r = 1; r < rounds.size(); ++r) {
      for (const Metric& other : rounds[r].exact.rows()) {
        if (other.name == m.name) {
          checks.expect(other.value == m.value,
                        m.name + " repeats exactly across rounds");
        }
      }
    }
    rows.add(m.name, m.value, m.unit);
  }
  for (const Metric& m : rounds.front().timed.rows()) {
    std::vector<double> values;
    for (const Round& round : rounds) {
      for (const Metric& other : round.timed.rows()) {
        if (other.name == m.name) values.push_back(other.value);
      }
    }
    rows.add(m.name, median(std::move(values)), m.unit);
  }
}

/// Run rounds: one when !full, else until the budget is spent.
template <typename RoundFn>
std::vector<Round> run_rounds(double budget_s, bool full, RoundFn&& round) {
  std::vector<Round> rounds;
  const auto t0 = Clock::now();
  do {
    rounds.push_back(round());
  } while (full && seconds_since(t0) < budget_s);
  return rounds;
}

// ---------------------------------------------------------------------------
// fig8_mission: the paper's Sect. 6 prototype, one MTF per chunk
// ---------------------------------------------------------------------------

constexpr std::size_t kPlanCycle = 64;        // MTFs per request-plan cycle
constexpr std::size_t kPlanRequests = 8;      // schedule requests per cycle
constexpr std::size_t kSortieMtfs = 2000;     // MTFs per sortie (fresh module)
constexpr std::size_t kFig8PassMtfs = 2000;   // layer pass, full
constexpr std::size_t kFig8ShortMtfs = 400;   // layer pass, short
constexpr std::size_t kScrapeEvery = 64;      // MTFs between scrape probes
constexpr Ticks kGoldenMtfs = 10;

system::ModuleConfig fig8_mission_config(bool profiled) {
  system::ModuleConfig config = scenarios::fig8_config();
  // Bounded capture so memory stays flat over a long flight.
  config.telemetry.flight_recorder_capacity = 256;
  config.telemetry.spans_capacity = 1024;
  if (profiled) {
    config.telemetry.profiler_enabled = true;
    config.telemetry.profiler_stride = 1;
  }
  return config;
}

/// Schedule requests for one plan cycle: entry k is the PST AOCS requests
/// at the start of MTF k (mod the cycle), or -1. The seed picks which
/// kPlanRequests MTFs request; requests alternate chi_2, chi_1, ... so each
/// is a real switch, and every seed flies the same number of them.
std::vector<int> fig8_plan(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::size_t> mtfs(kPlanCycle);
  for (std::size_t k = 0; k < kPlanCycle; ++k) mtfs[k] = k;
  for (std::size_t k = kPlanCycle - 1; k > 0; --k) {
    std::swap(mtfs[k], mtfs[static_cast<std::size_t>(
                           rng.uniform(0, static_cast<std::int64_t>(k)))]);
  }
  mtfs.resize(kPlanRequests);
  std::sort(mtfs.begin(), mtfs.end());
  std::vector<int> plan(kPlanCycle, -1);
  for (std::size_t r = 0; r < mtfs.size(); ++r) {
    plan[mtfs[r]] = r % 2 == 0 ? 1 : 0;
  }
  return plan;
}

class Fig8Flight {
 public:
  Fig8Flight(system::ModuleConfig config, const std::vector<int>& plan)
      : module_(std::move(config)), plan_(plan) {
    aocs_ = module_.partition_id("AOCS");
    module_.start_process_by_name(aocs_, scenarios::kFaultyProcessName);
  }
  void request(std::size_t k) {
    const int target = plan_[k % plan_.size()];
    if (target >= 0) {
      (void)module_.apex(aocs_).set_module_schedule(ScheduleId{target});
    }
  }
  void run_mtf() { module_.run(scenarios::kFig8Mtf); }
  /// The HM log is an unbounded vector; clearing it between MTFs keeps the
  /// footprint flat (error_count() reads occurrence counters, not the log).
  void trim() { module_.health().clear_log(); }
  system::Module& module() { return module_; }

 private:
  system::Module module_;
  std::vector<int> plan_;
  PartitionId aocs_;
};

// The reference mission of tests/test_golden_trace.cpp: faulty process on
// AOCS, 500 ticks under chi_1, switch to chi_2, fly out ten MTFs.
template <typename Runner>
void fly_golden(system::Module& prototype, Runner&& run) {
  prototype.start_process_by_name(prototype.partition_id("AOCS"),
                                  scenarios::kFaultyProcessName);
  run(500);
  (void)prototype.apex(prototype.partition_id("AOCS"))
      .set_module_schedule(ScheduleId{1});
  run(kGoldenMtfs * scenarios::kFig8Mtf - 500);
}

std::uint64_t golden_module_digest(bool warp) {
  system::Module module(scenarios::fig8_config());
  module.set_time_warp(warp);
  fly_golden(module, [&](Ticks t) { module.run(t); });
  return fi::digest64(module.trace().to_text());
}

std::uint64_t golden_world_digest(bool lockstep, std::size_t workers) {
  system::ModuleConfig fig8 = scenarios::fig8_config();
  fig8.id = ModuleId{0};
  for (ipc::ChannelConfig& channel : fig8.channels) {
    if (channel.kind == ipc::ChannelKind::kQueuing) {
      channel.remote_destinations.push_back(
          {ModuleId{1}, PartitionId{0}, "SCI_IN"});
    }
  }
  system::World world(
      {.slot_length = 10, .frames_per_slot = 2, .propagation_delay = 2});
  system::Module& prototype = world.add_module(std::move(fig8));

  system::ModuleConfig ground_config;
  ground_config.id = ModuleId{1};
  ground_config.name = "ground";
  system::PartitionConfig ground_partition;
  ground_partition.name = "GROUND";
  ground_partition.queuing_ports.push_back(
      {"SCI_IN", ipc::PortDirection::kDestination, 64, 16});
  system::ProcessConfig archiver;
  archiver.attrs.name = "gs_archiver";
  archiver.attrs.priority = 10;
  archiver.attrs.script = ScriptBuilder{}
                              .queuing_receive(0)
                              .log("science frame archived")
                              .build();
  ground_partition.processes.push_back(std::move(archiver));
  ground_config.partitions.push_back(std::move(ground_partition));
  model::Schedule schedule;
  schedule.id = ScheduleId{0};
  schedule.mtf = scenarios::kFig8Mtf;
  schedule.requirements = {{PartitionId{0}, scenarios::kFig8Mtf,
                            scenarios::kFig8Mtf}};
  schedule.windows = {{PartitionId{0}, 0, scenarios::kFig8Mtf}};
  ground_config.schedules = {schedule};
  system::Module& ground = world.add_module(std::move(ground_config));

  world.set_workers(workers);
  fly_golden(prototype, [&](Ticks t) {
    if (lockstep) {
      world.run_lockstep(t);
    } else {
      world.run(t);
    }
  });
  return fi::digest64(ground.trace().to_text(),
                      fi::digest64(prototype.trace().to_text()));
}

/// "module <hex>" / "world <hex>" lines of the golden digest file.
std::map<std::string, std::uint64_t> read_golden(const std::string& path) {
  std::map<std::string, std::uint64_t> out;
  std::ifstream in(path);
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> std::hex >> value) out[key] = value;
  return out;
}

class Fig8Mission final : public Workload {
 public:
  explicit Fig8Mission(const RunConfig& config) : config_(config) {}

  void setup() override {
    plan_ = fig8_plan(config_.seed);
    flight_ = std::make_unique<Fig8Flight>(fig8_mission_config(false), plan_);
  }
  void teardown() override { flight_.reset(); }
  void before_chunk(std::size_t k) override {
    flight_->request(k % kSortieMtfs);
  }
  void chunk(std::size_t) override { flight_->run_mtf(); }
  void after_chunk(std::size_t k) override {
    flight_->trim();
    if ((k + 1) % kSortieMtfs == 0) {
      // A sortie ends: record its digest and fly the next on a fresh
      // module, so span anomalies (one per deadline miss, unbounded) cannot
      // make the footprint grow with the run's length.
      // The old module goes before the new one is built, so the two never
      // coexist in peak_rss_mib.
      sortie_digests_.push_back(module_digest(flight_->module(), kFnvBasis));
      flight_.reset();
      flight_ = std::make_unique<Fig8Flight>(fig8_mission_config(false), plan_);
    }
  }
  [[nodiscard]] double work_per_chunk() const override {
    return static_cast<double>(scenarios::kFig8Mtf);
  }
  [[nodiscard]] const char* throughput_name() const override {
    return "module_ticks_per_s";
  }
  [[nodiscard]] std::size_t min_chunks() const override {
    return kSortieMtfs;
  }

  void check(std::size_t, Checks& checks) override {
    const auto golden = read_golden(config_.golden_path);
    checks.expect(golden.count("module") == 1 && golden.count("world") == 1,
                  "golden digest file lists module and world digests");
    const std::uint64_t want_module =
        golden.count("module") ? golden.at("module") : 0;
    const std::uint64_t want_world =
        golden.count("world") ? golden.at("world") : 0;
    checks.expect_eq(golden_module_digest(true), want_module,
                     "golden mission, warped module");
    checks.expect_eq(golden_module_digest(false), want_module,
                     "golden mission, per-tick module");
    checks.expect_eq(golden_world_digest(true, 1), want_world,
                     "golden mission, lockstep world");
    checks.expect_eq(golden_world_digest(false, config_.lanes), want_world,
                     "golden mission, epoch world");

    // Every timed (warped) sortie against one per-tick sortie of the same
    // seeded mission.
    Fig8Flight reference(fig8_mission_config(false), plan_);
    reference.module().set_time_warp(false);
    for (std::size_t k = 0; k < kSortieMtfs; ++k) {
      reference.request(k);
      reference.run_mtf();
      reference.trim();
    }
    const std::uint64_t want = module_digest(reference.module(), kFnvBasis);
    checks.expect(!sortie_digests_.empty(), "at least one full sortie");
    for (const std::uint64_t digest : sortie_digests_) {
      checks.expect_eq(digest, want, "warped sortie equals per-tick sortie");
    }
    // The faulty AOCS process must miss its deadlines.
    const PartitionId aocs = reference.module().partition_id("AOCS");
    checks.expect(reference.module().pal(aocs).violations_detected() > 0,
                  "faulty process deadline misses detected");
  }

  void layer_pass(double budget_s, bool full, MetricTable& rows,
                  Checks& checks) override {
    plan_ = fig8_plan(config_.seed);
    const std::size_t mtfs = full ? kFig8PassMtfs : kFig8ShortMtfs;
    const auto rounds = run_rounds(budget_s, full, [&] {
      return round(mtfs, checks);
    });
    merge_rounds(rounds, rows, checks);
  }

 private:
  Round round(std::size_t mtfs, Checks& checks) {
    Round out;
    // Untraced pass: end-to-end reference and exact work counts.
    const std::uint64_t heap0 = ipc::Payload::pool_stats().heap_allocs;
    const auto c0 = Clock::now();
    system::ModuleConfig built = fig8_mission_config(false);
    const auto c1 = Clock::now();
    Fig8Flight plain(std::move(built), plan_);
    const double construct_s = seconds_since(c1);
    double plain_s = 0.0;
    for (std::size_t k = 0; k < mtfs; ++k) {
      plain.request(k);
      const auto t0 = Clock::now();
      plain.run_mtf();
      plain_s += seconds_since(t0);
      plain.trim();
    }
    system::Module& m = plain.module();
    const std::uint64_t heap_allocs =
        ipc::Payload::pool_stats().heap_allocs - heap0;

    std::uint64_t context_switches = 0, schedule_switches = 0, preemptions = 0;
    for (std::size_t c = 0; c < m.core_count(); ++c) {
      context_switches += m.dispatcher(c).context_switches();
      schedule_switches += m.scheduler(c).schedule_switches();
      preemptions += m.scheduler(c).preemption_points_hit();
    }
    double checks_done = 0, violations = 0, hm_errors = 0;
    for (std::size_t p = 0; p < m.partition_count(); ++p) {
      const PartitionId id{static_cast<std::int32_t>(p)};
      checks_done += static_cast<double>(m.pal(id).deadline_checks());
      violations += static_cast<double>(m.pal(id).violations_detected());
      for (int code = 0; code <= static_cast<int>(hm::ErrorCode::kConfigError);
           ++code) {
        hm_errors += static_cast<double>(
            m.health().error_count(id, static_cast<hm::ErrorCode>(code)));
      }
    }
    const hal::MmuStats& mmu = m.machine().mmu().stats();
    const auto& warp = m.warp_stats();
    const double stepped = static_cast<double>(warp.stepped_ticks);
    const double warped = static_cast<double>(warp.warped_ticks);

    out.exact.add("pmk.context_switches",
                  static_cast<double>(context_switches), "count");
    out.exact.add("pmk.schedule_switches",
                  static_cast<double>(schedule_switches), "count");
    out.exact.add("pmk.preemption_points", static_cast<double>(preemptions),
                  "count");
    out.exact.add("pal.deadline_checks", checks_done, "count");
    out.exact.add("pal.violations", violations, "count");
    out.exact.add("ipc.messages",
                  static_cast<double>(m.router().total_messages()), "count");
    out.exact.add("ipc.payload_heap_allocs", static_cast<double>(heap_allocs),
                  "count");
    out.exact.add("hal.tlb_hit_rate",
                  ratio(static_cast<double>(mmu.tlb_hits),
                        static_cast<double>(mmu.tlb_hits + mmu.tlb_misses)),
                  "ratio");
    out.exact.add("hal.table_walks", static_cast<double>(mmu.table_walks),
                  "count");
    out.exact.add("hal.mmu_faults", static_cast<double>(mmu.faults), "count");
    out.exact.add("hm.errors", hm_errors, "count");
    out.exact.add("system.warp_frac", ratio(warped, warped + stepped),
                  "ratio");
    out.exact.add("system.warp_spans", static_cast<double>(warp.warp_spans),
                  "count");
    out.exact.add("telemetry.arena_bytes",
                  static_cast<double>(m.arena().stats().bytes_used), "bytes");
    checks.expect(violations > 0, "fig8 layer pass sees deadline misses");

    // Traced pass: stride-1 module profiler (which forces stepping).
    Fig8Flight traced(fig8_mission_config(true), plan_);
    double traced_s = 0.0;
    std::vector<double> scrape_us;
    for (std::size_t k = 0; k < mtfs; ++k) {
      traced.request(k);
      const auto t0 = Clock::now();
      traced.run_mtf();
      traced_s += seconds_since(t0);
      traced.trim();
      if ((k + 1) % kScrapeEvery == 0) {
        const auto s0 = Clock::now();
        const telemetry::MetricsSnapshot snap =
            traced.module().metrics_snapshot();
        scrape_us.push_back(seconds_since(s0) * 1e6);
        g_sink = g_sink + static_cast<std::uint64_t>(snap.time);
      }
    }
    const HostProfiler& prof = traced.module().profiler();
    const double ticks = static_cast<double>(prof.ticks());
    const auto per_tick = [&](double ns) { return ratio(ns, ticks); };
    out.timed.add("pmk.scheduler_ns",
                  per_tick(total_ns(prof, ProfilePoint::kScheduler)), "ns");
    out.timed.add("pmk.dispatcher_ns",
                  per_tick(total_ns(prof, ProfilePoint::kDispatcher)), "ns");
    out.timed.add("pal.announce_ns",
                  per_tick(self_ns(prof, ProfilePoint::kPal)), "ns");
    out.timed.add("pos.kernel_dispatch_ns",
                  per_tick(self_ns(prof, ProfilePoint::kKernelDispatch)), "ns");
    out.timed.add("ipc.router_ns",
                  per_tick(total_ns(prof, ProfilePoint::kRouter)), "ns");
    out.timed.add("system.stepped_tick_ns",
                  per_tick(total_ns(prof, ProfilePoint::kTick)), "ns");
    out.timed.add("system.tick_self_ns",
                  per_tick(self_ns(prof, ProfilePoint::kTick)), "ns");
    out.timed.add("system.executor_ns",
                  per_tick(self_ns(prof, ProfilePoint::kExecutor)), "ns");
    out.timed.add("system.warp_scan_ns",
                  per_tick(total_ns(prof, ProfilePoint::kWarpScan)), "ns");
    out.timed.add("telemetry.scrape_us", median(scrape_us), "us");

    // Reconciliation: every profiled layer's self time except the scrape
    // probe's own, per stepped tick, against the untraced flight's host
    // time per stepped tick.
    double layer_ns = 0.0;
    for (std::size_t p = 0; p < static_cast<std::size_t>(ProfilePoint::kCount);
         ++p) {
      const auto point = static_cast<ProfilePoint>(p);
      if (point != ProfilePoint::kTelemetryScrape) {
        layer_ns += self_ns(prof, point);
      }
    }
    const double untraced_ns_per_stepped = ratio(plain_s * 1e9, stepped);
    out.timed.add("system.layer_residue_frac",
                  1.0 - ratio(per_tick(layer_ns), untraced_ns_per_stepped),
                  "ratio");
    out.timed.add("telemetry.trace_overhead_frac",
                  ratio(traced_s, plain_s) - 1.0, "ratio");
    out.timed.add("config.build_ms", seconds_between(c0, c1) * 1e3, "ms");
    out.timed.add("system.construct_ms", construct_s * 1e3, "ms");
    return out;
  }

  RunConfig config_;
  std::vector<int> plan_;
  std::unique_ptr<Fig8Flight> flight_;
  std::vector<std::uint64_t> sortie_digests_;
};

// ---------------------------------------------------------------------------
// World workloads: world_busy8 and constellation1000
// ---------------------------------------------------------------------------

constexpr Ticks kWorldChunkTicks = 1000;
constexpr std::size_t kBusSpans = 4096;

struct WorldSpec {
  net::BusConfig bus;
  std::vector<system::ModuleConfig> modules;
  std::vector<net::VirtualLinkConfig> links;
};

std::unique_ptr<system::World> assemble(WorldSpec spec) {
  auto world = std::make_unique<system::World>(spec.bus);
  // Bus transit spans are unbounded by default; bound them like the
  // modules' own, so the footprint does not grow with the run's length.
  world->bus_spans().set_capacity(kBusSpans);
  for (system::ModuleConfig& config : spec.modules) {
    world->add_module(std::move(config));
  }
  for (const net::VirtualLinkConfig& link : spec.links) {
    world->bus().define_virtual_link(link);
  }
  return world;
}

model::Schedule single_window(Ticks mtf) {
  model::Schedule schedule;
  schedule.id = ScheduleId{0};
  schedule.mtf = mtf;
  schedule.requirements = {{PartitionId{0}, mtf, mtf}};
  schedule.windows = {{PartitionId{0}, 0, mtf}};
  return schedule;
}

model::Schedule round_robin(std::size_t partitions, Ticks slice) {
  model::Schedule s;
  s.id = ScheduleId{0};
  s.mtf = static_cast<Ticks>(partitions) * slice;
  for (std::size_t i = 0; i < partitions; ++i) {
    const PartitionId p{static_cast<std::int32_t>(i)};
    s.requirements.push_back({p, s.mtf, slice});
    s.windows.push_back({p, static_cast<Ticks>(i) * slice, slice});
  }
  return s;
}

ipc::ChannelConfig remote_ring(int dest) {
  ipc::ChannelConfig ring;
  ring.id = ChannelId{0};
  ring.kind = ipc::ChannelKind::kSampling;
  ring.source = {PartitionId{0}, "OUT"};
  ring.remote_destinations = {{ModuleId{dest}, PartitionId{0}, "IN"}};
  return ring;
}

void add_ring_ports(system::PartitionConfig& partition) {
  partition.sampling_ports.push_back(
      {"OUT", ipc::PortDirection::kSource, 64, kInfiniteTime});
  partition.sampling_ports.push_back(
      {"IN", ipc::PortDirection::kDestination, 64, kInfiniteTime});
}

/// bench_world_scale's busy module: four 25-tick partitions that compute
/// through their windows, partition 0 also feeding a sampling ring. The
/// seed permutes ring destinations and offsets the chatter waits.
WorldSpec busy8_spec(std::uint64_t seed) {
  constexpr int kModules = 8;
  constexpr std::size_t kParts = 4;
  constexpr Ticks kSlice = 25;
  util::Rng rng(seed);
  std::vector<int> order(kModules);
  for (int m = 0; m < kModules; ++m) order[static_cast<std::size_t>(m)] = m;
  for (int m = kModules - 1; m > 0; --m) {
    std::swap(order[static_cast<std::size_t>(m)],
              order[static_cast<std::size_t>(rng.uniform(0, m))]);
  }
  std::vector<int> dest(kModules);
  for (int j = 0; j < kModules; ++j) {
    dest[static_cast<std::size_t>(order[static_cast<std::size_t>(j)])] =
        order[static_cast<std::size_t>((j + 1) % kModules)];
  }

  WorldSpec spec;
  spec.bus = {.slot_length = 8, .frames_per_slot = 2, .propagation_delay = 6};
  for (int id = 0; id < kModules; ++id) {
    system::ModuleConfig config;
    config.id = ModuleId{id};
    config.name = "m" + std::to_string(id);
    config.telemetry.flight_recorder_capacity = 256;
    config.telemetry.spans_capacity = 1024;
    for (std::size_t p = 0; p < kParts; ++p) {
      system::PartitionConfig partition;
      partition.name = "p" + std::to_string(p);
      if (p == 0) {
        add_ring_ports(partition);
        system::ProcessConfig chatter;
        chatter.attrs.name = "chatter";
        chatter.attrs.priority = 20;
        chatter.attrs.script = ScriptBuilder{}
                                   .sampling_write(0, "ring")
                                   .sampling_read(1)
                                   .timed_wait(150 + rng.uniform(0, 49))
                                   .build();
        partition.processes.push_back(std::move(chatter));
      }
      system::ProcessConfig worker;
      worker.attrs.name = "work";
      worker.attrs.period = static_cast<Ticks>(kParts) * kSlice;
      worker.attrs.time_capacity = kInfiniteTime;
      worker.attrs.priority = 10;
      worker.attrs.script = ScriptBuilder{}.compute(20).periodic_wait().build();
      partition.processes.push_back(std::move(worker));
      config.partitions.push_back(std::move(partition));
    }
    config.channels.push_back(remote_ring(dest[static_cast<std::size_t>(id)]));
    config.schedules = {round_robin(kParts, kSlice)};
    spec.modules.push_back(std::move(config));
  }
  return spec;
}

/// bench_constellation's beacon satellite, 1000 of them on 8-station
/// switches with one virtual link per beacon. The seed sets each module's
/// beacon phase (a small offset, so bursts stay bursts).
WorldSpec constellation_spec(std::uint64_t seed) {
  constexpr int kModules = 1000;
  constexpr Ticks kMtf = 500;
  util::Rng rng(seed);
  WorldSpec spec;
  spec.bus = {.slot_length = 1,
              .frames_per_slot = 4,
              .propagation_delay = 2,
              .stations_per_switch = 8,
              .switch_hop_delay = 2};
  for (int id = 0; id < kModules; ++id) {
    system::ModuleConfig config;
    config.id = ModuleId{id};
    config.name = "sat" + std::to_string(id);
    config.memory_bytes = 256u << 10;
    config.telemetry.flight_recorder_capacity = 64;
    config.telemetry.spans_capacity = 256;
    system::PartitionConfig partition;
    partition.name = "flight";
    add_ring_ports(partition);
    system::ProcessConfig chatter;
    chatter.attrs.name = "chatter";
    chatter.attrs.priority = 20;
    chatter.attrs.script = ScriptBuilder{}
                               .timed_wait(1 + rng.uniform(0, 7))
                               .sampling_write(0, "beacon")
                               .sampling_read(1)
                               .timed_wait(400)
                               .jump(1)
                               .build();
    partition.processes.push_back(std::move(chatter));
    config.partitions.push_back(std::move(partition));
    const int next = (id + 1) % kModules;
    config.channels.push_back(remote_ring(next));
    config.schedules = {single_window(kMtf)};
    spec.modules.push_back(std::move(config));
    spec.links.push_back({ModuleId{id}, ModuleId{next}, /*min_gap=*/100,
                          /*jitter_budget=*/kInfiniteTime});
  }
  return spec;
}

struct WorldShape {
  const char* name;
  WorldSpec (*spec)(std::uint64_t seed);
  std::size_t check_chunks;  // lockstep oracle prefix
  std::size_t timed_lanes;   // lanes of the untraced run; 0 = the run's lanes
  std::size_t pass_chunks;   // layer pass, full (>= 1000 epochs)
  std::size_t short_chunks;  // layer pass, short
};

class WorldWorkload final : public Workload {
 public:
  WorldWorkload(const RunConfig& config, WorldShape shape)
      : config_(config), shape_(shape) {}

  void setup() override {
    world_ = build(shape_.spec(config_.seed), timed_lanes());
    modules_ = world_->module_count();
  }
  void teardown() override { world_.reset(); }
  void chunk(std::size_t) override { world_->run(kWorldChunkTicks); }
  void after_chunk(std::size_t k) override {
    if (k + 1 == shape_.check_chunks) prefix_digest_ = world_digest(*world_);
  }
  [[nodiscard]] double work_per_chunk() const override {
    return static_cast<double>(modules_) *
           static_cast<double>(kWorldChunkTicks);
  }
  [[nodiscard]] const char* throughput_name() const override {
    return "module_ticks_per_s";
  }
  [[nodiscard]] std::size_t timed_lanes() const override {
    return shape_.timed_lanes > 0 ? shape_.timed_lanes : config_.lanes;
  }

  void check(std::size_t chunks, Checks& checks) override {
    // The epoch driver's timed world against the lockstep reference over
    // the prefix: byte-identical traces, metrics and spans.
    const std::size_t prefix = std::min(chunks, shape_.check_chunks);
    const std::uint64_t timed = chunks >= shape_.check_chunks
                                    ? prefix_digest_
                                    : world_digest(*world_);
    const std::uint64_t delivered = world_->bus().stats().frames_delivered;
    world_.reset();
    auto reference = build(shape_.spec(config_.seed), 1);
    for (std::size_t k = 0; k < prefix; ++k) {
      reference->run_lockstep(kWorldChunkTicks);
    }
    checks.expect_eq(timed, world_digest(*reference),
                     "epoch world equals lockstep world");
    checks.expect(delivered > 0, "bus delivered frames");
  }

  void layer_pass(double budget_s, bool full, MetricTable& rows,
                  Checks& checks) override {
    world_.reset();
    const std::size_t chunks = full ? shape_.pass_chunks : shape_.short_chunks;
    const auto rounds = run_rounds(budget_s, full, [&] {
      return round(chunks, full, checks);
    });
    merge_rounds(rounds, rows, checks);
  }

 private:
  static std::unique_ptr<system::World> build(WorldSpec spec,
                                              std::size_t lanes) {
    auto world = assemble(std::move(spec));
    world->set_workers(lanes);
    return world;
  }

  Round round(std::size_t chunks, bool full, Checks& checks) {
    Round out;
    // Untraced epoch-driver pass: reference throughput and exact counts.
    const auto c0 = Clock::now();
    WorldSpec spec = shape_.spec(config_.seed);
    const auto c1 = Clock::now();
    auto plain = build(std::move(spec), config_.lanes);
    const double construct_s = seconds_since(c1);
    const double modules = static_cast<double>(plain->module_count());
    double plain_s = 0.0;
    for (std::size_t k = 0; k < chunks; ++k) {
      const auto t0 = Clock::now();
      plain->run(kWorldChunkTicks);
      plain_s += seconds_since(t0);
    }
    const system::World::Stats stats = plain->stats();
    const net::BusStats bus = plain->bus().stats();
    double stepped = 0, warped = 0, spans = 0;
    for (std::size_t m = 0; m < plain->module_count(); ++m) {
      const auto& warp = plain->module(m).warp_stats();
      stepped += static_cast<double>(warp.stepped_ticks);
      warped += static_cast<double>(warp.warped_ticks);
      spans += static_cast<double>(warp.warp_spans);
    }
    const std::uint64_t epoch_digest = world_digest(*plain);
    plain.reset();

    const double epochs = static_cast<double>(stats.epochs);
    const double mean_epoch =
        ratio(static_cast<double>(stats.epoch_ticks), epochs);
    out.exact.add("system.epochs", epochs, "count");
    out.exact.add("system.mean_epoch_ticks", mean_epoch, "ticks");
    out.exact.add("system.frames_merged",
                  static_cast<double>(stats.frames_merged), "count");
    out.exact.add("net.frames_delivered",
                  static_cast<double>(bus.frames_delivered), "count");
    out.exact.add("net.mean_latency_ticks",
                  ratio(static_cast<double>(bus.total_latency),
                        static_cast<double>(bus.frames_delivered)),
                  "ticks");
    out.exact.add("system.warp_frac", ratio(warped, warped + stepped), "ratio");
    out.exact.add("system.warp_spans", spans, "count");

    // Lockstep pass: the byte-identity oracle and the ratio's denominator.
    auto lockstep = build(shape_.spec(config_.seed), config_.lanes);
    double lockstep_s = 0.0;
    for (std::size_t k = 0; k < chunks; ++k) {
      const auto t0 = Clock::now();
      lockstep->run_lockstep(kWorldChunkTicks);
      lockstep_s += seconds_since(t0);
    }
    checks.expect_eq(epoch_digest, world_digest(*lockstep),
                     std::string(shape_.name) +
                         " layer pass: epoch world equals lockstep world");
    lockstep.reset();

    // Traced pass: World profiler only, stride 1 (module profilers would
    // zero warp headroom and collapse every epoch). Bus queries are probed
    // at chunk boundaries, outside the timed calls.
    auto traced = build(shape_.spec(config_.seed), config_.lanes);
    traced->enable_profiler(1);
    double traced_s = 0.0;
    std::vector<double> next_delivery_ns, idle_ticks_ns;
    for (std::size_t k = 0; k < chunks; ++k) {
      const auto t0 = Clock::now();
      traced->run(kWorldChunkTicks);
      traced_s += seconds_since(t0);
      const net::Bus& b = traced->bus();
      const Ticks now = traced->now();
      next_delivery_ns.push_back(
          ns_per_call([&] { return b.next_delivery(now); }));
      idle_ticks_ns.push_back(
          ns_per_call([&] { return b.idle_ticks(now); }));
    }
    checks.expect_eq(traced->stats().epochs, stats.epochs,
                     std::string(shape_.name) +
                         ": traced run keeps the epoch structure");
    const HostProfiler& prof = traced->profiler();
    const double sampled = static_cast<double>(prof.ticks());
    checks.expect(full ? sampled >= 1000 : sampled > 0,
                  std::string(shape_.name) +
                      ": traced run samples enough epochs");
    const auto per_epoch = [&](double ns) { return ratio(ns, sampled); };
    out.timed.add("system.epoch_ns",
                  per_epoch(self_ns(prof, ProfilePoint::kEpoch)), "ns");
    out.timed.add("system.epoch_barrier_ns",
                  per_epoch(total_ns(prof, ProfilePoint::kEpochBarrier)), "ns");
    out.timed.add("net.bus_pump_ns",
                  per_epoch(total_ns(prof, ProfilePoint::kBusPump)), "ns");
    out.timed.add("net.next_delivery_ns", median(next_delivery_ns), "ns");
    out.timed.add("net.idle_ticks_ns", median(idle_ticks_ns), "ns");
    traced.reset();

    out.timed.add("system.epoch_over_lockstep", ratio(lockstep_s, plain_s),
                  "ratio");
    out.timed.add("telemetry.trace_overhead_frac",
                  ratio(traced_s, plain_s) - 1.0, "ratio");
    out.timed.add("util.pool_run_ns",
                  pool_run_ns(config_.lanes, static_cast<std::size_t>(modules)),
                  "ns");
    out.timed.add("config.build_ms", seconds_between(c0, c1) * 1e3, "ms");
    out.timed.add("system.construct_ms", construct_s * 1e3, "ms");
    return out;
  }

  RunConfig config_;
  WorldShape shape_;
  std::unique_ptr<system::World> world_;
  std::size_t modules_{0};
  std::uint64_t prefix_digest_{0};
};

// ---------------------------------------------------------------------------
// schedulability_stream: one BatchAnalyzer session per pass over the stream
// ---------------------------------------------------------------------------

constexpr std::size_t kBatch = 64;
constexpr std::size_t kSessionBatches = 128;
constexpr std::size_t kProbeEvery = 4;  // batches between supply/RTA probes

/// The generate_candidates stream (default mix) cut into 64-candidate
/// batches.
std::vector<std::vector<model::Candidate>> candidate_batches(
    std::uint64_t seed) {
  model::CandidateSpec spec;
  spec.count = kBatch * kSessionBatches;
  spec.seed = seed;
  std::vector<model::Candidate> stream = model::generate_candidates(spec);
  std::vector<std::vector<model::Candidate>> batches(kSessionBatches);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    batches[i / kBatch].push_back(std::move(stream[i]));
  }
  return batches;
}

/// The PST BatchAnalyzer would analyse `candidate` under, when it has one.
std::optional<model::Schedule> candidate_schedule(
    const model::Candidate& candidate) {
  if (candidate.windows.empty()) {
    if (model::requirement_utilisation(candidate.requirements) > 1.0) {
      return std::nullopt;
    }
    model::GeneratorInput input;
    input.requirements = candidate.requirements;
    input.mtf = candidate.mtf;
    return model::generate_schedule(input);
  }
  model::Schedule schedule;
  schedule.id = ScheduleId{0};
  schedule.mtf = candidate.mtf > 0
                     ? candidate.mtf
                     : model::lcm_of_periods(candidate.requirements);
  schedule.requirements = candidate.requirements;
  schedule.windows = candidate.windows;
  std::sort(schedule.windows.begin(), schedule.windows.end(),
            [](const model::Window& a, const model::Window& b) {
              return a.offset < b.offset;
            });
  if (schedule.mtf <= 0 || !model::validate_schedule(schedule).ok()) {
    return std::nullopt;
  }
  return schedule;
}

std::uint64_t verdict_digest(const std::vector<model::BatchVerdict>& verdicts,
                             std::uint64_t h) {
  for (const model::BatchVerdict& v : verdicts) {
    h = fi::digest64(v.to_ndjson(), h);
  }
  return h;
}

class SchedulabilityStream final : public Workload {
 public:
  explicit SchedulabilityStream(const RunConfig& config) : config_(config) {}

  void setup() override {
    batches_ = candidate_batches(config_.seed);
    analyzer_ = make_analyzer(config_.lanes);
    session_digest_ = kFnvBasis;
  }
  void teardown() override {
    analyzer_.reset();
    batches_.clear();
  }
  void chunk(std::size_t k) override {
    verdicts_ = analyzer_->analyze(batches_[k % kSessionBatches]);
  }
  void after_chunk(std::size_t k) override {
    session_digest_ = verdict_digest(verdicts_, session_digest_);
    verdicts_.clear();
    if ((k + 1) % kSessionBatches == 0) {
      // A session is one pass over the stream; the next pass starts on a
      // fresh analyzer, so the cache's working set (and the process
      // footprint) stays that of one stream.
      session_digests_.push_back(session_digest_);
      session_stats_.push_back(analyzer_->stats());
      session_digest_ = kFnvBasis;
      analyzer_.reset();  // never two supply caches at once
      analyzer_ = make_analyzer(config_.lanes);
    }
  }
  [[nodiscard]] double work_per_chunk() const override {
    return static_cast<double>(kBatch);
  }
  [[nodiscard]] const char* throughput_name() const override {
    return "configs_per_s";
  }
  [[nodiscard]] std::size_t timed_lanes() const override {
    return config_.lanes;
  }
  [[nodiscard]] std::size_t min_chunks() const override {
    return kSessionBatches;
  }

  void check(std::size_t, Checks& checks) override {
    // Every session's NDJSON verdict stream against a one-lane analyzer
    // over the same stream.
    auto reference = make_analyzer(1);
    std::uint64_t want = kFnvBasis;
    for (const auto& batch : batches_) {
      want = verdict_digest(reference->analyze(batch), want);
    }
    const model::BatchAnalyzer::Stats& ref = reference->stats();
    checks.expect(!session_digests_.empty(), "at least one full session");
    for (std::size_t s = 0; s < session_digests_.size(); ++s) {
      checks.expect_eq(session_digests_[s], want,
                       "session verdicts equal the one-lane verdicts");
      checks.expect_eq(session_stats_[s].cache.misses, ref.cache.misses,
                       "session cache misses equal the one-lane analyzer's");
    }
    checks.expect(ref.schedulable > 0 && ref.unschedulable > 0 &&
                      ref.infeasible > 0,
                  "stream mixes all three verdicts");
  }

  void layer_pass(double budget_s, bool full, MetricTable& rows,
                  Checks& checks) override {
    analyzer_.reset();
    batches_ = candidate_batches(config_.seed);
    const auto rounds =
        run_rounds(budget_s, full, [&] { return round(checks); });
    merge_rounds(rounds, rows, checks);
  }

 private:
  static std::unique_ptr<model::BatchAnalyzer> make_analyzer(
      std::size_t lanes) {
    model::BatchOptions options;
    options.workers = lanes;
    options.memoise = true;
    return std::make_unique<model::BatchAnalyzer>(options);
  }

  Round round(Checks& checks) {
    Round out;
    // Plain session: exact cache and verdict counts.
    auto plain = make_analyzer(config_.lanes);
    for (const auto& batch : batches_) {
      g_sink = g_sink + plain->analyze(batch).size();
    }
    const model::BatchAnalyzer::Stats stats = plain->stats();
    out.exact.add("model.cache_hit_rate",
                  ratio(static_cast<double>(stats.cache.hits),
                        static_cast<double>(stats.cache.lookups)),
                  "ratio");
    out.exact.add("model.cache_misses", static_cast<double>(stats.cache.misses),
                  "count");
    out.exact.add("model.cache_bytes", static_cast<double>(stats.cache.bytes),
                  "bytes");
    out.exact.add("model.verdicts_schedulable",
                  static_cast<double>(stats.schedulable), "count");
    out.exact.add("model.verdicts_unschedulable",
                  static_cast<double>(stats.unschedulable), "count");
    out.exact.add("model.verdicts_infeasible",
                  static_cast<double>(stats.infeasible), "count");

    // Probed session: the same stream with the miss path (supply table
    // construction) and the hit path (RTA over a built table) timed on
    // sampled candidates between batches.
    auto probed = make_analyzer(config_.lanes);
    std::vector<double> supply_us, rta_us;
    const model::AnalysisOptions analysis = probed->options().analysis;
    for (std::size_t b = 0; b < batches_.size(); ++b) {
      g_sink = g_sink + probed->analyze(batches_[b]).size();
      if (b % kProbeEvery != 0) continue;
      const model::Candidate& candidate = batches_[b][b % kBatch];
      const auto schedule = candidate_schedule(candidate);
      if (!schedule) continue;
      for (const model::PartitionModel& pm : candidate.partitions) {
        if (schedule->requirement_for(pm.id) == nullptr) continue;
        const auto s0 = Clock::now();
        const model::PartitionSupply supply(*schedule, pm.id);
        const auto s1 = Clock::now();
        const model::PartitionAnalysis pa =
            model::analyze_partition(*schedule, pm, supply, analysis);
        supply_us.push_back(seconds_between(s0, s1) * 1e6);
        rta_us.push_back(seconds_since(s1) * 1e6);
        g_sink = g_sink + pa.processes.size();
      }
    }
    checks.expect(!supply_us.empty(), "supply/RTA probes found candidates");
    out.timed.add("model.supply_build_us", median(supply_us), "us");
    out.timed.add("model.rta_us", median(rta_us), "us");
    // No profiler covers model and the probes run between the timed calls,
    // so nothing is traced here and there is no overhead to report.
    out.timed.add("telemetry.trace_overhead_frac", 0.0, "ratio");
    out.timed.add("util.pool_run_ns", pool_run_ns(config_.lanes, kBatch), "ns");
    return out;
  }

  RunConfig config_;
  std::vector<std::vector<model::Candidate>> batches_;
  std::unique_ptr<model::BatchAnalyzer> analyzer_;
  std::vector<model::BatchVerdict> verdicts_;
  std::uint64_t session_digest_{kFnvBasis};
  std::vector<std::uint64_t> session_digests_;
  std::vector<model::BatchAnalyzer::Stats> session_stats_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const RunConfig& config) {
  if (name == "fig8_mission") return std::make_unique<Fig8Mission>(config);
  if (name == "world_busy8") {
    return std::make_unique<WorldWorkload>(
        config, WorldShape{"world_busy8", busy8_spec, 200, 1, 10, 3});
  }
  if (name == "constellation1000") {
    return std::make_unique<WorldWorkload>(
        config,
        WorldShape{"constellation1000", constellation_spec, 20, 0, 48, 4});
  }
  if (name == "schedulability_stream") {
    return std::make_unique<SchedulabilityStream>(config);
  }
  return nullptr;
}

}  // namespace perfbench
