// airbench: the repository benchmark driver.
//
//   airbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--golden <digest file>] [--describe <git describe>]
//            [--corrupt-expected]
//
// --trace 0 runs five segments, each a burst of timed set-ups followed by
// timed chunks in a closed loop with one caller, for --seconds in all. It
// then checks the outputs against the repository's oracles and prints the
// end-to-end metrics. --trace 1 prints the per-layer metrics instead,
// measured in separate untraced/traced/probe passes on fresh instances.
// The last stdout line is the result object; the lines before it are the
// run manifest and run details.
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "measure.hpp"
#include "system/build_info.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr double kHardCapSeconds = 120.0;  // timed loop ends here regardless
constexpr std::size_t kSegments = 5;
constexpr double kSetupSeconds = 2.0;  // set-up time over all segments
constexpr std::size_t kMaxSetupReps = 2000;
constexpr std::size_t kMinChunks = 200;  // the p95 needs >= 10 beyond it
// End-to-end times are the 1st percentile of their samples. The shared
// host slows this guest by up to 60% for seconds to minutes at a time, and
// a run's mean or median follows how much of it the slow spells covered.
// The fastest percent of a run's chunks and set-ups is the program's own
// cost, as long as the run saw some quiet moments.
constexpr double kFastQuantile = 0.01;

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  int trace{0};
  std::string golden{"tests/golden/fig8_mission_trace.digest"};
  std::string describe{"unknown"};
  bool corrupt{false};
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "airbench: %s\nusage: airbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--golden <file>] "
               "[--describe <text>] [--corrupt-expected]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corrupt-expected") {
      o.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      o.trace = std::atoi(value);
    } else if (arg == "--golden") {
      o.golden = value;
    } else if (arg == "--describe") {
      o.describe = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.seconds <= 0.0) usage("--seconds must be positive");
  return o;
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return 1;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000, nullptr);
  if (max_leaf >= 0x80000004) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002 + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model = brand;
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_manifest(const Options& o, std::size_t lanes,
                    std::size_t timed_lanes) {
  std::printf(
      "{\"manifest\": {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"lanes\": %zu, \"timed_lanes\": %zu, \"build_type\": %s, "
      "\"lto\": %s, \"compiler\": %s, "
      "\"nproc\": %zu, \"cpu_model\": %s, \"git_describe\": %s}}\n",
      json_string(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      o.trace, lanes, timed_lanes,
      json_string(air::system::build_type()).c_str(),
      air::system::lto_build() ? "true" : "false",
      json_string(compiler()).c_str(), online_cpus(),
      json_string(cpu_model()).c_str(), json_string(o.describe).c_str());
}

void print_result(const Checks& checks, const MetricTable& metrics) {
  std::string out = "{\"correct\": ";
  out += checks.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(checks.attempted());
  out += ", \"failed\": " + std::to_string(checks.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.rows()) {
    if (!first) out += ", ";
    first = false;
    out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// --- untraced run: end-to-end metrics -------------------------------------

void untraced_run(const Options& o, Workload& w, Checks& checks,
                  MetricTable& metrics) {
  // The run is kSegments segments. Each starts with a burst of set-ups
  // (the last one is flown) and then runs timed chunks in a closed loop
  // with one caller: the next chunk starts when the previous one returned.
  // Only the set-up and chunk calls are timed; tearing down the previous
  // instance is not set-up and runs before the timer starts. On a shared
  // host the neighbours' load moves in episodes of seconds; spreading the
  // set-ups over the run samples it the way the chunks do.
  std::vector<double> setup_s;
  TimeHistogram chunk_times;
  std::size_t last_segment_chunks = 0;
  const auto loop0 = Clock::now();
  for (std::size_t seg = 0; seg < kSegments; ++seg) {
    const auto burst0 = Clock::now();
    do {
      w.teardown();
      const auto t0 = Clock::now();
      w.setup();
      setup_s.push_back(seconds_since(t0));
    } while (seconds_since(burst0) < kSetupSeconds / kSegments &&
             setup_s.size() < (seg + 1) * kMaxSetupReps / kSegments);
    const auto seg0 = Clock::now();
    std::size_t k = 0;
    for (;; ++k) {
      w.before_chunk(k);
      const auto t0 = Clock::now();
      w.chunk(k);
      chunk_times.add(seconds_since(t0));
      w.after_chunk(k);
      if (seconds_since(seg0) >= o.seconds / kSegments &&
          k + 1 >= w.min_chunks()) {
        break;
      }
      if (seconds_since(loop0) >= kHardCapSeconds) break;
    }
    last_segment_chunks = k + 1;
  }
  const double rss = peak_rss_mib();
  const std::uint64_t chunks = chunk_times.count();
  checks.expect(chunks >= kMinChunks, "run reached the minimum chunk count");

  w.check(last_segment_chunks, checks);

  const double work_per_s =
      w.work_per_chunk() / chunk_times.quantile(kFastQuantile);
  const double mean_work_per_s =
      w.work_per_chunk() * static_cast<double>(chunks) / chunk_times.sum_s();
  metrics.add("work_per_s", work_per_s, "1/s");
  metrics.add("setup_s", quantile(setup_s, kFastQuantile), "s");
  metrics.add("peak_rss_mib", rss, "MiB");

  const double failed_frac =
      checks.attempted() > 0 ? static_cast<double>(checks.failed()) /
                                   static_cast<double>(checks.attempted())
                             : 0.0;
  std::printf(
      "{\"details\": {\"%s\": %s, \"mean_work_per_s\": %s, "
      "\"failed_frac\": %s, \"chunks\": %llu, \"chunk_ms_p01\": %s, "
      "\"p01_head_samples\": %zu, \"chunk_ms_p50\": %s, \"chunk_ms_p95\": %s, "
      "\"p95_tail_samples\": %zu, \"setup_reps\": %zu, \"setup_s_p50\": %s, "
      "\"simulated_timing\": \"unvalidated; no real-hardware reference\"}}\n",
      w.throughput_name(), json_number(work_per_s).c_str(),
      json_number(mean_work_per_s).c_str(), json_number(failed_frac).c_str(),
      static_cast<unsigned long long>(chunks),
      json_number(chunk_times.quantile(kFastQuantile) * 1e3).c_str(),
      static_cast<std::size_t>(chunks / 100),
      json_number(chunk_times.quantile(0.5) * 1e3).c_str(),
      json_number(chunk_times.quantile(0.95) * 1e3).c_str(),
      static_cast<std::size_t>(chunks / 20), setup_s.size(),
      json_number(median(setup_s)).c_str());
}

// --- traced run: per-layer metrics -----------------------------------------

// Every row, with the workloads that measure it. A row comes from the named
// workload when it is listed, else from a short pass of the first listed
// workload (the one the row belongs to), so each traced run reports the
// whole layer table.
struct LayerRow {
  const char* name;
  std::vector<const char*> owners;
};

const std::vector<LayerRow>& layer_rows() {
  static const char* F = "fig8_mission";
  static const char* B = "world_busy8";
  static const char* C = "constellation1000";
  static const char* S = "schedulability_stream";
  static const std::vector<LayerRow> rows = {
      {"pmk.scheduler_ns", {F}},
      {"pmk.dispatcher_ns", {F}},
      {"pmk.context_switches", {F}},
      {"pmk.schedule_switches", {F}},
      {"pmk.preemption_points", {F}},
      {"pal.announce_ns", {F}},
      {"pal.deadline_checks", {F}},
      {"pal.violations", {F}},
      {"pos.kernel_dispatch_ns", {F}},
      {"ipc.router_ns", {F}},
      {"ipc.messages", {F}},
      {"ipc.payload_heap_allocs", {F}},
      {"hal.tlb_hit_rate", {F}},
      {"hal.table_walks", {F}},
      {"hal.mmu_faults", {F}},
      {"hm.errors", {F}},
      {"system.stepped_tick_ns", {F}},
      {"system.tick_self_ns", {F}},
      {"system.executor_ns", {F}},
      {"system.warp_frac", {F, C, B}},
      {"system.warp_spans", {F, C, B}},
      {"system.warp_scan_ns", {F}},
      {"system.epochs", {B, C}},
      {"system.mean_epoch_ticks", {B, C}},
      {"system.frames_merged", {B, C}},
      {"system.epoch_ns", {B, C}},
      {"system.epoch_barrier_ns", {B, C}},
      {"system.epoch_over_lockstep", {B, C}},
      {"system.layer_residue_frac", {F}},
      {"util.pool_run_ns", {B, S, C}},
      {"net.bus_pump_ns", {C, B}},
      {"net.next_delivery_ns", {C, B}},
      {"net.idle_ticks_ns", {C, B}},
      {"net.frames_delivered", {B, C}},
      {"net.mean_latency_ticks", {B, C}},
      {"telemetry.scrape_us", {F}},
      {"telemetry.arena_bytes", {F}},
      {"telemetry.trace_overhead_frac", {F, B, C, S}},
      {"model.cache_hit_rate", {S}},
      {"model.cache_misses", {S}},
      {"model.cache_bytes", {S}},
      {"model.verdicts_schedulable", {S}},
      {"model.verdicts_unschedulable", {S}},
      {"model.verdicts_infeasible", {S}},
      {"model.supply_build_us", {S}},
      {"model.rta_us", {S}},
      {"config.build_ms", {C, F, B}},
      {"system.construct_ms", {C, F, B}},
  };
  return rows;
}

std::string owner_of(const LayerRow& row, const std::string& named) {
  for (const char* owner : row.owners) {
    if (named == owner) return named;
  }
  return row.owners.front();
}

void traced_run(const Options& o, const RunConfig& config, Checks& checks,
                MetricTable& metrics) {
  std::map<std::string, MetricTable> passes;
  {
    MetricTable rows;
    make_workload(o.workload, config)
        ->layer_pass(o.seconds, true, rows, checks);
    passes[o.workload] = std::move(rows);
  }
  for (const LayerRow& row : layer_rows()) {
    const std::string owner = owner_of(row, o.workload);
    if (passes.count(owner) == 0) {
      MetricTable rows;
      make_workload(owner, config)->layer_pass(0.0, false, rows, checks);
      passes[owner] = std::move(rows);
    }
  }
  for (const LayerRow& row : layer_rows()) {
    const std::string owner = owner_of(row, o.workload);
    const Metric* found = nullptr;
    for (const Metric& m : passes[owner].rows()) {
      if (m.name == row.name) found = &m;
    }
    checks.expect(found != nullptr,
                  std::string(row.name) + " measured on " + owner);
    if (found != nullptr) metrics.add(found->name, found->value, found->unit);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = parse(argc, argv);
  RunConfig config;
  config.seed = o.seed;
  config.lanes = std::min<std::size_t>(online_cpus(), 4);
  config.golden_path = o.golden;
  const auto named = make_workload(o.workload, config);
  if (named == nullptr) usage(("unknown workload " + o.workload).c_str());
  print_manifest(o, config.lanes, named->timed_lanes());
  std::fflush(stdout);

  Checks checks;
  checks.corrupt_expected = o.corrupt;
  MetricTable metrics;
  if (o.trace == 0) {
    untraced_run(o, *named, checks, metrics);
  } else {
    traced_run(o, config, checks, metrics);
  }
  for (const Metric& m : metrics.rows()) {
    checks.expect(std::isfinite(m.value), m.name + " is a finite number");
  }
  print_result(checks, metrics);
  return 0;
}
