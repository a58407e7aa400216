// perfbench: the repository benchmark. One invocation runs one workload,
// checks its outputs, and prints every metric with its unit; the last line
// of standard output is the result object
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
//   perfbench --workload fleet|mqueue|detect --seed N --seconds S
//             --trace 0|1 [--source ID]
//
// --trace 0 reports the end-to-end metrics: set-up and run are timed from
// the outside, passes repeat until S seconds have gone, and per-pass host
// times are reported as medians. --trace 1 runs one untraced and one traced
// pass, checks that both simulate the same thing, replays the recorded
// header stream into standalone layers, and reports the per-layer metrics.
// A failed check prints the reason on stderr, no result, and exits 1.
// perfbench/README.md defines every workload and metric.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "passes.h"
#include "replay.h"
#include "summary.h"

namespace insider::perfbench {
namespace {

struct Args {
  Workload workload = Workload::kFleet;
  std::uint64_t seed = 42;  // default seed; 1729 is held out (README.md)
  double seconds = 10.0;
  bool trace = false;
  std::string source = "unknown";
};

bool ParseArgs(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      std::optional<Workload> w = WorkloadByName(value);
      if (!w) return false;
      args.workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] == '1';
    } else if (key == "--source") {
      args.source = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

std::string Num(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += Quote(m.name) + ": {\"value\": " + Num(m.value) +
           ", \"unit\": " + Quote(m.unit) + "}";
  }
  return out + "}";
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double SimIops(const SimOutputs& s) {
  return Ratio(static_cast<double>(s.dispatched), ToSeconds(s.sim_span));
}

double OfferedIops(const SimOutputs& s) {
  return Ratio(static_cast<double>(s.requests), ToSeconds(s.offered_span));
}

#ifdef __clang__
constexpr const char* kCompiler = "clang " __VERSION__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

std::string MetaJson(const Args& args, const BenchSpec& spec,
                     const SimOutputs& sim) {
  std::string size;
  switch (spec.workload) {
    case Workload::kFleet:
      size = std::to_string(spec.fleet.tenants) + " tenants, " +
             std::to_string(spec.fleet.queue_count) + " queue pairs, " +
             std::to_string(spec.fleet.channels * spec.fleet.ways *
                            spec.fleet.blocks_per_chip) +
             " blocks";
      break;
    case Workload::kMqueue:
      size = std::to_string(spec.mqueue.hosts) + " hosts x " +
             std::to_string(spec.mqueue.commands_per_host) +
             " commands, 4096 blocks";
      break;
    case Workload::kDetect:
      size = std::to_string(sim.devices) + " scenario runs (" +
             std::to_string(spec.detect.seeds_per_scenario) +
             " seeds each), 4096 blocks";
      break;
  }
  size += ", " + std::to_string(sim.requests) + " requests";
#ifdef NDEBUG
  const bool asserts = false;
#else
  const bool asserts = true;
#endif
  return std::string("{\"source\": ") + Quote(args.source) +
         ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
         ", \"cxx_flags\": " + Quote(PERFBENCH_CXX_FLAGS) +
         ", \"asserts\": " + (asserts ? "true" : "false") +
         ", \"compiler\": " + Quote(kCompiler) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"workload\": " + Quote(WorkloadName(args.workload)) +
         ", \"seed\": " + std::to_string(args.seed) +
         ", \"trace\": " + (args.trace ? "1" : "0") +
         ", \"size\": " + Quote(size) + "}";
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16s %s\n", m.name, Num(m.value).c_str(), m.unit);
  }
}

int Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  return 1;
}

/// Lines every record carries besides its metrics: the simulated
/// distribution with its sample count, offered vs served load, failures and
/// the detection tally.
void PrintSimDetail(const SimOutputs& s) {
  const obs::LogHistogram& lat = s.device_latency;
  std::printf("  sim device latency over every media completion (n=%llu; "
              "%llu more completed with no media operation): "
              "p50 %s us, p99 %s us, p99.9 %s us, max %s us\n",
              static_cast<unsigned long long>(lat.Count()),
              static_cast<unsigned long long>(s.instant_completions),
              Num(lat.Quantile(0.5)).c_str(), Num(lat.Quantile(0.99)).c_str(),
              Num(lat.Quantile(0.999)).c_str(), Num(lat.Max()).c_str());
  std::printf("  load: offered %s IOPS, served %s IOPS (sim)\n",
              Num(OfferedIops(s)).c_str(), Num(SimIops(s)).c_str());
  std::printf("  commands: %llu generated, %llu submitted, %llu failed "
              "(failed_ops_frac %s)\n",
              static_cast<unsigned long long>(s.requests),
              static_cast<unsigned long long>(s.submitted),
              static_cast<unsigned long long>(s.failed),
              Num(Ratio(static_cast<double>(s.failed),
                        static_cast<double>(s.submitted)))
                  .c_str());
  std::printf("  detection: %zu/%zu victims, %zu/%zu false alarms, median "
              "latency %s s (sim); read-back %llu/%llu blocks intact\n",
              s.victims_detected, s.victims, s.false_alarms, s.benign,
              Num(Median(s.detect_latency_s)).c_str(),
              static_cast<unsigned long long>(s.blocks_intact),
              static_cast<unsigned long long>(s.blocks_checked));
}

std::vector<Metric> SimMetrics(const SimOutputs& s) {
  return {
      {"sim_iops", "1/sim_s", SimIops(s)},
      {"sim_dev_lat_p50_us", "sim_us", s.device_latency.Quantile(0.5)},
      {"sim_dev_lat_p99_us", "sim_us", s.device_latency.Quantile(0.99)},
      {"alarm_correct_frac", "frac",
       Ratio(static_cast<double>(s.victims_detected + s.benign -
                                 s.false_alarms),
             static_cast<double>(s.victims + s.benign))},
      {"data_intact_frac", "frac",
       Ratio(static_cast<double>(s.blocks_intact),
             static_cast<double>(s.blocks_checked))},
  };
}

/// Prints the record and the result line. `passes` simulated passes ran,
/// each exactly like `sim`.
int Finish(const Args& args, const BenchSpec& spec, const SimOutputs& sim,
           std::size_t passes, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      return Fail(std::string("metric ") + m.name + " is not a number");
    }
  }
  std::printf("{\"record\": {\"meta\": %s, \"metrics\": %s}}\n",
              MetaJson(args, spec, sim).c_str(), MetricsJson(metrics).c_str());
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(sim.submitted * passes),
              static_cast<unsigned long long>(sim.failed * passes),
              MetricsJson(metrics).c_str());
  return 0;
}

int EndToEnd(const Args& args, const BenchSpec& spec) {
  constexpr std::size_t kMinSetupSamples = 3;
  constexpr std::size_t kMaxSetupSamples = 31;
  const SteadyClock::time_point begin = SteadyClock::now();
  std::vector<double> setup_s;
  std::vector<double> cmds_per_s;
  SimOutputs first;
  // Passes repeat while the next one is expected to end within the time
  // budget (always at least one), so a run takes about --seconds.
  auto elapsed = [&] {
    return std::chrono::duration<double>(SteadyClock::now() - begin).count();
  };
  double pass_s = 0.0;
  double peak_rss_mib = 0.0;
  do {
    const double pass_begin = elapsed();
    PassResult pass = RunPass(spec, /*trace=*/false);
    if (!pass.error.empty()) return Fail(pass.error);
    if (cmds_per_s.empty()) {
      // Peak memory of one pass, so it does not depend on how many passes
      // fit in the time budget.
      peak_rss_mib = PeakRssMib();
      first = std::move(pass.sim);
    } else if (std::string d = SimulationDiff(first, pass.sim); !d.empty()) {
      return Fail("pass " + std::to_string(cmds_per_s.size()) +
                  " simulated differently: " + d);
    }
    setup_s.push_back(pass.setup_s);
    cmds_per_s.push_back(
        Ratio(static_cast<double>(first.submitted), pass.run_s));
    pass_s = elapsed() - pass_begin;
  } while (elapsed() + pass_s <= args.seconds);
  // A short set-up is noisy: sample it at least three times, and keep
  // sampling (up to 31) until the samples add up to a second.
  auto total = [&] {
    return std::accumulate(setup_s.begin(), setup_s.end(), 0.0);
  };
  while (setup_s.size() < kMinSetupSamples ||
         (setup_s.size() < kMaxSetupSamples && total() < 1.0)) {
    setup_s.push_back(SetupOnly(spec));
  }

  std::vector<Metric> metrics = {
      {"setup_s", "s", Median(setup_s)},
      {"cmds_per_s", "1/s", Median(cmds_per_s)},
      {"peak_rss_mib", "MiB", peak_rss_mib},
  };
  for (const Metric& m : SimMetrics(first)) metrics.push_back(m);

  std::printf("perfbench %s seed=%llu: %zu passes, %zu set-ups\n",
              WorkloadName(args.workload),
              static_cast<unsigned long long>(args.seed), cmds_per_s.size(),
              setup_s.size());
  std::printf("  per pass cmds_per_s:");
  for (double v : cmds_per_s) std::printf(" %s", Num(v).c_str());
  std::printf("\n  per set-up setup_s:");
  for (double v : setup_s) std::printf(" %s", Num(v).c_str());
  std::printf("\n");
  PrintSimDetail(first);
  PrintMetrics(metrics);
  return Finish(args, spec, first, cmds_per_s.size(), metrics);
}

int PerLayer(const Args& args, const BenchSpec& spec) {
  PassResult plain = RunPass(spec, /*trace=*/false);
  if (!plain.error.empty()) return Fail(plain.error);
  PassResult traced = RunPass(spec, /*trace=*/true);
  if (!traced.error.empty()) return Fail(traced.error);
  if (std::string d = SimulationDiff(plain.sim, traced.sim); !d.empty()) {
    return Fail("the traced pass simulated differently: " + d);
  }
  const SimOutputs& sim = traced.sim;
  const LayerTrace& lt = *traced.trace;

  // Standalone layers, one device stream at a time.
  CoreReplay core_total;
  FtlReplay ftl_total;
  std::size_t max_instances = 0;
  std::size_t max_pool_bytes = 0;
  for (std::size_t i = 0; i < lt.streams.size(); ++i) {
    CoreReplay c = ReplayDetectors(lt.streams[i], lt.run_from[i],
                                   sim.settle[i], lt.device);
    core_total.headers += c.headers;
    core_total.slices_closed += c.slices_closed;
    core_total.observe_ns += c.observe_ns;
    core_total.slice_close_ns += c.slice_close_ns;
    max_instances = std::max(max_instances, c.instances);
    max_pool_bytes = std::max(max_pool_bytes, c.pool_bytes);
    if (lt.device.detector_enabled) {
      // The standalone pool must reproduce the device's detectors exactly.
      const std::vector<DetectorOutcome> device_side =
          spec.workload == Workload::kDetect
              ? std::vector<DetectorOutcome>{sim.detectors[i]}
              : sim.detectors;
      if (c.outcomes != device_side) {
        return Fail("detector replay of device " + std::to_string(i) +
                    " does not reproduce the device's alarms and scores");
      }
    }
    FtlReplay f = ReplayFtl(lt.streams[i], lt.run_from[i], lt.device.ftl);
    ftl_total.write_pages += f.write_pages;
    ftl_total.read_pages += f.read_pages;
    ftl_total.bg_blocks += f.bg_blocks;
    ftl_total.write_ns += f.write_ns;
    ftl_total.read_ns += f.read_ns;
    ftl_total.bg_ns += f.bg_ns;
  }

  ftl::FtlStats fs;
  for (const ftl::FtlStats& s : sim.ftl) {
    fs.host_writes += s.host_writes;
    fs.gc_page_copies += s.gc_page_copies;
    fs.gc_erases += s.gc_erases;
    fs.gc_background_blocks += s.gc_background_blocks;
    fs.gc_invocations += s.gc_invocations;
    fs.gc_stall_time += s.gc_stall_time;
    fs.rollback_entries += s.rollback_entries;
  }
  const double cmds = static_cast<double>(sim.dispatched);
  const double offered = OfferedIops(sim);
  std::vector<Metric> metrics = {
      {"io.self_ns_per_cmd", "ns/cmd", Ratio(lt.loop_ns - lt.device_ns, cmds)},
      {"io.sq_rejections_per_cmd", "count/cmd",
       Ratio(static_cast<double>(sim.sq_rejections), cmds)},
      {"io.cq_stalls", "count", static_cast<double>(sim.cq_stalls)},
      {"io.max_in_flight", "count", static_cast<double>(sim.max_in_flight)},
      {"host.submit_ns_per_cmd", "ns/cmd",
       Ratio(lt.submit.TotalNs(), static_cast<double>(lt.submit.Calls()))},
      {"host.firmware_ns_per_call", "ns/call",
       Ratio(lt.firmware.TotalNs(), static_cast<double>(lt.firmware.Calls()))},
      {"host.firmware_calls_per_cmd", "count/cmd",
       Ratio(static_cast<double>(lt.firmware.Calls()), cmds)},
      {"host.rollback_ns_per_entry", "ns/entry",
       Ratio(lt.rollback.TotalNs(), static_cast<double>(lt.rollback_entries))},
      {"core.observe_ns_per_hdr", "ns/hdr",
       Ratio(core_total.observe_ns, static_cast<double>(core_total.headers))},
      {"core.slice_close_us", "us/slice",
       Ratio(core_total.slice_close_ns / 1000.0,
             static_cast<double>(core_total.slices_closed))},
      {"core.instances", "count", static_cast<double>(max_instances)},
      {"core.pool_bytes", "bytes", static_cast<double>(max_pool_bytes)},
      {"core.victims_detected", "count",
       static_cast<double>(sim.victims_detected)},
      {"core.false_alarms", "count", static_cast<double>(sim.false_alarms)},
      {"core.detect_latency_s", "sim_s", Median(sim.detect_latency_s)},
      {"ftl.write_ns_per_page", "ns/page",
       Ratio(ftl_total.write_ns, static_cast<double>(ftl_total.write_pages))},
      {"ftl.read_ns_per_page", "ns/page",
       Ratio(ftl_total.read_ns, static_cast<double>(ftl_total.read_pages))},
      {"ftl.bg_collect_us_per_block", "us/block",
       Ratio(ftl_total.bg_ns / 1000.0,
             static_cast<double>(ftl_total.bg_blocks))},
      {"ftl.write_amp", "ratio",
       Ratio(static_cast<double>(fs.host_writes + fs.gc_page_copies),
             static_cast<double>(fs.host_writes))},
      {"ftl.gc_erases", "count", static_cast<double>(fs.gc_erases)},
      {"ftl.gc_background_blocks", "count",
       static_cast<double>(fs.gc_background_blocks)},
      {"ftl.gc_inline_invocations", "count",
       static_cast<double>(fs.gc_invocations)},
      {"ftl.gc_stall_ms", "sim_ms",
       static_cast<double>(fs.gc_stall_time) / 1000.0},
      {"ftl.rollback_entries", "count",
       static_cast<double>(fs.rollback_entries)},
      {"wl.offered_iops", "1/sim_s", offered},
      {"wl.served_frac", "frac", Ratio(SimIops(sim), offered)},
      {"wl.completions", "count",
       static_cast<double>(sim.device_latency.Count() +
                           sim.instant_completions)},
      {"trace.overhead_frac", "frac", Ratio(traced.run_s, plain.run_s) - 1.0},
  };

  std::printf("perfbench %s seed=%llu traced: run %s s untraced, %s s "
              "traced; %zu device stream(s), %llu headers replayed\n",
              WorkloadName(args.workload),
              static_cast<unsigned long long>(args.seed),
              Num(plain.run_s).c_str(), Num(traced.run_s).c_str(),
              lt.streams.size(),
              static_cast<unsigned long long>(core_total.headers));
  for (const auto& [name, timer] :
       {std::pair<const char*, const CallTimer*>{"submit", &lt.submit},
        {"firmware", &lt.firmware},
        {"rollback", &lt.rollback}}) {
    if (timer->Calls() == 0) continue;
    std::printf("  host %-8s ns/call over %llu calls: p50 %s, p99 %s\n", name,
                static_cast<unsigned long long>(timer->Calls()),
                Num(timer->ns.Quantile(0.5)).c_str(),
                Num(timer->ns.Quantile(0.99)).c_str());
  }
  PrintSimDetail(sim);
  PrintMetrics(metrics);
  return Finish(args, spec, sim, 2, metrics);
}

}  // namespace
}  // namespace insider::perfbench

int main(int argc, char** argv) {
  using namespace insider::perfbench;
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "perfbench: refusing to measure an unoptimised build "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 3;
#endif
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload fleet|mqueue|detect --seed N "
                 "--seconds S --trace 0|1 [--source ID]\n");
    return 2;
  }
  BenchSpec spec;
  spec.workload = args.workload;
  spec.seed = args.seed;
  return args.trace ? PerLayer(args, spec) : EndToEnd(args, spec);
}
