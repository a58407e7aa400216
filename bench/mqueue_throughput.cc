// Multi-queue frontend characterization.
//
// Part 1 — throughput/latency sweep: synthetic 50/50 read-write streams
// saturate the device through {1, 4, 8} queue pairs at depth {1, 32};
// reports IOPS and p50/p99 submit-to-complete command latency. Depth 1
// serializes each host (one outstanding command), so IOPS is latency-bound;
// depth 32 keeps the channel/way parallelism of the NAND array busy.
//
// Part 2 — detection under interleaving: a ransomware stream multiplexed
// with N benign tenant streams through separate queue pairs; the in-SSD
// detector must still raise the alarm (score >= threshold) even though the
// header stream it sees is the arbitrated interleaving of all tenants.
//
// Part 3 — simulation-engine throughput (ISSUE 7): wall-clock events/sec of
// the engine itself, swept over geometry (seed vs the paper's 512 GB
// PaperScale shape) x shard_threads, with the projected time to simulate a
// 10M-command trace; plus the fleet-parallel dimension (N independent
// devices across io::ParallelFor threads) where the speedup acceptance
// lives — each instance stays bit-deterministic while the fleet scales.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/pretrained.h"
#include "host/experiment.h"
#include "host/ssd.h"
#include "host/ssd_target.h"
#include "io/io_engine.h"
#include "io/shard_runtime.h"
#include "json_writer.h"
#include "obs/metrics.h"
#include "workload/multi_tenant.h"

namespace insider::bench {
namespace {

host::SsdConfig SweepDevice() {
  host::SsdConfig c;
  c.ftl.geometry.channels = 4;
  c.ftl.geometry.ways = 4;
  c.ftl.geometry.blocks_per_chip = 128;
  c.ftl.geometry.pages_per_block = 64;
  c.detector_enabled = false;  // isolate frontend + media behavior
  return c;
}

void ThroughputSweep(JsonWriter& json) {
  PrintHeader("mqueue_throughput — IOPS and latency vs queues x depth");
  std::printf("%7s %6s %12s %12s %12s %9s %9s %9s %9s %8s %8s\n", "queues",
              "depth", "IOPS", "p50_us", "p99_us", "qw_p50", "qw_p99",
              "dev_p50", "dev_p99", "stalls", "max_inf");

  const std::size_t kCommandsPerQueue = RepsFromEnv(4) * 1000;
  json.Key("throughput_sweep").BeginArray();
  for (std::size_t queues : {1u, 4u, 8u}) {
    for (std::size_t depth : {1u, 32u}) {
      host::Ssd ssd(SweepDevice(), core::PretrainedTree());
      host::SsdTarget target(ssd);
      const Lba exported = ssd.Ftl().ExportedLbas();
      const Lba region = exported / static_cast<Lba>(queues);

      // Each queue: a host hammering its own region, arrivals far faster
      // than the media (10 us apart) so queue depth is the limiter.
      Rng rng(0xBE5C'0000 + queues * 100 + depth);
      std::vector<wl::TenantSpec> tenants;
      for (std::size_t q = 0; q < queues; ++q) {
        wl::TenantSpec t;
        t.name = "host" + std::to_string(q);
        t.stamp_base = q * 1'000'000ull;
        for (std::size_t i = 0; i < kCommandsPerQueue; ++i) {
          IoRequest req;
          req.time = CostOf(i, 10);
          req.lba = region * q + rng.Below(region > 8 ? region - 8 : 1);
          req.length = 1;
          req.mode = rng.Chance(0.5) ? IoMode::kRead : IoMode::kWrite;
          t.requests.push_back(req);
        }
        tenants.push_back(std::move(t));
      }

      io::EngineConfig ecfg;
      ecfg.queue_count = queues;
      ecfg.queue.sq_depth = depth;
      io::IoEngine engine(target, ecfg);
      // Latency via the metrics registry: the engine records every
      // command's submit-to-complete time (engine.latency_us) and splits it
      // into queue-wait and device time (engine.queue_wait_us /
      // engine.device_us). Recording never touches virtual time, so the
      // IOPS column is identical with or without the registry attached.
      obs::MetricsRegistry metrics;
      engine.AttachObs(nullptr, &metrics);
      wl::MultiTenantDriver driver(std::move(tenants));
      wl::MultiTenantReport report = driver.Run(engine);

      std::uint64_t stalls = 0;
      for (const wl::TenantResult& t : report.tenants) {
        stalls += t.stall_events;
      }
      const obs::LogHistogram& lat = metrics.GetHistogram("engine.latency_us");
      const obs::LogHistogram& qw = metrics.GetHistogram("engine.queue_wait_us");
      const obs::LogHistogram& dev = metrics.GetHistogram("engine.device_us");
      const double p50 = lat.Quantile(0.50);
      const double p99 = lat.Quantile(0.99);
      std::printf("%7zu %6zu %12.0f %12.0f %12.0f %9.0f %9.0f %9.0f %9.0f "
                  "%8llu %8llu\n",
                  queues, depth, report.TotalIops(), p50, p99,
                  qw.Quantile(0.50), qw.Quantile(0.99), dev.Quantile(0.50),
                  dev.Quantile(0.99), static_cast<unsigned long long>(stalls),
                  static_cast<unsigned long long>(
                      engine.Stats().max_in_flight));
      json.BeginObject()
          .Field("queues", queues)
          .Field("depth", depth)
          .Field("commands_per_queue", kCommandsPerQueue)
          .Field("iops", report.TotalIops())
          .Field("p50_us", p50)
          .Field("p99_us", p99)
          .Field("queue_wait_p50_us", qw.Quantile(0.50))
          .Field("queue_wait_p99_us", qw.Quantile(0.99))
          .Field("device_p50_us", dev.Quantile(0.50))
          .Field("device_p99_us", dev.Quantile(0.99))
          .Field("stalls", stalls)
          .Field("max_in_flight", engine.Stats().max_in_flight)
          .EndObject();
    }
  }
  json.EndArray();
}

void InterleavedDetection(JsonWriter& json) {
  PrintHeader("detection under multi-tenant interleaving (queue frontend)");
  core::DecisionTree tree = core::PretrainedTree();

  json.Key("interleaved_detection").BeginArray();
  for (const char* family : {"WannaCry", "Mole", "InHouse.inplace"}) {
    host::InterleavedConfig cfg;
    cfg.benign_tenants = 3;
    cfg.ransomware = family;
    cfg.duration = Seconds(40);
    cfg.ransom_start = Seconds(12);
    cfg.seed = 7;
    host::InterleavedResult r = host::RunInterleavedDetection(tree, cfg);
    std::printf(
        "%-16s + %zu benign tenants: score %d/%zu %s  latency %.1f s\n",
        family, cfg.benign_tenants, r.max_score, cfg.detector.window_slices,
        r.alarm ? "ALARM" : "missed",
        r.alarm ? ToSeconds(r.detection_latency) : 0.0);
    json.BeginObject()
        .Field("ransomware", family)
        .Field("benign_tenants", cfg.benign_tenants)
        .Field("max_score", r.max_score)
        .Field("alarm", r.alarm)
        .Field("detection_latency_s",
               r.alarm ? ToSeconds(r.detection_latency) : 0.0)
        .EndObject();
  }

  host::InterleavedConfig benign;
  benign.benign_tenants = 4;
  benign.ransomware.clear();
  benign.duration = Seconds(40);
  benign.seed = 7;
  host::InterleavedResult r = host::RunInterleavedDetection(tree, benign);
  std::printf("benign control  (%zu tenants):        score %d/%zu %s\n",
              benign.benign_tenants, r.max_score,
              benign.detector.window_slices,
              r.alarm ? "FALSE ALARM" : "quiet");
  json.BeginObject()
      .Field("ransomware", "")
      .Field("benign_tenants", benign.benign_tenants)
      .Field("max_score", r.max_score)
      .Field("alarm", r.alarm)
      .EndObject();
  json.EndArray();
}

std::vector<wl::TenantSpec> EngineStreams(std::size_t queues,
                                          std::size_t commands_per_queue,
                                          Lba exported, std::uint64_t seed) {
  const Lba region = exported / static_cast<Lba>(queues);
  Rng rng(seed);
  std::vector<wl::TenantSpec> tenants;
  for (std::size_t q = 0; q < queues; ++q) {
    wl::TenantSpec t;
    t.name = "host" + std::to_string(q);
    t.stamp_base = q * 1'000'000ull;
    for (std::size_t i = 0; i < commands_per_queue; ++i) {
      IoRequest req;
      req.time = CostOf(i, 10);
      req.lba = region * q + rng.Below(64);
      req.length = 1;
      req.mode = rng.Chance(0.5) ? IoMode::kRead : IoMode::kWrite;
      t.requests.push_back(req);
    }
    tenants.push_back(std::move(t));
  }
  return tenants;
}

struct EngineRun {
  double wall_s = 0;
  std::uint64_t dispatched = 0;
  std::vector<std::uint64_t> lane_ops;  ///< deferred programs per channel
};

EngineRun RunEngineOnce(const nand::Geometry& geo, std::size_t shard_threads,
                        std::size_t commands_per_queue, std::uint64_t seed) {
  constexpr std::size_t kQueues = 8;
  host::SsdConfig scfg;
  scfg.ftl.geometry = geo;
  scfg.detector_enabled = false;
  host::Ssd ssd(scfg, core::PretrainedTree());
  host::SsdTarget target(ssd);

  io::EngineConfig ecfg;
  ecfg.queue_count = kQueues;
  ecfg.queue.sq_depth = 32;
  ecfg.shard_threads = shard_threads;
  io::IoEngine engine(target, ecfg);
  wl::MultiTenantDriver driver(EngineStreams(
      kQueues, commands_per_queue, ssd.Ftl().ExportedLbas(), seed));

  EngineRun run;
  const double begin = WallSeconds();
  driver.Run(engine);
  engine.PublishShardMetrics();  // drains the lanes before the clock stops
  run.wall_s = WallSeconds() - begin;
  run.dispatched = engine.Stats().dispatched;
  if (const io::ShardRuntime* shards = engine.Shards()) {
    for (const io::ShardLaneStats& lane : shards->LaneStats()) {
      run.lane_ops.push_back(lane.ops);
    }
  }
  return run;
}

void EngineThroughputSweep(JsonWriter& json) {
  PrintHeader("simulation-engine throughput — events/sec vs geometry x shards");
  std::printf("%12s %7s %12s %12s %14s\n", "geometry", "shards", "commands",
              "events/s", "10M-cmd (s)");

  // INSIDER_BENCH_REPS=1 keeps CI smokes to 80k commands; the default
  // measures 320k and the projection column scales to the 10M-command trace
  // the full reproduction replays.
  const std::size_t kCommandsPerQueue = RepsFromEnv(4) * 10'000;
  struct GeoCase {
    const char* name;
    nand::Geometry geo;
  };
  const GeoCase kGeos[] = {
      {"seed", nand::Geometry::Seed()},
      {"paper-512g", nand::Geometry::PaperScale()},
  };
  json.Key("engine_throughput").BeginArray();
  for (const GeoCase& gc : kGeos) {
    for (std::size_t shards : {0u, 1u, 2u, 4u, 8u}) {
      EngineRun run = RunEngineOnce(gc.geo, shards, kCommandsPerQueue,
                                    0xE7E'0000 + shards);
      const double eps = run.wall_s > 0
                             ? static_cast<double>(run.dispatched) / run.wall_s
                             : 0.0;
      const double to_10m = eps > 0 ? 1e7 / eps : 0.0;
      std::printf("%12s %7zu %12llu %12.0f %14.1f\n", gc.name, shards,
                  static_cast<unsigned long long>(run.dispatched), eps,
                  to_10m);
      json.BeginObject()
          .Field("geometry", gc.name)
          .Field("capacity_gib",
                 static_cast<double>(gc.geo.CapacityBytes()) /
                     (1024.0 * 1024.0 * 1024.0))
          .Field("shard_threads", shards)
          .Field("commands", run.dispatched)
          .Field("wall_s", run.wall_s)
          .Field("events_per_sec", eps)
          .Field("time_to_simulate_10m_cmds_s", to_10m);
      json.Key("lane_deferred_ops").BeginArray();
      for (std::uint64_t ops : run.lane_ops) json.Value(ops);
      json.EndArray();
      json.EndObject();
    }
  }
  json.EndArray();
}

void FleetParallelSweep(JsonWriter& json) {
  PrintHeader("fleet-parallel scaling — 8 independent devices, 8x8 geometry");
  std::printf("%8s %10s %10s %9s %12s\n", "threads", "instances", "wall_s",
              "speedup", "events/s");

  // Eight independent simulations (distinct seeds, same 8-channel x 8-way
  // geometry) spread across a thread pool. Each instance is the serial
  // deterministic engine; the fleet is where wall-clock scaling comes from —
  // this is how the detection-accuracy sweeps replay many traces at once.
  nand::Geometry geo;
  geo.channels = 8;
  geo.ways = 8;
  geo.blocks_per_chip = 256;
  geo.pages_per_block = 64;
  constexpr std::size_t kInstances = 8;
  const std::size_t kCommandsPerQueue = RepsFromEnv(4) * 2'500;

  double baseline_s = 0;
  json.Key("fleet_parallel").BeginArray();
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    const double begin = WallSeconds();
    io::ParallelFor(kInstances, threads, [&](std::size_t i) {
      RunEngineOnce(geo, 0, kCommandsPerQueue, 0xF1EE7'00 + i);
    });
    const double wall_s = WallSeconds() - begin;
    if (threads == 1) baseline_s = wall_s;
    const double speedup = wall_s > 0 ? baseline_s / wall_s : 0.0;
    const double total_cmds =
        static_cast<double>(kInstances * 8 * kCommandsPerQueue);
    std::printf("%8zu %10zu %10.2f %9.2f %12.0f\n", threads, kInstances,
                wall_s, speedup, wall_s > 0 ? total_cmds / wall_s : 0.0);
    json.BeginObject()
        .Field("threads", threads)
        .Field("hardware_threads",
               static_cast<std::uint64_t>(io::HardwareThreads()))
        .Field("instances", kInstances)
        .Field("commands_per_instance", 8 * kCommandsPerQueue)
        .Field("wall_s", wall_s)
        .Field("speedup_vs_serial", speedup)
        .Field("events_per_sec", wall_s > 0 ? total_cmds / wall_s : 0.0)
        .EndObject();
  }
  json.EndArray();
}

}  // namespace
}  // namespace insider::bench

int main() {
  using insider::bench::JsonWriter;
  JsonWriter json("BENCH_mqueue.json");
  json.BeginObject();
  json.Field("bench", "mqueue_throughput");
  insider::bench::ThroughputSweep(json);
  insider::bench::InterleavedDetection(json);
  insider::bench::EngineThroughputSweep(json);
  insider::bench::FleetParallelSweep(json);
  json.EndObject();
  std::printf("[bench] wrote %s\n", json.Path().c_str());
  return 0;
}
