// GC characterization on the refactored FTL.
//
// Part 1 — delayed-deletion matrix: greedy GC with delayed deletion {off,
// on} under the same high-utilization mixed workload on a raw PageFtl.
// Reports the reclamation economics (page copies, retained copies, erases,
// forced backup releases) and the wear spread, i.e. what retaining
// displaced versions for the recovery window costs GC. Greedy victim
// selection (fewest movable pages, then least worn) is the FTL's only
// rule; tests/gc_policy_test.cc pins its counters on a similar workload
// against the pre-split monolith.
//
// Part 2 — background vs inline GC: the same sustained rewrite stream
// driven through Ssd + IoEngine with the default (non-zero) NAND latency
// model. With the watermark task armed (default) the firmware scheduler
// reclaims during inter-command gaps and foreground writes never block;
// with the low watermark disabled every reclamation happens inline inside
// a host write, which is exactly the stall time `gc_stall_time` accrues.
//
// Emits BENCH_gc.json next to the human-readable tables so CI can diff
// runs without scraping stdout.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "ftl/page_ftl.h"
#include "host/ssd.h"
#include "host/ssd_target.h"
#include "io/io_engine.h"
#include "json_writer.h"
#include "nand/geometry.h"

namespace insider::bench {
namespace {

std::uint64_t Lcg(std::uint64_t& s) {
  s = s * 6364136223846793005ull + 1442695040888963407ull;
  return s >> 33;
}

nand::Geometry MediumGeometry() {
  nand::Geometry g;
  g.channels = 2;
  g.ways = 2;
  g.blocks_per_chip = 32;
  g.pages_per_block = 16;
  return g;
}

// ---------------------------------------------------------------------------
// Part 1: delayed-deletion matrix on a raw PageFtl.

struct MatrixRow {
  bool delayed;
  ftl::FtlStats stats;
  ftl::PageFtl::WearStats wear;
};

MatrixRow RunMatrixCell(bool delayed, std::size_t ops) {
  ftl::FtlConfig cfg;
  cfg.geometry = MediumGeometry();
  cfg.latency = nand::LatencyModel::Zero();
  cfg.delayed_deletion = delayed;
  cfg.retention_window = Seconds(2);
  ftl::PageFtl ftl(cfg);

  const Lba n = ftl.ExportedLbas();
  SimTime t = Seconds(1);
  // Fill 90% of the exported range, then hammer it with a write-heavy mix.
  for (Lba lba = 0; lba < n * 9 / 10; ++lba) {
    ftl.WritePage(lba, {lba, {}}, t);
  }
  std::uint64_t seed = 0xC0FFEE;
  for (std::size_t i = 0; i < ops; ++i) {
    t += Milliseconds(1);
    Lba lba = Lcg(seed) % (n * 9 / 10);
    std::uint64_t dice = Lcg(seed) % 10;
    if (dice < 8) {
      ftl.WritePage(lba, {1'000'000 + i, {}}, t);
    } else if (dice == 8) {
      ftl.TrimPage(lba, t);
    } else {
      ftl.ReadPage(lba, t);
    }
  }

  MatrixRow row;
  row.delayed = delayed;
  row.stats = ftl.Stats();
  row.wear = ftl.Wear();
  return row;
}

void DelayedDeletionMatrix(JsonWriter& json, std::size_t reps) {
  PrintHeader("gc_policies — greedy GC x delayed deletion");
  const std::size_t ops = 5000 * reps;
  std::printf("workload: %zu mixed ops (8/1/1 write/trim/read), 90%% util\n",
              ops);
  std::printf("%-8s %10s %10s %8s %8s %7s %7s %7s\n", "delayed", "copies",
              "ret_cp", "erases", "forced", "wr_min", "wr_max", "wr_avg");

  json.Key("delayed_deletion_matrix").BeginArray();
  for (bool delayed : {false, true}) {
    MatrixRow r = RunMatrixCell(delayed, ops);
    std::printf("%-8s %10llu %10llu %8llu %8llu %7llu %7llu %7.1f\n",
                r.delayed ? "on" : "off",
                (unsigned long long)r.stats.gc_page_copies,
                (unsigned long long)r.stats.gc_retained_copies,
                (unsigned long long)r.stats.gc_erases,
                (unsigned long long)r.stats.forced_releases,
                (unsigned long long)r.wear.min_erases,
                (unsigned long long)r.wear.max_erases, r.wear.mean_erases);
    json.BeginObject()
        .Field("delayed_deletion", r.delayed)
        .Field("host_writes", r.stats.host_writes)
        .Field("gc_page_copies", r.stats.gc_page_copies)
        .Field("gc_retained_copies", r.stats.gc_retained_copies)
        .Field("gc_erases", r.stats.gc_erases)
        .Field("gc_invocations", r.stats.gc_invocations)
        .Field("forced_releases", r.stats.forced_releases)
        .Field("retained_released", r.stats.retained_released)
        .Field("wear_min", r.wear.min_erases)
        .Field("wear_max", r.wear.max_erases)
        .Field("wear_mean", r.wear.mean_erases)
        .Field("copies_per_write",
               r.stats.host_writes
                   ? static_cast<double>(r.stats.gc_page_copies) /
                         static_cast<double>(r.stats.host_writes)
                   : 0.0)
        .EndObject();
  }
  json.EndArray();
}

// ---------------------------------------------------------------------------
// Part 2: background (watermark task) vs inline GC through the I/O engine.

struct StallRun {
  const char* mode;
  ftl::FtlStats stats;
  SimTime makespan = 0;
  std::size_t writes = 0;
};

StallRun RunSustainedWrites(bool background, std::size_t rounds) {
  host::SsdConfig cfg;
  cfg.ftl.geometry = MediumGeometry();
  // Default latency model: programs/erases cost real virtual time, so the
  // gaps between 1 ms write arrivals are genuine idle the scheduler can use
  // and inline GC shows up as measurable stall.
  cfg.ftl.delayed_deletion = false;
  cfg.detector_enabled = false;
  if (!background) cfg.ftl.gc_low_watermark_blocks = 0;
  host::Ssd ssd(cfg, core::DecisionTree{});
  host::SsdTarget target(ssd);

  io::EngineConfig ecfg;
  ecfg.queue_count = 1;
  ecfg.queue.sq_depth = 32;
  io::IoEngine engine(target, ecfg);

  const Lba n = ssd.Ftl().ExportedLbas();
  const Lba span = n * 9 / 10;
  std::uint64_t stamp = 0;
  SimTime t = 0;
  auto submit = [&](const IoRequest& req) {
    while (!engine.TrySubmit(0, req, stamp)) {
      engine.Step();
      while (engine.PopCompletion(0)) {
      }
    }
    ++stamp;
  };

  // Warm-up fill so every subsequent write displaces an older version.
  for (Lba lba = 0; lba < span; ++lba) {
    t += Microseconds(100);
    submit({t, lba, 1, IoMode::kWrite});
  }
  engine.Drain();
  while (engine.PopCompletion(0)) {
  }
  ssd.Ftl().ResetStats();
  const SimTime start = engine.Now();

  std::uint64_t seed = 0xD15C;
  std::size_t writes = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (Lba i = 0; i < span; ++i) {
      t += Milliseconds(1);
      submit({t, Lcg(seed) % span, 1, IoMode::kWrite});
      ++writes;
    }
  }
  engine.Drain();
  while (engine.PopCompletion(0)) {
  }

  StallRun run;
  run.mode = background ? "background" : "inline";
  run.stats = ssd.Ftl().Stats();
  run.makespan = engine.Now() - start;
  run.writes = writes;
  return run;
}

void BackgroundVsInline(JsonWriter& json, std::size_t reps) {
  PrintHeader("gc_policies — background (watermark) vs inline GC stall");
  const std::size_t rounds = 2 + reps;
  std::printf("%-12s %12s %10s %10s %10s %12s\n", "mode", "stall_us",
              "fg_invoc", "bg_blocks", "copies", "makespan_ms");

  json.Key("background_vs_inline").BeginArray();
  SimTime stall[2] = {0, 0};
  int idx = 0;
  for (bool background : {false, true}) {
    StallRun r = RunSustainedWrites(background, rounds);
    stall[idx++] = r.stats.gc_stall_time;
    std::printf("%-12s %12lld %10llu %10llu %10llu %12.1f\n", r.mode,
                (long long)r.stats.gc_stall_time,
                (unsigned long long)r.stats.gc_invocations,
                (unsigned long long)r.stats.gc_background_blocks,
                (unsigned long long)r.stats.gc_page_copies,
                ToSeconds(r.makespan) * 1e3);
    json.BeginObject()
        .Field("mode", r.mode)
        .Field("writes", r.writes)
        .Field("gc_stall_us", r.stats.gc_stall_time)
        .Field("gc_invocations", r.stats.gc_invocations)
        .Field("gc_background_blocks", r.stats.gc_background_blocks)
        .Field("gc_page_copies", r.stats.gc_page_copies)
        .Field("makespan_us", r.makespan)
        .Field("stall_per_write_us",
               r.writes ? static_cast<double>(r.stats.gc_stall_time) /
                              static_cast<double>(r.writes)
                        : 0.0)
        .EndObject();
  }
  json.EndArray();

  const double reduction =
      stall[0] > 0
          ? 100.0 * (1.0 - static_cast<double>(stall[1]) /
                               static_cast<double>(stall[0]))
          : 0.0;
  std::printf("foreground write-stall reduction: %.1f%% (inline %lld us -> "
              "background %lld us)\n",
              reduction, (long long)stall[0], (long long)stall[1]);
  json.Field("stall_reduction_percent", reduction);
}

}  // namespace
}  // namespace insider::bench

int main() {
  using insider::bench::JsonWriter;
  const std::size_t reps = insider::bench::RepsFromEnv(4);
  JsonWriter json("BENCH_gc.json");
  json.BeginObject();
  json.Field("bench", "gc_policies").Field("reps", reps);
  insider::bench::DelayedDeletionMatrix(json, reps);
  insider::bench::BackgroundVsInline(json, reps);
  json.EndObject();
  std::printf("[bench] wrote %s\n", json.Path().c_str());
  return 0;
}
