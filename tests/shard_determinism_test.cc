// Differential determinism suite (ISSUE 7 satellite): the channel-sharded
// execution runtime must be bit-identical to the serial reference path. The
// same multi-queue trace is played through IoEngine + SsdTarget at
// shard_threads = 0 (serial) and 1/2/4/8, and every observable output is
// compared exactly: FtlStats, engine stats, every command's dispatch and
// completion time (recorded at the device boundary), per-tenant accounting
// and latency histograms, detector slice history (features, votes, scores),
// trace-span timelines, and the device contents read back at the end.
//
// A 100-seed property run repeats the comparison on randomized small traces
// (toy geometry) so it stays viable under -DINSIDER_AUDIT=ON.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/pretrained.h"
#include "dispatch_recorder.h"
#include "host/ssd.h"
#include "host/ssd_target.h"
#include "io/io_engine.h"
#include "io/shard_runtime.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/multi_tenant.h"

namespace insider {
namespace {

/// Tree voting ransomware iff OWIO > 30 (same shape ssd_test uses).
core::DecisionTree SimpleTree() {
  std::vector<core::DecisionTree::Node> nodes(3);
  nodes[0].is_leaf = false;
  nodes[0].feature = core::FeatureId::kOwIo;
  nodes[0].threshold = 30.0;
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[1].is_leaf = true;
  nodes[1].label = false;
  nodes[2].is_leaf = true;
  nodes[2].label = true;
  return core::DecisionTree(std::move(nodes));
}

struct TenantTrace {
  std::string name;
  std::vector<std::uint64_t> completed;
  SimTime last_complete_time = 0;
  /// The latency histogram's count, sum, min and max.
  std::vector<double> latency;
  std::uint64_t stalls = 0;

  friend bool operator==(const TenantTrace&, const TenantTrace&) = default;
};

struct DetectorSlice {
  SimTime end_time = 0;
  bool vote = false;
  int score = 0;
  std::array<double, core::kFeatureCount> features{};

  friend bool operator==(const DetectorSlice&, const DetectorSlice&) = default;
};

using SpanKey = std::tuple<std::string, std::string, obs::TraceId,
                           std::uint32_t, SimTime, SimTime, std::int64_t>;

/// Everything a run can observably produce, collected for exact comparison.
struct RunOutput {
  ftl::FtlStats ftl_stats;
  std::uint64_t dispatched = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t completed_error = 0;
  SimTime end_time = 0;
  bool alarm = false;
  std::vector<TenantTrace> tenants;
  std::vector<DispatchRecord> dispatches;  ///< every command, in order
  std::vector<DetectorSlice> detector;
  std::vector<SpanKey> spans;
  std::vector<std::uint64_t> content_stamps;
  bool rebuilt_fast = false;        ///< checkpointed run: fast path taken
  std::uint64_t rebuild_reads = 0;  ///< checkpoint + journal + delta reads
};

std::vector<wl::TenantSpec> BuildTenants(std::uint64_t seed,
                                         std::size_t queues,
                                         std::size_t commands_per_queue,
                                         Lba exported) {
  Rng rng(seed);
  const Lba region = exported / static_cast<Lba>(queues);
  std::vector<wl::TenantSpec> tenants;
  for (std::size_t q = 0; q < queues; ++q) {
    wl::TenantSpec t;
    t.name = "host" + std::to_string(q);
    t.stamp_base = (q + 1) * 1'000'000ull;
    // The last tenant behaves like ransomware: read-then-overwrite bursts
    // that keep the detector's slice history busy.
    t.is_ransomware = (q + 1 == queues);
    for (std::size_t i = 0; i < commands_per_queue; ++i) {
      IoRequest req;
      req.time = CostOf(i, 20'000);  // ~50 cmds per 1 s slice
      req.lba = region * q + rng.Below(24);
      req.length = static_cast<std::uint32_t>(1 + rng.Below(2));
      if (t.is_ransomware) {
        req.mode = (i % 2 == 0) ? IoMode::kRead : IoMode::kWrite;
        if (req.mode == IoMode::kWrite) req.lba = region * q + (i / 2) % 24;
      } else {
        req.mode = rng.Chance(0.5) ? IoMode::kRead : IoMode::kWrite;
      }
      t.requests.push_back(req);
    }
    tenants.push_back(std::move(t));
  }
  return tenants;
}

RunOutput RunTrace(std::size_t shard_threads, std::uint64_t seed,
                   const nand::Geometry& geometry, std::size_t queues,
                   std::size_t commands_per_queue, bool collect_spans,
                   bool checkpoint_and_cycle = false) {
  host::SsdConfig scfg;
  scfg.ftl.geometry = geometry;
  scfg.ftl.latency = nand::LatencyModel::Zero();
  scfg.ftl.checkpoint.enabled = checkpoint_and_cycle;
  scfg.detector.slice_length = Seconds(1);
  scfg.detector.window_slices = 10;
  scfg.detector.score_threshold = 1000;  // observe scores, never latch
  host::Ssd ssd(scfg, SimpleTree());
  host::SsdTarget ssd_target(ssd);
  DispatchRecorder target(ssd_target);

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  ssd.AttachObs(&tracer, &metrics);

  io::EngineConfig ecfg;
  ecfg.queue_count = queues;
  ecfg.queue.sq_depth = 16;
  ecfg.shard_threads = shard_threads;
  io::IoEngine engine(target, ecfg);
  engine.AttachObs(&tracer, &metrics);

  wl::MultiTenantDriver driver(BuildTenants(
      seed, queues, commands_per_queue, ssd.Ftl().ExportedLbas()));
  wl::MultiTenantReport report = driver.Run(engine);
  engine.PublishShardMetrics();

  RunOutput out;
  if (checkpoint_and_cycle) {
    // Pin a checkpoint horizon right after the trace (any pre-emptive
    // commits during the run already happened identically), then cut
    // power: the rebuild must sync the deferred lanes before touching
    // media, restore the snapshot and replay the journal — bit-identically
    // at every thread count.
    ssd.Ftl().TakeCheckpoint(report.end_time + Seconds(1));
    ftl::PageFtl::RebuildReport rebuild = ssd.PowerCycle(
        report.end_time + Seconds(2), report.end_time + Seconds(3));
    out.rebuilt_fast = rebuild.used_checkpoint;
    out.rebuild_reads = rebuild.checkpoint_pages_read +
                        rebuild.journal_pages_read +
                        rebuild.delta_pages_scanned;
  }
  out.ftl_stats = ssd.Ftl().Stats();
  out.dispatched = engine.Stats().dispatched;
  out.completed_ok = engine.Stats().completed_ok;
  out.completed_error = engine.Stats().completed_error;
  out.end_time = report.end_time;
  out.alarm = ssd.AlarmActive();
  for (const wl::TenantResult& t : report.tenants) {
    TenantTrace tt;
    tt.name = t.name;
    tt.completed = {t.submitted, t.completed, t.errors};
    tt.last_complete_time = t.last_complete_time;
    tt.latency = {static_cast<double>(t.latency_us.Count()),
                  t.latency_us.Sum(), t.latency_us.Min(), t.latency_us.Max()};
    tt.stalls = t.stall_events;
    out.tenants.push_back(std::move(tt));
  }
  out.dispatches = target.Records();
  for (const core::SliceRecord& s : ssd.Detector().History()) {
    DetectorSlice d;
    d.end_time = s.end_time;
    d.vote = s.vote;
    d.score = s.score;
    d.features = s.features.values;
    out.detector.push_back(d);
  }
  if (collect_spans && obs::TraceCompiledIn()) {
    for (const obs::TraceEvent& e : tracer.Buffer().Snapshot()) {
      out.spans.emplace_back(e.name, e.cat, e.trace, e.track, e.begin, e.end,
                             e.arg);
    }
  }
  // Device contents: stamps read back across every tenant's region. Reads
  // go through the FTL (and therefore through the shard sync path).
  const Lba region = ssd.Ftl().ExportedLbas() / static_cast<Lba>(queues);
  const SimTime probe_time =
      out.end_time + (checkpoint_and_cycle ? Seconds(5) : Seconds(1));
  for (std::size_t q = 0; q < queues; ++q) {
    for (Lba i = 0; i < 24; ++i) {
      ftl::FtlResult r = ssd.Ftl().ReadPage(region * q + i, probe_time);
      out.content_stamps.push_back(r.ok() ? r.data.stamp : ~std::uint64_t{0});
    }
  }
  return out;
}

void ExpectIdentical(const RunOutput& serial, const RunOutput& sharded,
                     const std::string& label) {
  EXPECT_EQ(serial.ftl_stats, sharded.ftl_stats) << label;
  EXPECT_EQ(serial.dispatched, sharded.dispatched) << label;
  EXPECT_EQ(serial.completed_ok, sharded.completed_ok) << label;
  EXPECT_EQ(serial.completed_error, sharded.completed_error) << label;
  EXPECT_EQ(serial.end_time, sharded.end_time) << label;
  EXPECT_EQ(serial.alarm, sharded.alarm) << label;
  EXPECT_EQ(serial.tenants, sharded.tenants) << label;
  EXPECT_EQ(serial.dispatches, sharded.dispatches) << label;
  EXPECT_EQ(serial.detector, sharded.detector) << label;
  EXPECT_EQ(serial.spans, sharded.spans) << label;
  EXPECT_EQ(serial.content_stamps, sharded.content_stamps) << label;
  EXPECT_EQ(serial.rebuilt_fast, sharded.rebuilt_fast) << label;
  EXPECT_EQ(serial.rebuild_reads, sharded.rebuild_reads) << label;
}

nand::Geometry MediumGeometry() {
  nand::Geometry g;
  g.channels = 4;
  g.ways = 4;
  g.blocks_per_chip = 128;
  g.pages_per_block = 64;
  return g;
}

TEST(ShardDeterminismTest, ShardedMatchesSerialAtEveryThreadCount) {
  const bool audit = ftl::PageFtl::AuditHooksEnabled();
  // Audit builds sweep O(pages) per mutation: shrink the trace, keep the
  // exact same comparison.
  const std::size_t commands = audit ? 120 : 600;
  RunOutput serial =
      RunTrace(0, 0x5EED'0001, MediumGeometry(), 8, commands, true);
  ASSERT_EQ(serial.dispatched, 8u * commands);
  ASSERT_FALSE(serial.detector.empty());
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    RunOutput sharded =
        RunTrace(threads, 0x5EED'0001, MediumGeometry(), 8, commands, true);
    ExpectIdentical(serial, sharded,
                    "shard_threads=" + std::to_string(threads));
  }
}

TEST(ShardDeterminismTest, ShardRuntimeReportsLaneActivity) {
  host::SsdConfig scfg;
  scfg.ftl.geometry = MediumGeometry();
  scfg.ftl.latency = nand::LatencyModel::Zero();
  scfg.detector_enabled = false;
  host::Ssd ssd(scfg, core::PretrainedTree());
  host::SsdTarget target(ssd);
  io::EngineConfig ecfg;
  ecfg.queue_count = 4;
  ecfg.shard_threads = 4;
  io::IoEngine engine(target, ecfg);
  wl::MultiTenantDriver driver(
      BuildTenants(0xA11CE, 4, 200, ssd.Ftl().ExportedLbas()));
  driver.Run(engine);
  ASSERT_NE(engine.Shards(), nullptr);
  const io::ShardRuntime& shards = *engine.Shards();
  EXPECT_EQ(shards.LaneCount(), MediumGeometry().channels);
  std::uint64_t total_ops = 0;
  for (const io::ShardLaneStats& lane : shards.LaneStats()) {
    total_ops += lane.ops;
  }
  // Every host/GC program was routed through a lane.
  EXPECT_EQ(total_ops, ssd.Ftl().Stats().host_writes +
                           ssd.Ftl().Stats().gc_page_copies);
}

TEST(ShardDeterminismTest, CheckpointedRebuildMatchesSerialUnderShards) {
  // The O(Δ) recovery path on top of the sharded runtime (ISSUE 8): with
  // checkpointing enabled, metadata programs ride the same deferred lanes
  // as host writes, and RebuildFromNand's ladder — sync lanes, validate
  // stamps, replay, delta-scan — must land on identical state at every
  // thread count, taking the fast path everywhere or nowhere.
  const bool audit = ftl::PageFtl::AuditHooksEnabled();
  const std::size_t commands = audit ? 60 : 240;
  RunOutput serial = RunTrace(0, 0x5EED'0008, MediumGeometry(), 4, commands,
                              false, /*checkpoint_and_cycle=*/true);
  EXPECT_TRUE(serial.rebuilt_fast);
  for (std::size_t threads : {2u, 4u}) {
    RunOutput sharded = RunTrace(threads, 0x5EED'0008, MediumGeometry(), 4,
                                 commands, false, true);
    ExpectIdentical(serial, sharded,
                    "shard_threads=" + std::to_string(threads));
  }
}

TEST(ShardDeterminismTest, HundredSeedPropertyRun) {
  // Small randomized traces on toy geometry, serial vs 4 threads. Spans are
  // skipped here (content + stats + detector are the load-bearing signals)
  // to keep 100 iterations fast even under -DINSIDER_AUDIT=ON.
  const std::size_t commands = ftl::PageFtl::AuditHooksEnabled() ? 40 : 80;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    RunOutput serial =
        RunTrace(0, seed, nand::Geometry::Toy(), 2, commands, false);
    RunOutput sharded =
        RunTrace(4, seed, nand::Geometry::Toy(), 2, commands, false);
    ExpectIdentical(serial, sharded, "seed=" + std::to_string(seed));
    if (HasFailure()) break;
  }
}

}  // namespace
}  // namespace insider
