// Tests of the benchmark's own code: the median and ratio helpers, the transparency
// of the device probe, the fleet generator against host::RunFleet, and the
// traced/untraced and standalone-replay equivalence checks.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/pretrained.h"
#include "host/fleet.h"
#include "host/ssd_target.h"
#include "passes.h"
#include "probe.h"
#include "replay.h"
#include "summary.h"

namespace insider::perfbench {
namespace {

TEST(Summary, MedianAndRatio) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({5, 1, 9, 2}), 3.5);
  EXPECT_DOUBLE_EQ(Median({4}), 4.0);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Ratio(3.0, 2.0), 1.5);
  EXPECT_DOUBLE_EQ(Ratio(3.0, 0.0), 0.0);  // no work: 0, not NaN
}

/// A fleet small enough for a unit test that still raises alarms.
FleetShape SmallFleet() {
  FleetShape s;
  s.tenants = 12;
  s.noisy_intensity = 8.0;
  s.duration = Seconds(20);
  s.attack_start = Seconds(4);
  s.channels = 8;
  s.ways = 4;
  s.blocks_per_chip = 128;
  s.pages_per_block = 64;
  return s;
}

struct EngineRun {
  io::EngineStats engine;
  ftl::FtlStats ftl;
};

EngineRun RunSmallFleet(bool with_probe, bool trace) {
  MultiQueueInput in = GenerateFleet(SmallFleet(), 3);
  host::Ssd ssd(in.device, core::PretrainedTree());
  host::SsdTarget target(ssd);
  DeviceProbe probe(target, trace);
  io::IoEngine engine(with_probe ? static_cast<io::DeviceTarget&>(probe)
                                 : static_cast<io::DeviceTarget&>(target),
                      in.engine);
  std::vector<wl::TenantSpec> specs;
  for (TenantInput& t : in.tenants) specs.push_back(std::move(t.spec));
  wl::MultiTenantDriver driver(std::move(specs));
  wl::MultiTenantReport report = driver.Run(engine);
  EXPECT_EQ(report.status, wl::MultiTenantStatus::kOk);
  if (with_probe) {
    EXPECT_EQ(probe.DeviceLatency().Count() + probe.Instant(),
              engine.Stats().dispatched);
    EXPECT_EQ(probe.Headers().size(), trace ? engine.Stats().dispatched : 0);
    EXPECT_EQ(probe.DispatchTimer().Calls(),
              trace ? engine.Stats().dispatched : 0);
  }
  return {engine.Stats(), ssd.Ftl().Stats()};
}

void ExpectSameEngineStats(const io::EngineStats& a, const io::EngineStats& b) {
  EXPECT_EQ(a.dispatched, b.dispatched);
  EXPECT_EQ(a.completed_ok, b.completed_ok);
  EXPECT_EQ(a.completed_error, b.completed_error);
  EXPECT_EQ(a.sq_rejections, b.sq_rejections);
  EXPECT_EQ(a.cq_stalls, b.cq_stalls);
  EXPECT_EQ(a.max_in_flight, b.max_in_flight);
  EXPECT_EQ(a.read_retries, b.read_retries);
}

TEST(DeviceProbe, IsTransparentTracedOrNot) {
  EngineRun bare = RunSmallFleet(/*with_probe=*/false, false);
  EngineRun untraced = RunSmallFleet(/*with_probe=*/true, false);
  EngineRun traced = RunSmallFleet(/*with_probe=*/true, true);
  ASSERT_GT(bare.engine.dispatched, 0u);
  ExpectSameEngineStats(bare.engine, untraced.engine);
  ExpectSameEngineStats(bare.engine, traced.engine);
  EXPECT_EQ(bare.ftl, untraced.ftl);
  EXPECT_EQ(bare.ftl, traced.ftl);
}

// The generator re-derives host::RunFleet's tenant set from the seed; the
// same shape must simulate the same fleet.
TEST(Workloads, FleetMatchesRunFleet) {
  const FleetShape s = SmallFleet();
  host::FleetConfig fc;
  fc.tenants = s.tenants;
  fc.noisy_intensity = s.noisy_intensity;
  fc.duration = s.duration;
  fc.attack_start = s.attack_start;
  fc.fileset_files = s.fileset_files;
  fc.ftl.geometry.channels = s.channels;
  fc.ftl.geometry.ways = s.ways;
  fc.ftl.geometry.blocks_per_chip = s.blocks_per_chip;
  fc.ftl.geometry.pages_per_block = s.pages_per_block;
  fc.seed = 3;
  host::FleetResult ref = host::RunFleet(core::PretrainedTree(), fc);

  BenchSpec spec;
  spec.workload = Workload::kFleet;
  spec.seed = 3;
  spec.fleet = s;
  PassResult pass = RunPass(spec, /*trace=*/false);
  ASSERT_EQ(pass.error, "");
  EXPECT_EQ(pass.sim.dispatched, ref.total_dispatched);
  EXPECT_EQ(pass.sim.victims, ref.victims);
  EXPECT_EQ(pass.sim.victims_detected, ref.detected_victims);
  EXPECT_EQ(pass.sim.false_alarms, ref.false_positives);
  EXPECT_DOUBLE_EQ(static_cast<double>(pass.sim.dispatched) /
                       ToSeconds(pass.sim.sim_span),
                   ref.total_iops);
  for (const host::FleetTenantResult& t : ref.tenants) {
    auto it = std::find_if(
        pass.sim.detectors.begin(), pass.sim.detectors.end(),
        [&](const DetectorOutcome& o) { return o.ns == t.nsid; });
    ASSERT_NE(it, pass.sim.detectors.end());
    EXPECT_EQ(it->alarm, t.alarm_time) << t.name;
  }
}

class SmallFleetPasses : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    BenchSpec spec;
    spec.workload = Workload::kFleet;
    spec.seed = 3;
    spec.fleet = SmallFleet();
    plain_ = new PassResult(RunPass(spec, /*trace=*/false));
    traced_ = new PassResult(RunPass(spec, /*trace=*/true));
  }
  static void TearDownTestSuite() {
    delete plain_;
    delete traced_;
  }
  static PassResult* plain_;
  static PassResult* traced_;
};
PassResult* SmallFleetPasses::plain_ = nullptr;
PassResult* SmallFleetPasses::traced_ = nullptr;

TEST_F(SmallFleetPasses, EveryCommandCompletesAndReadsBack) {
  const SimOutputs& s = plain_->sim;
  ASSERT_EQ(plain_->error, "");
  EXPECT_EQ(s.submitted, s.requests);
  EXPECT_EQ(s.completed, s.requests);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.readback_devices, 1u);
  EXPECT_GT(s.blocks_checked, 0u);
  EXPECT_EQ(s.blocks_intact, s.blocks_checked);
}

TEST_F(SmallFleetPasses, TracedPassSimulatesTheSame) {
  ASSERT_EQ(traced_->error, "");
  EXPECT_EQ(SimulationDiff(plain_->sim, traced_->sim), "");
  ASSERT_TRUE(traced_->trace.has_value());
  EXPECT_EQ(traced_->trace->streams.at(0).size(), traced_->sim.dispatched);

  SimOutputs changed = plain_->sim;
  changed.ftl.at(0).gc_erases += 1;
  EXPECT_NE(SimulationDiff(plain_->sim, changed), "");
}

TEST_F(SmallFleetPasses, DetectorReplayReproducesTheDevice) {
  const SimOutputs& s = traced_->sim;
  const LayerTrace& lt = *traced_->trace;
  ASSERT_GT(s.victims_detected, 0u) << "the test fleet must raise an alarm";
  CoreReplay replay =
      ReplayDetectors(lt.streams[0], 0, s.settle[0], lt.device);
  EXPECT_EQ(replay.headers, s.dispatched);
  EXPECT_EQ(replay.instances, s.detectors.size());
  EXPECT_EQ(replay.outcomes, s.detectors);
  EXPECT_GT(replay.slices_closed, 0u);

  // The check has teeth: without the alarmed namespaces' writes the replay
  // no longer reproduces the device.
  std::vector<IoRequest> headers;
  for (const IoRequest& h : lt.streams[0]) {
    bool alarmed = false;
    for (const DetectorOutcome& o : s.detectors) {
      if (o.ns == h.nsid && o.alarm) alarmed = true;
    }
    if (!(alarmed && h.mode == IoMode::kWrite)) headers.push_back(h);
  }
  EXPECT_NE(ReplayDetectors(headers, 0, s.settle[0], lt.device).outcomes,
            s.detectors);
}

TEST_F(SmallFleetPasses, FtlReplayCountsEveryPage) {
  const LayerTrace& lt = *traced_->trace;
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  for (const IoRequest& h : lt.streams[0]) {
    if (h.mode == IoMode::kWrite) writes += h.length;
    if (h.mode == IoMode::kRead) reads += h.length;
  }
  FtlReplay replay = ReplayFtl(lt.streams[0], 0, lt.device.ftl);
  EXPECT_EQ(replay.write_pages, writes);
  EXPECT_EQ(replay.read_pages, reads);
  EXPECT_GT(replay.write_ns, 0.0);

  // Headers before `timed_from` are replayed but not counted.
  const std::size_t half = lt.streams[0].size() / 2;
  std::uint64_t late_writes = 0;
  for (std::size_t i = half; i < lt.streams[0].size(); ++i) {
    const IoRequest& h = lt.streams[0][i];
    if (h.mode == IoMode::kWrite) late_writes += h.length;
  }
  EXPECT_EQ(ReplayFtl(lt.streams[0], half, lt.device.ftl).write_pages,
            late_writes);
  EXPECT_EQ(ReplayDetectors(lt.streams[0], half, traced_->sim.settle[0],
                            lt.device)
                .headers,
            lt.streams[0].size() - half);
}

}  // namespace
}  // namespace insider::perfbench
