#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "core/pretrained.h"
#include "dispatch_recorder.h"
#include "host/experiment.h"
#include "host/ssd.h"
#include "host/ssd_target.h"
#include "io/io_engine.h"
#include "workload/multi_tenant.h"

namespace insider::host {
namespace {

SsdConfig SmallSsd() {
  SsdConfig c;
  c.ftl.geometry = nand::TestGeometry();
  c.ftl.latency = nand::LatencyModel::Zero();
  return c;
}

/// Tree voting ransomware iff OWIO > 30 (same shape as ssd_test.cc).
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

wl::TenantSpec WriterTenant(const std::string& name, Lba base,
                            std::size_t count, std::uint64_t stamp_base,
                            SimTime start, SimTime gap) {
  wl::TenantSpec t;
  t.name = name;
  t.stamp_base = stamp_base;
  for (std::size_t i = 0; i < count; ++i) {
    t.requests.push_back({start + CostOf(i, gap),
                          base + i, 1, IoMode::kWrite});
  }
  return t;
}

TEST(MultiTenantTest, TenantsWriteDisjointRegionsThroughQueuePairs) {
  Ssd ssd(SmallSsd(), SimpleTree());
  SsdTarget target(ssd);

  std::vector<wl::TenantSpec> tenants;
  tenants.push_back(WriterTenant("a", 0, 16, 1000, 1000, 500));
  tenants.push_back(WriterTenant("b", 100, 16, 2000, 1200, 500));

  io::EngineConfig ecfg;
  ecfg.queue_count = 2;
  ecfg.queue.sq_depth = 4;
  io::IoEngine engine(target, ecfg);

  wl::MultiTenantDriver driver(std::move(tenants));
  wl::MultiTenantReport report = driver.Run(engine);

  ASSERT_EQ(report.tenants.size(), 2u);
  EXPECT_EQ(report.tenants[0].completed, 16u);
  EXPECT_EQ(report.tenants[1].completed, 16u);
  EXPECT_EQ(report.tenants[0].errors, 0u);
  EXPECT_EQ(report.tenants[1].errors, 0u);
  EXPECT_EQ(report.total_dispatched, 32u);

  // Each block's payload stamp attributes it to its tenant.
  SimTime now = ssd.Clock().Now();
  for (Lba i = 0; i < 16; ++i) {
    ftl::FtlResult a = ssd.Ftl().ReadPage(i, now);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a.data.stamp, 1000u + i);
    ftl::FtlResult b = ssd.Ftl().ReadPage(100 + i, now);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(b.data.stamp, 2000u + i);
  }
}

/// A refused submission parks its pair until the host reaps a completion
/// from it, so per pair the tenants' stalls never outnumber their
/// completions. (A driver that re-polls full pairs after every engine event
/// stalls about once per event instead.)
void ExpectStallsBoundedByCompletionsPerPair(
    const wl::MultiTenantReport& report, std::size_t queues) {
  std::vector<std::uint64_t> stalls(queues, 0);
  std::vector<std::uint64_t> completed(queues, 0);
  for (std::size_t i = 0; i < report.tenants.size(); ++i) {
    stalls[i % queues] += report.tenants[i].stall_events;
    completed[i % queues] += report.tenants[i].completed;
  }
  for (std::size_t q = 0; q < queues; ++q) {
    EXPECT_GT(stalls[q], 0u) << "pair " << q << " never filled";
    EXPECT_LE(stalls[q], completed[q]) << "pair " << q;
  }
}

TEST(MultiTenantTest, QueueFullBackpressureStallsProducer) {
  Ssd ssd(SmallSsd(), SimpleTree());
  SsdTarget target(ssd);

  // 12 requests all submitted at t=1000 into a depth-1 ring: the host must
  // stall on every command after the first.
  std::vector<wl::TenantSpec> tenants;
  tenants.push_back(WriterTenant("bursty", 0, 12, 0, 1000, 0));

  io::EngineConfig ecfg;
  ecfg.queue_count = 1;
  ecfg.queue.sq_depth = 1;
  io::IoEngine engine(target, ecfg);

  wl::MultiTenantDriver driver(std::move(tenants));
  wl::MultiTenantReport report = driver.Run(engine);

  EXPECT_EQ(report.tenants[0].completed, 12u);
  EXPECT_GT(report.tenants[0].stall_events, 0u);
  EXPECT_EQ(engine.Stats().sq_rejections, report.tenants[0].stall_events);
  ExpectStallsBoundedByCompletionsPerPair(report, 1);
}

// Seven tenants share two depth-2 rings and all burst at once.
TEST(MultiTenantTest, SharedPairIsNotRepolledWhileParked) {
  SsdConfig cfg = SmallSsd();
  cfg.ftl.latency = nand::LatencyModel{};  // real NAND latencies
  Ssd ssd(cfg, SimpleTree());
  SsdTarget target(ssd);
  io::EngineConfig ecfg;
  ecfg.queue_count = 2;
  ecfg.queue.sq_depth = 2;
  io::IoEngine engine(target, ecfg);
  std::vector<wl::TenantSpec> tenants;
  for (std::size_t i = 0; i < 7; ++i) {
    tenants.push_back(WriterTenant("t" + std::to_string(i),
                                   static_cast<Lba>(20 * i), 10,
                                   1000 * (i + 1), 1000, 0));
  }
  wl::MultiTenantDriver driver(std::move(tenants));
  wl::MultiTenantReport report = driver.Run(engine);
  std::uint64_t stalls = 0;
  for (const wl::TenantResult& t : report.tenants) {
    EXPECT_EQ(t.completed, 10u) << t.name;
    stalls += t.stall_events;
  }
  EXPECT_EQ(engine.Stats().sq_rejections, stalls);
  ExpectStallsBoundedByCompletionsPerPair(report, 2);
}

TEST(MultiTenantTest, CompletionTimesMonotoneAndMatchDeviceClock) {
  SsdConfig cfg = SmallSsd();
  cfg.ftl.latency = nand::LatencyModel{};  // real NAND latencies
  std::vector<wl::TenantSpec> tenants;
  tenants.push_back(WriterTenant("w0", 0, 24, 0, 1000, 50));
  tenants.push_back(WriterTenant("w1", 64, 24, 5000, 1000, 50));

  io::EngineConfig ecfg;
  ecfg.queue_count = 2;
  ecfg.queue.sq_depth = 8;

  Ssd ssd(cfg, SimpleTree());
  SsdTarget target(ssd);
  io::IoEngine engine(target, ecfg);
  wl::MultiTenantDriver driver(tenants);
  wl::MultiTenantReport report = driver.Run(engine);

  // The same streams on an identical device, completions popped straight
  // from the engine. Each tenant owns one pair, so a pair's posting order is
  // its tenant's completion order, command by command.
  Ssd twin_ssd(cfg, SimpleTree());
  SsdTarget twin_target(twin_ssd);
  io::IoEngine twin(twin_target, ecfg);
  std::vector<std::vector<io::Completion>> posted(tenants.size());
  std::vector<std::size_t> cursor(tenants.size(), 0);
  for (;;) {
    bool drained = true;
    for (std::size_t q = 0; q < tenants.size(); ++q) {
      const wl::TenantSpec& t = tenants[q];
      while (cursor[q] < t.requests.size()) {
        IoRequest req = t.requests[cursor[q]];
        req.nsid = static_cast<std::uint32_t>(q) + 1;  // the driver's auto id
        if (!twin.TrySubmit(static_cast<io::QueueId>(q), req,
                            t.stamp_base + cursor[q])) {
          break;
        }
        ++cursor[q];
      }
      drained = drained && cursor[q] == t.requests.size();
    }
    const bool stepped = twin.Step();
    for (std::size_t q = 0; q < tenants.size(); ++q) {
      while (std::optional<io::Completion> c =
                 twin.PopCompletion(static_cast<io::QueueId>(q))) {
        posted[q].push_back(*c);
      }
    }
    if (!stepped && drained && twin.InFlight() == 0) break;
  }

  for (std::size_t q = 0; q < tenants.size(); ++q) {
    const wl::TenantResult& t = report.tenants[q];
    ASSERT_EQ(posted[q].size(), t.completed) << t.name;
    ASSERT_EQ(t.latency_us.Count(), t.completed) << t.name;
    SimTime prev = 0;
    double latency_sum = 0.0;
    for (std::size_t i = 0; i < posted[q].size(); ++i) {
      const io::Completion& c = posted[q][i];
      EXPECT_GE(c.complete_time, prev) << t.name << " cmd " << i;
      EXPECT_GE(c.Latency(), 0) << t.name << " cmd " << i;
      prev = c.complete_time;
      latency_sum += static_cast<double>(c.Latency());
    }
    // The driver saw exactly these completions: same last stamp, and the
    // histogram summed the same latencies in the same order.
    EXPECT_EQ(t.last_complete_time, prev) << t.name;
    EXPECT_EQ(t.latency_us.Sum(), latency_sum) << t.name;
    EXPECT_GE(t.latency_us.Min(), 0.0) << t.name;
    // Completion stamps are FTL media times. Dispatch is pipelined, so they
    // can run ahead of the submission-side device clock but never ahead of
    // the report's end time.
    EXPECT_LE(t.last_complete_time, report.end_time);
  }
  EXPECT_EQ(report.end_time,
            std::max(report.tenants[0].last_complete_time,
                     report.tenants[1].last_complete_time));
}

TEST(MultiTenantTest, MoreTenantsThanQueuePairsMultiplexes) {
  // Regression: the driver used to assert QueueCount() >= tenant count —
  // compiled out in release builds, where extra tenants silently drove
  // out-of-range queue ids. Tenants now multiplex (tenant i -> pair
  // i % queues) and completions are attributed by nsid, not queue.
  Ssd ssd(SmallSsd(), SimpleTree());
  SsdTarget target(ssd);

  std::vector<wl::TenantSpec> tenants;
  for (std::size_t i = 0; i < 5; ++i) {
    tenants.push_back(WriterTenant(
        "t" + std::to_string(i), static_cast<Lba>(40 * i), 8, 1000 * (i + 1),
        Microseconds(1000) + CostOf(i, 100), 300));
  }

  io::EngineConfig ecfg;
  ecfg.queue_count = 2;  // fewer pairs than tenants
  ecfg.queue.sq_depth = 4;
  io::IoEngine engine(target, ecfg);

  wl::MultiTenantDriver driver(std::move(tenants));
  wl::MultiTenantReport report = driver.Run(engine);

  ASSERT_EQ(report.status, wl::MultiTenantStatus::kOk);
  ASSERT_EQ(report.tenants.size(), 5u);
  SimTime now = ssd.Clock().Now();
  for (std::size_t i = 0; i < 5; ++i) {
    const wl::TenantResult& t = report.tenants[i];
    EXPECT_EQ(t.completed, 8u) << t.name;
    EXPECT_EQ(t.errors, 0u) << t.name;
    EXPECT_EQ(t.nsid, static_cast<std::uint32_t>(i) + 1);
    // Ring-sharing never mixes attribution: each tenant's stamps landed on
    // its own LBAs.
    for (Lba b = 0; b < 8; ++b) {
      ftl::FtlResult rd = ssd.Ftl().ReadPage(static_cast<Lba>(40 * i) + b, now);
      ASSERT_TRUE(rd.ok());
      EXPECT_EQ(rd.data.stamp, 1000 * (i + 1) + b);
    }
  }
}

TEST(MultiTenantTest, DuplicateNamespaceIsTypedRefusal) {
  Ssd ssd(SmallSsd(), SimpleTree());
  SsdTarget target(ssd);

  std::vector<wl::TenantSpec> tenants;
  tenants.push_back(WriterTenant("a", 0, 4, 1000, 1000, 100));
  tenants.push_back(WriterTenant("b", 100, 4, 2000, 1000, 100));
  tenants[0].nsid = 7;
  tenants[1].nsid = 7;  // collision: completions would be unattributable

  io::EngineConfig ecfg;
  ecfg.queue_count = 2;
  io::IoEngine engine(target, ecfg);

  wl::MultiTenantDriver driver(std::move(tenants));
  wl::MultiTenantReport report = driver.Run(engine);

  EXPECT_EQ(report.status, wl::MultiTenantStatus::kDuplicateNamespace);
  EXPECT_STREQ(wl::MultiTenantStatusName(report.status),
               "duplicate-namespace");
  // Refused up front: nothing was submitted, the report is a zero span.
  EXPECT_EQ(report.total_dispatched, 0u);
  EXPECT_EQ(report.end_time, report.first_submit_time);
  for (const wl::TenantResult& t : report.tenants) {
    EXPECT_EQ(t.submitted, 0u) << t.name;
  }
}

// The latency histogram covers the whole run. A burst of slow writes comes
// first, then more than 4,096 fast reads: a window of the newest 4,096
// completions would hold only reads, and its p99 would miss the burst.
TEST(MultiTenantTest, LatencyHistogramCoversTheWholeRun) {
  SsdConfig cfg = SmallSsd();
  cfg.ftl.latency = nand::LatencyModel{};  // real NAND latencies
  Ssd ssd(cfg, SimpleTree());
  SsdTarget ssd_target(ssd);
  DispatchRecorder target(ssd_target);

  constexpr std::size_t kBurst = 64;
  constexpr std::size_t kReads = 5000;
  wl::TenantSpec tenant = WriterTenant("w", 0, kBurst, 0, 1000, 0);
  for (std::size_t i = 0; i < kReads; ++i) {
    tenant.requests.push_back({Microseconds(100'000) + CostOf(i, 1000),
                               static_cast<Lba>(i % kBurst), 1,
                               IoMode::kRead});
  }

  io::EngineConfig ecfg;
  ecfg.queue_count = 1;
  ecfg.queue.sq_depth = 8;
  io::IoEngine engine(target, ecfg);
  wl::MultiTenantDriver driver({tenant});
  wl::MultiTenantReport report = driver.Run(engine);

  const wl::TenantResult& t = report.tenants[0];
  ASSERT_EQ(t.completed, kBurst + kReads);
  ASSERT_EQ(t.errors, 0u);
  EXPECT_EQ(t.latency_us.Count(), t.completed);

  // The exact latency stream, from the device boundary: one FIFO pair and
  // no retries, so record i is request i, and the engine posts each
  // completion at max(dispatch instant, device finish).
  const std::vector<IoRequest>& requests = tenant.requests;
  ASSERT_EQ(target.Records().size(), requests.size());
  std::vector<double> latencies;
  double latency_sum = 0.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const DispatchRecord& rec = target.Records()[i];
    const SimTime done = std::max(rec.request.time, rec.complete_time);
    latencies.push_back(static_cast<double>(done - requests[i].time));
    latency_sum += latencies.back();
  }
  EXPECT_EQ(t.latency_us.Sum(), latency_sum);

  const double newest_max =
      *std::max_element(latencies.end() - 4096, latencies.end());
  std::sort(latencies.begin(), latencies.end());
  const auto k = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(latencies.size())));
  const double exact_p99 = latencies[k - 1];
  // The burst owns the tail: the p99 is slower than anything the newest
  // 4,096 completions hold.
  EXPECT_GT(exact_p99, newest_max);
  const obs::LogHistogram::Bounds b = t.latency_us.QuantileBounds(0.99);
  EXPECT_LE(b.lower, exact_p99);
  EXPECT_GE(b.upper, exact_p99);
}

// Regression: a tenant with no completions used to report a made-up 0 µs
// p99 next to a NaN mean. Both now come from the tenant's histogram and are
// NaN, so JSON writers emit null.
TEST(MultiTenantTest, EmptyTenantReportsNoLatency) {
  Ssd ssd(SmallSsd(), SimpleTree());
  SsdTarget target(ssd);

  std::vector<wl::TenantSpec> tenants;
  tenants.push_back(WriterTenant("busy", 0, 8, 0, 1000, 100));
  wl::TenantSpec idle;
  idle.name = "idle";  // an empty stream
  tenants.push_back(idle);

  io::EngineConfig ecfg;
  ecfg.queue_count = 2;
  io::IoEngine engine(target, ecfg);
  wl::MultiTenantDriver driver(std::move(tenants));
  wl::MultiTenantReport report = driver.Run(engine);

  ASSERT_EQ(report.status, wl::MultiTenantStatus::kOk);
  EXPECT_EQ(report.tenants[0].latency_us.Count(), 8u);
  const wl::TenantResult& t = report.tenants[1];
  EXPECT_EQ(t.completed, 0u);
  EXPECT_EQ(t.latency_us.Count(), 0u);
  EXPECT_TRUE(std::isnan(t.latency_us.Quantile(0.99)));
  EXPECT_TRUE(std::isnan(t.latency_us.Mean()));
}

TEST(MultiTenantTest, EmptyRunPinsEndTimeToZeroSpan) {
  Ssd ssd(SmallSsd(), SimpleTree());
  SsdTarget target(ssd);

  std::vector<wl::TenantSpec> tenants;
  wl::TenantSpec idle;
  idle.name = "idle";  // a tenant with no requests at all
  tenants.push_back(idle);

  io::EngineConfig ecfg;
  ecfg.queue_count = 1;
  io::IoEngine engine(target, ecfg);

  wl::MultiTenantDriver driver(std::move(tenants));
  wl::MultiTenantReport report = driver.Run(engine);

  // Regression: end_time stayed 0 while first_submit_time defaulted past
  // it, so the unsigned span underflowed and TotalIops reported garbage.
  EXPECT_EQ(report.status, wl::MultiTenantStatus::kOk);
  EXPECT_EQ(report.end_time, report.first_submit_time);
  EXPECT_EQ(report.TotalIops(), 0.0);
}

TEST(MultiTenantTest, InterleavedRansomwareStillRaisesAlarm) {
  InterleavedConfig cfg;
  cfg.benign_tenants = 3;
  cfg.ransomware = "WannaCry";
  cfg.duration = Seconds(30);
  cfg.ransom_start = Seconds(8);
  cfg.seed = 42;
  InterleavedResult r =
      RunInterleavedDetection(core::PretrainedTree(), cfg);

  EXPECT_TRUE(r.alarm);
  EXPECT_GE(r.max_score, cfg.detector.score_threshold);
  ASSERT_EQ(r.report.tenants.size(), 4u);
  EXPECT_TRUE(r.report.tenants.back().is_ransomware);
  // The attack was detected while it ran, not after.
  ASSERT_TRUE(r.alarm_time.has_value());
  EXPECT_GE(*r.alarm_time, cfg.ransom_start);
  EXPECT_GT(r.detection_latency, 0);
}

TEST(MultiTenantTest, BenignTenantsAloneStayBelowThreshold) {
  InterleavedConfig cfg;
  cfg.benign_tenants = 4;
  cfg.ransomware.clear();  // control run
  cfg.duration = Seconds(30);
  cfg.seed = 42;
  InterleavedResult r =
      RunInterleavedDetection(core::PretrainedTree(), cfg);

  EXPECT_FALSE(r.alarm);
  EXPECT_LT(r.max_score, cfg.detector.score_threshold);
  for (const wl::TenantResult& t : r.report.tenants) {
    EXPECT_EQ(t.errors, 0u) << t.name;
  }
}

}  // namespace
}  // namespace insider::host
