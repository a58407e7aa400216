// Differential test of indexed GC victim selection. The victim policies pick
// from the mapping core's candidate index (ftl/victim_index.h); this file
// keeps a verbatim copy of the O(blocks) scans they replaced as the oracle.
// A checking policy wraps the real one, and at *every* selection the FTL
// makes it asserts that the indexed pick equals the oracle's pick over the
// per-block PolicyView predicates. The workloads cover the GC-policy parity
// goldens, program/erase faults that retire blocks, whole-device and
// per-range rollback, checkpoint/journal and full-scan rebuilds (the
// snapshot-restore path included), and the channel-sharded engine. Two
// unit tests check the index itself against an ordered-set model and pin
// cost-benefit's lowest-id tie rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/pretrained.h"
#include "ftl/page_ftl.h"
#include "ftl/policy.h"
#include "host/ssd.h"
#include "host/ssd_target.h"
#include "io/io_engine.h"
#include "nand/flash_array.h"
#include "nand/geometry.h"
#include "workload/multi_tenant.h"

namespace insider::ftl {
namespace {

// ---------------------------------------------------------------------------
// Oracle: the pre-index scans, kept verbatim.

std::uint32_t ScanGreedy(const PolicyView& view, std::uint32_t max_movable) {
  std::uint32_t victim = kNoVictim;
  std::uint32_t best_movable = max_movable + 1;
  std::uint64_t best_erases = 0;
  const std::uint32_t total = view.TotalBlocks();
  for (std::uint32_t b = 0; b < total; ++b) {
    if (view.IsActive(b) || view.IsOutOfService(b)) continue;
    if (!view.IsFull(b)) continue;
    std::uint32_t movable = view.MovablePages(b);
    if (movable < best_movable ||
        (movable == best_movable && victim != kNoVictim &&
         view.EraseCount(b) < best_erases)) {
      best_movable = movable;
      best_erases = view.EraseCount(b);
      victim = b;
    }
  }
  return victim;
}

std::uint32_t ScanCostBenefit(const PolicyView& view,
                              std::uint32_t max_movable, double wear_weight) {
  const std::uint32_t total = view.TotalBlocks();
  const double pages = static_cast<double>(view.Geo().pages_per_block);
  std::uint64_t max_erases = 0;
  for (std::uint32_t b = 0; b < total; ++b) {
    if (view.IsActive(b) || view.IsOutOfService(b) || !view.IsFull(b)) continue;
    if (view.MovablePages(b) > max_movable) continue;
    max_erases = std::max(max_erases, view.EraseCount(b));
  }
  std::uint32_t victim = kNoVictim;
  double best_score = -1.0;
  for (std::uint32_t b = 0; b < total; ++b) {
    if (view.IsActive(b) || view.IsOutOfService(b) || !view.IsFull(b)) continue;
    std::uint32_t movable = view.MovablePages(b);
    if (movable > max_movable) continue;
    double u = static_cast<double>(movable) / pages;
    double score = (1.0 - u) / (2.0 * u + 1e-9);
    double coldness =
        static_cast<double>(max_erases - view.EraseCount(b)) /
        static_cast<double>(max_erases + 1);
    score *= 1.0 + wear_weight * coldness;
    if (score > best_score) {
      best_score = score;
      victim = b;
    }
  }
  return victim;
}

// ---------------------------------------------------------------------------
// Checking policy.

struct SelectionLog {
  std::uint64_t selections = 0;
  std::uint64_t victims = 0;  ///< selections that found a block
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
};

enum class Kind { kGreedy, kCostBenefit };

class CheckedVictimPolicy final : public VictimPolicy {
 public:
  CheckedVictimPolicy(Kind kind, SelectionLog* log) : kind_(kind), log_(log) {
    if (kind == Kind::kGreedy) {
      inner_ = std::make_unique<GreedyVictimPolicy>();
    } else {
      inner_ = std::make_unique<CostBenefitVictimPolicy>(kWearWeight);
    }
  }
  const char* Name() const override { return inner_->Name(); }

  std::uint32_t SelectVictim(const PolicyView& view,
                             std::uint32_t max_movable) override {
    const std::uint32_t pick = inner_->SelectVictim(view, max_movable);
    const std::uint32_t oracle =
        kind_ == Kind::kGreedy
            ? ScanGreedy(view, max_movable)
            : ScanCostBenefit(view, max_movable, kWearWeight);
    ++log_->selections;
    if (pick != kNoVictim) ++log_->victims;
    if (pick != oracle) {
      if (log_->mismatches == 0) {
        log_->first_mismatch = "selection " +
                               std::to_string(log_->selections) + " (cap " +
                               std::to_string(max_movable) + "): index " +
                               std::to_string(pick) + ", scan " +
                               std::to_string(oracle);
      }
      ++log_->mismatches;
    }
    return pick;
  }

 private:
  static constexpr double kWearWeight = 0.5;  // the factory default
  Kind kind_;
  SelectionLog* log_;
  std::unique_ptr<VictimPolicy> inner_;
};

std::string PolicyName(const ::testing::TestParamInfo<Kind>& param) {
  return param.param == Kind::kGreedy ? "Greedy" : "CostBenefit";
}

void Install(PageFtl& ftl, Kind kind, SelectionLog* log) {
  ftl.SetVictimPolicy(std::make_unique<CheckedVictimPolicy>(kind, log));
}

void ExpectAgreed(const SelectionLog& log, std::uint64_t min_victims) {
  EXPECT_EQ(log.mismatches, 0u) << log.first_mismatch;
  EXPECT_GE(log.victims, min_victims)
      << "workload made too few selections to test anything";
}

std::uint64_t Lcg(std::uint64_t& s) {
  s = s * 6364136223846793005ull + 1442695040888963407ull;
  return s >> 33;
}

// ---------------------------------------------------------------------------
// The index in isolation.

// Random inserts, erases and re-keys against an ordered-set model: the
// minimum and every capped walk must match after each operation.
TEST(VictimIndexTest, MatchesOrderedSetModelUnderRandomOps) {
  using Key = std::tuple<std::uint32_t, std::uint64_t, std::uint32_t>;
  constexpr std::uint32_t kBlocks = 64;
  VictimIndex index;
  index.Reset(kBlocks);
  std::set<Key> model;
  std::vector<std::optional<Key>> key_of(kBlocks);
  Rng rng(0x1D3);
  for (int op = 0; op < 20000; ++op) {
    const auto b = static_cast<std::uint32_t>(rng.Below(kBlocks));
    const auto movable = static_cast<std::uint32_t>(rng.Below(9));
    if (!key_of[b]) {
      const std::uint64_t erases = rng.Below(4);
      index.Insert(b, movable, erases);
      key_of[b] = Key{movable, erases, b};
      model.insert(*key_of[b]);
    } else if (rng.Below(3) == 0) {
      index.Erase(b);
      model.erase(*key_of[b]);
      key_of[b].reset();
    } else {
      index.Rekey(b, movable);
      model.erase(*key_of[b]);
      std::get<0>(*key_of[b]) = movable;
      model.insert(*key_of[b]);
    }
    ASSERT_EQ(index.Size(), model.size());
    if (!model.empty()) {
      const VictimIndex::Entry& min = index.Min();
      ASSERT_EQ((Key{min.movable, min.erases, min.block}), *model.begin())
          << "op " << op;
    }
    const auto cap = static_cast<std::uint32_t>(rng.Below(9));
    std::set<Key> walked;
    index.ForEachUpTo(cap, [&](const VictimIndex::Entry& e) {
      walked.insert(Key{e.movable, e.erases, e.block});
    });
    std::set<Key> expected(model.begin(),
                           model.upper_bound(Key{cap, ~std::uint64_t{0},
                                                 ~std::uint32_t{0}}));
    ASSERT_EQ(walked, expected) << "op " << op << ", cap " << cap;
  }
}

// Cost-benefit walks the heap, not the ids in order, so equal scores must be
// broken toward the lowest id explicitly: here block 5 sits in the heap
// slot visited before block 3's, both with the same key and score.
TEST(VictimIndexTest, CostBenefitTieGoesToLowestIdWhateverTheHeapOrder) {
  const nand::Geometry geo = nand::TestGeometry();  // 16 blocks/chip, 8 pp/b
  nand::FlashArray nand(geo, nand::LatencyModel::Zero());
  auto fill = [&](std::uint32_t block) {
    for (std::uint32_t p = 0; p < geo.pages_per_block; ++p) {
      ASSERT_TRUE(nand.ProgramPage(geo.MakePpa(0, block, p), {}, 0).ok());
    }
  };
  constexpr std::uint32_t kHot = 7;
  for (int cycle = 0; cycle < 10; ++cycle) {
    fill(kHot);
    ASSERT_TRUE(nand.EraseBlock({0, kHot}, 0).ok());
  }
  for (std::uint32_t b : {kHot, 5u, 3u}) fill(b);

  BlockCounterTable counters;
  counters.Reset(geo.TotalBlocks());
  counters.AddValid(kHot, 1);  // cheapest key, but hot: scores lowest
  counters.AddValid(5, 2);
  counters.AddValid(3, 2);
  for (std::uint32_t b : {kHot, 5u, 3u}) {
    counters.Enroll(b, nand.BlockAt({0, b}).EraseCount());
  }
  ASSERT_EQ(counters.Index().Entries()[1].block, 5u);
  ASSERT_EQ(counters.Index().Entries()[2].block, 3u);

  const std::vector<std::uint32_t> no_active(geo.TotalChips(),
                                             PolicyView::kNoActiveBlockId);
  const std::vector<BlockHealth> healthy(geo.TotalBlocks(),
                                         BlockHealth::kHealthy);
  const PolicyView view(geo, nand, counters, no_active, healthy);
  CostBenefitVictimPolicy policy(/*wear_weight=*/4.0);
  EXPECT_EQ(ScanCostBenefit(view, 7, 4.0), 3u);
  EXPECT_EQ(policy.SelectVictim(view, 7), 3u);
  GreedyVictimPolicy greedy;
  EXPECT_EQ(greedy.SelectVictim(view, 7), ScanGreedy(view, 7));
  EXPECT_EQ(greedy.SelectVictim(view, 0), kNoVictim);
}

// ---------------------------------------------------------------------------
// The GcPolicyParityTest golden workloads, under both policies.

FtlConfig MediumConfig() {
  FtlConfig cfg;
  cfg.geometry.channels = 2;
  cfg.geometry.ways = 2;
  cfg.geometry.blocks_per_chip = 32;
  cfg.geometry.pages_per_block = 16;
  cfg.latency = nand::LatencyModel::Zero();
  cfg.trim_tombstones = false;
  return cfg;
}

void RunHighUtilWorkload(PageFtl& ftl) {
  const Lba n = ftl.ExportedLbas();
  for (Lba lba = 0; lba < n * 9 / 10; ++lba) {
    ftl.WritePage(lba, {lba, {}}, 0);
  }
  std::uint64_t seed = 0xC0FFEE;
  SimTime t = Seconds(1);
  for (int i = 0; i < 20000; ++i) {
    Lba lba = Lcg(seed) % n;
    std::uint64_t op = Lcg(seed) % 10;
    t += Milliseconds(1);
    if (op < 8) {
      ftl.WritePage(lba, {1000000 + static_cast<std::uint64_t>(i), {}}, t);
    } else if (op < 9) {
      ftl.TrimPage(lba, t);
    } else {
      ftl.ReadPage(lba, t);
    }
  }
}

void RunModerateUtilWorkload(PageFtl& ftl) {
  const Lba n = ftl.ExportedLbas();
  for (Lba lba = 0; lba < n * 7 / 10; ++lba) {
    ftl.WritePage(lba, {lba, {}}, 0);
  }
  std::uint64_t seed = 0xBEEF;
  SimTime t = Seconds(1);
  for (int i = 0; i < 12000; ++i) {
    Lba lba = Lcg(seed) % n;
    std::uint64_t op = Lcg(seed) % 10;
    t += Milliseconds(1);
    if (op < 7) {
      ftl.WritePage(lba, {2000000 + static_cast<std::uint64_t>(i), {}}, t);
    } else if (op < 8) {
      ftl.TrimPage(lba, t);
    } else {
      ftl.ReadPage(lba, t);
    }
  }
}

class GoldenWorkloadTest : public ::testing::TestWithParam<Kind> {};

TEST_P(GoldenWorkloadTest, ConventionalHighUtil) {
  FtlConfig cfg = MediumConfig();
  cfg.delayed_deletion = false;
  cfg.retention_window = Seconds(2);
  PageFtl ftl(cfg);
  SelectionLog log;
  Install(ftl, GetParam(), &log);
  RunHighUtilWorkload(ftl);
  ExpectAgreed(log, 2000);
  if (GetParam() == Kind::kGreedy) {
    EXPECT_EQ(ftl.Stats().gc_erases, 2606u);  // the parity golden
  }
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

TEST_P(GoldenWorkloadTest, DelayedDeletionHighUtil) {
  FtlConfig cfg = MediumConfig();
  cfg.delayed_deletion = true;
  cfg.retention_window = Seconds(2);
  PageFtl ftl(cfg);
  SelectionLog log;
  Install(ftl, GetParam(), &log);
  RunHighUtilWorkload(ftl);
  ExpectAgreed(log, 10000);
  if (GetParam() == Kind::kGreedy) {
    EXPECT_EQ(ftl.Stats().gc_erases, 14822u);
  }
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

TEST_P(GoldenWorkloadTest, ModerateUtilShortWindow) {
  FtlConfig cfg = MediumConfig();
  cfg.delayed_deletion = true;
  cfg.retention_window = Milliseconds(500);
  PageFtl ftl(cfg);
  SelectionLog log;
  Install(ftl, GetParam(), &log);
  RunModerateUtilWorkload(ftl);
  ExpectAgreed(log, 3000);
  if (GetParam() == Kind::kGreedy) {
    EXPECT_EQ(ftl.Stats().gc_erases, 4427u);
  }
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

INSTANTIATE_TEST_SUITE_P(Policies, GoldenWorkloadTest,
                         ::testing::Values(Kind::kGreedy, Kind::kCostBenefit),
                         PolicyName);

// ---------------------------------------------------------------------------
// Faults, rollback, rebuilds.

FtlConfig SmallConfig() {
  FtlConfig c;
  c.geometry = nand::TestGeometry();  // 2x2 chips, 16 blocks/chip, 8 pp/b
  c.latency = nand::LatencyModel::Zero();
  c.delayed_deletion = true;
  c.retention_window = Seconds(2);
  c.exported_fraction = 0.6;
  return c;
}

/// Seeded overwrite churn with the occasional trim and idle-GC pass; returns
/// the clock after the last op.
SimTime Churn(PageFtl& ftl, std::uint64_t seed, int ops, SimTime start) {
  Rng rng(seed);
  SimTime now = start;
  const Lba span = ftl.ExportedLbas();
  for (int i = 0; i < ops && !ftl.IsReadOnly(); ++i) {
    Lba lba = rng.Below(span);
    if (rng.Below(12) == 0) {
      ftl.TrimPage(lba, now);
    } else {
      ftl.WritePage(lba, {seed * 1'000'000 + static_cast<std::uint64_t>(i), {}},
                    now);
    }
    if (i % 97 == 0) ftl.IdleCollect(now, 2, 3);
    if (i % 211 == 0) ftl.BackgroundCollect(now, 2);
    now += Milliseconds(2) + rng.BelowTime(Milliseconds(4));
  }
  return now;
}

class IndexedSelectionTest : public ::testing::TestWithParam<Kind> {};

TEST_P(IndexedSelectionTest, ProgramAndEraseFaultsRetireBlocks) {
  FtlConfig cfg = SmallConfig();
  for (std::uint64_t op : {40u, 300u, 900u, 1500u, 2600u}) {
    cfg.fault_plan.FailProgramAtOp(op);
  }
  for (std::uint64_t op : {3u, 20u, 45u, 90u}) {
    cfg.fault_plan.FailEraseAtOp(op);
  }
  PageFtl ftl(cfg);
  SelectionLog log;
  Install(ftl, GetParam(), &log);
  Churn(ftl, 11, 6000, Seconds(1));
  EXPECT_GE(ftl.RetiredBlockCount(), 5u);
  EXPECT_GT(ftl.Stats().erase_fails, 0u);
  EXPECT_GT(ftl.Stats().program_fails, 0u);
  ExpectAgreed(log, 300);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

TEST_P(IndexedSelectionTest, RollBackThenResume) {
  PageFtl ftl(SmallConfig());
  SelectionLog log;
  Install(ftl, GetParam(), &log);
  SimTime now = Churn(ftl, 21, 3000, Seconds(1));
  RollbackReport rb = ftl.RollBack(now);
  EXPECT_GT(rb.entries_reverted, 0u);
  EXPECT_EQ(ftl.CheckInvariants(), "");
  ftl.SetReadOnly(false);
  Churn(ftl, 22, 3000, now + Seconds(1));
  ExpectAgreed(log, 300);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

TEST_P(IndexedSelectionTest, RollBackRangeWithArchivedVersions) {
  FtlConfig cfg = SmallConfig();
  auto table = std::make_shared<version::RangePolicyTable>();
  ASSERT_TRUE(table->Add({0, 48, 6, Seconds(300)}));
  cfg.range_policies = table;
  PageFtl ftl(cfg);
  SelectionLog log;
  Install(ftl, GetParam(), &log);
  SimTime now = Churn(ftl, 31, 3000, Seconds(1));
  ASSERT_GT(ftl.ArchivedPageCount(), 0u);
  RangeRollbackReport rr = ftl.RollBackRange(0, 48, now - Seconds(3), now);
  EXPECT_GT(rr.restored + rr.unmapped, 0u);
  Churn(ftl, 32, 3000, now + Seconds(1));
  ExpectAgreed(log, 300);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

TEST_P(IndexedSelectionTest, CheckpointedRebuildRestoresSnapshotAndReplays) {
  FtlConfig cfg = SmallConfig();
  cfg.checkpoint.enabled = true;
  PageFtl ftl(cfg);
  SelectionLog log;
  Install(ftl, GetParam(), &log);
  SimTime now = Churn(ftl, 41, 2500, Seconds(1));
  ftl.TakeCheckpoint(now);
  now = Churn(ftl, 42, 60, now + Milliseconds(10));  // the journal tail
  PageFtl::RebuildReport rep = ftl.RebuildFromNand(now + Seconds(1));
  EXPECT_TRUE(rep.used_checkpoint);
  EXPECT_GT(rep.journal_records_replayed, 0u);
  EXPECT_EQ(ftl.CheckInvariants(), "");
  Churn(ftl, 43, 2500, now + Seconds(2));
  ExpectAgreed(log, 300);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

TEST_P(IndexedSelectionTest, FullScanRebuild) {
  PageFtl ftl(SmallConfig());
  SelectionLog log;
  Install(ftl, GetParam(), &log);
  SimTime now = Churn(ftl, 51, 2500, Seconds(1));
  PageFtl::RebuildReport rep = ftl.RebuildFromNand(now + Seconds(1));
  EXPECT_FALSE(rep.used_checkpoint);
  EXPECT_GT(rep.pages_scanned, 0u);
  EXPECT_EQ(ftl.CheckInvariants(), "");
  Churn(ftl, 52, 2500, now + Seconds(2));
  ExpectAgreed(log, 300);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

INSTANTIATE_TEST_SUITE_P(Policies, IndexedSelectionTest,
                         ::testing::Values(Kind::kGreedy, Kind::kCostBenefit),
                         PolicyName);

// ---------------------------------------------------------------------------
// The channel-sharded engine: payloads land on worker lanes, selection stays
// on the firmware thread and must still match the scan.

TEST(IndexedSelectionShardTest, ShardedEngineWithPowerCycle) {
  host::SsdConfig scfg;
  scfg.ftl.geometry.channels = 2;
  scfg.ftl.geometry.ways = 2;
  scfg.ftl.geometry.blocks_per_chip = 24;
  scfg.ftl.geometry.pages_per_block = 16;
  scfg.ftl.latency = nand::LatencyModel::Zero();
  scfg.ftl.retention_window = Milliseconds(200);
  scfg.ftl.checkpoint.enabled = true;
  host::Ssd ssd(scfg, core::PretrainedTree());
  SelectionLog log;
  Install(ssd.Ftl(), Kind::kGreedy, &log);
  host::SsdTarget target(ssd);

  io::EngineConfig ecfg;
  ecfg.queue_count = 4;
  ecfg.queue.sq_depth = 16;
  ecfg.shard_threads = 2;
  io::IoEngine engine(target, ecfg);

  const Lba region = ssd.Ftl().ExportedLbas() / 4;
  Rng rng(61);
  std::vector<wl::TenantSpec> tenants;
  for (std::size_t q = 0; q < 4; ++q) {
    wl::TenantSpec t;
    t.name = "host" + std::to_string(q);
    t.stamp_base = (q + 1) * 1'000'000ull;
    for (std::size_t i = 0; i < 1500; ++i) {
      IoRequest req;
      req.time = CostOf(i, 1'000);
      req.lba = region * q + rng.Below(region - 1);
      req.length = 1;
      req.mode = rng.Chance(0.85) ? IoMode::kWrite : IoMode::kRead;
      t.requests.push_back(req);
    }
    tenants.push_back(std::move(t));
  }
  wl::MultiTenantDriver driver(std::move(tenants));
  wl::MultiTenantReport report = driver.Run(engine);
  ASSERT_GT(log.victims, 0u);

  PageFtl::RebuildReport rep = ssd.PowerCycle(
      report.end_time + Seconds(1), report.end_time + Seconds(2));
  EXPECT_TRUE(rep.used_checkpoint || rep.fallback_full_scan);
  EXPECT_EQ(ssd.Ftl().CheckInvariants(), "");
  ExpectAgreed(log, 100);
}

}  // namespace
}  // namespace insider::ftl
