// Differential test of indexed GC victim selection. GC reclaims the minimum
// of the mapping core's candidate index (ftl/victim_index.h) instead of
// scanning every block; the oracle is the InvariantAuditor's C3 check,
// which recomputes the scan's candidate predicates (healthy, not a metadata
// block, not an active frontier, full) for every block from raw state,
// checks each member's key, and checks heap order, so the index minimum is
// the scan's pick. The workloads audit after every host op (the long
// parity-golden ones after every 16th) and every idle/background GC call,
// so the selections they trigger are audited just before and just after.
// They cover the GC-policy parity goldens, program/erase faults that retire blocks, whole-device and
// per-range rollback, checkpoint/journal and full-scan rebuilds (the
// snapshot-restore path included), and the channel-sharded engine. A unit
// test checks the index itself against an ordered-set model.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/pretrained.h"
#include "ftl/page_ftl.h"
#include "host/ssd.h"
#include "host/ssd_target.h"
#include "io/io_engine.h"
#include "nand/geometry.h"

namespace insider::ftl {
namespace {

std::uint64_t Lcg(std::uint64_t& s) {
  s = s * 6364136223846793005ull + 1442695040888963407ull;
  return s >> 33;
}

// ---------------------------------------------------------------------------
// The index in isolation.

// Random inserts, erases and re-keys against an ordered-set model: the
// minimum and the member set must match after each operation.
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
    std::set<Key> members;
    for (const VictimIndex::Entry& e : index.Entries()) {
      members.insert(Key{e.movable, e.erases, e.block});
    }
    ASSERT_EQ(members, model) << "op " << op;
  }
}

// ---------------------------------------------------------------------------
// The GcPolicyParityTest golden workloads.

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

/// The golden workloads are long (up to 21.6k ops on a 2,048-page device),
/// so they audit every 16th host op and the final state; auditing every op
/// would take this file past 10 s. The shorter workloads below audit every
/// op.
constexpr int kGoldenAuditStride = 16;

void RunHighUtilWorkload(PageFtl& ftl) {
  const Lba n = ftl.ExportedLbas();
  for (Lba lba = 0; lba < n * 9 / 10; ++lba) {
    ftl.WritePage(lba, {lba, {}}, 0);
    if (lba % kGoldenAuditStride == 0) {
      ASSERT_EQ(ftl.CheckInvariants(), "") << "fill, lba " << lba;
    }
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
    if (i % kGoldenAuditStride == 0) {
      ASSERT_EQ(ftl.CheckInvariants(), "") << "op " << i;
    }
  }
  ASSERT_EQ(ftl.CheckInvariants(), "");
}

void RunModerateUtilWorkload(PageFtl& ftl) {
  const Lba n = ftl.ExportedLbas();
  for (Lba lba = 0; lba < n * 7 / 10; ++lba) {
    ftl.WritePage(lba, {lba, {}}, 0);
    if (lba % kGoldenAuditStride == 0) {
      ASSERT_EQ(ftl.CheckInvariants(), "") << "fill, lba " << lba;
    }
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
    if (i % kGoldenAuditStride == 0) {
      ASSERT_EQ(ftl.CheckInvariants(), "") << "op " << i;
    }
  }
  ASSERT_EQ(ftl.CheckInvariants(), "");
}

// The exact parity goldens also prove each workload collects: thousands of
// selections per run.
TEST(GoldenWorkloadTest, ConventionalHighUtil) {
  FtlConfig cfg = MediumConfig();
  cfg.delayed_deletion = false;
  cfg.retention_window = Seconds(2);
  PageFtl ftl(cfg);
  ASSERT_NO_FATAL_FAILURE(RunHighUtilWorkload(ftl));
  EXPECT_EQ(ftl.Stats().gc_erases, 2606u);  // the parity golden
}

TEST(GoldenWorkloadTest, DelayedDeletionHighUtil) {
  FtlConfig cfg = MediumConfig();
  cfg.delayed_deletion = true;
  cfg.retention_window = Seconds(2);
  PageFtl ftl(cfg);
  ASSERT_NO_FATAL_FAILURE(RunHighUtilWorkload(ftl));
  EXPECT_EQ(ftl.Stats().gc_erases, 14822u);
}

TEST(GoldenWorkloadTest, ModerateUtilShortWindow) {
  FtlConfig cfg = MediumConfig();
  cfg.delayed_deletion = true;
  cfg.retention_window = Milliseconds(500);
  PageFtl ftl(cfg);
  ASSERT_NO_FATAL_FAILURE(RunModerateUtilWorkload(ftl));
  EXPECT_EQ(ftl.Stats().gc_erases, 4427u);
}

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

/// Seeded overwrite churn with the occasional trim and idle-GC pass,
/// audited after every call; returns the clock after the last op.
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
    EXPECT_EQ(ftl.CheckInvariants(), "") << "seed " << seed << ", op " << i;
    if (i % 97 == 0) {
      ftl.IdleCollect(now, 2, 3);
      EXPECT_EQ(ftl.CheckInvariants(), "") << "idle GC after op " << i;
    }
    if (i % 211 == 0) {
      ftl.BackgroundCollect(now, 2);
      EXPECT_EQ(ftl.CheckInvariants(), "") << "background GC after op " << i;
    }
    if (::testing::Test::HasFailure()) break;
    now += Milliseconds(2) + rng.BelowTime(Milliseconds(4));
  }
  return now;
}

TEST(IndexedSelectionTest, ProgramAndEraseFaultsRetireBlocks) {
  FtlConfig cfg = SmallConfig();
  for (std::uint64_t op : {40u, 300u, 900u, 1500u, 2600u}) {
    cfg.fault_plan.FailProgramAtOp(op);
  }
  for (std::uint64_t op : {3u, 20u, 45u, 90u}) {
    cfg.fault_plan.FailEraseAtOp(op);
  }
  PageFtl ftl(cfg);
  Churn(ftl, 11, 6000, Seconds(1));
  EXPECT_GE(ftl.RetiredBlockCount(), 5u);
  EXPECT_GT(ftl.Stats().erase_fails, 0u);
  EXPECT_GT(ftl.Stats().program_fails, 0u);
  EXPECT_GE(ftl.Stats().gc_erases, 300u);
}

TEST(IndexedSelectionTest, RollBackThenResume) {
  PageFtl ftl(SmallConfig());
  SimTime now = Churn(ftl, 21, 3000, Seconds(1));
  RollbackReport rb = ftl.RollBack(now);
  EXPECT_GT(rb.entries_reverted, 0u);
  EXPECT_EQ(ftl.CheckInvariants(), "");
  ftl.SetReadOnly(false);
  Churn(ftl, 22, 3000, now + Seconds(1));
  EXPECT_GE(ftl.Stats().gc_erases, 300u);
}

TEST(IndexedSelectionTest, RollBackRangeWithArchivedVersions) {
  FtlConfig cfg = SmallConfig();
  auto table = std::make_shared<version::RangePolicyTable>();
  ASSERT_TRUE(table->Add({0, 48, 6, Seconds(300)}));
  cfg.range_policies = table;
  PageFtl ftl(cfg);
  SimTime now = Churn(ftl, 31, 3000, Seconds(1));
  ASSERT_GT(ftl.ArchivedPageCount(), 0u);
  RangeRollbackReport rr = ftl.RollBackRange(0, 48, now - Seconds(3), now);
  EXPECT_GT(rr.restored + rr.unmapped, 0u);
  EXPECT_EQ(ftl.CheckInvariants(), "");
  Churn(ftl, 32, 3000, now + Seconds(1));
  EXPECT_GE(ftl.Stats().gc_erases, 300u);
}

TEST(IndexedSelectionTest, CheckpointedRebuildRestoresSnapshotAndReplays) {
  FtlConfig cfg = SmallConfig();
  cfg.checkpoint.enabled = true;
  PageFtl ftl(cfg);
  SimTime now = Churn(ftl, 41, 2500, Seconds(1));
  ftl.TakeCheckpoint(now);
  EXPECT_EQ(ftl.CheckInvariants(), "");
  now = Churn(ftl, 42, 60, now + Milliseconds(10));  // the journal tail
  PageFtl::RebuildReport rep = ftl.RebuildFromNand(now + Seconds(1));
  EXPECT_TRUE(rep.used_checkpoint);
  EXPECT_GT(rep.journal_records_replayed, 0u);
  EXPECT_EQ(ftl.CheckInvariants(), "");
  Churn(ftl, 43, 2500, now + Seconds(2));
  EXPECT_GE(ftl.Stats().gc_erases, 300u);
}

TEST(IndexedSelectionTest, FullScanRebuild) {
  PageFtl ftl(SmallConfig());
  SimTime now = Churn(ftl, 51, 2500, Seconds(1));
  PageFtl::RebuildReport rep = ftl.RebuildFromNand(now + Seconds(1));
  EXPECT_FALSE(rep.used_checkpoint);
  EXPECT_GT(rep.pages_scanned, 0u);
  EXPECT_EQ(ftl.CheckInvariants(), "");
  Churn(ftl, 52, 2500, now + Seconds(2));
  EXPECT_GE(ftl.Stats().gc_erases, 300u);
}

// ---------------------------------------------------------------------------
// The channel-sharded engine: payloads land on worker lanes, selection stays
// on the firmware thread. The host loop audits after every engine event (a
// dispatch runs the host op and any firmware GC task; content reads sync the
// owning lane first, so the audit sees settled payloads).

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
  host::SsdTarget target(ssd);

  io::EngineConfig ecfg;
  ecfg.queue_count = 4;
  ecfg.queue.sq_depth = 16;
  ecfg.shard_threads = 2;
  io::IoEngine engine(target, ecfg);

  auto step = [&] {
    const bool progressed = engine.Step();
    for (io::QueueId q = 0; q < ecfg.queue_count; ++q) {
      while (engine.PopCompletion(q)) {
      }
    }
    EXPECT_EQ(ssd.Ftl().CheckInvariants(), "") << "at " << engine.Now();
    return progressed;
  };

  // Four hosts, each on its own pair and LBA quarter, submitting in
  // request-time order.
  const Lba region = ssd.Ftl().ExportedLbas() / 4;
  Rng rng(61);
  for (std::size_t i = 0; i < 1500 && !HasFailure(); ++i) {
    for (io::QueueId q = 0; q < 4; ++q) {
      IoRequest req;
      req.time = CostOf(i, 1'000);
      req.lba = region * q + rng.Below(region - 1);
      req.length = 1;
      req.mode = rng.Chance(0.85) ? IoMode::kWrite : IoMode::kRead;
      while (!engine.TrySubmit(q, req, (q + 1) * 1'000'000ull + i)) step();
    }
  }
  while (step() && !HasFailure()) {
  }
  EXPECT_GE(ssd.Ftl().Stats().gc_erases, 100u);

  PageFtl::RebuildReport rep =
      ssd.PowerCycle(engine.Now() + Seconds(1), engine.Now() + Seconds(2));
  EXPECT_TRUE(rep.used_checkpoint || rep.fallback_full_scan);
  EXPECT_EQ(ssd.Ftl().CheckInvariants(), "");
}

}  // namespace
}  // namespace insider::ftl
