// Background (idle) garbage collection: cheap reclamation during host idle
// time, honoring retained backups exactly like foreground GC.
#include <gtest/gtest.h>

#include <memory>

#include "ftl/page_ftl.h"
#include "nand/geometry.h"

namespace insider::ftl {
namespace {

FtlConfig Cfg(bool delayed = true) {
  FtlConfig c;
  c.geometry = nand::TestGeometry();
  c.latency = nand::LatencyModel::Zero();
  c.delayed_deletion = delayed;
  c.exported_fraction = 0.5;
  return c;
}

TEST(IdleGcTest, ReclaimsFullyInvalidBlocks) {
  PageFtl ftl(Cfg(false));
  Lba n = ftl.ExportedLbas();
  for (Lba lba = 0; lba < n; ++lba) ftl.WritePage(lba, {1, {}}, 0);
  // Rewrite everything once: old pages invalid, scattered across blocks.
  for (Lba lba = 0; lba < n; ++lba) ftl.WritePage(lba, {2, {}}, 0);
  std::size_t free_before = ftl.FreeBlockCount();
  std::size_t reclaimed = ftl.IdleCollect(0, /*max_blocks=*/8);
  EXPECT_GT(reclaimed, 0u);
  EXPECT_GT(ftl.FreeBlockCount(), free_before);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

TEST(IdleGcTest, SkipsExpensiveBlocks) {
  PageFtl ftl(Cfg(false));
  Lba n = ftl.ExportedLbas();
  for (Lba lba = 0; lba < n; ++lba) ftl.WritePage(lba, {1, {}}, 0);
  // Invalidate only 1 page per 8-page block: every victim would cost 7
  // copies — idle GC with max_movable=2 must decline.
  for (Lba lba = 0; lba < n; lba += 8) ftl.WritePage(lba, {2, {}}, 0);
  std::size_t reclaimed = ftl.IdleCollect(0, 8, /*max_movable=*/2);
  EXPECT_EQ(reclaimed, 0u);
  // A generous budget takes them.
  reclaimed = ftl.IdleCollect(0, 2, /*max_movable=*/7);
  EXPECT_GT(reclaimed, 0u);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

TEST(IdleGcTest, RespectsBlockBudget) {
  PageFtl ftl(Cfg(false));
  Lba n = ftl.ExportedLbas();
  for (Lba lba = 0; lba < n; ++lba) ftl.WritePage(lba, {1, {}}, 0);
  for (Lba lba = 0; lba < n; ++lba) ftl.WritePage(lba, {2, {}}, 0);
  EXPECT_LE(ftl.IdleCollect(0, 3), 3u);
}

TEST(IdleGcTest, ReadOnlyDeviceDoesNothing) {
  PageFtl ftl(Cfg(false));
  for (Lba lba = 0; lba < 64; ++lba) ftl.WritePage(lba, {1, {}}, 0);
  for (Lba lba = 0; lba < 64; ++lba) ftl.WritePage(lba, {2, {}}, 0);
  ftl.SetReadOnly(true);
  EXPECT_EQ(ftl.IdleCollect(0, 8), 0u);
}

TEST(IdleGcTest, ReleasesExpiredBackupsFirst) {
  PageFtl ftl(Cfg(true));
  Lba n = ftl.ExportedLbas();
  for (Lba lba = 0; lba < n; ++lba) ftl.WritePage(lba, {1, {}}, Seconds(1));
  for (Lba lba = 0; lba < n; ++lba) ftl.WritePage(lba, {2, {}}, Seconds(2));
  // At t=5 the backups are still retained: idle GC has no cheap victims
  // among the old blocks (they're full of retained pages).
  std::size_t early = ftl.IdleCollect(Seconds(5), 8, 0);
  EXPECT_EQ(early, 0u);
  // At t=20 they expired: the same call reclaims freely.
  std::size_t late = ftl.IdleCollect(Seconds(20), 8, 0);
  EXPECT_GT(late, 0u);
  EXPECT_EQ(ftl.RecoveryQueueSize(), 0u);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

TEST(IdleGcTest, RetainedDataStaysRecoverableThroughIdleGc) {
  PageFtl ftl(Cfg(true));
  Lba n = ftl.ExportedLbas();
  for (Lba lba = 0; lba < n; ++lba) ftl.WritePage(lba, {lba, {}}, Seconds(1));
  // Attack at t=20 on a quarter of the LBAs.
  for (Lba lba = 0; lba < n; lba += 4) {
    ftl.WritePage(lba, {9999, {}}, Seconds(20));
  }
  // Idle GC with a generous budget: may relocate retained pages, must not
  // release them.
  ftl.IdleCollect(Seconds(21), 16, 8);
  EXPECT_EQ(ftl.Stats().forced_releases, 0u);
  ftl.RollBack(Seconds(22));
  for (Lba lba = 0; lba < n; lba += 4) {
    EXPECT_EQ(ftl.ReadPage(lba, Seconds(22)).data.stamp, lba) << lba;
  }
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

/// One chip, 16 blocks of 8 pages, conventional mode: two GC candidates
/// with a known shape. Block 0 is cold (never erased) with 3 valid pages;
/// the hot block holding LBAs 14-15 has been erased at least once and keeps
/// 2 valid pages. Every other block is free or the open frontier.
struct HotColdDevice {
  std::unique_ptr<PageFtl> ftl;
  nand::Ppa cold_page = nand::kInvalidPpa;  ///< LBA 5, in block 0
  nand::Ppa hot_page = nand::kInvalidPpa;   ///< LBA 14, in the hot block
};

HotColdDevice BuildHotColdDevice() {
  FtlConfig c;
  c.geometry.channels = 1;
  c.geometry.ways = 1;
  c.geometry.blocks_per_chip = 16;
  c.geometry.pages_per_block = 8;
  c.latency = nand::LatencyModel::Zero();
  c.delayed_deletion = false;
  HotColdDevice d;
  d.ftl = std::make_unique<PageFtl>(c);
  PageFtl& ftl = *d.ftl;
  for (Lba lba = 0; lba < 8; ++lba) ftl.WritePage(lba, {1, {}}, 0);
  // Churn LBAs 8-15 until GC has cycled every other block.
  for (std::uint64_t round = 0; round < 100; ++round) {
    for (Lba lba = 8; lba < 16; ++lba) ftl.WritePage(lba, {round, {}}, 0);
  }
  ftl.IdleCollect(0, 16, /*max_movable=*/0);  // drop the dead blocks
  for (Lba lba = 0; lba < 5; ++lba) ftl.TrimPage(lba, 0);
  for (Lba lba = 8; lba < 14; ++lba) ftl.TrimPage(lba, 0);
  ftl.WritePage(16, {1, {}}, 0);  // closes the hot block's frontier
  d.cold_page = *ftl.Lookup(5);
  d.hot_page = *ftl.Lookup(14);
  return d;
}

std::uint64_t EraseCountOf(const PageFtl& ftl, nand::Ppa ppa) {
  const nand::Geometry& geo = ftl.Config().geometry;
  return ftl.Nand().BlockAt(geo.BlockAddrOf(ppa)).EraseCount();
}

// Idle GC's cap binds the victim it collects, not only a peek: with the cap
// below both candidates nothing moves, and with the cap at the hot block's
// count only the hot block goes — the cold block, one page above the cap,
// stays where it is.
TEST(IdleGcTest, NeverCollectsAboveTheCap) {
  HotColdDevice d = BuildHotColdDevice();
  ASSERT_EQ(EraseCountOf(*d.ftl, d.cold_page), 0u);
  ASSERT_GT(EraseCountOf(*d.ftl, d.hot_page), 0u);
  const std::uint64_t erases_before = d.ftl->Stats().gc_erases;

  EXPECT_EQ(d.ftl->IdleCollect(0, 4, /*max_movable=*/1), 0u);
  EXPECT_EQ(d.ftl->Stats().gc_erases, erases_before);
  EXPECT_EQ(*d.ftl->Lookup(5), d.cold_page);
  EXPECT_EQ(*d.ftl->Lookup(14), d.hot_page);

  EXPECT_EQ(d.ftl->IdleCollect(0, 4, /*max_movable=*/2), 1u);
  EXPECT_EQ(*d.ftl->Lookup(5), d.cold_page);  // cold block untouched
  EXPECT_NE(*d.ftl->Lookup(14), d.hot_page);  // hot block reclaimed
  EXPECT_EQ(d.ftl->Stats().gc_erases, erases_before + 1);
  EXPECT_EQ(d.ftl->CheckInvariants(), "");
}

}  // namespace
}  // namespace insider::ftl
