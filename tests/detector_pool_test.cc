#include "core/detector_pool.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/detector.h"

namespace insider::core {
namespace {

/// Tree voting ransomware iff OWIO > 30 (same shape as ssd_test.cc).
DecisionTree OwioTree() {
  std::vector<DecisionTree::Node> nodes(3);
  nodes[0].is_leaf = false;
  nodes[0].feature = FeatureId::kOwIo;
  nodes[0].threshold = 30.0;
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[1].is_leaf = true;
  nodes[1].label = false;
  nodes[2].is_leaf = true;
  nodes[2].label = true;
  return DecisionTree(std::move(nodes));
}

DetectorConfig SmallTemplate() {
  DetectorConfig c;
  c.history_limit = 1024;
  c.table.max_entries = 512;
  c.table.max_hash_keys = 8192;
  return c;
}

/// The capacities every instance bottoms out at under maximal shrink
/// pressure, priced with the same cost model the pool budgets with.
std::size_t FloorBytes(const DetectorConfig& tmpl) {
  DetectorConfig floor = tmpl;
  floor.history_limit = DetectorPool::kMinHistoryLimit;
  floor.table.max_entries = DetectorPool::kMinTableEntries;
  floor.table.max_hash_keys = DetectorPool::kMinHashKeys;
  return EstimateDetectorBytes(floor);
}

/// `blocks` read-then-overwritten LBAs inside slice `slice` — each write
/// counts as one OWIO because its block was read within the window.
void OverwriteBurst(DetectorPool& pool, NamespaceId ns, SimTime slice_start,
                    Lba base, std::uint32_t blocks) {
  for (std::uint32_t b = 0; b < blocks; ++b) {
    pool.OnRequest(ns, {slice_start + 10 + b, base + b, 1, IoMode::kRead});
  }
  for (std::uint32_t b = 0; b < blocks; ++b) {
    pool.OnRequest(ns, {slice_start + 500'000 + b, base + b, 1,
                        IoMode::kWrite});
  }
}

TEST(DetectorPoolTest, SharedModeIsBitIdenticalToSingleDetector) {
  DetectorConfig tmpl = SmallTemplate();
  DetectorPoolConfig pcfg;  // per_namespace = false: the seed behavior
  DetectorPool pool(tmpl, pcfg, OwioTree());
  Detector solo(tmpl, OwioTree());

  // The same header stream, tagged with scattered nsids on the pool side.
  for (int s = 0; s < 5; ++s) {
    SimTime t0 = Seconds(s);
    for (std::uint32_t b = 0; b < 40; ++b) {
      IoRequest rd{t0 + 10 + b, b, 1, IoMode::kRead};
      IoRequest wr{t0 + 500'000 + b, b, 1, IoMode::kWrite};
      pool.OnRequest(b % 7, rd);
      solo.OnRequest(rd);
      pool.OnRequest((b + 3) % 7, wr);
      solo.OnRequest(wr);
    }
  }
  pool.AdvanceAllTo(Seconds(5));
  solo.AdvanceTo(Seconds(5));

  // Every namespace routed to the one pinned instance; its records match
  // the standalone detector slice for slice.
  EXPECT_EQ(pool.InstanceCount(), 1u);
  const Detector& pooled = pool.ForNamespace(42);
  EXPECT_EQ(&pooled, pool.Peek(0));
  ASSERT_EQ(pooled.History().size(), solo.History().size());
  for (std::size_t i = 0; i < solo.History().size(); ++i) {
    EXPECT_EQ(pooled.History()[i].score, solo.History()[i].score) << i;
    EXPECT_EQ(pooled.History()[i].vote, solo.History()[i].vote) << i;
  }
  EXPECT_EQ(pooled.FirstAlarmTime(), solo.FirstAlarmTime());
  EXPECT_EQ(pool.FirstAlarmTime(), solo.FirstAlarmTime());
  EXPECT_EQ(pool.AnyAlarmActive(), solo.AlarmActive());
}

TEST(DetectorPoolTest, PerNamespaceIsolatesHeaderStreams) {
  DetectorPoolConfig pcfg;
  pcfg.per_namespace = true;
  DetectorPool pool(SmallTemplate(), pcfg, OwioTree());

  // ns 1 overwrites 40 blocks per slice (votes ransomware); ns 2 only 10.
  for (int s = 0; s < 5; ++s) {
    OverwriteBurst(pool, 1, Seconds(s), 0, 40);
    OverwriteBurst(pool, 2, Seconds(s), 100'000, 10);
  }
  pool.AdvanceAllTo(Seconds(5));

  EXPECT_EQ(pool.InstanceCount(), 3u);  // pinned 0 + ns 1 + ns 2
  EXPECT_TRUE(pool.ForNamespace(1).AlarmActive());
  EXPECT_FALSE(pool.ForNamespace(2).AlarmActive());
  EXPECT_EQ(pool.ForNamespace(2).Score(), 0);
  EXPECT_TRUE(pool.AnyAlarmActive());
  EXPECT_EQ(pool.FirstAlarmTime(), pool.ForNamespace(1).FirstAlarmTime());
}

TEST(DetectorPoolTest, EstimatedBytesIsSumOfInstances) {
  DetectorPoolConfig pcfg;
  pcfg.per_namespace = true;
  DetectorConfig tmpl = SmallTemplate();
  DetectorPool pool(tmpl, pcfg, OwioTree());
  const std::size_t one = EstimateDetectorBytes(tmpl);
  ASSERT_GT(one, 0u);
  EXPECT_EQ(pool.EstimatedBytes(), one);  // pinned instance 0
  pool.ForNamespace(1);
  pool.ForNamespace(2);
  EXPECT_EQ(pool.EstimatedBytes(), 3 * one);
  EXPECT_TRUE(pool.Pressure().events.empty());
}

TEST(DetectorPoolTest, BudgetShrinksHistoryBeforeTables) {
  DetectorConfig tmpl = SmallTemplate();
  DetectorPoolConfig pcfg;
  pcfg.per_namespace = true;
  const std::size_t one = EstimateDetectorBytes(tmpl);
  // Two full-size instances don't fit; modest shrinking makes room.
  pcfg.dram_budget_bytes = one + (3 * one) / 4;
  DetectorPool pool(tmpl, pcfg, OwioTree());

  pool.ForNamespace(1);
  EXPECT_LE(pool.EstimatedBytes(), pcfg.dram_budget_bytes);
  ASSERT_FALSE(pool.Pressure().events.empty());
  // The ladder starts with the cheap lever: history depth.
  EXPECT_EQ(pool.Pressure().events.front().action,
            PoolPressureAction::kShrinkHistory);
  EXPECT_EQ(pool.Pressure().evictions, 0u);
  EXPECT_EQ(pool.Pressure().over_budget, 0u);
  // Something actually got smaller, and nothing fell below the floors.
  bool shrunk = false;
  pool.ForEach([&](NamespaceId, const Detector& d) {
    if (d.Config().history_limit < tmpl.history_limit) shrunk = true;
    EXPECT_GE(d.Config().history_limit, DetectorPool::kMinHistoryLimit);
    EXPECT_GE(d.Config().table.max_entries, DetectorPool::kMinTableEntries);
    EXPECT_GE(d.Config().table.max_hash_keys, DetectorPool::kMinHashKeys);
  });
  EXPECT_TRUE(shrunk);
  // Every event's byte deltas are coherent: shrinks reduce the total.
  for (const PoolPressureEvent& e : pool.Pressure().events) {
    EXPECT_LT(e.bytes_after, e.bytes_before)
        << PoolPressureActionName(e.action);
  }
}

TEST(DetectorPoolTest, EvictsLeastRecentlyActiveUnpinnedInstance) {
  DetectorConfig tmpl = SmallTemplate();
  DetectorPoolConfig pcfg;
  pcfg.per_namespace = true;
  // Room for exactly three floor-size instances (pinned 0 + two tenants).
  pcfg.dram_budget_bytes = 3 * FloorBytes(tmpl);
  DetectorPool pool(tmpl, pcfg, OwioTree());

  pool.ForNamespace(1);
  pool.ForNamespace(2);
  ASSERT_EQ(pool.InstanceCount(), 3u);
  // ns 1 is active, ns 2 idle; admitting ns 3 must reclaim ns 2.
  pool.OnRequest(1, {Seconds(1), 0, 1, IoMode::kWrite});
  pool.ForNamespace(3);

  EXPECT_EQ(pool.InstanceCount(), 3u);
  EXPECT_NE(pool.Peek(0), nullptr);  // pinned, never evicted
  EXPECT_NE(pool.Peek(1), nullptr);
  EXPECT_EQ(pool.Peek(2), nullptr);  // LRU casualty
  EXPECT_NE(pool.Peek(3), nullptr);
  EXPECT_EQ(pool.Pressure().evictions, 1u);
  EXPECT_LE(pool.EstimatedBytes(), pcfg.dram_budget_bytes);
  // An evicted namespace restarts cold on its next request, not crash.
  EXPECT_EQ(pool.ForNamespace(2).Score(), 0);
}

TEST(DetectorPoolTest, AdmitsOverBudgetLoudlyWhenNothingEvictable) {
  DetectorConfig tmpl = SmallTemplate();
  DetectorPoolConfig pcfg;
  pcfg.per_namespace = true;
  // Even one floor-size instance busts this budget.
  pcfg.dram_budget_bytes = FloorBytes(tmpl) / 2;
  DetectorPool pool(tmpl, pcfg, OwioTree());

  // Fails open: the pinned instance exists and detection still runs...
  OverwriteBurst(pool, 0, 0, 0, 40);
  pool.AdvanceAllTo(Seconds(1));
  EXPECT_EQ(pool.ForNamespace(0).Score(), 1);
  // ...but the breach is recorded, never hidden.
  EXPECT_GE(pool.Pressure().over_budget, 1u);
  EXPECT_FALSE(pool.Pressure().WithinBudget(pool.EstimatedBytes(),
                                            pcfg.dram_budget_bytes));
}

TEST(DetectorPoolTest, StatsEpochBumpsOnStructuralChangeOnly) {
  DetectorPoolConfig pcfg;
  pcfg.per_namespace = true;
  DetectorPool pool(SmallTemplate(), pcfg, OwioTree());
  const std::uint64_t e0 = pool.StatsEpoch();
  pool.ForNamespace(1);
  const std::uint64_t e1 = pool.StatsEpoch();
  EXPECT_GT(e1, e0);
  // Routing traffic to existing instances is not a structural change.
  pool.OnRequest(1, {Seconds(1), 0, 1, IoMode::kWrite});
  pool.AdvanceAllTo(Seconds(2));
  EXPECT_EQ(pool.StatsEpoch(), e1);
}

TEST(DetectorPoolTest, ResetAllKeepsDegradedCapacities) {
  DetectorConfig tmpl = SmallTemplate();
  DetectorPoolConfig pcfg;
  pcfg.per_namespace = true;
  const std::size_t one = EstimateDetectorBytes(tmpl);
  pcfg.dram_budget_bytes = one + (3 * one) / 4;
  DetectorPool pool(tmpl, pcfg, OwioTree());
  pool.ForNamespace(1);
  ASSERT_FALSE(pool.Pressure().events.empty());
  const std::size_t degraded_bytes = pool.EstimatedBytes();

  OverwriteBurst(pool, 1, 0, 0, 40);
  pool.AdvanceAllTo(Seconds(1));
  pool.ResetAll();

  // Runtime state restarts cold; the shrunken capacities (and therefore the
  // modeled footprint) survive the power cycle — a reboot must not silently
  // re-expand past the budget.
  EXPECT_EQ(pool.ForNamespace(1).Score(), 0);
  EXPECT_TRUE(pool.ForNamespace(1).History().empty());
  EXPECT_EQ(pool.EstimatedBytes(), degraded_bytes);
  EXPECT_TRUE(pool.Pressure().events.empty());
}

}  // namespace
}  // namespace insider::core
