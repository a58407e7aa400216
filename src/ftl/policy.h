// GC victim-selection policies.
//
// The mapping core (page_ftl.h) keeps the translation state and the I/O
// mechanics, including write striping and the retention window. The one
// decision it delegates is which full block GC reclaims next: VictimPolicy
// is a small interface, the way log-structured systems expose selectable
// cleaning policies (LightNVM targets, F2FS victim selection).
//
// Policies see the core through PolicyView, a read-only window over the
// per-block counters, the GC candidate index (ftl/victim_index.h), the NAND
// wear/fullness state and the write frontiers. They never mutate the core;
// the GC engine applies their decisions.
//
// The greedy default reproduces the pre-refactor monolith decision for
// decision (the gc_policy parity test pins this stat-for-stat).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ftl/ftl_types.h"
#include "ftl/victim_index.h"
#include "nand/flash_array.h"

namespace insider::ftl {

/// No reclaimable block satisfied the victim constraints.
inline constexpr std::uint32_t kNoVictim = 0xFFFFFFFFu;

/// Read-only window onto the mapping core for victim selection. Cheap,
/// non-virtual accessors: selection runs once per reclaimed block, so this
/// sits on a hot path.
class PolicyView {
 public:
  PolicyView(const nand::Geometry& geometry, const nand::FlashArray& nand,
             const BlockCounterTable& block_counters,
             const std::vector<std::uint32_t>& active_block_per_chip,
             const std::vector<BlockHealth>& block_health)
      : geometry_(geometry), nand_(nand), block_counters_(block_counters),
        active_block_per_chip_(active_block_per_chip),
        block_health_(block_health) {}

  const nand::Geometry& Geo() const { return geometry_; }
  std::uint32_t TotalBlocks() const {
    return static_cast<std::uint32_t>(geometry_.TotalBlocks());
  }

  /// Every GC candidate — full, not an active frontier, healthy, not a
  /// metadata block — keyed by (movable pages, erase count, block id). The
  /// per-block predicates below define the same set one block at a time.
  const VictimIndex& Candidates() const { return block_counters_.Index(); }

  std::uint32_t ValidPages(std::uint32_t block_id) const {
    return block_counters_[block_id].valid;
  }
  std::uint32_t RetainedPages(std::uint32_t block_id) const {
    return block_counters_[block_id].retained;
  }
  /// Pages GC would have to copy to reclaim this block.
  std::uint32_t MovablePages(std::uint32_t block_id) const {
    return block_counters_[block_id].Movable();
  }
  /// Only full blocks are reclaimable (their write frontier is closed).
  bool IsFull(std::uint32_t block_id) const {
    return nand_.BlockAt(AddrOf(block_id)).IsFull();
  }
  /// An active block is some chip's open write frontier; GC must skip it.
  bool IsActive(std::uint32_t block_id) const {
    std::uint32_t chip = block_id / geometry_.blocks_per_chip;
    return active_block_per_chip_[chip] == block_id;
  }
  std::uint64_t EraseCount(std::uint32_t block_id) const {
    return nand_.BlockAt(AddrOf(block_id)).EraseCount();
  }
  /// Grown bad blocks — retired or awaiting retirement — are handled by the
  /// retirement drain, never offered to GC as victims. Reserved metadata
  /// blocks (checkpoint buffers / journal regions) never hold host data and
  /// are equally off-limits.
  bool IsOutOfService(std::uint32_t block_id) const {
    return block_health_[block_id] != BlockHealth::kHealthy ||
           nand_.IsMetadataBlock(block_id);
  }

  static constexpr std::uint32_t kNoActiveBlockId = 0xFFFFFFFFu;

 private:
  nand::BlockAddr AddrOf(std::uint32_t block_id) const {
    return {block_id / geometry_.blocks_per_chip,
            block_id % geometry_.blocks_per_chip};
  }

  const nand::Geometry& geometry_;
  const nand::FlashArray& nand_;
  const BlockCounterTable& block_counters_;
  const std::vector<std::uint32_t>& active_block_per_chip_;
  const std::vector<BlockHealth>& block_health_;
};

// ---------------------------------------------------------------------------
// Victim policy: which full block GC reclaims next.

class VictimPolicy {
 public:
  virtual ~VictimPolicy() = default;
  virtual const char* Name() const = 0;

  /// Pick a reclaimable block: full, not an active frontier, and with at
  /// most `max_movable` live (valid+retained) pages. Foreground GC passes
  /// pages_per_block - 1 (any block that frees at least one page);
  /// idle/background GC passes a smaller cap to take only cheap wins.
  /// Returns kNoVictim when nothing qualifies.
  virtual std::uint32_t SelectVictim(const PolicyView& view,
                                     std::uint32_t max_movable) = 0;
};

/// Greedy selection: the full block with the fewest movable pages (minimum
/// copy cost), ties broken toward the least-worn block so wear stays
/// bounded, then toward the lowest id. That is the candidate index's key
/// order, so the pick is the index minimum: O(1), no scan. This is the
/// paper's baseline GC and the parity-pinned default.
class GreedyVictimPolicy final : public VictimPolicy {
 public:
  const char* Name() const override { return "greedy"; }
  std::uint32_t SelectVictim(const PolicyView& view,
                             std::uint32_t max_movable) override;
};

/// Cost-benefit selection with wear awareness: score each candidate by the
/// classic (1 - u) / (2u) reclamation ratio (u = movable fraction; reading
/// the block costs u, writing it back costs u, the payoff is 1 - u) scaled
/// by a coldness bonus for lightly-erased blocks. Versus greedy it will
/// accept a slightly fuller victim when that victim is much colder, trading
/// a few extra copies for a flatter wear distribution — the knob the
/// delayed-deletion GC debate in the paper is actually about. Walks only the
/// candidates under the cap; equal scores go to the lowest block id.
class CostBenefitVictimPolicy final : public VictimPolicy {
 public:
  /// `wear_weight` scales the coldness bonus; 0 degenerates to pure
  /// cost-benefit.
  explicit CostBenefitVictimPolicy(double wear_weight = 0.5)
      : wear_weight_(wear_weight) {}
  const char* Name() const override { return "cost-benefit"; }
  std::uint32_t SelectVictim(const PolicyView& view,
                             std::uint32_t max_movable) override;

 private:
  double wear_weight_;
};

std::unique_ptr<VictimPolicy> MakeVictimPolicy(const FtlConfig& config);

/// Checks the retention-related parts of a config for combinations that
/// would silently retain nothing (or contradict each other) instead of
/// implementing the paper's recovery guarantee.
RetentionConfigError ValidateRetentionConfig(const FtlConfig& config);

}  // namespace insider::ftl
