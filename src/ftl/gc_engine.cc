// PageFtl's garbage-collection mechanics (the private GC members declared
// in page_ftl.h): victim relocation, erase-intent journaling, grown-bad-block
// draining and the foreground space guarantee.
#include <algorithm>
#include <cassert>
#include <optional>

#include "ftl/page_ftl.h"
#include "obs/trace.h"

namespace insider::ftl {

bool PageFtl::CollectOne(SimTime& now, std::uint32_t max_movable) {
  // Greedy: the index's key order is the preference order, so its minimum
  // is the victim when it fits under the cap.
  const VictimIndex& candidates = block_counters_.Index();
  if (candidates.Empty() || candidates.Min().movable > max_movable) {
    return false;  // nothing reclaimable
  }
  return CollectVictim(candidates.Min().block, now);
}

bool PageFtl::EvacuateBlock(std::uint32_t block_id, SimTime& now) {
  const nand::Geometry& geo = config_.geometry;
  nand::BlockAddr addr = AddrOfBlockId(block_id);
  for (std::uint32_t p = 0; p < geo.pages_per_block; ++p) {
    nand::Ppa src = geo.MakePpa(addr.chip, addr.block, p);
    PageState st = page_state_.Get(src);
    if (st != PageState::kValid && st != PageState::kRetained &&
        st != PageState::kArchived) {
      continue;
    }

    nand::NandResult rd = nand_.ReadPage(src, now);
    now = rd.complete_time;
    if (!rd.ok()) {
      // The page cannot be relocated — its content is gone. Uncorrectable
      // ECC is the expected cause; any other status on a live page would
      // mean the mapping is corrupt, and losing the page is still the only
      // recovery that keeps the device up. A valid page loses its mapping;
      // a retained page loses its backup; an archived page loses every
      // version record that referenced its content.
      ++stats_.gc_lost_pages;
      Lba lost_lba = p2l_.Get(src);
      if (st == PageState::kValid) {
        if (lost_lba != kInvalidLba) l2p_.Set(lost_lba, nand::kInvalidPpa);
        block_counters_.AddValid(block_id, -1);
        --valid_pages_;
      } else if (st == PageState::kArchived) {
        stats_.archived_lost += store_.DropPpa(src);
        block_counters_.AddArchived(block_id, -1);
        --archived_pages_;
      } else if (queue_.Drop(src)) {
        block_counters_.AddRetained(block_id, -1);
        --retained_pages_;
      }
      page_state_.Set(src, PageState::kInvalid);
      p2l_.Set(src, kInvalidLba);
      JournalAppend({JournalOpKind::kDrop, /*flag=*/false, 0, src,
                     nand::kInvalidPpa, 0, now, 0});
      continue;
    }
    // Relocation preserves the version's OOB identity (lba, written_at);
    // only the program sequence number is fresh. A program fault on the
    // destination is absorbed by the re-drive.
    nand::Ppa dst = ProgramWithRedrive(*rd.data, now);
    if (dst == nand::kInvalidPpa) return false;  // reserve exhausted

    ++stats_.gc_page_copies;
    Lba lba = p2l_.Get(src);
    p2l_.Set(dst, lba);
    page_state_.Set(dst, st);
    const std::uint32_t dst_block = BlockIdOf(dst);
    if (st == PageState::kValid) {
      block_counters_.AddValid(dst_block, +1);
      block_counters_.AddValid(block_id, -1);
      assert(lba != kInvalidLba);
      l2p_.Set(lba, dst);
    } else if (st == PageState::kArchived) {
      block_counters_.AddArchived(dst_block, +1);
      block_counters_.AddArchived(block_id, -1);
      bool moved = store_.Relocate(src, dst);
      assert(moved);
      (void)moved;
    } else {
      ++stats_.gc_retained_copies;
      block_counters_.AddRetained(dst_block, +1);
      block_counters_.AddRetained(block_id, -1);
      bool relocated = queue_.Relocate(src, dst);
      assert(relocated);
      (void)relocated;
    }
    page_state_.Set(src, PageState::kInvalid);
    p2l_.Set(src, kInvalidLba);
    // `write_seq_` is exactly the destination page's OOB sequence here: the
    // re-drive loop journals its own kBurn consumption records.
    JournalAppend({JournalOpKind::kRelocate, /*flag=*/false, 0, src, dst,
                   write_seq_, now, 0});
  }
  return true;
}

bool PageFtl::CollectVictim(std::uint32_t victim, SimTime& now) {
  const nand::Geometry& geo = config_.geometry;
  nand::BlockAddr addr = AddrOfBlockId(victim);
  if (!EvacuateBlock(victim, now)) return false;

  // Erase-intent protocol: an erase destroys OOB history the rebuild scan
  // would otherwise read back, so every record up to and including the
  // intent must be durable *before* the block is erased. Replay compares the
  // recorded erase count against media to decide whether the erase landed.
  if (journal_.Enabled() && !replaying_) {
    const JournalRecord intent{JournalOpKind::kEraseIntent, /*flag=*/false, 0,
                               victim, nand::kInvalidPpa,
                               nand_.BlockAt(addr).EraseCount(), now, 0};
    JournalAppend(intent);
    if (!JournalFlushAll(now)) {
      // Region exhausted or the flush tore: a committed checkpoint clears
      // the journal, so re-stage the intent on the fresh region and retry.
      now = std::max(now, TakeCheckpoint(now));
      JournalAppend(intent);
      if (!JournalFlushAll(now)) {
        // Still not durable (metadata faults). Skipping the erase keeps the
        // O(Δ) contract; the caller falls through to forced releases, and a
        // crash in this state rebuilds via the full-scan fallback.
        return false;
      }
    }
  }

  nand::NandResult er = nand_.EraseBlock(addr, now);
  now = er.complete_time;
  if (!er.ok()) {
    // Erase fault: the block grew bad. It is already evacuated, so retire
    // it on the spot. Return true — the victim left GC's candidate set, so
    // the caller's loop makes progress even though no block was freed.
    ++stats_.erase_fails;
    obs::EmitInstant(tracer_, "ftl.retire_block", "ftl", 0, now,
                     static_cast<std::int64_t>(victim), "block");
    RetireBlock(victim);
    return true;
  }
  for (std::uint32_t p = 0; p < geo.pages_per_block; ++p) {
    page_state_.Set(geo.MakePpa(addr.chip, addr.block, p), PageState::kFree);
  }
  assert(block_counters_[victim].Movable() == 0);
  RecycleBlock(victim);
  ++stats_.gc_erases;
  return true;
}

bool PageFtl::DrainRetirements(SimTime& now) {
  // Evacuation can itself hit program faults and flag more blocks; the loop
  // picks those up too. A block whose evacuation stalls (frontier dry)
  // stays flagged for the next call.
  while (!pending_retire_.empty()) {
    std::uint32_t block_id = pending_retire_.back();
    if (!EvacuateBlock(block_id, now)) return false;
    // Evacuation may have flagged more blocks, so this one is not
    // necessarily still at the back — erase it by value.
    pending_retire_.erase(
        std::find(pending_retire_.begin(), pending_retire_.end(), block_id));
    obs::EmitInstant(tracer_, "ftl.retire_block", "ftl", 0, now,
                     static_cast<std::int64_t>(block_id), "block");
    RetireBlock(block_id);
    JournalAppend({JournalOpKind::kRetireBlock, /*flag=*/false, 0, block_id,
                   nand::kInvalidPpa, 0, now, 0});
  }
  return true;
}

bool PageFtl::EnsureFreeSpace(SimTime& now) {
  if (free_block_count_ > config_.gc_reserve_blocks) return true;
  ++stats_.gc_invocations;
  const SimTime start = now;
  // Any full block that frees at least one page qualifies.
  const std::uint32_t max_movable = config_.geometry.pages_per_block - 1;
  bool ok = true;
  while (free_block_count_ <= config_.gc_reserve_blocks) {
    if (!CollectOne(now, max_movable)) {
      // Nothing reclaimable: every block is valid or retained. When the
      // recovery queue holds backups, sacrifice the oldest ones (losing
      // their recoverability, as a capacity-bounded queue would) so GC can
      // make progress; otherwise the device is genuinely full.
      if (config_.delayed_deletion && !queue_.Empty()) {
        // One erase block's worth, so a forced round can actually make a
        // block reclaimable.
        const std::uint32_t batch = config_.geometry.pages_per_block;
        for (std::uint32_t i = 0; i < batch; ++i) {
          std::optional<BackupEntry> e = queue_.PopOldest();
          if (!e) break;
          ReleaseBackup(*e, now);
          ++stats_.forced_releases;
          JournalAppend({JournalOpKind::kForcedRelease, /*flag=*/false, 0,
                         nand::kInvalidPpa, nand::kInvalidPpa, 0, now, 0});
        }
        continue;
      }
      // The ring is dry. If the version store still pins archived objects,
      // sacrifice the oldest versions next — protected ranges degrade last,
      // but they do degrade before the device refuses writes.
      if (store_.VersionCount() > 0) {
        const std::uint32_t batch = config_.geometry.pages_per_block;
        std::size_t freed = store_.EvictOldest(batch, [this](nand::Ppa p) {
          ReleaseArchived(p);
          ++stats_.archived_evictions;
        });
        if (freed > 0) {
          JournalAppend({JournalOpKind::kStoreEvict, /*flag=*/false, 0, batch,
                         nand::kInvalidPpa, 0, now, 0});
          continue;
        }
      }
      ok = free_block_count_ > 0;
      break;
    }
  }
  stats_.gc_stall_time += now - start;
  if (now > start) {
    obs::EmitSpan(tracer_, "ftl.gc_stall", "ftl", 0, start, now,
                  static_cast<std::int64_t>(free_block_count_),
                  "free_blocks_after");
  }
  if (gc_stall_hist_ != nullptr) {
    gc_stall_hist_->Add(static_cast<double>(now - start));
  }
  return ok;
}

}  // namespace insider::ftl
