// SSD-Insider's recovery queue (paper Fig. 5).
//
// Every time the host overwrites or trims a mapped LBA, the FTL appends a
// backup entry (LBA, old PPA, timestamp) instead of immediately invalidating
// the old physical page. Entries older than the retention window are
// *released* — their pages become ordinary invalid pages the GC may reclaim.
// On a ransomware alarm at time t, entries younger than t - window are
// replayed back-to-front to roll the mapping table back, which restores the
// device to its state of 10 seconds earlier without copying any data.
//
// GC may relocate a retained page before its entry expires; the queue
// supports an O(1) PPA-keyed update so the backup follows the data.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>

#include "common/io.h"
#include "common/time.h"
#include "nand/geometry.h"

namespace insider::ftl {

struct BackupEntry {
  Lba lba = kInvalidLba;
  nand::Ppa old_ppa = nand::kInvalidPpa;
  SimTime written_at = 0;  ///< when the overwrite that displaced it happened
};

class RecoveryQueue {
 public:
  /// `capacity` bounds DRAM use (paper Table III sizes it for 30 MB /
  /// 2,621,440 entries). 0 means unbounded.
  explicit RecoveryQueue(std::size_t capacity = 0) : capacity_(capacity) {}

  std::size_t Size() const { return live_; }
  bool Empty() const { return live_ == 0; }
  std::size_t Capacity() const { return capacity_; }

  /// Append a backup for an overwritten/trimmed LBA. If the queue is at
  /// capacity the oldest entry is force-released first (returned so the FTL
  /// can mark its page reclaimable).
  std::optional<BackupEntry> Push(Lba lba, nand::Ppa old_ppa, SimTime now);

  /// Pop every entry with written_at <= horizon, invoking `release` on each.
  /// The FTL calls this each I/O with horizon = now - retention_window.
  template <typename Fn>
  void ReleaseUpTo(SimTime horizon, Fn&& release) {
    while (!entries_.empty() && entries_.front().written_at <= horizon) {
      BackupEntry e = entries_.front();
      EraseIndex(e);
      entries_.pop_front();
      ++head_id_;
      if (e.old_ppa == nand::kInvalidPpa) continue;  // tombstone
      --live_;
      release(e);
    }
  }

  /// Pop the oldest entry regardless of age. Used when the device is under
  /// space pressure and must sacrifice recoverability to accept writes.
  std::optional<BackupEntry> PopOldest();

  /// GC moved a retained page: repoint the backup entry that guards
  /// `from_ppa` to `to_ppa`. Returns false if no entry guards from_ppa.
  bool Relocate(nand::Ppa from_ppa, nand::Ppa to_ppa);

  /// The page guarding a backup became unreadable (uncorrectable ECC): the
  /// backup is lost. Tombstones the entry in place; pops skip tombstones.
  bool Drop(nand::Ppa ppa);

  /// Is some entry currently guarding this PPA?
  bool Guards(nand::Ppa ppa) const { return by_ppa_.contains(ppa); }

  /// Discard everything (power loss: the queue lives in DRAM). The rebuild
  /// path reconstructs entries from the OOB flash scan.
  void Clear() {
    entries_.clear();
    by_ppa_.clear();
    head_id_ = 0;
    live_ = 0;
  }

  /// Roll back: walk entries newer than `horizon` from the back (newest)
  /// to the front, invoking `revert` on each, then discard them. Entries at
  /// or older than the horizon stay queued (their new versions are deemed
  /// safe). Returns the number of reverted entries.
  template <typename Fn>
  std::size_t RollBack(SimTime horizon, Fn&& revert) {
    std::size_t reverted = 0;
    while (!entries_.empty() && entries_.back().written_at > horizon) {
      BackupEntry e = entries_.back();
      EraseIndex(e);
      entries_.pop_back();
      if (e.old_ppa == nand::kInvalidPpa) continue;  // tombstone
      --live_;
      revert(e);
      ++reverted;
    }
    return reverted;
  }

  /// Iterate live entries oldest-first (for tests and DRAM accounting).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const BackupEntry& e : entries_) {
      if (e.old_ppa != nand::kInvalidPpa) fn(e);
    }
  }

  /// Bytes of DRAM this structure needs at a given occupancy, using the
  /// paper's 12-byte packed entry layout (4 B LBA + 4 B PPA + 4 B time).
  static constexpr std::size_t PackedEntryBytes() { return 12; }

 private:
  void EraseIndex(const BackupEntry& e);

  std::size_t capacity_;
  std::deque<BackupEntry> entries_;  ///< oldest at front
  /// PPA -> guarded flag; an old PPA appears at most once (a physical page
  /// holds exactly one displaced version).
  std::unordered_map<nand::Ppa, std::size_t> by_ppa_;  ///< ppa -> entry id
  std::size_t head_id_ = 0;  ///< id of entries_.front(); ids are monotonic
  std::size_t live_ = 0;     ///< entries_ minus tombstones
};

}  // namespace insider::ftl
