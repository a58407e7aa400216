// GC candidate index and the per-block counter table that keeps it current.
//
// A GC candidate is a block GC may reclaim: full (its write frontier has
// closed), not some chip's active frontier, healthy, and not a reserved
// metadata block. The mapping core keeps every candidate in a VictimIndex
// ordered by (movable pages, erase count, block id) — greedy selection's
// preference order (fewest pages to copy, then the least-worn block, then
// the lowest id) — so GC's victim is the index's minimum, read without
// scanning any block. This key order is the one place that decides which
// block GC reclaims.
//
// A member's key changes only when its movable-page count does (its erase
// count cannot change while it is full), and the counters change only
// through BlockCounterTable's mutators, which re-key members as they go:
// there is no way to update a counter without updating the index. Block
// membership is driven by the mapping core (a closed frontier joins, an
// erase or a retirement leaves, rebuilds recompute the whole set); the
// InvariantAuditor's C3 check proves the two stay in step.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/mapped_array.h"
#include "ftl/ftl_types.h"

namespace insider::ftl {

/// A block id no block has, standing for "no victim".
inline constexpr std::uint32_t kNoVictim = 0xFFFFFFFFu;

/// Indexed binary min-heap over the candidate blocks. Min() is O(1);
/// Insert/Erase/Rekey are O(log n) and never allocate: the heap can hold at
/// most one entry per block, so both arrays are sized to the device once,
/// in their own mappings (common/mapped_array.h). Only pages actually
/// written become resident: 16 bytes per member plus 4 bytes per block once
/// blocks start to fill, nothing on an empty device.
class VictimIndex {
 public:
  struct Entry {
    std::uint32_t movable = 0;
    std::uint32_t block = 0;
    std::uint64_t erases = 0;
  };

  /// Greedy's preference order: fewest movable pages, then least worn, then
  /// lowest id. Total over distinct blocks, so the minimum is unique.
  static bool Before(const Entry& a, const Entry& b) {
    if (a.movable != b.movable) return a.movable < b.movable;
    if (a.erases != b.erases) return a.erases < b.erases;
    return a.block < b.block;
  }

  /// Heap slot of slot i's parent (i > 0); slot i's children are 2i + 1
  /// and 2i + 2.
  static std::size_t Parent(std::size_t i) { return (i - 1) / 2; }

  /// Size both arrays for `total_blocks`, with no members.
  void Reset(std::size_t total_blocks) {
    heap_ = common::MappedArray<Entry>(total_blocks);
    slot_ = common::MappedArray<std::uint32_t>(total_blocks);
    size_ = 0;
    peak_ = 0;
  }
  /// Drop every member (O(members)).
  void Clear() {
    for (std::size_t i = 0; i < size_; ++i) slot_[heap_[i].block] = kAbsent;
    size_ = 0;
  }

  bool Empty() const { return size_ == 0; }
  std::size_t Size() const { return size_; }
  bool Contains(std::uint32_t block) const { return slot_[block] != kAbsent; }
  /// The member's stored entry; Contains(block) must hold.
  const Entry& At(std::uint32_t block) const {
    return heap_[slot_[block] - 1];
  }
  /// The first candidate in key order; the index must not be empty.
  const Entry& Min() const { return heap_[0]; }

  void Insert(std::uint32_t block, std::uint32_t movable,
              std::uint64_t erases) {
    assert(!Contains(block) && size_ < heap_.size());
    heap_[size_] = {movable, block, erases};
    slot_[block] = static_cast<std::uint32_t>(size_ + 1);
    ++size_;
    if (size_ > peak_) peak_ = size_;
    SiftUp(size_ - 1);
  }

  void Erase(std::uint32_t block) {
    if (!Contains(block)) return;
    const std::size_t i = slot_[block] - 1;
    slot_[block] = kAbsent;
    --size_;
    if (i == size_) return;  // the removed entry was the last slot
    Place(i, heap_[size_]);
    Restore(i);
  }

  /// Move a member to its new movable-page count.
  void Rekey(std::uint32_t block, std::uint32_t movable) {
    const std::size_t i = slot_[block] - 1;
    const std::uint32_t old = heap_[i].movable;
    heap_[i].movable = movable;
    if (movable < old) {
      SiftUp(i);
    } else {
      SiftDown(i);
    }
  }

  /// Raw heap order, for the auditor's structural check.
  std::span<const Entry> Entries() const { return {heap_.data(), size_}; }

  /// Pages written so far: the heap up to its high-water mark, and the slot
  /// table once any block has joined.
  std::uint64_t ResidentBytes() const {
    return peak_ * sizeof(Entry) +
           (peak_ > 0 ? slot_.size() * sizeof(std::uint32_t) : 0);
  }

 private:
  friend class FtlStateTamperer;  // plants stale keys for the auditor tests

  /// slot_ holds heap position + 1, so the mapping's zero fill means absent.
  static constexpr std::uint32_t kAbsent = 0;

  void Place(std::size_t i, const Entry& e) {
    heap_[i] = e;
    slot_[e.block] = static_cast<std::uint32_t>(i + 1);
  }

  void SiftUp(std::size_t i) {
    const Entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = Parent(i);
      if (!Before(e, heap_[parent])) break;
      Place(i, heap_[parent]);
      i = parent;
    }
    Place(i, e);
  }

  void SiftDown(std::size_t i) {
    const Entry e = heap_[i];
    const std::size_t n = size_;
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && Before(heap_[child + 1], heap_[child])) ++child;
      if (!Before(heap_[child], e)) break;
      Place(i, heap_[child]);
      i = child;
    }
    Place(i, e);
  }

  void Restore(std::size_t i) {
    if (i > 0 && Before(heap_[i], heap_[Parent(i)])) {
      SiftUp(i);
    } else {
      SiftDown(i);
    }
  }

  /// Heap storage; slots [0, size_) are live.
  common::MappedArray<Entry> heap_;
  /// Per block: heap position + 1, kAbsent (0) for non-members.
  common::MappedArray<std::uint32_t> slot_;
  std::size_t size_ = 0;
  std::size_t peak_ = 0;  ///< high-water member count (resident heap pages)
};

/// The per-block occupancy counters plus the candidate index they key. The
/// only per-block mutators are the Add* deltas and the same-block transfers
/// below, and each keeps the index in step with Movable().
class BlockCounterTable {
 public:
  /// `total_blocks` zeroed counters, empty index.
  void Reset(std::size_t total_blocks) {
    counters_.assign(total_blocks, BlockCounters{});
    index_.Reset(total_blocks);
  }
  /// Load counters from a checkpoint snapshot. The index is emptied; the
  /// rebuild that restores a snapshot re-enrolls the candidates once the
  /// frontiers are known.
  void Restore(const std::vector<BlockCounters>& counters) {
    counters_ = counters;
    index_.Clear();
  }

  const BlockCounters& operator[](std::uint32_t block) const {
    return counters_[block];
  }
  const std::vector<BlockCounters>& All() const { return counters_; }
  const VictimIndex& Index() const { return index_; }

  void AddValid(std::uint32_t block, std::int32_t delta) {
    Bump(counters_[block].valid, delta);
    Rekey(block);
  }
  void AddRetained(std::uint32_t block, std::int32_t delta) {
    Bump(counters_[block].retained, delta);
    Rekey(block);
  }
  void AddArchived(std::uint32_t block, std::int32_t delta) {
    Bump(counters_[block].archived, delta);
    Rekey(block);
  }

  // Same-block transfers leave Movable() unchanged, so the index is not
  // touched: an overwrite's valid -> retained step costs two increments.
  void RetainValid(std::uint32_t block) {
    Bump(counters_[block].valid, -1);
    Bump(counters_[block].retained, +1);
  }
  void ReviveRetained(std::uint32_t block) {
    Bump(counters_[block].retained, -1);
    Bump(counters_[block].valid, +1);
  }
  void ArchiveRetained(std::uint32_t block) {
    Bump(counters_[block].retained, -1);
    Bump(counters_[block].archived, +1);
  }

  /// Membership: `block` became a GC candidate (a full frontier closed, or a
  /// rebuild found it full) / stopped being one (erased, retired, flagged).
  void Enroll(std::uint32_t block, std::uint64_t erases) {
    index_.Insert(block, counters_[block].Movable(), erases);
  }
  void Withdraw(std::uint32_t block) { index_.Erase(block); }
  void WithdrawAll() { index_.Clear(); }

  std::uint64_t ResidentBytes() const {
    return counters_.capacity() * sizeof(BlockCounters) +
           index_.ResidentBytes();
  }

 private:
  friend class FtlStateTamperer;  // reaches index_ to plant stale keys

  static void Bump(std::uint32_t& counter, std::int32_t delta) {
    assert(delta >= 0 || counter >= static_cast<std::uint32_t>(-delta));
    counter = static_cast<std::uint32_t>(static_cast<std::int64_t>(counter) +
                                         delta);
  }
  void Rekey(std::uint32_t block) {
    if (index_.Contains(block)) {
      index_.Rekey(block, counters_[block].Movable());
    }
  }

  std::vector<BlockCounters> counters_;
  VictimIndex index_;
};

}  // namespace insider::ftl
