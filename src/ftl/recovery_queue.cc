#include "ftl/recovery_queue.h"

#include <cassert>

namespace insider::ftl {

std::optional<BackupEntry> RecoveryQueue::Push(Lba lba, nand::Ppa old_ppa,
                                               SimTime now) {
  std::optional<BackupEntry> evicted;
  while (capacity_ != 0 && live_ >= capacity_) {
    BackupEntry front = entries_.front();
    EraseIndex(front);
    entries_.pop_front();
    ++head_id_;
    if (front.old_ppa != nand::kInvalidPpa) {
      --live_;
      evicted = front;
      break;
    }
  }
  assert(!by_ppa_.contains(old_ppa) &&
         "a physical page can guard at most one displaced version");
  std::size_t id = head_id_ + entries_.size();
  entries_.push_back(BackupEntry{lba, old_ppa, now});
  by_ppa_.emplace(old_ppa, id);
  ++live_;
  return evicted;
}

std::optional<BackupEntry> RecoveryQueue::PopOldest() {
  while (!entries_.empty()) {
    BackupEntry e = entries_.front();
    EraseIndex(e);
    entries_.pop_front();
    ++head_id_;
    if (e.old_ppa == nand::kInvalidPpa) continue;  // tombstone
    --live_;
    return e;
  }
  return std::nullopt;
}

bool RecoveryQueue::Relocate(nand::Ppa from_ppa, nand::Ppa to_ppa) {
  auto it = by_ppa_.find(from_ppa);
  if (it == by_ppa_.end()) return false;
  std::size_t id = it->second;
  by_ppa_.erase(it);
  BackupEntry& e = entries_[id - head_id_];
  e.old_ppa = to_ppa;
  by_ppa_.emplace(to_ppa, id);
  return true;
}

bool RecoveryQueue::Drop(nand::Ppa ppa) {
  auto it = by_ppa_.find(ppa);
  if (it == by_ppa_.end()) return false;
  entries_[it->second - head_id_].old_ppa = nand::kInvalidPpa;
  by_ppa_.erase(it);
  --live_;
  return true;
}

void RecoveryQueue::EraseIndex(const BackupEntry& e) {
  if (e.old_ppa != nand::kInvalidPpa) by_ppa_.erase(e.old_ppa);
}

}  // namespace insider::ftl
