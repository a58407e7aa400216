// Fixed-size array in its own anonymous memory mapping.
//
// Device-sized bookkeeping that lives as long as the device (one slot per
// erase block, say) does not need the malloc heap, and is better kept out of
// it: glibc sizes its trim threshold from the large chunks it has seen, so
// adding a few hundred KiB of long-lived heap data can flip whether every
// later device construction reuses already-faulted heap pages or faults
// tens of MiB afresh. A private mapping leaves the heap exactly as the rest
// of the simulator shapes it. Pages are zero-filled and become resident only
// when first written, so T must be trivially copyable and treat all-zero
// bytes as its initial value.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace insider::common {

template <typename T>
class MappedArray {
  static_assert(std::is_trivially_copyable_v<T>,
                "MappedArray elements start as zero bytes");

 public:
  MappedArray() = default;
  /// `size` zero-filled elements; throws std::bad_alloc if the kernel
  /// refuses the mapping.
  explicit MappedArray(std::size_t size) : size_(size) {
    if (size_ == 0) return;
    void* p = mmap(nullptr, Bytes(), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<T*>(p);
  }
  ~MappedArray() {
    if (data_ != nullptr) munmap(data_, Bytes());
  }
  MappedArray(MappedArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  MappedArray& operator=(MappedArray&& other) noexcept {
    if (this != &other) {
      MappedArray dying(std::move(*this));
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  MappedArray(const MappedArray&) = delete;
  MappedArray& operator=(const MappedArray&) = delete;

  std::size_t size() const { return size_; }
  const T* data() const { return data_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  std::size_t Bytes() const { return size_ * sizeof(T); }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace insider::common
