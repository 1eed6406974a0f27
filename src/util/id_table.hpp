#pragma once
// cxu::IdTable — an append-only table of entries addressed by dense ids,
// read without a lock.
//
// The runtime's registries (entry methods, chare factories, reduction
// combiners) hand out ids at static-init time and are then read on every
// delivered message, from every PE thread at once. Writers serialize on
// a mutex; readers take none: a read is an acquire load of the published
// size, then a load of a chunk pointer. Chunks are fixed-size and never
// move, so a reference into the table stays valid while later ids are
// added.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

namespace cxu {

template <typename T, std::size_t ChunkSize = 64, std::size_t MaxChunks = 4096>
class IdTable {
 public:
  static constexpr std::size_t kCapacity = ChunkSize * MaxChunks;

  IdTable() = default;
  IdTable(const IdTable&) = delete;
  IdTable& operator=(const IdTable&) = delete;

  /// Append `value` and publish it; returns its id. Throws
  /// std::length_error once kCapacity ids are taken.
  std::uint32_t add(T value) {
    std::lock_guard<std::mutex> lock(write_mutex_);
    const std::size_t id = size_.load(std::memory_order_relaxed);
    if (id == kCapacity) {
      throw std::length_error("cxu::IdTable: all " +
                              std::to_string(kCapacity) + " ids are taken");
    }
    std::unique_ptr<T[]>& chunk = chunks_[id / ChunkSize];
    if (!chunk) chunk = std::make_unique<T[]>(ChunkSize);
    chunk[id % ChunkSize] = std::move(value);
    size_.store(id + 1, std::memory_order_release);
    return static_cast<std::uint32_t>(id);
  }

  /// The entry for `id`, or nullptr if no such id has been published.
  [[nodiscard]] const T* find(std::uint32_t id) const noexcept {
    // The size never exceeds kCapacity; the second test lets the
    // compiler see that the chunk index is in bounds.
    if (id >= size_.load(std::memory_order_acquire) || id >= kCapacity) {
      return nullptr;
    }
    return &chunks_[id / ChunkSize][id % ChunkSize];
  }

  /// The entry for `id`; throws std::out_of_range for an unknown id.
  [[nodiscard]] const T& at(std::uint32_t id) const {
    const T* p = find(id);
    if (p == nullptr) throw_unknown(id);
    return *p;
  }
  [[nodiscard]] T& at(std::uint32_t id) {
    return const_cast<T&>(std::as_const(*this).at(id));
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return size_.load(std::memory_order_acquire);
  }

 private:
  [[noreturn]] void throw_unknown(std::uint32_t id) const {
    throw std::out_of_range("cxu::IdTable: unknown id " + std::to_string(id) +
                            " (" + std::to_string(size()) + " registered)");
  }

  std::mutex write_mutex_;
  std::atomic<std::size_t> size_{0};
  std::unique_ptr<T[]> chunks_[MaxChunks];
};

}  // namespace cxu
