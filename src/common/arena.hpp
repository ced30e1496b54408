// Per-solve monotonic arena — the memory discipline of the order-search hot
// path (ROADMAP "hot-path memory discipline").
//
// A MonotonicArena hands out bump-pointer allocations from chunked blocks;
// reset() retires every block to an internal freelist instead of returning
// it to the heap, so a steady-state user (one reset per repair iteration or
// per block flush) stops touching the allocator entirely after warm-up.
// ArenaVector<T> is the minimal vector shape the hot loops need (POD
// elements, push_back/clear/indexing) backed by arena memory.
//
// The shape follows the pool-backed idiom of cilkmem's MemPoolVector /
// SingleThreadPool (see PAPERS.md): single-threaded by design — every
// EvalScratch / repair worker owns its own arena — with observability
// counters (heapAllocs, bytes high water) that the engine surfaces through
// EngineStats so allocation regressions show up in benchmarks, not profiles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace fsw {

class MonotonicArena {
 public:
  /// Blocks are at least this large; oversized requests get their own block.
  static constexpr std::size_t kMinBlockBytes = 4096;

  MonotonicArena() = default;
  MonotonicArena(const MonotonicArena&) = delete;
  MonotonicArena& operator=(const MonotonicArena&) = delete;

  /// Bump-allocates `bytes` aligned to `align` (power of two).
  void* allocate(std::size_t bytes, std::size_t align) {
    std::uint8_t* p = alignUp(cursor_, align);
    if (p == nullptr || p + bytes > end_) {
      newBlock(bytes + align);
      p = alignUp(cursor_, align);
    }
    cursor_ = p + bytes;
    const std::size_t used = usedBytes();
    if (used > highWater_) highWater_ = used;
    return p;
  }

  template <typename T>
  T* allocateArray(std::size_t count) {
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
  }

  /// Retires every block to the freelist; the next allocations reuse them
  /// oldest-first. All memory previously handed out becomes invalid.
  void reset() {
    for (auto& b : live_) free_.push_back(std::move(b));
    live_.clear();
    cursor_ = end_ = nullptr;
    usedBefore_ = 0;
    nextFree_ = 0;
  }

  /// Bytes currently handed out (across all live blocks).
  [[nodiscard]] std::size_t usedBytes() const noexcept {
    return usedBefore_ +
           (live_.empty() ? 0
                          : static_cast<std::size_t>(
                                cursor_ - live_.back().data.get()));
  }
  /// Max of usedBytes() ever observed (survives reset()).
  [[nodiscard]] std::size_t highWater() const noexcept { return highWater_; }
  /// Heap block allocations performed so far (growth events; a freelist hit
  /// on reset-reuse does not count). Steady state: stops growing.
  [[nodiscard]] std::size_t heapAllocs() const noexcept { return heapAllocs_; }
  /// Total bytes owned (live + freelist).
  [[nodiscard]] std::size_t reservedBytes() const noexcept {
    std::size_t s = 0;
    for (const auto& b : live_) s += b.size;
    for (const auto& b : free_) s += b.size;
    return s;
  }

 private:
  struct Block {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t size = 0;
  };

  static std::uint8_t* alignUp(std::uint8_t* p, std::size_t align) {
    const auto v = reinterpret_cast<std::uintptr_t>(p);
    return reinterpret_cast<std::uint8_t*>((v + align - 1) & ~(align - 1));
  }

  void newBlock(std::size_t atLeast) {
    if (!live_.empty()) {
      usedBefore_ +=
          static_cast<std::size_t>(cursor_ - live_.back().data.get());
    }
    // Freelist first: reuse retired blocks in retirement order. Blocks too
    // small for the request are skipped but stay available for later,
    // smaller requests of the same solve.
    while (nextFree_ < free_.size()) {
      if (free_[nextFree_].size >= atLeast) {
        live_.push_back(std::move(free_[nextFree_]));
        free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(nextFree_));
        cursor_ = live_.back().data.get();
        end_ = cursor_ + live_.back().size;
        return;
      }
      ++nextFree_;
    }
    std::size_t size = kMinBlockBytes;
    if (!free_.empty() || !live_.empty()) {
      // Geometric growth keeps block counts (and heapAllocs) logarithmic.
      size = reservedBytes();
    }
    if (size < atLeast) size = atLeast;
    Block b;
    b.data = std::make_unique<std::uint8_t[]>(size);
    b.size = size;
    ++heapAllocs_;
    live_.push_back(std::move(b));
    cursor_ = live_.back().data.get();
    end_ = cursor_ + live_.back().size;
  }

  std::vector<Block> live_;
  std::vector<Block> free_;
  std::size_t nextFree_ = 0;   ///< scan position into free_ since last reset
  std::uint8_t* cursor_ = nullptr;
  std::uint8_t* end_ = nullptr;
  std::size_t usedBefore_ = 0;  ///< bytes consumed in non-tail live blocks
  std::size_t highWater_ = 0;
  std::size_t heapAllocs_ = 0;
};

/// Minimal contiguous vector over arena memory for trivially copyable
/// element types. Growth allocates a fresh arena slab and memcpys — the old
/// slab is bump-garbage until the owner's reset(), which is the deal a
/// monotonic arena offers. clear() keeps capacity, so a reuse cycle of
/// clear()/push_back is allocation-free once warmed up.
template <typename T>
class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "ArenaVector is for POD-like hot-path records");

 public:
  ArenaVector() = default;
  explicit ArenaVector(MonotonicArena* arena) : arena_(arena) {}

  void attach(MonotonicArena* arena) {
    arena_ = arena;
    data_ = nullptr;
    size_ = cap_ = 0;
  }
  /// Forget the (arena-owned) storage, e.g. after the arena was reset.
  void detachStorage() {
    data_ = nullptr;
    size_ = cap_ = 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] T* data() noexcept { return data_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + size_; }
  const T* begin() const noexcept { return data_; }
  const T* end() const noexcept { return data_ + size_; }

  void clear() noexcept { size_ = 0; }

  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }

  void push_back(const T& v) {
    if (size_ == cap_) grow(cap_ == 0 ? 16 : cap_ * 2);
    data_[size_++] = v;
  }

  void append(const T* src, std::size_t n) {
    if (n == 0) return;  // memcpy takes no null pointer, even for 0 bytes
    reserve(size_ + n);
    std::memcpy(data_ + size_, src, n * sizeof(T));
    size_ += n;
  }

  void resize(std::size_t n, const T& fill = T{}) {
    reserve(n);
    for (std::size_t i = size_; i < n; ++i) data_[i] = fill;
    size_ = n;
  }

 private:
  void grow(std::size_t cap) {
    T* fresh = arena_->allocateArray<T>(cap);
    if (size_ > 0) std::memcpy(fresh, data_, size_ * sizeof(T));
    data_ = fresh;
    cap_ = cap;
  }

  MonotonicArena* arena_ = nullptr;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

}  // namespace fsw
