// Grow-only fixed-block slab arena.
//
// A SlabArena hands out fixed-size 64-byte-aligned blocks carved from
// large grow-only slabs. Allocate() and Release() are O(1): a released
// block goes onto a free list and is reused by the next Allocate(), so a
// workload that cycles through a bounded number of live blocks touches
// the system allocator only while growing toward its high-water mark.
// Slabs are never freed before the arena itself is destroyed, so every
// pointer handed out stays valid (though recyclable) for the arena's
// lifetime — the property the session pool's generation-stamped handles
// rely on.
//
// Not thread-safe: callers (serve::SessionManager) serialize access.
#ifndef DHMM_UTIL_SLAB_ARENA_H_
#define DHMM_UTIL_SLAB_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/check.h"

namespace dhmm::util {

/// \brief Fixed-block grow-only arena with an O(1) free list.
class SlabArena {
 public:
  /// Blocks start on 64-byte boundaries so double buffers carved from a
  /// block line up with the linalg aligned-storage contract.
  static constexpr size_t kBlockAlignment = 64;

  /// \param block_bytes  size of every block (rounded up to the alignment;
  ///                     must be non-zero).
  /// \param blocks_per_slab  how many blocks each slab holds; larger slabs
  ///                     amortize system allocations, smaller ones waste
  ///                     less on the final partially-used slab.
  explicit SlabArena(size_t block_bytes, size_t blocks_per_slab = 64)
      : block_bytes_((block_bytes + kBlockAlignment - 1) /
                     kBlockAlignment * kBlockAlignment),
        blocks_per_slab_(blocks_per_slab) {
    DHMM_CHECK_MSG(block_bytes > 0, "SlabArena block size must be non-zero");
    DHMM_CHECK_MSG(blocks_per_slab > 0,
                   "SlabArena slabs must hold at least one block");
  }

  SlabArena(const SlabArena&) = delete;
  SlabArena& operator=(const SlabArena&) = delete;
  SlabArena(SlabArena&&) = default;
  SlabArena& operator=(SlabArena&&) = default;

  /// \brief Returns an aligned block of the constructor's (rounded-up)
  /// block size. Reuses the free list when possible; otherwise carves from
  /// the newest slab, growing by one slab only when every existing block is
  /// live.
  void* Allocate() {
    if (!free_.empty()) {
      void* p = free_.back();
      free_.pop_back();
      ++in_use_;
      return p;
    }
    if (carve_next_ == carve_end_) AddSlab();
    void* p = carve_next_;
    carve_next_ += block_bytes_;
    ++in_use_;
    return p;
  }

  /// \brief Returns a block obtained from Allocate() to the free list.
  /// The memory is not released to the system until the arena dies.
  void Release(void* block) {
    DHMM_DCHECK(block != nullptr);
    DHMM_DCHECK(in_use_ > 0);
    free_.push_back(block);
    --in_use_;
  }

  /// Total blocks backed by slabs (high-water capacity).
  size_t capacity() const { return slabs_.size() * blocks_per_slab_; }

 private:
  void AddSlab() {
    // Over-allocate by the alignment so the first block can be aligned up:
    // operator new[] on char only guarantees max_align_t.
    const size_t bytes = block_bytes_ * blocks_per_slab_ + kBlockAlignment;
    slabs_.push_back(std::make_unique<unsigned char[]>(bytes));
    auto addr = reinterpret_cast<uintptr_t>(slabs_.back().get());
    addr = (addr + kBlockAlignment - 1) & ~uintptr_t{kBlockAlignment - 1};
    carve_next_ = reinterpret_cast<unsigned char*>(addr);
    carve_end_ = carve_next_ + block_bytes_ * blocks_per_slab_;
  }

  size_t block_bytes_;
  size_t blocks_per_slab_;
  std::vector<std::unique_ptr<unsigned char[]>> slabs_;
  std::vector<void*> free_;
  unsigned char* carve_next_ = nullptr;  // bump cursor in the newest slab
  unsigned char* carve_end_ = nullptr;
  size_t in_use_ = 0;
};

}  // namespace dhmm::util

#endif  // DHMM_UTIL_SLAB_ARENA_H_
