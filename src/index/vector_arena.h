// The vector storage under every index (FlatIndex, KMeansIndex, HnswIndex):
// `dim`-float vectors in dense slots 0 .. size()-1, held in fixed blocks of
// kBlockSlots slots, each block one 64-byte-aligned allocation.
//
// An append never moves or copies a stored vector: a full block stays where
// it is and the next append opens a new one, so growth costs one block
// allocation per kBlockSlots appends and the only slack is the partly filled
// last block (a std::vector arena copies itself whole whenever it grows,
// so one a restore sizes exactly does so on its first append). With dim a
// multiple of 16 (128 in every shipped config) every vector starts on a
// cache line, so a 128-d vector spans exactly 8 lines.
//
// Not thread-safe: the owning index orders mutations against reads.
#ifndef SRC_INDEX_VECTOR_ARENA_H_
#define SRC_INDEX_VECTOR_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace iccache {

class VectorArena {
 public:
  // 32 KiB per block at dim 128. 256-slot blocks (128 KiB) raised
  // churn256k's peak RSS 1-2 MiB: its shards hold about 76 vectors each, so
  // most of every block was slack. At 64 slots it read flat.
  static constexpr size_t kBlockSlots = 64;

  explicit VectorArena(size_t dim) : dim_(dim) {}
  ~VectorArena() { Clear(); }
  VectorArena(const VectorArena&) = delete;
  VectorArena& operator=(const VectorArena&) = delete;
  // Swaps contents, so the moved-from arena frees this one's old blocks.
  VectorArena& operator=(VectorArena&& other) noexcept;

  size_t size() const { return size_; }

  const float* Vec(size_t slot) const { return view().Vec(slot); }

  // Copies `vec` (dim floats) into a new last slot and returns the slot.
  size_t Append(const float* vec);
  // Appends `count` (1 .. kBlockSlots) slots at the start of a new block
  // and returns their storage for the caller to fill, as a graph-image
  // decoder reads them straight from its reader. Requires size() to be a
  // multiple of kBlockSlots.
  float* AppendBlock(size_t count);
  // Copies `vec` over the vector in `slot`.
  void Overwrite(size_t slot, const float* vec);
  // Copies the last vector into `slot` and drops the last slot. A block
  // this empties stays allocated for later appends until Clear, as a
  // std::vector keeps its capacity, so a pool hovering at a block boundary
  // does not allocate and free a block on every call.
  void RemoveBySwap(size_t slot);
  // Drops every vector and frees every block.
  void Clear();

  // Block b holds slots [b * kBlockSlots, b * kBlockSlots + BlockSlots(b))
  // back to back: the unit of the blocked scans and of the graph image.
  size_t num_blocks() const { return (size_ + kBlockSlots - 1) / kBlockSlots; }
  const float* Block(size_t b) const { return blocks_[b]; }
  size_t BlockSlots(size_t b) const { return std::min(kBlockSlots, size_ - b * kBlockSlots); }

  // The block table and dim by value. Hot loops keep one in a local: a
  // store through a byte pointer (a visited mask) may alias any object, so
  // reading the table through the arena would reload it for every vector.
  // Valid until the next Append, AppendBlock, RemoveBySwap or Clear.
  class View {
   public:
    const float* Vec(size_t slot) const {
      return blocks_[slot / kBlockSlots] + (slot % kBlockSlots) * dim_;
    }

   private:
    friend class VectorArena;
    View(float* const* blocks, size_t dim) : blocks_(blocks), dim_(dim) {}
    float* const* blocks_;
    size_t dim_;
  };
  View view() const { return View(blocks_.data(), dim_); }

 private:
  float* MutableVec(size_t slot) {
    return blocks_[slot / kBlockSlots] + (slot % kBlockSlots) * dim_;
  }
  // Allocates the block slot size() falls in, unless it is already there.
  void EnsureTailBlock();

  size_t dim_;
  size_t size_ = 0;
  // Every allocated block, in slot order: num_blocks() in use, then any
  // emptied by removals.
  std::vector<float*> blocks_;
};

}  // namespace iccache

#endif  // SRC_INDEX_VECTOR_ARENA_H_
