#include "src/index/vector_arena.h"

#include <cstring>
#include <new>
#include <utility>

namespace iccache {

namespace {

// Block alignment: one cache line.
constexpr std::align_val_t kBlockAlignment{64};

}  // namespace

VectorArena& VectorArena::operator=(VectorArena&& other) noexcept {
  std::swap(dim_, other.dim_);
  std::swap(size_, other.size_);
  blocks_.swap(other.blocks_);
  return *this;
}

void VectorArena::EnsureTailBlock() {
  if (size_ < blocks_.size() * kBlockSlots) {
    return;  // room left in the tail block, or an emptied block kept
  }
  // Grow the table before allocating, so the push below cannot throw and
  // leak the block.
  if (blocks_.size() == blocks_.capacity()) {
    blocks_.reserve(2 * blocks_.size() + 1);
  }
  blocks_.push_back(static_cast<float*>(
      ::operator new[](kBlockSlots * dim_ * sizeof(float), kBlockAlignment)));
}

size_t VectorArena::Append(const float* vec) {
  EnsureTailBlock();
  Overwrite(size_, vec);
  return size_++;
}

float* VectorArena::AppendBlock(size_t count) {
  EnsureTailBlock();
  float* base = MutableVec(size_);
  size_ += count;
  return base;
}

void VectorArena::Overwrite(size_t slot, const float* vec) {
  std::memcpy(MutableVec(slot), vec, dim_ * sizeof(float));
}

void VectorArena::RemoveBySwap(size_t slot) {
  const size_t last = size_ - 1;
  if (slot != last) {
    Overwrite(slot, Vec(last));
  }
  size_ = last;
}

void VectorArena::Clear() {
  for (float* block : blocks_) {
    ::operator delete[](block, kBlockAlignment);
  }
  blocks_.clear();
  size_ = 0;
}

}  // namespace iccache
