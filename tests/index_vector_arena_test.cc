#include "src/index/vector_arena.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/binio.h"
#include "src/index/hnsw.h"
#include "src/index/vector_index.h"

namespace iccache {
namespace {

constexpr size_t kBlock = VectorArena::kBlockSlots;

// Vector `tag` of length dim: every element distinct across tags and dims.
std::vector<float> Tagged(size_t tag, size_t dim) {
  std::vector<float> v(dim);
  for (size_t d = 0; d < dim; ++d) {
    v[d] = static_cast<float>(tag * 1000 + d);
  }
  return v;
}

bool Holds(const VectorArena& arena, size_t slot, size_t tag, size_t dim) {
  return std::memcmp(arena.Vec(slot), Tagged(tag, dim).data(), dim * sizeof(float)) == 0;
}

// The blocks' used prefixes, concatenated in block order.
std::vector<float> BlockRun(const VectorArena& arena, size_t dim) {
  std::vector<float> run;
  for (size_t b = 0; b < arena.num_blocks(); ++b) {
    run.insert(run.end(), arena.Block(b), arena.Block(b) + arena.BlockSlots(b) * dim);
  }
  return run;
}

TEST(VectorArenaTest, AppendsAcrossBlockBoundaries) {
  const size_t dim = 5;
  for (size_t count : {size_t{63}, size_t{64}, size_t{65}, size_t{128}, size_t{129}}) {
    VectorArena arena(dim);
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(arena.Append(Tagged(i, dim).data()), i) << count;
    }
    ASSERT_EQ(arena.size(), count);
    ASSERT_EQ(arena.num_blocks(), (count + kBlock - 1) / kBlock) << count;
    size_t slots = 0;
    for (size_t b = 0; b < arena.num_blocks(); ++b) {
      EXPECT_EQ(arena.Block(b), arena.Vec(b * kBlock)) << count;
      slots += arena.BlockSlots(b);
    }
    EXPECT_EQ(slots, count);
    EXPECT_EQ(arena.BlockSlots(arena.num_blocks() - 1), count - (arena.num_blocks() - 1) * kBlock);
    for (size_t i = 0; i < count; ++i) {
      EXPECT_TRUE(Holds(arena, i, i, dim)) << "count=" << count << " slot=" << i;
    }
    for (size_t i = 1; i < count; ++i) {
      if (i % kBlock != 0) {
        EXPECT_EQ(arena.Vec(i), arena.Vec(i - 1) + dim) << "slots of a block are back to back";
      }
    }
  }
}

// Appends never move a stored vector, whether the arena was filled by
// appends or, as a restore fills it, block by block and sized to what it
// holds (the last block partly used).
TEST(VectorArenaTest, AppendsNeverMoveAStoredVector) {
  const size_t dim = 128;
  const size_t stored = 3 * kBlock + 38;
  for (bool by_block : {false, true}) {
    VectorArena arena(dim);
    while (arena.size() < stored) {
      if (!by_block) {
        arena.Append(Tagged(arena.size(), dim).data());
        continue;
      }
      const size_t first = arena.size();
      const size_t count = std::min(kBlock, stored - first);
      float* base = arena.AppendBlock(count);
      for (size_t i = 0; i < count; ++i) {
        std::memcpy(base + i * dim, Tagged(first + i, dim).data(), dim * sizeof(float));
      }
    }
    std::vector<const float*> before;
    for (size_t slot = 0; slot < stored; ++slot) {
      before.push_back(arena.Vec(slot));
    }
    for (size_t i = stored; i < stored + 10000; ++i) {
      arena.Append(Tagged(i, dim).data());
    }
    EXPECT_EQ(arena.Vec(stored), arena.Vec(stored - 1) + dim) << "fills the tail block first";
    for (size_t slot = 0; slot < stored; ++slot) {
      EXPECT_EQ(arena.Vec(slot), before[slot]) << "by_block=" << by_block << " slot=" << slot;
      EXPECT_TRUE(Holds(arena, slot, slot, dim)) << "by_block=" << by_block << " slot=" << slot;
    }
  }
}

TEST(VectorArenaTest, EveryVectorIsCacheLineAlignedAtDim128) {
  const size_t dim = 128;
  VectorArena arena(dim);
  for (size_t i = 0; i < 3 * kBlock + 7; ++i) {
    arena.Append(Tagged(i, dim).data());
  }
  for (size_t i = 0; i < arena.size(); ++i) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(arena.Vec(i)) % 64, 0u) << i;
  }
}

TEST(VectorArenaTest, OverwriteRewritesOneSlotInPlace) {
  const size_t dim = 7;
  VectorArena arena(dim);
  for (size_t i = 0; i < 70; ++i) {
    arena.Append(Tagged(i, dim).data());
  }
  const float* at = arena.Vec(66);
  arena.Overwrite(66, Tagged(999, dim).data());
  EXPECT_EQ(arena.Vec(66), at);
  EXPECT_TRUE(Holds(arena, 66, 999, dim));
  EXPECT_TRUE(Holds(arena, 65, 65, dim));
  EXPECT_TRUE(Holds(arena, 67, 67, dim));
}

TEST(VectorArenaTest, RemoveBySwapMovesTheLastSlotIntoTheHole) {
  const size_t dim = 6;
  VectorArena arena(dim);
  const size_t count = 2 * kBlock + 3;  // the last slot sits in block 2
  for (size_t i = 0; i < count; ++i) {
    arena.Append(Tagged(i, dim).data());
  }
  arena.RemoveBySwap(5);  // a slot in block 0, filled from block 2
  ASSERT_EQ(arena.size(), count - 1);
  EXPECT_TRUE(Holds(arena, 5, count - 1, dim));
  for (size_t i = 0; i < count - 1; ++i) {
    if (i != 5) {
      EXPECT_TRUE(Holds(arena, i, i, dim)) << i;
    }
  }
  // Removing the last slot moves nothing.
  arena.RemoveBySwap(arena.size() - 1);
  EXPECT_EQ(arena.size(), count - 2);
  EXPECT_TRUE(Holds(arena, count - 3, count - 3, dim));
}

TEST(VectorArenaTest, ARemovalThatEmptiesTheLastBlockKeepsItForTheNextAppend) {
  const size_t dim = 4;
  VectorArena arena(dim);
  for (size_t i = 0; i < 2 * kBlock + 1; ++i) {
    arena.Append(Tagged(i, dim).data());
  }
  const float* block2 = arena.Block(2);
  arena.RemoveBySwap(0);  // slot 2*kBlock moves to slot 0; block 2 empties
  ASSERT_EQ(arena.size(), 2 * kBlock);
  ASSERT_EQ(arena.num_blocks(), 2u);
  EXPECT_TRUE(Holds(arena, 0, 2 * kBlock, dim));
  // Hovering at the boundary reuses the kept block.
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(arena.Append(Tagged(500, dim).data()), 2 * kBlock);
    EXPECT_EQ(arena.Vec(2 * kBlock), block2);
    EXPECT_TRUE(Holds(arena, 2 * kBlock, 500, dim));
    arena.RemoveBySwap(2 * kBlock);
  }
  // Emptying block 1 as well keeps both emptied blocks; appends refill
  // them in slot order.
  const float* block1 = arena.Block(1);
  for (size_t i = 0; i < kBlock; ++i) {
    arena.RemoveBySwap(arena.size() - 1);
  }
  ASSERT_EQ(arena.size(), kBlock);
  ASSERT_EQ(arena.num_blocks(), 1u);
  for (size_t i = 0; i < kBlock + 2; ++i) {
    EXPECT_EQ(arena.Append(Tagged(600 + i, dim).data()), kBlock + i);
  }
  EXPECT_EQ(arena.Block(1), block1);
  EXPECT_EQ(arena.Block(2), block2);
  EXPECT_TRUE(Holds(arena, 0, 2 * kBlock, dim));
  for (size_t i = 0; i < kBlock + 2; ++i) {
    EXPECT_TRUE(Holds(arena, kBlock + i, 600 + i, dim)) << i;
  }
}

TEST(VectorArenaTest, ClearDropsEverythingAndTheArenaIsReusable) {
  const size_t dim = 3;
  VectorArena arena(dim);
  for (size_t i = 0; i < 150; ++i) {
    arena.Append(Tagged(i, dim).data());
  }
  arena.Clear();
  EXPECT_EQ(arena.size(), 0u);
  EXPECT_EQ(arena.num_blocks(), 0u);
  for (size_t i = 0; i < 70; ++i) {
    EXPECT_EQ(arena.Append(Tagged(i + 7, dim).data()), i);
  }
  for (size_t i = 0; i < 70; ++i) {
    EXPECT_TRUE(Holds(arena, i, i + 7, dim)) << i;
  }
}

TEST(VectorArenaTest, BlocksConcatenateToTheContiguousFloatRun) {
  const size_t dim = 9;
  VectorArena arena(dim);
  std::vector<float> expected;
  for (size_t i = 0; i < 3 * kBlock + 11; ++i) {
    const std::vector<float> v = Tagged(i, dim);
    arena.Append(v.data());
    expected.insert(expected.end(), v.begin(), v.end());
  }
  EXPECT_EQ(BlockRun(arena, dim), expected);

  // AppendBlock fills a fresh block in place, as a graph-image decoder does.
  VectorArena copy(dim);
  while (copy.size() < arena.size()) {
    const size_t count = std::min(kBlock, arena.size() - copy.size());
    std::memcpy(copy.AppendBlock(count), arena.Vec(copy.size()), count * dim * sizeof(float));
  }
  EXPECT_EQ(BlockRun(copy, dim), expected);
}

// The graph image's arena is the contiguous float run of every node's
// vector in slot order, whatever the block layout behind it.
TEST(VectorArenaTest, GraphImageEndsWithTheContiguousFloatRun) {
  HnswIndexConfig config;
  config.dim = 16;
  config.max_neighbors = 4;
  HnswIndex index(config);
  std::vector<float> expected;
  for (size_t i = 0; i < 2 * kBlock + 9; ++i) {
    std::vector<float> v = Tagged(i, config.dim);
    expected.insert(expected.end(), v.begin(), v.end());
    ASSERT_TRUE(index.Add(i + 1, std::move(v)).ok());
  }
  ByteWriter image;
  index.SaveGraph(&image);
  ASSERT_EQ(image.size(), index.GraphImageSize());
  const size_t run_bytes = expected.size() * sizeof(float);
  ASSERT_GT(image.size(), run_bytes + 8);
  const std::string& bytes = image.bytes();
  ByteReader length(bytes.data() + bytes.size() - run_bytes - 8, 8);
  EXPECT_EQ(length.GetU64(), expected.size());
  EXPECT_EQ(std::memcmp(bytes.data() + bytes.size() - run_bytes, expected.data(), run_bytes), 0);
}

TEST(FlatIndexFindTest, PointerSurvivesLaterAdds) {
  const size_t dim = 128;
  FlatIndex index(dim);
  ASSERT_TRUE(index.Add(1, Tagged(1, dim)).ok());
  const float* found = index.Find(1);
  ASSERT_NE(found, nullptr);
  for (uint64_t id = 2; id <= 10001; ++id) {
    ASSERT_TRUE(index.Add(id, Tagged(id % 97, dim)).ok());
  }
  EXPECT_EQ(index.Find(1), found);
  EXPECT_EQ(std::memcmp(found, Tagged(1, dim).data(), dim * sizeof(float)), 0);
}

}  // namespace
}  // namespace iccache
