#include "src/index/hnsw.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/binio.h"
#include "src/common/mathutil.h"
#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/core/selector.h"
#include "src/obs/trace.h"
#include "src/serving/driver.h"

namespace iccache {
namespace {

std::vector<float> RandomUnitVector(Rng& rng, size_t dim) {
  std::vector<float> v(dim);
  for (auto& x : v) {
    x = static_cast<float>(rng.Normal());
  }
  NormalizeL2(v);
  return v;
}

TEST(HnswIndexTest, AddSearchRemove) {
  HnswIndexConfig config;
  config.dim = 4;
  HnswIndex index(config);
  EXPECT_TRUE(index.Add(1, {1.0f, 0.0f, 0.0f, 0.0f}).ok());
  EXPECT_TRUE(index.Add(2, {0.0f, 1.0f, 0.0f, 0.0f}).ok());
  EXPECT_EQ(index.size(), 2u);

  const auto results = index.Search({1.0f, 0.0f, 0.0f, 0.0f}, 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, 1u);
  EXPECT_NEAR(results[0].score, 1.0, 1e-6);

  EXPECT_TRUE(index.Remove(1));
  EXPECT_FALSE(index.Remove(1));
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.Search({1.0f, 0.0f, 0.0f, 0.0f}, 1)[0].id, 2u);
}

TEST(HnswIndexTest, DimensionMismatchRejected) {
  HnswIndexConfig config;
  config.dim = 4;
  HnswIndex index(config);
  EXPECT_FALSE(index.Add(1, {1.0f}).ok());
  EXPECT_TRUE(index.Search({1.0f}, 3).empty());  // malformed query: no results
}

TEST(HnswIndexTest, OverwriteExistingId) {
  HnswIndexConfig config;
  config.dim = 2;
  HnswIndex index(config);
  ASSERT_TRUE(index.Add(1, {1.0f, 0.0f}).ok());
  ASSERT_TRUE(index.Add(1, {0.0f, 1.0f}).ok());
  EXPECT_EQ(index.size(), 1u);
  const auto results = index.Search({0.0f, 1.0f}, 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, 1u);
  EXPECT_NEAR(results[0].score, 1.0, 1e-6);
}

TEST(HnswIndexTest, ResultsSortedDescendingAndUnique) {
  HnswIndexConfig config;
  config.dim = 8;
  HnswIndex index(config);
  Rng rng(21);
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(index.Add(i, RandomUnitVector(rng, 8)).ok());
  }
  const auto results = index.Search(RandomUnitVector(rng, 8), 20);
  ASSERT_EQ(results.size(), 20u);
  std::set<uint64_t> unique;
  for (size_t i = 0; i < results.size(); ++i) {
    unique.insert(results[i].id);
    if (i > 0) {
      EXPECT_GE(results[i - 1].score, results[i].score);
    }
  }
  EXPECT_EQ(unique.size(), results.size());
}

TEST(HnswIndexTest, KLargerThanSize) {
  HnswIndexConfig config;
  config.dim = 2;
  HnswIndex index(config);
  index.Add(1, {1.0f, 0.0f});
  EXPECT_EQ(index.Search({1.0f, 0.0f}, 10).size(), 1u);
  EXPECT_TRUE(index.Search({1.0f, 0.0f}, 0).empty());
}

TEST(HnswIndexTest, EmptyIndexSearch) {
  HnswIndex index;
  EXPECT_TRUE(index.Search(std::vector<float>(128, 0.0f), 5).empty());
}

// Satellite acceptance: recall@10 >= 0.9 against FlatIndex ground truth on
// 10k synthetic normalized vectors.
TEST(HnswIndexTest, RecallAtTenAgainstFlatGroundTruth) {
  const size_t dim = 64;
  const size_t n = 10000;
  const size_t k = 10;
  const int queries = 100;

  HnswIndexConfig config;
  config.dim = dim;
  HnswIndex approx(config);
  FlatIndex exact(dim);
  Rng rng(31);
  for (uint64_t i = 0; i < n; ++i) {
    const auto v = RandomUnitVector(rng, dim);
    ASSERT_TRUE(approx.Add(i, v).ok());
    ASSERT_TRUE(exact.Add(i, v).ok());
  }

  size_t hits = 0;
  for (int q = 0; q < queries; ++q) {
    const auto query = RandomUnitVector(rng, dim);
    const auto truth = exact.Search(query, k);
    const auto found = approx.Search(query, k);
    std::set<uint64_t> truth_ids;
    for (const auto& r : truth) {
      truth_ids.insert(r.id);
    }
    for (const auto& r : found) {
      hits += truth_ids.count(r.id);
    }
  }
  const double recall = static_cast<double>(hits) / static_cast<double>(queries * k);
  EXPECT_GE(recall, 0.9) << "recall@10 = " << recall;
}

// Self-recall: querying with a stored vector must find it (the stage-1
// retrieval common case — a paraphrase of a cached request).
TEST(HnswIndexTest, NearDuplicateQueryAlwaysFound) {
  const size_t dim = 16;
  HnswIndexConfig config;
  config.dim = dim;
  HnswIndex index(config);
  Rng rng(32);
  std::vector<std::vector<float>> stored;
  for (uint64_t i = 0; i < 500; ++i) {
    stored.push_back(RandomUnitVector(rng, dim));
    ASSERT_TRUE(index.Add(i, stored.back()).ok());
  }
  int hits = 0;
  for (uint64_t i = 0; i < 500; ++i) {
    const auto results = index.Search(stored[i], 1);
    if (!results.empty() && results[0].id == i) {
      ++hits;
    }
  }
  EXPECT_GE(hits, 495);
}

// Satellite acceptance: tombstoned ids never appear in search results, at any
// k, before and after the automatic compaction kicks in.
TEST(HnswIndexTest, DeletedIdsNeverReturned) {
  const size_t dim = 16;
  HnswIndexConfig config;
  config.dim = dim;
  config.min_tombstones_to_compact = 64;
  HnswIndex index(config);
  Rng rng(33);
  const size_t n = 600;
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(index.Add(i, RandomUnitVector(rng, dim)).ok());
  }
  // Delete every third id, probing after each batch of deletions.
  std::set<uint64_t> deleted;
  for (uint64_t i = 0; i < n; i += 3) {
    ASSERT_TRUE(index.Remove(i));
    deleted.insert(i);
    if (i % 60 == 0) {
      for (const auto& result : index.Search(RandomUnitVector(rng, dim), 25)) {
        EXPECT_EQ(deleted.count(result.id), 0u) << "tombstoned id " << result.id << " returned";
      }
    }
  }
  EXPECT_EQ(index.size(), n - deleted.size());
  // Deleting a third of the index crosses max_tombstone_fraction = 0.25, so
  // compaction must have run at least once along the way.
  EXPECT_LE(index.tombstones(),
            static_cast<size_t>(config.max_tombstone_fraction *
                                static_cast<double>(index.size() + index.tombstones())) +
                1);
  for (const auto& result : index.Search(RandomUnitVector(rng, dim), n)) {
    EXPECT_EQ(deleted.count(result.id), 0u);
  }
}

TEST(HnswIndexTest, CompactDropsAllTombstonesAndPreservesRecall) {
  const size_t dim = 16;
  HnswIndexConfig config;
  config.dim = dim;
  config.min_tombstones_to_compact = 1 << 30;  // disable auto-compaction
  HnswIndex index(config);
  Rng rng(34);
  std::vector<std::vector<float>> stored;
  for (uint64_t i = 0; i < 400; ++i) {
    stored.push_back(RandomUnitVector(rng, dim));
    ASSERT_TRUE(index.Add(i, stored[i]).ok());
  }
  for (uint64_t i = 0; i < 400; i += 2) {
    ASSERT_TRUE(index.Remove(i));
  }
  EXPECT_EQ(index.tombstones(), 200u);
  index.Compact();
  EXPECT_EQ(index.tombstones(), 0u);
  EXPECT_EQ(index.size(), 200u);
  int hits = 0;
  for (uint64_t i = 1; i < 400; i += 2) {
    const auto results = index.Search(stored[i], 1);
    if (!results.empty() && results[0].id == i) {
      ++hits;
    }
  }
  EXPECT_GE(hits, 195);
}

TEST(HnswIndexTest, RemoveAllThenReuse) {
  HnswIndexConfig config;
  config.dim = 4;
  HnswIndex index(config);
  Rng rng(35);
  for (uint64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(index.Add(i, RandomUnitVector(rng, 4)).ok());
  }
  for (uint64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(index.Remove(i));
  }
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.tombstones(), 0u);
  EXPECT_TRUE(index.Search(RandomUnitVector(rng, 4), 5).empty());
  ASSERT_TRUE(index.Add(99, RandomUnitVector(rng, 4)).ok());
  EXPECT_EQ(index.Search(RandomUnitVector(rng, 4), 5).size(), 1u);
}

// The same graph searched at two beam widths: the wide index loads the
// narrow one's graph image.
TEST(HnswIndexTest, WiderBeamNeverHurtsRecall) {
  const size_t dim = 32;
  HnswIndexConfig config;
  config.dim = dim;
  config.ef_search = 16;
  HnswIndex narrow(config);
  FlatIndex exact(dim);
  Rng rng(36);
  for (uint64_t i = 0; i < 2000; ++i) {
    const auto v = RandomUnitVector(rng, dim);
    ASSERT_TRUE(narrow.Add(i, v).ok());
    ASSERT_TRUE(exact.Add(i, v).ok());
  }
  config.ef_search = 256;
  HnswIndex wide(config);
  ByteWriter image;
  narrow.SaveGraph(&image);
  ByteReader reader(image.bytes());
  ASSERT_TRUE(wide.LoadGraph(&reader, image.size()));
  size_t narrow_hits = 0;
  size_t wide_hits = 0;
  for (int q = 0; q < 40; ++q) {
    const auto query = RandomUnitVector(rng, dim);
    std::set<uint64_t> truth;
    for (const auto& r : exact.Search(query, 10)) {
      truth.insert(r.id);
    }
    for (const auto& r : narrow.Search(query, 10)) {
      narrow_hits += truth.count(r.id);
    }
    for (const auto& r : wide.Search(query, 10)) {
      wide_hits += truth.count(r.id);
    }
  }
  EXPECT_GE(wide_hits, narrow_hits);
  EXPECT_GE(wide_hits, static_cast<size_t>(40 * 10 * 0.95));
}

class HnswSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(HnswSizeSweep, SearchReturnsRequestedK) {
  const size_t n = GetParam();
  HnswIndexConfig config;
  config.dim = 8;
  HnswIndex index(config);
  Rng rng(37);
  for (uint64_t i = 0; i < n; ++i) {
    index.Add(i, RandomUnitVector(rng, 8));
  }
  const auto results = index.Search(RandomUnitVector(rng, 8), 5);
  EXPECT_EQ(results.size(), std::min<size_t>(5, n));
  std::set<uint64_t> unique;
  for (const auto& r : results) {
    unique.insert(r.id);
  }
  EXPECT_EQ(unique.size(), results.size());
}

INSTANTIATE_TEST_SUITE_P(Sizes, HnswSizeSweep, ::testing::Values(0u, 1u, 2u, 7u, 63u, 100u, 333u));

// --- Native graph images ---------------------------------------------------

// Serves a byte string to a streaming ByteReader.
class StringSource : public ByteSource {
 public:
  explicit StringSource(std::string bytes) : bytes_(std::move(bytes)) {}
  bool Read(void* dst, size_t size) override {
    if (size > bytes_.size() - pos_) {
      return false;
    }
    std::copy_n(bytes_.data() + pos_, size, static_cast<char*>(dst));
    pos_ += size;
    return true;
  }

 private:
  std::string bytes_;
  size_t pos_ = 0;
};

// LoadGraph reads an image out of the middle of a stream through a buffer
// far smaller than the image, stopping exactly at the image's end; an entry
// level above the entry node's own level, which the first search would
// follow out of bounds, is rejected like any other malformed image.
TEST(HnswIndexTest, LoadGraphStreamsAnImageAndRejectsABadEntryLevel) {
  HnswIndexConfig config;
  config.dim = 16;
  config.max_neighbors = 4;  // a small degree grows upper layers quickly
  HnswIndex index(config);
  Rng rng(77);
  for (uint64_t i = 1; i <= 300; ++i) {
    ASSERT_TRUE(index.Add(i, RandomUnitVector(rng, 16)).ok());
  }
  ASSERT_TRUE(index.Remove(5));
  ByteWriter image;
  index.SaveGraph(&image);
  ASSERT_GT(index.max_level(), 0);

  ByteWriter framed;
  framed.PutU32(0xabcd);
  framed.PutBytes(image.bytes().data(), image.size());
  framed.PutU32(0xef01);
  StringSource source(framed.bytes());
  ByteReader stream(&source, framed.size(), 64);
  EXPECT_EQ(stream.GetU32(), 0xabcdu);
  HnswIndex restored(config);
  ASSERT_TRUE(restored.LoadGraph(&stream, image.size()));
  EXPECT_EQ(stream.GetU32(), 0xef01u);
  EXPECT_TRUE(stream.ok() && stream.AtEnd());
  EXPECT_EQ(stream.max_buffered(), 64u);
  ByteWriter again;
  restored.SaveGraph(&again);
  EXPECT_TRUE(again.bytes() == image.bytes());

  // Version, mode byte, dim, degree, node and live counts and the entry
  // slot precede the entry level.
  constexpr size_t kEntryLevel = 4 + 1 + 8 + 8 + 8 + 8 + 4;
  for (int32_t level : {index.max_level() + 1, 24}) {
    std::string bad = image.bytes();
    ByteWriter field;
    field.PutI32(level);
    bad.replace(kEntryLevel, 4, field.bytes());
    HnswIndex target(config);
    ByteReader reader(bad);
    EXPECT_FALSE(target.LoadGraph(&reader, bad.size())) << level;
    EXPECT_EQ(target.size(), 0u);
  }
}

// Saves a small float graph and returns its image.
std::string SmallGraphImage(const HnswIndexConfig& config, uint64_t seed) {
  HnswIndex index(config);
  Rng rng(seed);
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(index.Add(i, RandomUnitVector(rng, config.dim)).ok());
  }
  ByteWriter image;
  index.SaveGraph(&image);
  return image.bytes();
}

// Loads `image` into an index that already holds one vector; a rejected
// image must leave that vector in place.
void ExpectRejectedAndUntouched(const HnswIndexConfig& config, const std::string& image) {
  HnswIndex target(config);
  Rng rng(5);
  const std::vector<float> kept = RandomUnitVector(rng, config.dim);
  ASSERT_TRUE(target.Add(7, kept).ok());
  ByteReader reader(image);
  EXPECT_FALSE(target.LoadGraph(&reader, image.size()));
  EXPECT_EQ(target.size(), 1u);
  const auto found = target.Search(kept, 1);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].id, 7u);
}

// The mode byte after the version is always 0 (the float arena); an image
// carrying any other mode is rejected, so the caller rebuilds.
TEST(HnswIndexTest, NonzeroModeByteRejectsImage) {
  HnswIndexConfig config;
  config.dim = 16;
  std::string image = SmallGraphImage(config, 47);
  ASSERT_EQ(image[4], '\0');
  {
    HnswIndex same(config);
    ByteReader reader(image);
    ASSERT_TRUE(same.LoadGraph(&reader, image.size()));
    EXPECT_EQ(same.size(), 100u);
  }
  image[4] = 1;
  ExpectRejectedAndUntouched(config, image);
}

// Every node carries at least 17 bytes of record plus dim arena floats, so
// LoadGraph bounds the node count by image_bytes / (17 + 4 * dim) before it
// reserves the node table. A count that fits only at one arena byte per
// dimension must fail and leave the index untouched.
TEST(HnswIndexTest, NodeCountAboveTheFloatArenaBoundRejectsImage) {
  HnswIndexConfig config;
  config.dim = 16;
  std::string image = SmallGraphImage(config, 48);
  // Version, mode byte, dim and degree precede the node count.
  constexpr size_t kNodeCount = 4 + 1 + 8 + 8;
  const uint64_t claimed = image.size() / (17 + config.dim);
  ASSERT_GT(claimed, image.size() / (17 + config.dim * sizeof(float)));
  ByteWriter field;
  field.PutU64(claimed);
  image.replace(kNodeCount, 8, field.bytes());
  ExpectRejectedAndUntouched(config, image);
}

// --- The link step --------------------------------------------------------

// Add appends; every method that reads or restructures the graph links the
// pending nodes first, while the counters count them as they are.
TEST(HnswLinkStepTest, AddAppendsAndGraphReadsLinkFirst) {
  HnswIndexConfig config;
  config.dim = 8;
  HnswIndex index(config);
  Rng rng(41);
  for (uint64_t i = 1; i <= 50; ++i) {
    ASSERT_TRUE(index.Add(i, RandomUnitVector(rng, 8)).ok());
  }
  EXPECT_EQ(index.pending(), 50u);
  EXPECT_EQ(index.size(), 50u);
  EXPECT_EQ(index.tombstones(), 0u);
  EXPECT_EQ(index.arena_bytes(), 50u * 8 * sizeof(float));
  std::vector<float> stored;
  EXPECT_TRUE(index.GetVector(7, &stored));
  EXPECT_EQ(index.pending(), 50u);
  EXPECT_GE(index.max_level(), 0);
  EXPECT_EQ(index.pending(), 0u);

  const std::vector<float> fresh = RandomUnitVector(rng, 8);
  ASSERT_TRUE(index.Add(51, fresh).ok());
  EXPECT_EQ(index.pending(), 1u);
  const auto found = index.Search(fresh, 1);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].id, 51u);
  EXPECT_EQ(index.pending(), 0u);

  ASSERT_TRUE(index.Add(52, RandomUnitVector(rng, 8)).ok());
  EXPECT_TRUE(index.Remove(3));
  EXPECT_EQ(index.pending(), 0u);
  ASSERT_TRUE(index.Add(53, RandomUnitVector(rng, 8)).ok());
  ASSERT_TRUE(index.Add(53, RandomUnitVector(rng, 8)).ok());  // overwrite of a pending id
  EXPECT_EQ(index.pending(), 1u);                              // only the new node
  EXPECT_EQ(index.tombstones(), 2u);
  index.Compact();
  EXPECT_EQ(index.pending(), 0u);
  EXPECT_EQ(index.tombstones(), 0u);
  ASSERT_TRUE(index.Add(54, RandomUnitVector(rng, 8)).ok());
  ByteWriter image;
  index.SaveGraph(&image);
  EXPECT_EQ(index.pending(), 0u);
  EXPECT_EQ(image.size(), index.GraphImageSize());

  FlatIndex flat(8);
  ASSERT_TRUE(flat.Add(1, RandomUnitVector(rng, 8)).ok());
  EXPECT_EQ(flat.pending(), 0u);
  flat.Flush();
  EXPECT_EQ(flat.size(), 1u);
}

enum class FlushPoint { kEveryAdd, kEnd, kRandomSearches };

struct LinkRun {
  std::string graph;                             // SaveGraph image at the end
  std::vector<std::vector<SearchResult>> mid;    // searches at the seeded points
  std::vector<std::vector<SearchResult>> final;  // fixed queries at the end
  size_t pending_overwrites = 0;  // overwrites of a still-pending id (kEnd)
  size_t linked_overwrites = 0;   // overwrites of a linked id (kEnd)
  size_t pending_removes = 0;     // removes while nodes were pending (kEnd)
  size_t compactions = 0;
};

// One seeded sequence of Adds, overwrites and Removes (enough tombstones for
// compaction to fire), linked at `mode`'s points: after every Add (eager
// linking), only at the end, or by searches at seeded random points.
LinkRun RunLinkSequence(FlushPoint mode) {
  constexpr size_t kDim = 16;
  HnswIndexConfig config;
  config.dim = kDim;
  config.min_tombstones_to_compact = 16;
  HnswIndex index(config);
  Rng ops(0xf1a5);
  Rng points(0x5ea7);
  Rng queries(0x9e77);
  LinkRun run;
  std::vector<uint64_t> ids;
  uint64_t next_id = 1;
  bool newest_pending = false;  // kEnd: ids.back() was appended since the last link
  for (int op = 0; op < 600; ++op) {
    const size_t tombstones = index.tombstones();
    const double dice = ops.Uniform();
    if (dice < 0.2 && !ids.empty()) {
      const size_t at = static_cast<size_t>(ops.UniformInt(ids.size()));
      run.pending_removes += index.pending() > 0 ? 1 : 0;
      EXPECT_TRUE(index.Remove(ids[at]));
      ids.erase(ids.begin() + static_cast<ptrdiff_t>(at));
      newest_pending = false;
    } else {
      uint64_t id = 0;
      if (dice < 0.4 && !ids.empty()) {
        id = ops.Bernoulli(0.5) ? ids.back() : ids[ops.UniformInt(ids.size())];
        if (mode == FlushPoint::kEnd && newest_pending && id == ids.back()) {
          ++run.pending_overwrites;
        } else if (mode == FlushPoint::kEnd) {
          ++run.linked_overwrites;
        }
        newest_pending = false;
      } else {
        id = next_id++;
        ids.push_back(id);
        newest_pending = true;
      }
      EXPECT_TRUE(index.Add(id, RandomUnitVector(ops, kDim)).ok());
      if (mode == FlushPoint::kEveryAdd) {
        index.Flush();
      }
    }
    run.compactions += index.tombstones() < tombstones ? 1 : 0;
    const bool search_point = points.Bernoulli(0.05);
    const std::vector<float> query = RandomUnitVector(queries, kDim);
    if (search_point && mode != FlushPoint::kEnd) {
      run.mid.push_back(index.Search(query, 5));
    }
  }
  // End on fresh appends, so the final link pass has work in the lazy modes.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(index.Add(next_id++, RandomUnitVector(ops, kDim)).ok());
    if (mode == FlushPoint::kEveryAdd) {
      index.Flush();
    }
  }
  if (mode == FlushPoint::kEnd) {
    EXPECT_GE(index.pending(), 5u);
    index.Flush();
  }
  ByteWriter graph;
  index.SaveGraph(&graph);
  run.graph = graph.bytes();
  for (int q = 0; q < 20; ++q) {
    run.final.push_back(index.Search(RandomUnitVector(queries, kDim), 10));
  }
  return run;
}

void ExpectSameResults(const std::vector<std::vector<SearchResult>>& a,
                       const std::vector<std::vector<SearchResult>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t q = 0; q < a.size(); ++q) {
    ASSERT_EQ(a[q].size(), b[q].size()) << "query " << q;
    for (size_t i = 0; i < a[q].size(); ++i) {
      EXPECT_EQ(a[q][i].id, b[q][i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(a[q][i].score, b[q][i].score) << "query " << q << " rank " << i;
    }
  }
}

// Pending nodes have no links in or out and keep their level draws, so where
// the link step runs changes no graph byte and no search result.
TEST(HnswFlushPointTest, GraphAndResultsDoNotDependOnWhenNodesLink) {
  const LinkRun every_add = RunLinkSequence(FlushPoint::kEveryAdd);
  const LinkRun at_end = RunLinkSequence(FlushPoint::kEnd);
  const LinkRun searches = RunLinkSequence(FlushPoint::kRandomSearches);
  EXPECT_GT(at_end.pending_overwrites, 0u);
  EXPECT_GT(at_end.linked_overwrites, 0u);
  EXPECT_GT(at_end.pending_removes, 0u);
  EXPECT_GT(every_add.compactions, 0u);
  EXPECT_FALSE(every_add.mid.empty());
  EXPECT_TRUE(at_end.graph == every_add.graph);
  EXPECT_TRUE(searches.graph == every_add.graph);
  ExpectSameResults(searches.mid, every_add.mid);
  ExpectSameResults(at_end.final, every_add.final);
  ExpectSameResults(searches.final, every_add.final);
}

// --- Beam keys ---------------------------------------------------------------

uint32_t FloatBits(float f) {
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

// A beam key orders like the (similarity, slot) pair it replaces and decodes
// to the similarity's float bit for bit, over seeded similarities with the
// edge values mixed in: 0 and -0 (equal, so the slot decides), +-1,
// subnormals, the normal extremes, infinities, and each value tied at several
// slots.
TEST(HnswBeamKeyTest, KeyOrderEqualsPairOrderAndDecodesExactly) {
  using Limits = std::numeric_limits<float>;
  std::vector<float> sims = {0.0f,
                             -0.0f,
                             1.0f,
                             -1.0f,
                             Limits::denorm_min(),
                             -Limits::denorm_min(),
                             Limits::min() - Limits::denorm_min(),  // largest subnormal
                             -(Limits::min() - Limits::denorm_min()),
                             Limits::min(),
                             -Limits::min(),
                             Limits::max(),
                             -Limits::max(),
                             Limits::infinity(),
                             -Limits::infinity()};
  Rng rng(0xbea3);
  for (int i = 0; i < 120; ++i) {
    sims.push_back(static_cast<float>(2.0 * rng.Uniform() - 1.0));
  }
  std::vector<std::pair<double, uint32_t>> entries;
  for (float sim : sims) {
    for (uint32_t slot : {0u, 1u, static_cast<uint32_t>(rng.UniformInt(1u << 31)), ~0u}) {
      entries.emplace_back(sim, slot);
    }
  }
  std::vector<uint64_t> keys;
  for (const auto& [sim, slot] : entries) {
    const uint64_t key = BeamKey(sim, slot);
    keys.push_back(key);
    EXPECT_EQ(BeamKeySlot(key), slot);
    // -0 decodes as +0, the one value the key does not keep apart.
    const float want = sim == 0.0 ? 0.0f : static_cast<float>(sim);
    EXPECT_EQ(FloatBits(BeamKeySim(key)), FloatBits(want)) << sim;
  }
  size_t mismatches = 0;
  for (size_t a = 0; a < entries.size(); ++a) {
    for (size_t b = 0; b < entries.size(); ++b) {
      mismatches += (keys[a] < keys[b]) != (entries[a] < entries[b]) ? 1 : 0;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

// --- Beam heaps --------------------------------------------------------------

// `n` unique beam keys in seeded order: similarities drawn from 16 values, so
// many keys tie on similarity and the slot decides.
std::vector<uint64_t> UniqueBeamKeys(Rng& rng, size_t n) {
  std::vector<uint64_t> keys;
  for (uint32_t slot = 0; slot < n; ++slot) {
    const double sim = static_cast<double>(rng.UniformInt(16)) / 8.0 - 1.0;
    keys.push_back(BeamKey(sim, slot * 7919u % 100003u));
  }
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.UniformInt(i)]);
  }
  return keys;
}

// Pushes every key, popping once after each third push, then drains: the
// 4-ary heap must pop what std::priority_queue with the same comparator pops.
template <typename Before>
void ExpectPopsMatchPriorityQueue(const std::vector<uint64_t>& keys) {
  std::vector<uint64_t> heap;
  std::priority_queue<uint64_t, std::vector<uint64_t>, Before> reference;
  std::vector<uint64_t> got;
  std::vector<uint64_t> want;
  for (size_t i = 0; i < keys.size(); ++i) {
    heap.push_back(keys[i]);
    BeamHeap<Before>::SiftUpBack(heap);
    reference.push(keys[i]);
    if (i % 3 == 2) {
      got.push_back(BeamHeap<Before>::Pop(heap));
      want.push_back(reference.top());
      reference.pop();
    }
  }
  while (!heap.empty()) {
    got.push_back(BeamHeap<Before>::Pop(heap));
  }
  while (!reference.empty()) {
    want.push_back(reference.top());
    reference.pop();
  }
  EXPECT_EQ(got, want) << keys.size() << " keys";
}

constexpr size_t kHeapEf = HnswIndexConfig{}.ef_search;

TEST(HnswBeamHeapTest, PopsMatchPriorityQueue) {
  Rng rng(0x4ea9);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{4}, size_t{5}, kHeapEf + 1, size_t{1000}}) {
    const std::vector<uint64_t> keys = UniqueBeamKeys(rng, n);
    ExpectPopsMatchPriorityQueue<std::less<uint64_t>>(keys);
    ExpectPopsMatchPriorityQueue<std::greater<uint64_t>>(keys);
  }
}

// BeamSearch's bounded result set: below ef a key is pushed; at ef a key that
// beats the worst replaces it in one sift. The reference pushes, then pops
// the worst once past ef. Both must hold the same worst key after every key
// and drain to the same set.
TEST(HnswBeamHeapTest, ReplaceFrontKeepsTheBoundedSet) {
  Rng rng(0x5e7b);
  for (const size_t ef : {size_t{1}, size_t{4}, size_t{5}, kHeapEf}) {
    for (const size_t n : {size_t{0}, size_t{1}, size_t{4}, size_t{5}, ef + 1, size_t{1000}}) {
      std::vector<uint64_t> heap;
      std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<uint64_t>> reference;
      for (const uint64_t key : UniqueBeamKeys(rng, n)) {
        if (heap.size() < ef) {
          heap.push_back(key);
          MinBeamHeap::SiftUpBack(heap);
        } else if (key > heap.front()) {
          MinBeamHeap::ReplaceFront(heap, key);
        }
        reference.push(key);
        if (reference.size() > ef) {
          reference.pop();
        }
        ASSERT_EQ(heap.size(), reference.size());
        ASSERT_EQ(heap.front(), reference.top()) << "ef " << ef << ", " << n << " keys";
      }
      std::vector<uint64_t> got;
      std::vector<uint64_t> want;
      while (!heap.empty()) {
        got.push_back(MinBeamHeap::Pop(heap));
      }
      while (!reference.empty()) {
        want.push_back(reference.top());
        reference.pop();
      }
      EXPECT_EQ(got, want) << "ef " << ef << ", " << n << " keys";
    }
  }
}

// --- A pinned pruned graph ------------------------------------------------

// Size and CRC-32 of the pruned graph's SaveGraph image, the CRC-32 of its
// search results at k=10 and at the selector's stage-1 k, and the stage-1
// searches' summed hnsw_search span args (slots marked visited, nodes
// expanded), at one kernel level (similarities differ in their last bits
// between levels, and with them the links).
struct PinnedGraph {
  size_t image_size;
  uint32_t image_crc;
  uint32_t results_crc;
  uint32_t stage1_crc;
  uint64_t stage1_visited;
  uint64_t stage1_hops;
};

// A default-config graph (M 32, ef_construction 200, ef_search 192) over
// 4,000 clustered 128-d vectors: hub nodes collect more than 2M level-0
// back-links, so ShrinkLinks prunes, and 1,334 removes cross the compaction
// threshold, so compaction relinks the survivors. The image pins every link
// the link step's beam, the diversity heuristic and pruning chose; the
// results pin the search beam over that graph, once at k=10 in one batch and
// once at serving's shape: k = stage1_candidates, searched one query at a
// time and in prepare_chunk batches (both must hash to the same CRC). The
// traversal is pinned too: both shapes' hnsw_search spans, read through the
// TraceRecorder, must sum to the pinned visited and hop counts (bench/perf's
// index.visited_per_req and index.hops_per_req are these sums).
// Pushing one hop's neighbors in another order, or rounding one similarity
// differently, moves them.
// ci.sh reruns this suite with ICCACHE_FORCE_SCALAR=1 for the scalar pin.
TEST(HnswPinnedGraphTest, PrunedGraphMatchesPinnedBytes) {
  const HnswIndexConfig config;
  HnswIndex index(config);
  Rng rng(0x9a4f);
  std::vector<std::vector<float>> centers;
  for (int c = 0; c < 16; ++c) {
    centers.push_back(RandomUnitVector(rng, config.dim));
  }
  const auto clustered = [&] {
    std::vector<float> v = centers[rng.UniformInt(centers.size())];
    for (auto& x : v) {
      x += static_cast<float>(0.12 * rng.Normal());
    }
    NormalizeL2(v);
    return v;
  };
  constexpr uint64_t kVectors = 4000;
  for (uint64_t id = 0; id < kVectors; ++id) {
    ASSERT_TRUE(index.Add(id, clustered()).ok());
  }
  size_t removed = 0;
  for (uint64_t id = 0; id < kVectors; id += 3) {
    ASSERT_TRUE(index.Remove(id));
    ++removed;
  }
  ASSERT_EQ(index.size(), kVectors - removed);
  ASSERT_LT(index.tombstones(), removed);  // compaction ran

  ByteWriter image;
  index.SaveGraph(&image);
  std::vector<float> queries;
  for (int q = 0; q < 64; ++q) {
    const std::vector<float> query = clustered();
    queries.insert(queries.end(), query.begin(), query.end());
  }
  SearchScratch scratch;
  index.SearchBatch(queries.data(), 64, config.dim, 10, &scratch);
  ASSERT_EQ(scratch.results.size(), 64u * 10);
  ByteWriter results;
  for (const SearchResult& r : scratch.results) {
    results.PutU64(r.id);
    results.PutDouble(r.score);
  }
  // Serving's shape: stage-1 k over single queries and prepare chunks.
  constexpr size_t kStage1 = SelectorConfig::stage1_candidates;
  std::vector<uint32_t> stage1_crcs;
  std::vector<std::pair<uint64_t, uint64_t>> stage1_work;  // (visited, hops) sums
  for (const size_t batch : {size_t{1}, DriverConfig{}.prepare_chunk}) {
    ByteWriter stage1;
    TraceRecorder::Global().Reset();
    {
      ScopedTracing tracing(true);
      for (size_t base = 0; base < 64; base += batch) {
        index.SearchBatch(queries.data() + base * config.dim, batch, config.dim, kStage1,
                          &scratch);
        ASSERT_EQ(scratch.results.size(), batch * kStage1);
        for (const SearchResult& r : scratch.results) {
          stage1.PutU64(r.id);
          stage1.PutDouble(r.score);
        }
      }
    }
    stage1_crcs.push_back(Crc32(stage1.bytes().data(), stage1.size()));
    uint64_t visited = 0;
    uint64_t hops = 0;
    size_t spans = 0;
    for (const auto& thread : TraceRecorder::Global().TakeSnapshot().threads) {
      for (const TraceEvent& event : thread.events) {
        if (event.category == TraceCategory::kHnswSearch) {
          visited += event.arg0;
          hops += event.arg1;
          ++spans;
        }
      }
    }
    EXPECT_EQ(spans, 64 / batch) << "one hnsw_search span per SearchBatch call";
    stage1_work.emplace_back(visited, hops);
  }
  TraceRecorder::Global().Reset();
  const PinnedGraph got{image.size(),
                        Crc32(image.bytes().data(), image.size()),
                        Crc32(results.bytes().data(), results.size()),
                        stage1_crcs[0],
                        stage1_work[0].first,
                        stage1_work[0].second};

  const PinnedGraph want =
      simd::ActiveKernelLevel() == simd::KernelLevel::kAvx2
          ? PinnedGraph{1940149, 0xc0da656bu, 0xc30af13au, 0x922b9496u, 108787, 12304}
          : PinnedGraph{1940149, 0x43674a6eu, 0x1920337cu, 0xff5f50d8u, 108787, 12304};
  EXPECT_EQ(got.image_size, want.image_size);
  EXPECT_EQ(got.image_crc, want.image_crc) << std::hex << got.image_crc;
  EXPECT_EQ(got.results_crc, want.results_crc) << std::hex << got.results_crc;
  EXPECT_EQ(got.stage1_crc, want.stage1_crc) << std::hex << got.stage1_crc;
  EXPECT_EQ(got.stage1_visited, want.stage1_visited);
  EXPECT_EQ(got.stage1_hops, want.stage1_hops);
  EXPECT_EQ(stage1_crcs[1], stage1_crcs[0]) << "batch size moved a stage-1 result";
  EXPECT_EQ(stage1_work[1], stage1_work[0]) << "batch size moved the stage-1 traversal";
}

}  // namespace
}  // namespace iccache
