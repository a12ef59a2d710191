// Decoder mutation sweep over the two pool-sized snapshot sections. A small
// sharded HNSW pool's snapshot has its `examples` and `index` sections
// re-encoded with seeded single-bit flips, truncations and inflated length
// fields; SnapshotWriter computes fresh CRCs, so every mutant gets past the
// checksums to the streaming decoders. Each mutant must restore or fail with
// a Status, and a restored pool must answer FindSimilar; a crash, an
// out-of-bounds read or undefined behaviour (this suite also runs under
// ASan + UBSan) or a hang (the ctest timeout) fails it.
#include <unistd.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/binio.h"
#include "src/common/rng.h"
#include "src/core/sharded_cache.h"
#include "src/persist/pool_codec.h"
#include "src/persist/snapshot.h"

namespace iccache {
namespace {

constexpr uint64_t kSeed = 0xf022ed;
constexpr size_t kShards = 4;
// Enough examples that some shard graphs grow an upper layer.
constexpr uint64_t kExamples = 120;

Request MakeRequest(uint64_t id, const std::string& text) {
  Request request;
  request.id = id;
  request.text = text;
  request.topic_id = static_cast<uint32_t>(id % 17);
  request.difficulty = 0.5;
  request.input_tokens = 24;
  request.target_output_tokens = 64;
  return request;
}

ShardedCacheConfig PoolConfig() {
  ShardedCacheConfig config;
  config.num_shards = kShards;
  config.cache.retrieval.kind = RetrievalBackendKind::kHnsw;
  return config;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

void PutLe(std::string* bytes, size_t offset, uint64_t value, size_t width) {
  for (size_t i = 0; i < width && offset + i < bytes->size(); ++i) {
    (*bytes)[offset + i] = static_cast<char>((value >> (8 * i)) & 0xFFu);
  }
}

// A length or count field of a section: where it sits and how wide it is.
struct LengthField {
  size_t offset = 0;
  size_t width = 8;
};

// The examples section's shard-counter count, record count, and every
// `stride`-th record's request-text, response-text and embedding lengths.
std::vector<LengthField> ExamplesLengthFields(const std::string& section, uint64_t stride) {
  std::vector<LengthField> fields;
  ByteReader r(section);
  const uint64_t shards = r.GetU64();
  fields.push_back({0, 8});
  for (uint64_t i = 0; i < shards; ++i) {
    r.GetU64();
  }
  fields.push_back({section.size() - static_cast<size_t>(r.remaining()), 8});
  const uint64_t count = r.GetU64();
  for (uint64_t i = 0; i < count; ++i) {
    const size_t start = section.size() - static_cast<size_t>(r.remaining());
    Example example;
    std::vector<float> embedding;
    if (!DecodeExample(&r, &example, &embedding)) {
      break;
    }
    if (i % stride != 0) {
      continue;
    }
    const size_t end = section.size() - static_cast<size_t>(r.remaining());
    // id, request id, dataset and task precede the text; seven fixed-width
    // request fields (36 bytes) sit between the text and the response.
    fields.push_back({start + 18, 8});
    fields.push_back({start + 26 + example.request.text.size() + 36, 8});
    fields.push_back({end - 4 * embedding.size() - 8, 8});
  }
  return fields;
}

// The index section's shard count, and per shard image its length prefix,
// node and live counts, first link count and arena length.
std::vector<LengthField> IndexLengthFields(const std::string& section, size_t dim) {
  std::vector<LengthField> fields;
  ByteReader r(section);
  const uint64_t shards = r.GetU64();
  fields.push_back({0, 8});
  for (uint64_t shard = 0; shard < shards; ++shard) {
    const size_t prefix = section.size() - static_cast<size_t>(r.remaining());
    const uint64_t length = r.GetU64();
    const size_t image = prefix + 8;
    std::string bytes(static_cast<size_t>(length), '\0');
    if (!r.GetBytes(bytes.data(), bytes.size())) {
      break;
    }
    fields.push_back({prefix, 8});
    // version u32, quantize flag u8, dim u64, degree u64, then node_count.
    constexpr size_t kNodeCount = 4 + 1 + 8 + 8;
    ByteReader head(bytes.data() + kNodeCount, 8);
    const uint64_t nodes = head.GetU64();
    fields.push_back({image + kNodeCount, 8});      // node count
    fields.push_back({image + kNodeCount + 8, 8});  // live count
    // The header runs through the level-sampler RNG (86 bytes); the first
    // node's id, level and tombstone flag (13 bytes) precede its first
    // link count.
    fields.push_back({image + 86 + 13, 4});
    fields.push_back({image + static_cast<size_t>(length) - 4 * nodes * dim - 8, 8});
  }
  return fields;
}

class PersistMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    embedder_ = std::make_shared<HashingEmbedder>();
    ShardedExampleCache pool(embedder_, PoolConfig());
    for (uint64_t i = 0; i < kExamples; ++i) {
      const Request request =
          MakeRequest(100 + i, "how do i tune widget " + std::to_string(i % 13) +
                                   " for pipeline stage " + std::to_string(i));
      ASSERT_NE(pool.Put(request, "response " + std::to_string(i), 0.5 + 0.003 * i, 0.9, 30,
                         static_cast<double>(i)),
                0u);
    }
    path_ = testing::TempDir() + "iccache_mutation_" + std::to_string(::getpid()) + ".snap";
    SnapshotWriter writer;
    EncodePoolSections(pool, {}, 0.0, &writer);
    ASSERT_TRUE(writer.WriteToFile(path_).ok());
    SnapshotReader reader;
    ASSERT_TRUE(reader.Open(path_).ok());
    for (const SnapshotSectionInfo& info : reader.sections()) {
      SectionBuffer bytes;
      ASSERT_TRUE(reader.Section(info.id, &bytes).ok());
      sections_[info.id] = std::string(bytes.bytes());
    }
    ASSERT_EQ(sections_.size(), 3u);  // meta, examples, index
  }

  void TearDown() override { std::remove(path_.c_str()); }

  enum class Outcome { kFailed, kNative, kRebuilt };

  // Writes the pool snapshot with section `id` replaced by `bytes` (fresh
  // CRCs), restores it, and searches the result.
  Outcome RestoreMutant(SnapshotSection id, const std::string& bytes) {
    SnapshotWriter writer;
    for (const auto& [section, payload] : sections_) {
      writer.AddSection(section, section == id ? bytes : payload);
    }
    const StatusOr<std::string> image = writer.Encode();
    EXPECT_TRUE(image.ok());
    WriteFile(path_, *image);
    SnapshotReader reader;
    EXPECT_TRUE(reader.Open(path_).ok());
    ShardedExampleCache restored(embedder_, PoolConfig());
    PoolRestoreReport report;
    if (!DecodePoolSections(reader, &restored, {}, &report).ok()) {
      return Outcome::kFailed;
    }
    const std::vector<SearchResult> results =
        restored.FindSimilar(MakeRequest(1, "how do i tune widget 5 for pipeline stage 5"), 5);
    EXPECT_LE(results.size(), 5u);
    return report.native_index_load ? Outcome::kNative : Outcome::kRebuilt;
  }

  // Outcome counts of one kind of mutant.
  struct Tally {
    size_t runs = 0;
    size_t failed = 0;
    size_t native = 0;
    size_t rebuilt = 0;
    void Add(Outcome outcome) {
      ++runs;
      failed += outcome == Outcome::kFailed ? 1 : 0;
      native += outcome == Outcome::kNative ? 1 : 0;
      rebuilt += outcome == Outcome::kRebuilt ? 1 : 0;
    }
  };
  struct SweepResult {
    Tally flips;
    Tally truncations;
    Tally lengths;
  };

  // Restores every mutant of section `id`: 512 single-bit flips and 64
  // truncations at seeded positions, and five inflated values of each
  // length field in `fields`.
  SweepResult Sweep(SnapshotSection id, const std::vector<LengthField>& fields) {
    const std::string& pristine = sections_.at(id);
    Rng rng(kSeed ^ static_cast<uint64_t>(id));
    SweepResult result;
    for (int i = 0; i < 512; ++i) {
      const size_t bit = static_cast<size_t>(rng.NextU64() % (8 * pristine.size()));
      SCOPED_TRACE(std::string(SnapshotSectionName(id)) + ": bit " + std::to_string(bit));
      std::string bytes = pristine;
      bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
      result.flips.Add(RestoreMutant(id, bytes));
    }
    for (int i = 0; i < 64; ++i) {
      const size_t cut = static_cast<size_t>(rng.NextU64() % pristine.size());
      SCOPED_TRACE(std::string(SnapshotSectionName(id)) + ": cut " + std::to_string(cut));
      result.truncations.Add(RestoreMutant(id, pristine.substr(0, cut)));
    }
    for (const LengthField& field : fields) {
      const uint64_t rest = pristine.size() - field.offset - field.width;
      const uint64_t max = field.width == 8 ? ~uint64_t{0} : 0xFFFFFFFFu;
      for (uint64_t inflated : {rest + 1, rest / 4 + 1, uint64_t{1} << 31, max >> 1, max}) {
        SCOPED_TRACE(std::string(SnapshotSectionName(id)) + ": length at " +
                     std::to_string(field.offset) + " = " + std::to_string(inflated));
        std::string bytes = pristine;
        PutLe(&bytes, field.offset, inflated, field.width);
        result.lengths.Add(RestoreMutant(id, bytes));
      }
    }
    return result;
  }

  std::shared_ptr<HashingEmbedder> embedder_;
  std::string path_;
  std::map<SnapshotSection, std::string> sections_;
};

TEST_F(PersistMutationTest, PristineSnapshotRestoresNatively) {
  SnapshotReader reader;
  ASSERT_TRUE(reader.Open(path_).ok());
  ShardedExampleCache restored(embedder_, PoolConfig());
  PoolRestoreReport report;
  ASSERT_TRUE(DecodePoolSections(reader, &restored, {}, &report).ok());
  EXPECT_TRUE(report.native_index_load);
  EXPECT_EQ(report.examples, kExamples);
  EXPECT_EQ(RestoreMutant(SnapshotSection::kMeta, sections_.at(SnapshotSection::kMeta)),
            Outcome::kNative);
}

// Every record sits inside the examples section's framing, so a truncation
// or an inflated length fails the restore; most flips land in plain values
// (or in embeddings, which a native graph load skips) and restore.
TEST_F(PersistMutationTest, MutatedExamplesSectionsRestoreOrFailWithAStatus) {
  const std::vector<LengthField> fields =
      ExamplesLengthFields(sections_.at(SnapshotSection::kExamples), 4);
  ASSERT_EQ(fields.size(), 2u + 3u * kExamples / 4);
  const SweepResult result = Sweep(SnapshotSection::kExamples, fields);
  EXPECT_EQ(result.truncations.failed, result.truncations.runs);
  EXPECT_EQ(result.lengths.failed, result.lengths.runs);
  EXPECT_GT(result.flips.native, 0u);
  EXPECT_GT(result.flips.failed, 0u);
}

// A graph image the loader rejects falls back to the rebuild, so every
// truncation and inflated length restores from the embeddings; a flip the
// loader cannot see (a vector component, a link to another valid node)
// restores natively, and one that renames a live node fails the id check.
TEST_F(PersistMutationTest, MutatedIndexSectionsRestoreOrFailWithAStatus) {
  const std::vector<LengthField> fields =
      IndexLengthFields(sections_.at(SnapshotSection::kIndex), embedder_->dim());
  ASSERT_EQ(fields.size(), 1u + 5u * kShards);
  const SweepResult result = Sweep(SnapshotSection::kIndex, fields);
  EXPECT_EQ(result.truncations.rebuilt, result.truncations.runs);
  EXPECT_EQ(result.lengths.rebuilt, result.lengths.runs);
  EXPECT_GT(result.flips.native, 0u);
  EXPECT_GT(result.flips.rebuilt, 0u);
}

}  // namespace
}  // namespace iccache
