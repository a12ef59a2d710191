// Decoder mutation sweep over every snapshot section a pool restore decodes.
// A small sharded HNSW pool's snapshot has its `examples` and `index`
// sections, and a small pool's snapshot with every adaptive component has its
// `selector`, `manager`, `proxy`, `router` and `stage0` sections, re-encoded
// with seeded single-bit flips, truncations and inflated counts and length
// fields; SnapshotWriter computes fresh CRCs, so every mutant gets past the
// checksums to the streaming decoders. Each mutant must restore or fail with
// a Status, and a restored pool must answer a probe; a crash, an
// out-of-bounds read or undefined behaviour (this suite also runs under
// ASan + UBSan) or a hang (the ctest timeout) fails it. Two hostile sections
// claiming 2^20 stage-0 entries or selector grid cells in 1 MiB must fail
// without an allocation sized from the claim (this binary replaces the
// global operator new to record the largest allocation of a restore).
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/binio.h"
#include "src/common/rng.h"
#include "src/core/example_cache.h"
#include "src/core/manager.h"
#include "src/core/proxy_model.h"
#include "src/core/router.h"
#include "src/core/selector.h"
#include "src/core/sharded_cache.h"
#include "src/core/stage0_cache.h"
#include "src/llm/generation.h"
#include "src/llm/model_profile.h"
#include "src/persist/pool_codec.h"
#include "src/persist/snapshot.h"

namespace {

// The largest single operator-new allocation made while recording.
std::atomic<bool> g_recording{false};
std::atomic<size_t> g_largest_allocation{0};

void* Allocate(size_t size) {
  if (g_recording.load(std::memory_order_relaxed)) {
    size_t largest = g_largest_allocation.load(std::memory_order_relaxed);
    while (size > largest &&
           !g_largest_allocation.compare_exchange_weak(largest, size, std::memory_order_relaxed)) {
    }
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* AllocateNoThrow(size_t size) noexcept {
  try {
    return Allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

}  // namespace

// Every replaceable unaligned form, so that each allocation and its release
// meet in malloc and free (the sanitizer builds check that they match).
void* operator new(size_t size) { return Allocate(size); }
void* operator new[](size_t size) { return Allocate(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept { return AllocateNoThrow(size); }
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return AllocateNoThrow(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

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

// A length or count field of a section: where it sits, how wide it is, and
// one value to try besides the sweep's generic inflations (0: none).
struct LengthField {
  size_t offset = 0;
  size_t width = 8;
  uint64_t also = 0;
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
    // version u32, mode byte u8, dim u64, degree u64, then node_count.
    constexpr size_t kNodeCount = 4 + 1 + 8 + 8;
    ByteReader head(bytes.data() + kNodeCount, 8);
    const uint64_t nodes = head.GetU64();
    // Also claim as many nodes as the image holds at 17 record bytes plus
    // one arena byte per dimension: more than fit at dim floats each.
    fields.push_back({image + kNodeCount, 8, length / (17 + dim)});  // node count
    fields.push_back({image + kNodeCount + 8, 8});  // live count
    // The header runs through the level-sampler RNG (86 bytes); the first
    // node's id, level and tombstone flag (13 bytes) precede its first
    // link count.
    fields.push_back({image + 86 + 13, 4});
    fields.push_back({image + static_cast<size_t>(length) - 4 * nodes * dim - 8, 8});
  }
  return fields;
}

// The selector section's grid-cell count: its threshold and cadence counter
// (16 bytes) precede it.
std::vector<LengthField> SelectorLengthFields() { return {{16, 8}}; }

// The router section's arm count and each arm's dimension.
std::vector<LengthField> RouterLengthFields(const std::string& section) {
  std::vector<LengthField> fields;
  ByteReader r(section);
  const auto pos = [&] { return section.size() - static_cast<size_t>(r.remaining()); };
  r.GetDouble();  // load EMA
  r.GetU8();
  DecodeRngState(&r);
  DecodeRngState(&r);
  fields.push_back({pos(), 8});
  const uint64_t arms = r.GetU64();
  for (uint64_t arm = 0; arm < arms && r.ok(); ++arm) {
    fields.push_back({pos(), 8});
    const uint64_t dim = r.GetU64();
    for (uint64_t i = 0; i < dim * dim + dim + 1; ++i) {  // precision, b, updates
      r.GetU64();
    }
  }
  EXPECT_TRUE(r.ok() && r.AtEnd());
  return fields;
}

// The stage-0 section's entry count and grid-cell count, and every
// `stride`-th entry's request-text, response-text and embedding lengths.
std::vector<LengthField> Stage0LengthFields(const std::string& section, uint64_t stride) {
  std::vector<LengthField> fields;
  ByteReader r(section);
  const auto pos = [&] { return section.size() - static_cast<size_t>(r.remaining()); };
  r.GetDouble();  // hit threshold
  r.GetU64();     // cadence counter
  fields.push_back({pos(), 8});
  const uint64_t count = r.GetU64();
  r.GetI64();  // used bytes
  r.GetU8();   // native-index flag
  fields.push_back({pos(), 8});
  const uint64_t cells = r.GetU64();
  for (uint64_t i = 0; i < 2 * cells + 1; ++i) {  // benefits, counts, next id
    r.GetU64();
  }
  for (uint64_t i = 0; i < count && r.ok(); ++i) {
    const bool record = i % stride == 0;
    r.GetU64();  // entry id
    r.GetU64();  // request id
    r.GetU8();   // dataset
    r.GetU8();   // task
    if (record) {
      fields.push_back({pos(), 8});
    }
    r.GetString();
    r.GetU32();     // topic
    r.GetU32();     // intent
    r.GetDouble();  // difficulty
    r.GetI32();     // input tokens
    r.GetI32();     // target output tokens
    r.GetDouble();  // arrival time
    r.GetU32();     // privacy domain
    if (record) {
      fields.push_back({pos(), 8});
    }
    r.GetString();
    r.GetDouble();  // response quality
    r.GetI32();     // response tokens
    r.GetDouble();  // admitted time
    r.GetDouble();  // last hit time
    r.GetU64();     // hit count
    if (record) {
      fields.push_back({pos(), 8});
    }
    r.GetFloats();
  }
  EXPECT_TRUE(r.ok() && r.AtEnd());
  return fields;
}

// Every section payload of the snapshot at `path`, by id.
std::map<SnapshotSection, std::string> ReadSections(const std::string& path) {
  std::map<SnapshotSection, std::string> sections;
  SnapshotReader reader;
  EXPECT_TRUE(reader.Open(path).ok());
  for (const SnapshotSectionInfo& info : reader.sections()) {
    std::string& bytes = sections[info.id];
    EXPECT_TRUE(reader
                    .StreamSection(info.id,
                                   [&bytes](ByteReader* r) {
                                     bytes.resize(static_cast<size_t>(r->remaining()));
                                     r->GetBytes(bytes.data(), bytes.size());
                                     return Status::Ok();
                                   })
                    .ok());
  }
  return sections;
}

enum class Outcome { kFailed, kRestored, kNative, kRebuilt };

// Outcome counts of one kind of mutant.
struct Tally {
  size_t runs = 0;
  size_t failed = 0;
  size_t restored = 0;  // a component mutant that restored
  size_t native = 0;    // a pool mutant that restored its graph image
  size_t rebuilt = 0;   // a pool mutant that rebuilt its index
  void Add(Outcome outcome) {
    ++runs;
    failed += outcome == Outcome::kFailed ? 1 : 0;
    restored += outcome == Outcome::kRestored ? 1 : 0;
    native += outcome == Outcome::kNative ? 1 : 0;
    rebuilt += outcome == Outcome::kRebuilt ? 1 : 0;
  }
};

struct SweepResult {
  Tally flips;
  Tally truncations;
  Tally lengths;
};

// A snapshot at path_ whose sections_ a fixture restores in mutated form.
class MutationSweepTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  // Writes the snapshot with section `id` replaced by `bytes` (fresh CRCs),
  // restores it, and probes the result.
  virtual Outcome RestoreMutant(SnapshotSection id, const std::string& bytes) = 0;

  // Rewrites path_ with section `id` replaced by `bytes`, fresh CRCs.
  void WriteMutant(SnapshotSection id, const std::string& bytes) {
    SnapshotWriter writer;
    for (const auto& [section, payload] : sections_) {
      writer.AddSection(section, section == id ? bytes : payload);
    }
    const StatusOr<std::string> image = writer.Encode();
    EXPECT_TRUE(image.ok());
    WriteFile(path_, *image);
  }

  // Restores every mutant of section `id`: 512 single-bit flips and 64
  // truncations at seeded positions, and five inflated values (plus the
  // field's own `also`) of each length field in `fields`.
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
      std::vector<uint64_t> values = {rest + 1, rest / 4 + 1, uint64_t{1} << 31, max >> 1, max};
      if (field.also != 0) {
        values.push_back(field.also);
      }
      for (uint64_t inflated : values) {
        SCOPED_TRACE(std::string(SnapshotSectionName(id)) + ": length at " +
                     std::to_string(field.offset) + " = " + std::to_string(inflated));
        std::string bytes = pristine;
        PutLe(&bytes, field.offset, inflated, field.width);
        result.lengths.Add(RestoreMutant(id, bytes));
      }
    }
    return result;
  }

  std::shared_ptr<HashingEmbedder> embedder_ = std::make_shared<HashingEmbedder>();
  std::string path_;
  std::map<SnapshotSection, std::string> sections_;
};

// The `examples` and `index` sections of a 120-example, 4-shard HNSW pool.
class PersistMutationTest : public MutationSweepTest {
 protected:
  void SetUp() override {
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
    sections_ = ReadSections(path_);
    ASSERT_EQ(sections_.size(), 3u);  // meta, examples, index
  }

  Outcome RestoreMutant(SnapshotSection id, const std::string& bytes) override {
    WriteMutant(id, bytes);
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

// --- Component sections -------------------------------------------------

std::vector<RouterArmSpec> RouterArms() {
  std::vector<RouterArmSpec> arms(2);
  arms[0].model_name = "small";
  arms[0].normalized_cost = 0.1;
  arms[0].uses_examples = true;
  arms[1].model_name = "large";
  return arms;
}

Stage0Config Stage0Settings() {
  Stage0Config config;
  config.enabled = true;
  config.min_admit_quality = 0.0;
  return config;
}

// Every adaptive component a pool snapshot carries, fresh around `store`.
struct Components {
  Components(ExampleStore* store, std::shared_ptr<const Embedder> embedder)
      : generator(kSeed),
        selector(store, &proxy),
        manager(store, &generator, catalog.Get("gemma-2-27b")),
        router(RouterArms()),
        stage0(std::move(embedder), Stage0Settings()) {}

  PoolComponents pointers() { return {&selector, &manager, &proxy, &router, &stage0}; }

  ModelCatalog catalog;
  GenerationSimulator generator;
  ProxyUtilityModel proxy;
  ExampleSelector selector;
  ExampleManager manager;
  RequestRouter router;
  Stage0ResponseCache stage0;
};

// The `selector`, `manager`, `proxy`, `router` and `stage0` sections of a
// snapshot whose every component was driven away from its defaults, around
// a 12-example pool, so each mutant restores in well under a millisecond.
class ComponentMutationTest : public MutationSweepTest {
 protected:
  void SetUp() override {
    ExampleCache pool(embedder_);
    Components components(&pool, embedder_);
    for (uint64_t i = 0; i < 12; ++i) {
      ASSERT_NE(pool.Put(MakeRequest(100 + i, "how do i tune widget " + std::to_string(i) +
                                                  " for pipeline stage " + std::to_string(i)),
                         "response " + std::to_string(i), 0.6, 0.9, 30, static_cast<double>(i)),
                0u);
    }
    const ModelProfile& small = components.catalog.Get("gemma-2-2b");
    for (int i = 0; i < 24; ++i) {
      const Request request = MakeRequest(500 + i, "how do i tune widget " + std::to_string(i) +
                                                       " for stage " + std::to_string(3 * i));
      const auto selected = components.selector.Select(request, small, 1.0 * i);
      components.selector.OnFeedback(request, selected, small, 0.05);
      components.router.ObserveLoad(0.4 + 0.01 * i);
      components.router.UpdateReward(components.router.Route(request, selected), 0.7);
      components.proxy.Update(MakeProxyFeatures(0.8, 0.7, 0.9, 0.6, true, 120), 0.66);
      ASSERT_NE(components.stage0.Put(request, 0.5 + 0.01 * i, 40 + i, 1.0 * i), 0u);
      components.stage0.OnHitFeedback(0.9 + 0.004 * i, 0.8, 0.7, 30);
    }
    components.selector.AdvanceWindow(600);
    components.stage0.AdvanceWindow(300);
    components.manager.set_last_decay_time(77.0);
    ASSERT_EQ(components.stage0.size(), 24u);

    path_ = testing::TempDir() + "iccache_component_mutation_" + std::to_string(::getpid()) +
            ".snap";
    SnapshotWriter writer;
    EncodePoolSections(pool, components.pointers(), 0.0, &writer);
    ASSERT_TRUE(writer.WriteToFile(path_).ok());
    sections_ = ReadSections(path_);
    ASSERT_EQ(sections_.size(), 7u);  // meta, examples and the five components
  }

  // Restores the mutant into a fresh pool and components, recording its
  // largest allocation in *largest when non-null.
  Status Restore(SnapshotSection id, const std::string& bytes, size_t* largest) {
    WriteMutant(id, bytes);
    SnapshotReader reader;
    EXPECT_TRUE(reader.Open(path_).ok());
    ExampleCache pool(embedder_);
    Components components(&pool, embedder_);
    g_largest_allocation.store(0);
    g_recording.store(largest != nullptr);
    const Status status = DecodePoolSections(reader, &pool, components.pointers(), nullptr);
    g_recording.store(false);
    if (largest != nullptr) {
      *largest = g_largest_allocation.load();
    }
    if (status.ok()) {
      // One probe of the restored stage-0 tier and pool.
      const Request query = MakeRequest(1, "how do i tune widget 5 for stage 15");
      const std::optional<Stage0Probe> probe = components.stage0.Probe(query, 30.0);
      EXPECT_TRUE(!probe.has_value() || probe->entry.id != 0);
      EXPECT_LE(pool.FindSimilar(query, 5).size(), 5u);
    }
    return status;
  }

  Outcome RestoreMutant(SnapshotSection id, const std::string& bytes) override {
    return Restore(id, bytes, nullptr).ok() ? Outcome::kRestored : Outcome::kFailed;
  }

  // Every truncation and inflated count or length of a component section
  // fails; a flip restores (a changed value) or fails (a changed count, a
  // duplicate id, byte accounting that no longer adds up).
  void ExpectSweep(SnapshotSection id, const std::vector<LengthField>& fields) {
    const SweepResult result = Sweep(id, fields);
    EXPECT_EQ(result.truncations.failed, result.truncations.runs);
    EXPECT_EQ(result.lengths.failed, result.lengths.runs);
    EXPECT_EQ(result.lengths.runs, 5 * fields.size());
    EXPECT_GT(result.flips.restored, 0u);
    if (!fields.empty()) {
      EXPECT_GT(result.flips.failed, 0u);
    }
  }

  // Section `id`'s pristine bytes with the count at `offset` claiming 2^20
  // items, zero-padded to 1 MiB: the count passes any bound by section size.
  std::string ClaimingAMillion(SnapshotSection id, size_t offset) const {
    std::string bytes = sections_.at(id);
    PutLe(&bytes, offset, uint64_t{1} << 20, 8);
    bytes.resize(size_t{1} << 20, '\0');
    return bytes;
  }
};

TEST_F(ComponentMutationTest, PristineSnapshotRestoresWithinOneReadBuffer) {
  size_t largest = 0;
  const Status status =
      Restore(SnapshotSection::kMeta, sections_.at(SnapshotSection::kMeta), &largest);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_GT(largest, 0u);
  EXPECT_LE(largest, kSnapshotFlushBytes);
}

TEST_F(ComponentMutationTest, MutatedSelectorSectionsRestoreOrFailWithAStatus) {
  ExpectSweep(SnapshotSection::kSelector, SelectorLengthFields());
}

TEST_F(ComponentMutationTest, MutatedManagerSectionsRestoreOrFailWithAStatus) {
  ExpectSweep(SnapshotSection::kManager, {});
}

TEST_F(ComponentMutationTest, MutatedProxySectionsRestoreOrFailWithAStatus) {
  ExpectSweep(SnapshotSection::kProxy, {{0, 8}});  // the weight count
}

TEST_F(ComponentMutationTest, MutatedRouterSectionsRestoreOrFailWithAStatus) {
  ExpectSweep(SnapshotSection::kRouter, RouterLengthFields(sections_.at(SnapshotSection::kRouter)));
}

TEST_F(ComponentMutationTest, MutatedStage0SectionsRestoreOrFailWithAStatus) {
  const std::vector<LengthField> fields =
      Stage0LengthFields(sections_.at(SnapshotSection::kStage0), 4);
  ASSERT_EQ(fields.size(), 2u + 3u * 24 / 4);
  ExpectSweep(SnapshotSection::kStage0, fields);
}

// A CRC-valid stage-0 section claiming 2^20 entries in 1 MiB fails at the
// first entry its bytes cannot back, having sized nothing from the claim.
TEST_F(ComponentMutationTest, Stage0SectionClaimingAMillionEntriesFailsWithoutAllocatingThem) {
  size_t largest = 0;
  const Status status = Restore(
      SnapshotSection::kStage0, ClaimingAMillion(SnapshotSection::kStage0, 16), &largest);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_LE(largest, kSnapshotFlushBytes);
}

// Likewise a selector section claiming 2^20 grid cells: 16 bytes a cell
// cannot fit, so the restore fails before allocating the grid.
TEST_F(ComponentMutationTest, SelectorSectionClaimingAMillionCellsFailsWithoutAllocatingThem) {
  size_t largest = 0;
  const Status status = Restore(
      SnapshotSection::kSelector, ClaimingAMillion(SnapshotSection::kSelector, 16), &largest);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_LE(largest, kSnapshotFlushBytes);
}

}  // namespace
}  // namespace iccache
