// Persistence subsystem unit tests: binio primitives (the sliced CRC-32
// against a bytewise reference, whole float blocks, the streaming writer's
// buffer bound, the streaming reader's buffer bound and length checks),
// snapshot container integrity (magic / version / CRC / truncation / crash
// staging / hostile files / files changed after Open / streamed-section
// ordering), a save's and a restore's buffering bounds, and whole-pool
// round trips over both stores and all three retrieval backends —
// including PII-scrubbed pools, tombstone-heavy HNSW graphs, sharded graphs
// linked at any thread count, embeddings the index rejects, graph images
// that disagree with the examples section or break after some shards
// loaded, the component (selector / manager / proxy / router) adaptive
// state, and stage-0 sections from older writers that appended an HNSW
// graph image.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/binio.h"
#include "src/common/thread_pool.h"
#include "src/core/example_cache.h"
#include "src/core/manager.h"
#include "src/core/selector.h"
#include "src/core/service.h"
#include "src/core/sharded_cache.h"
#include "src/index/hnsw.h"
#include "src/persist/pool_codec.h"
#include "src/persist/snapshot.h"
#include "src/workload/dataset.h"
#include "src/workload/query_generator.h"

namespace iccache {
namespace {

constexpr uint64_t kSeed = 0x5a0f5eed;

// Unique temp path per test; removed in TearDown by name.
class PersistTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& tag) {
    const std::string path = testing::TempDir() + "iccache_persist_" + tag + "_" +
                             std::to_string(::getpid()) + ".snap";
    paths_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const std::string& path : paths_) {
      std::remove(path.c_str());
      std::remove((path + ".tmp").c_str());
    }
  }

  std::vector<std::string> paths_;
};

Request MakeRequest(uint64_t id, const std::string& text, uint32_t domain = 0) {
  Request request;
  request.id = id;
  request.text = text;
  request.topic_id = static_cast<uint32_t>(id % 17);
  request.intent_id = static_cast<uint32_t>(id % 53);
  request.difficulty = 0.25 + 0.5 * static_cast<double>(id % 7) / 7.0;
  request.input_tokens = 20 + static_cast<int>(id % 40);
  request.target_output_tokens = 60 + static_cast<int>(id % 90);
  request.privacy_domain = domain;
  return request;
}

// Populates a store with a mixed pool: varied text, lifecycle stats, some
// PII-bearing requests (exercising the scrub path), several privacy domains.
std::vector<uint64_t> FillStore(ExampleStore* store, size_t n, Rng* rng) {
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < n; ++i) {
    Request request = MakeRequest(1000 + i,
                                  "how do i configure widget " + std::to_string(rng->NextU64() % 997) +
                                      " for pipeline stage " + std::to_string(i),
                                  static_cast<uint32_t>(i % 3));
    if (i % 11 == 0) {
      request.text += " my email is user" + std::to_string(i) + "@example.com";
    }
    PreparedAdmission prepared = store->PrepareAdmission(request);
    const uint64_t id = store->PutPrepared(request, std::move(prepared),
                                           "resp-" + std::to_string(i), rng->Uniform(0.3, 0.95),
                                           0.9, 50 + static_cast<int>(i % 60),
                                           static_cast<double>(i));
    if (id == 0) {
      continue;
    }
    ids.push_back(id);
    // Randomized lifecycle bookkeeping so the round trip covers every field.
    store->RecordAccess(id, static_cast<double>(i) + 0.5);
    store->RecordOffload(id, rng->Uniform());
    store->UpdateExample(id, [rng](Example& example) {
      example.replay_gain_ema = rng->Uniform();
      example.replay_count = static_cast<int>(rng->NextU64() % 5);
    });
  }
  return ids;
}

void ExpectExamplesEqual(const Example& a, const Example& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.request.id, b.request.id);
  EXPECT_EQ(a.request.dataset, b.request.dataset);
  EXPECT_EQ(a.request.task, b.request.task);
  EXPECT_EQ(a.request.text, b.request.text);
  EXPECT_EQ(a.request.topic_id, b.request.topic_id);
  EXPECT_EQ(a.request.intent_id, b.request.intent_id);
  EXPECT_DOUBLE_EQ(a.request.difficulty, b.request.difficulty);
  EXPECT_EQ(a.request.input_tokens, b.request.input_tokens);
  EXPECT_EQ(a.request.target_output_tokens, b.request.target_output_tokens);
  EXPECT_DOUBLE_EQ(a.request.arrival_time, b.request.arrival_time);
  EXPECT_EQ(a.request.privacy_domain, b.request.privacy_domain);
  EXPECT_EQ(a.response_text, b.response_text);
  EXPECT_DOUBLE_EQ(a.response_quality, b.response_quality);
  EXPECT_DOUBLE_EQ(a.source_capability, b.source_capability);
  EXPECT_EQ(a.response_tokens, b.response_tokens);
  EXPECT_EQ(a.access_count, b.access_count);
  EXPECT_DOUBLE_EQ(a.last_access_time, b.last_access_time);
  EXPECT_DOUBLE_EQ(a.admitted_time, b.admitted_time);
  EXPECT_DOUBLE_EQ(a.replay_gain_ema, b.replay_gain_ema);
  EXPECT_EQ(a.replay_count, b.replay_count);
  EXPECT_DOUBLE_EQ(a.offload_value, b.offload_value);
}

// Deep store equality: same ids, field-identical examples, exact bytes.
void ExpectStoresEqual(const ExampleStore& a, const ExampleStore& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.used_bytes(), b.used_bytes());
  const std::vector<uint64_t> ids_a = a.AllIds();
  const std::vector<uint64_t> ids_b = b.AllIds();
  ASSERT_EQ(ids_a, ids_b);
  for (uint64_t id : ids_a) {
    Example ea;
    Example eb;
    ASSERT_TRUE(a.Snapshot(id, &ea));
    ASSERT_TRUE(b.Snapshot(id, &eb));
    ea.id = eb.id = id;  // stores report global ids through Snapshot already
    ExpectExamplesEqual(ea, eb);
  }
}

void ExpectSameSearchResults(const ExampleStore& a, const ExampleStore& b,
                             const std::vector<Request>& queries, size_t k) {
  for (const Request& query : queries) {
    const auto ra = a.FindSimilar(query, k);
    const auto rb = b.FindSimilar(query, k);
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].id, rb[i].id);
      EXPECT_DOUBLE_EQ(ra[i].score, rb[i].score);
    }
  }
}

std::string ReadFile(const std::string& path) {
  std::string data;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return data;
  }
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.append(buf, n);
  }
  std::fclose(f);
  return data;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// Every byte of section `id`, streamed into one string: StreamSection's
// Status (a missing section, a short read, a CRC mismatch), and the bytes in
// *bytes when it is OK.
Status ReadSection(const SnapshotReader& reader, SnapshotSection id, std::string* bytes) {
  return reader.StreamSection(id, [bytes](ByteReader* r) {
    bytes->resize(static_cast<size_t>(r->remaining()));
    r->GetBytes(bytes->data(), bytes->size());
    return Status::Ok();
  });
}

// A section the snapshot must carry, read whole.
std::string SectionBytes(const SnapshotReader& reader, SnapshotSection id) {
  std::string bytes;
  const Status status = ReadSection(reader, id, &bytes);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return bytes;
}

// The examples section of `reader`'s snapshot re-encoded with only the
// records `keep` accepts, under `store`'s insertion counters.
std::string ExamplesSectionWhere(const SnapshotReader& reader, const ExampleStore& store,
                                 const std::function<bool(const Example&)>& keep) {
  ByteWriter records;
  uint64_t count = 0;
  const Status status = ForEachSnapshotExample(
      reader, [&](const Example& example, const std::vector<float>& embedding) {
        if (keep(example)) {
          EncodeExample(example.id, example, embedding, &records);
          ++count;
        }
      });
  EXPECT_TRUE(status.ok()) << status.ToString();
  ByteWriter section;
  const std::vector<uint64_t> next_ids = store.ExportNextIds();
  section.PutU64(next_ids.size());
  for (uint64_t next_id : next_ids) {
    section.PutU64(next_id);
  }
  section.PutU64(count);
  section.PutBytes(records.bytes().data(), records.size());
  return section.TakeBytes();
}

// Writes a pool snapshot of the given payloads, with fresh CRCs; an empty
// `index` leaves the index section out.
void WritePoolSnapshot(const std::string& path, const std::string& meta,
                       const std::string& examples, const std::string& index) {
  SnapshotWriter writer;
  writer.AddSection(SnapshotSection::kMeta, meta);
  writer.AddSection(SnapshotSection::kExamples, examples);
  if (!index.empty()) {
    writer.AddSection(SnapshotSection::kIndex, index);
  }
  ASSERT_TRUE(writer.WriteToFile(path).ok());
}

TEST(BinioTest, PrimitivesRoundTrip) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI64(-42);
  w.PutDouble(3.14159);
  w.PutFloat(2.5f);
  const std::string with_nul("hi\0there", 8);  // length-prefixed: NULs survive
  w.PutString(with_nul);
  w.PutFloats({1.0f, -2.0f, 0.25f});

  ByteReader r(w.bytes());
  EXPECT_EQ(r.GetU8(), 0xAB);
  EXPECT_EQ(r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.GetI64(), -42);
  EXPECT_DOUBLE_EQ(r.GetDouble(), 3.14159);
  EXPECT_EQ(r.GetFloat(), 2.5f);
  EXPECT_EQ(r.GetString(), std::string("hi\0there", 8));
  EXPECT_EQ(r.GetFloats(), (std::vector<float>{1.0f, -2.0f, 0.25f}));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinioTest, ReaderLatchesOutOfBounds) {
  ByteWriter w;
  w.PutU32(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.GetU64(), 0u);  // 4 bytes available, 8 requested
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.GetU32(), 0u);  // still failed
  EXPECT_FALSE(r.ok());
}

TEST(BinioTest, Crc32KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_NE(Crc32("123456788", 9), 0xCBF43926u);
}

// The bytewise table-driven CRC-32 the sliced Crc32 must reproduce.
uint32_t BytewiseCrc32(const uint8_t* bytes, size_t size, uint32_t seed) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> entries{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
      }
      entries[i] = crc;
    }
    return entries;
  }();
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ bytes[i]) & 0xFFu];
  }
  return ~crc;
}

TEST(BinioTest, Crc32MatchesBytewiseReference) {
  Rng rng(kSeed ^ 0xc3c);
  std::vector<uint8_t> buffer(4096 + 8);
  for (auto& byte : buffer) {
    byte = static_cast<uint8_t>(rng.NextU64());
  }
  // Every length 0-4 KiB at every start alignment of the 8-byte step.
  for (size_t align = 0; align < 8; ++align) {
    for (size_t size = 0; size <= 4096; ++size) {
      ASSERT_EQ(Crc32(buffer.data() + align, size), BytewiseCrc32(buffer.data() + align, size, 0))
          << "size " << size << " align " << align;
    }
  }
  // Incremental: a split computation seeded with the prefix's CRC.
  for (size_t split : {size_t{0}, size_t{3}, size_t{8}, size_t{1001}, size_t{4096}}) {
    const uint32_t prefix = Crc32(buffer.data(), split);
    EXPECT_EQ(Crc32(buffer.data() + split, 4096 - split, prefix), Crc32(buffer.data(), 4096));
    EXPECT_EQ(Crc32(buffer.data() + split, 4096 - split, prefix),
              BytewiseCrc32(buffer.data() + split, 4096 - split, prefix));
  }
}

TEST(BinioTest, FloatBlocksMatchElementEncoding) {
  std::vector<float> values = {0.0f, -0.0f, 1.0f, -2.5f, 1e-45f, 3.4e38f,
                               std::numeric_limits<float>::infinity(),
                               std::numeric_limits<float>::quiet_NaN()};
  Rng rng(kSeed ^ 0xf10a7);
  for (int i = 0; i < 100; ++i) {
    values.push_back(static_cast<float>(rng.Normal()));
  }
  ByteWriter block;
  block.PutFloats(values);
  ByteWriter elements;
  elements.PutU64(values.size());
  for (float v : values) {
    elements.PutFloat(v);
  }
  EXPECT_EQ(block.bytes(), elements.bytes());

  ByteReader r(block.bytes());
  const std::vector<float> decoded = r.GetFloats();
  EXPECT_TRUE(r.ok() && r.AtEnd());
  ASSERT_EQ(decoded.size(), values.size());
  EXPECT_EQ(std::memcmp(decoded.data(), values.data(), values.size() * sizeof(float)), 0);

  // A block cut short is rejected, not read past its end.
  ByteReader cut(block.bytes().data(), block.size() - 1);
  EXPECT_TRUE(cut.GetFloats().empty());
  EXPECT_FALSE(cut.ok());
}

// Collects what a streaming ByteWriter hands over, noting each write.
class RecordingSink : public ByteSink {
 public:
  void Write(const void* data, size_t size) override {
    bytes.append(static_cast<const char*>(data), size);
    writes.push_back(size);
  }
  std::string bytes;
  std::vector<size_t> writes;
};

TEST(BinioTest, StreamingWriterIsBoundedAndByteIdentical) {
  constexpr size_t kFlush = 64;
  RecordingSink sink;
  ByteWriter stream(&sink, kFlush);
  ByteWriter memory;
  const std::string big(1000, 'b');
  for (ByteWriter* w : {&stream, &memory}) {
    for (uint32_t i = 0; i < 50; ++i) {
      w->PutU32(i);
      w->PutString("record " + std::to_string(i));
      w->PutDouble(0.5 * i);
    }
    w->PutBytes(big.data(), big.size());  // a block past the threshold
    w->PutU8(7);
  }
  EXPECT_EQ(stream.size(), memory.size());
  stream.Flush();
  EXPECT_EQ(sink.bytes, memory.bytes());
  EXPECT_TRUE(stream.bytes().empty());
  // The threshold plus one fixed-width field at most.
  EXPECT_LE(stream.max_buffered(), kFlush + 8);
  EXPECT_GT(sink.writes.size(), 10u);
  EXPECT_NE(std::find(sink.writes.begin(), sink.writes.end(), big.size()), sink.writes.end())
      << "the large block should pass straight through";
}

// Serves a byte string to a streaming ByteReader, noting each read.
class RecordingSource : public ByteSource {
 public:
  explicit RecordingSource(std::string bytes) : bytes_(std::move(bytes)) {}
  bool Read(void* dst, size_t size) override {
    if (size > bytes_.size() - pos_) {
      return false;
    }
    std::memcpy(dst, bytes_.data() + pos_, size);
    pos_ += size;
    reads.push_back(size);
    return true;
  }
  size_t pulled() const { return pos_; }
  std::vector<size_t> reads;

 private:
  std::string bytes_;
  size_t pos_ = 0;
};

TEST(BinioTest, StreamingReaderDecodesRecordsAcrossAndBeyondItsBuffer) {
  constexpr size_t kBuffer = 64;
  ByteWriter w;
  for (uint32_t i = 0; i < 40; ++i) {  // small records straddle every buffer edge
    w.PutU32(i);
    w.PutString("record " + std::to_string(i));
    w.PutDouble(0.5 * i);
  }
  const std::string big(1000, 'b');  // larger than the buffer
  w.PutString(big);
  std::vector<float> floats(300);
  for (size_t i = 0; i < floats.size(); ++i) {
    floats[i] = static_cast<float>(i) * 0.25f;
  }
  w.PutFloats(floats);  // a block larger than the buffer, skipped
  w.PutFloats({1.0f, 2.0f});
  w.PutU8(7);

  RecordingSource source(w.bytes());
  ByteReader r(&source, w.size(), kBuffer);
  for (uint32_t i = 0; i < 40; ++i) {
    ASSERT_EQ(r.GetU32(), i);
    ASSERT_EQ(r.GetString(), "record " + std::to_string(i));
    ASSERT_EQ(r.GetDouble(), 0.5 * i);
  }
  EXPECT_EQ(r.GetString(), big);
  r.SkipFloats();
  EXPECT_EQ(r.GetFloats(), (std::vector<float>{1.0f, 2.0f}));
  EXPECT_EQ(r.GetU8(), 7);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(source.pulled(), w.size());
  EXPECT_GT(r.max_buffered(), 0u);
  EXPECT_LE(r.max_buffered(), kBuffer);
  // Only the large string bypassed the buffer (the skipped floats went
  // through it); everything else came a buffer or less at a time.
  EXPECT_EQ(std::count_if(source.reads.begin(), source.reads.end(),
                          [](size_t read) { return read > kBuffer; }),
            1);
}

// A length field larger than what remains of the input fails at once: the
// reader pulls nothing more from its source and allocates nothing for it.
TEST(BinioTest, StreamingReaderRejectsInflatedLengthsBeforeAllocating) {
  ByteWriter body;
  body.PutString("tail");
  for (uint64_t inflated : {uint64_t{1} << 20, uint64_t{1} << 62, ~uint64_t{0}}) {
    for (int kind = 0; kind < 3; ++kind) {
      SCOPED_TRACE("length " + std::to_string(inflated) + " kind " + std::to_string(kind));
      ByteWriter w;
      w.PutU64(inflated);
      w.PutBytes(body.bytes().data(), body.size());
      RecordingSource source(w.bytes());
      ByteReader r(&source, w.size(), 16);
      if (kind == 0) {
        EXPECT_TRUE(r.GetString().empty());
      } else if (kind == 1) {
        EXPECT_TRUE(r.GetFloats().empty());
      } else {
        r.SkipFloats();
      }
      EXPECT_FALSE(r.ok());
      EXPECT_EQ(source.pulled(), std::min<size_t>(16, w.size()));
      EXPECT_EQ(r.GetU8(), 0);  // latched
      EXPECT_TRUE(r.DrainSource());  // the source itself is sound
      EXPECT_EQ(source.pulled(), w.size());
    }
  }
  // The same bound in memory mode.
  ByteWriter w;
  w.PutU64(~uint64_t{0});
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.GetString().empty());
  EXPECT_FALSE(r.ok());
}

TEST_F(PersistTest, ContainerRejectsCorruption) {
  const std::string path = TempPath("corrupt");
  SnapshotWriter writer;
  writer.AddSection(SnapshotSection::kMeta, "meta-bytes");
  writer.AddSection(SnapshotSection::kExamples, std::string(1000, 'x'));
  ASSERT_TRUE(writer.WriteToFile(path).ok());
  const std::string image = ReadFile(path);
  const std::string bad_path = TempPath("corrupt_copy");
  // Open() of `bytes` written to a file of their own.
  const auto open = [&bad_path](const std::string& bytes) {
    WriteFile(bad_path, bytes);
    SnapshotReader reader;
    return reader.Open(bad_path);
  };

  {  // pristine image opens
    SnapshotReader reader;
    EXPECT_TRUE(reader.Open(path).ok());
    EXPECT_EQ(SectionBytes(reader, SnapshotSection::kExamples), std::string(1000, 'x'));
  }
  {  // bad magic
    std::string bad = image;
    bad[0] ^= 0xFF;
    EXPECT_FALSE(open(bad).ok());
  }
  {  // unsupported future format version
    std::string bad = image;
    bad[8] = 99;
    const Status status = open(bad);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("version"), std::string::npos);
  }
  {  // flipped payload bit -> section CRC mismatch
    std::string bad = image;
    bad[bad.size() - 10] ^= 0x01;
    EXPECT_FALSE(open(bad).ok());
  }
  {  // truncation at every interesting boundary
    for (size_t cut : {size_t{3}, size_t{20}, image.size() / 2, image.size() - 1}) {
      EXPECT_FALSE(open(image.substr(0, cut)).ok()) << "cut=" << cut;
    }
  }
}

// Hostile or damaged files: each is a non-OK Status from a restore, never a
// crash.
TEST_F(PersistTest, HostileFilesFailRestore) {
  const std::string path = TempPath("hostile_source");
  ModelCatalog catalog;
  auto embedder = std::make_shared<HashingEmbedder>();
  ServiceConfig config;
  config.cache.retrieval.kind = RetrievalBackendKind::kHnsw;
  {
    GenerationSimulator generator(kSeed);
    IcCacheService service(config, &catalog, &generator, embedder);
    QueryGenerator history(GetDatasetProfile(DatasetId::kLmsysChat), kSeed ^ 0x405);
    for (int i = 0; i < 60; ++i) {
      service.SeedExample(history.Next(), 0.0);
    }
    ASSERT_TRUE(service.SaveSnapshot(path).ok());
  }
  const std::string image = ReadFile(path);
  const std::string bad_path = TempPath("hostile");
  const auto restore = [&](const std::string& bytes) {
    WriteFile(bad_path, bytes);
    GenerationSimulator generator(kSeed);
    IcCacheService target(config, &catalog, &generator, embedder);
    return target.RestoreSnapshot(bad_path);
  };
  ASSERT_TRUE(restore(image).ok());

  std::vector<std::pair<std::string, std::string>> cases;
  {
    std::string bad = image;
    bad[0] ^= 0xFF;
    cases.emplace_back("bad magic", bad);
  }
  {
    std::string bad = image;
    bad[8] = 99;
    cases.emplace_back("future format version", bad);
  }
  SnapshotReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  for (const SnapshotSectionInfo& info : reader.sections()) {
    ASSERT_GT(info.size, 0u);
    std::string bad = image;
    bad[info.offset + info.size / 2] ^= 0x01;
    cases.emplace_back(std::string("flipped bit in ") + SnapshotSectionName(info.id), bad);
  }
  for (size_t cut : {size_t{3}, size_t{20}, image.size() / 2, image.size() - 1}) {
    cases.emplace_back("truncated at " + std::to_string(cut), image.substr(0, cut));
  }
  {
    // The last TOC entry's size pushed past the end of the file, with the
    // TOC checksum recomputed so only the bounds check can catch it.
    constexpr size_t kHeader = 24;
    constexpr size_t kEntry = 24;
    std::string bad = image;
    const size_t toc_size = kEntry * reader.sections().size();
    ByteWriter size_field;
    size_field.PutU64(image.size());
    bad.replace(kHeader + toc_size - kEntry + 12, 8, size_field.bytes());
    ByteWriter crc_field;
    crc_field.PutU32(Crc32(bad.data() + kHeader, toc_size));
    bad.replace(20, 4, crc_field.bytes());
    cases.emplace_back("section size past the end of the file", bad);
  }
  for (const auto& [name, bytes] : cases) {
    EXPECT_FALSE(restore(bytes).ok()) << name;
  }
}

// A file that shrinks or changes after Open fails the section loads and the
// restore with a Status. A streamed section is re-checked as its last byte
// is read, so a byte changed in place can reach the decoder of a section
// larger than the read buffer before the restore fails, but such a file
// never restores.
TEST_F(PersistTest, FileChangedAfterOpenFailsSectionLoads) {
  const std::string path = TempPath("changed");
  auto embedder = std::make_shared<HashingEmbedder>();
  ExampleCacheConfig config;
  config.retrieval.kind = RetrievalBackendKind::kHnsw;
  ExampleCache original(embedder, config);
  Rng rng(kSeed ^ 0xc4a);
  FillStore(&original, 80, &rng);
  SnapshotWriter writer;
  EncodePoolSections(original, {}, 0.0, &writer);
  ASSERT_TRUE(writer.WriteToFile(path).ok());
  const std::string image = ReadFile(path);

  {  // truncated after Open, before the sections load
    SnapshotReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(image.size() / 2)), 0);
    ExampleCache target(embedder, config);
    EXPECT_FALSE(DecodePoolSections(reader, &target, {}, nullptr).ok());
    std::string section;
    EXPECT_FALSE(ReadSection(reader, SnapshotSection::kIndex, &section).ok());
  }
  {  // a payload byte flipped in place after Open
    WriteFile(path, image);
    SnapshotReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    std::string bad = image;
    for (const SnapshotSectionInfo& info : reader.sections()) {
      if (info.id == SnapshotSection::kExamples) {
        bad[info.offset + info.size / 2] ^= 0x01;
      }
    }
    WriteFile(path, bad);
    std::string section;
    const Status status = ReadSection(reader, SnapshotSection::kExamples, &section);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("checksum"), std::string::npos) << status.ToString();
    ExampleCache target(embedder, config);
    EXPECT_FALSE(DecodePoolSections(reader, &target, {}, nullptr).ok());
  }
}

// However large the pool, a save buffers at most one flush threshold of
// payload plus one record: the sections stream to the file.
TEST_F(PersistTest, SaveBuffersAtMostOneFlushPlusOneRecord) {
  const std::string path = TempPath("buffer_bound");
  auto embedder = std::make_shared<HashingEmbedder>();
  ShardedCacheConfig config;
  config.num_shards = 8;
  config.cache.retrieval.kind = RetrievalBackendKind::kHnsw;
  ShardedExampleCache pool(embedder, config);
  Rng rng(kSeed ^ 0xb0f);
  FillStore(&pool, 3200, &rng);
  ASSERT_GE(pool.size(), 3000u);

  size_t largest_record = 0;
  for (uint64_t id : pool.AllIds()) {
    Example example;
    std::vector<float> embedding;
    ASSERT_TRUE(pool.Snapshot(id, &example, &embedding));
    ByteWriter record;
    EncodeExample(id, example, embedding, &record);
    largest_record = std::max(largest_record, record.size());
  }

  SnapshotWriter writer;
  EncodePoolSections(pool, {}, 0.0, &writer);
  ASSERT_TRUE(writer.WriteToFile(path).ok());
  SnapshotReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_GT(writer.max_buffered_bytes(), 0u);
  EXPECT_LE(writer.max_buffered_bytes(), kSnapshotFlushBytes + largest_record);
  EXPECT_GT(reader.file_size(), 10 * kSnapshotFlushBytes);

  // Encode runs the same encoders into a string: the file's bytes exactly.
  SnapshotWriter in_memory;
  EncodePoolSections(pool, {}, 0.0, &in_memory);
  const StatusOr<std::string> image = in_memory.Encode();
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_TRUE(*image == ReadFile(path));
  EXPECT_LE(in_memory.max_buffered_bytes(), kSnapshotFlushBytes + largest_record);
}

// However large the pool, a restore buffers at most one flush threshold of
// section bytes: the index and examples sections stream through one buffer,
// records straddle its edges, and a record larger than the whole buffer (a
// 1 MiB request text) goes straight into the decoded example. The rebuild
// path, which reads every embedding, streams the same way.
TEST_F(PersistTest, RestoreBuffersAtMostOneFlushPlusOneRecord) {
  const std::string path = TempPath("restore_bound");
  auto embedder = std::make_shared<HashingEmbedder>();
  ShardedCacheConfig config;
  config.num_shards = 8;
  config.cache.retrieval.kind = RetrievalBackendKind::kHnsw;
  ShardedExampleCache pool(embedder, config);
  Rng rng(kSeed ^ 0xb0f);
  FillStore(&pool, 3200, &rng);
  std::string huge;
  while (huge.size() < (size_t{1} << 20)) {
    huge += "how do i configure widget pipeline stage " + std::to_string(huge.size()) + " ";
  }
  // Prepared by hand, so the stored text is exactly `huge`.
  PreparedAdmission prepared;
  prepared.admit = true;
  prepared.sanitized_text = huge;
  prepared.embedding = embedder->Embed(huge);
  ASSERT_NE(pool.PutPrepared(MakeRequest(90000, huge), std::move(prepared), "big response", 0.7,
                             0.9, 40, 1.0),
            0u);

  SnapshotWriter writer;
  EncodePoolSections(pool, {}, 0.0, &writer);
  ASSERT_TRUE(writer.WriteToFile(path).ok());
  for (size_t shards : {size_t{8}, size_t{4}}) {
    SCOPED_TRACE(shards == 8 ? "native graph load" : "rebuild from the embeddings");
    SnapshotReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    EXPECT_GT(reader.file_size(), 10 * kSnapshotFlushBytes);
    ShardedCacheConfig restore_config = config;
    restore_config.num_shards = shards;
    ShardedExampleCache restored(embedder, restore_config);
    PoolRestoreReport report;
    const Status status = DecodePoolSections(reader, &restored, {}, &report);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(report.native_index_load, shards == 8);
    ExpectStoresEqual(pool, restored);
    EXPECT_GT(reader.max_buffered_bytes(), 0u);
    EXPECT_LE(reader.max_buffered_bytes(), kSnapshotFlushBytes);
  }
}

// Streamed sections are written in image order; a misordered, missing or
// duplicate section, or an encoder's own error, fails the write and leaves
// no temp file behind.
TEST_F(PersistTest, StreamedSectionsMisuseFailsTheWrite) {
  const std::string path = TempPath("streamed");
  const auto payload = [](SnapshotSection id, const std::string& bytes) {
    return [id, bytes](SnapshotSectionStream* stream) {
      stream->Begin(id)->PutString(bytes);
      return Status::Ok();
    };
  };
  {  // a well-formed mix of streamed and encoded sections round-trips
    SnapshotWriter writer;
    writer.AddSection(SnapshotSection::kProxy, "proxy");
    writer.AddStreamedSections({SnapshotSection::kMeta, SnapshotSection::kExamples},
                               [](SnapshotSectionStream* stream) {
                                 stream->Begin(SnapshotSection::kMeta)->PutU32(7);
                                 stream->Begin(SnapshotSection::kExamples)->PutString("records");
                                 return Status::Ok();
                               });
    ASSERT_TRUE(writer.WriteToFile(path).ok());
    SnapshotReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    ASSERT_EQ(reader.sections().size(), 3u);
    EXPECT_EQ(reader.sections()[0].id, SnapshotSection::kMeta);
    EXPECT_EQ(reader.sections()[2].id, SnapshotSection::kProxy);
    EXPECT_EQ(SectionBytes(reader, SnapshotSection::kProxy), "proxy");
    const std::string examples = SectionBytes(reader, SnapshotSection::kExamples);
    ByteReader records(examples);
    EXPECT_EQ(records.GetString(), "records");
  }
  const auto expect_fails = [&](SnapshotWriter* writer, const std::string& what) {
    const Status status = writer->WriteToFile(path);
    EXPECT_FALSE(status.ok()) << what;
    EXPECT_FALSE(std::ifstream(path + ".tmp").good()) << what;
  };
  {
    SnapshotWriter writer;  // another section sits between the group's ids
    writer.AddStreamedSections({SnapshotSection::kMeta, SnapshotSection::kIndex},
                               [](SnapshotSectionStream* stream) {
                                 stream->Begin(SnapshotSection::kMeta);
                                 stream->Begin(SnapshotSection::kIndex);
                                 return Status::Ok();
                               });
    writer.AddSection(SnapshotSection::kExamples, "x");
    expect_fails(&writer, "interleaved group");
  }
  {
    SnapshotWriter writer;
    writer.AddStreamedSections({SnapshotSection::kMeta, SnapshotSection::kExamples},
                               payload(SnapshotSection::kMeta, "only one"));
    expect_fails(&writer, "group writes fewer sections than it declared");
  }
  {
    SnapshotWriter writer;
    writer.AddSection(SnapshotSection::kMeta, "a");
    writer.AddStreamedSections({SnapshotSection::kMeta}, payload(SnapshotSection::kMeta, "b"));
    expect_fails(&writer, "duplicate section");
  }
  {
    SnapshotWriter writer;
    writer.AddStreamedSections({SnapshotSection::kMeta}, [](SnapshotSectionStream* stream) {
      stream->Begin(SnapshotSection::kMeta)->PutU32(1);
      return Status::Internal("encoder failed");
    });
    expect_fails(&writer, "encoder error");
    EXPECT_FALSE(writer.Encode().ok());
  }
  // The earlier good snapshot is still the published one.
  SnapshotReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_EQ(SectionBytes(reader, SnapshotSection::kProxy), "proxy");
}

TEST_F(PersistTest, CrashMidWritePreservesPreviousCheckpoint) {
  const std::string path = TempPath("crash");

  SnapshotWriter v1;
  v1.AddSection(SnapshotSection::kMeta, "checkpoint-1");
  ASSERT_TRUE(v1.WriteToFile(path).ok());

  // Simulate a kill mid-way through the NEXT checkpoint: the staging file
  // holds a torn half-image, the rename never happened.
  {
    std::FILE* f = std::fopen((path + ".tmp").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("torn partial snapshot image", f);
    std::fclose(f);
  }

  SnapshotReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_EQ(SectionBytes(reader, SnapshotSection::kMeta), "checkpoint-1");

  // The interrupted writer retries and completes: the new image replaces the
  // old atomically.
  SnapshotWriter v2;
  v2.AddSection(SnapshotSection::kMeta, "checkpoint-2");
  ASSERT_TRUE(v2.WriteToFile(path).ok());
  SnapshotReader reader2;
  ASSERT_TRUE(reader2.Open(path).ok());
  EXPECT_EQ(SectionBytes(reader2, SnapshotSection::kMeta), "checkpoint-2");
}

TEST_F(PersistTest, ExampleCacheRoundTripAllBackends) {
  for (RetrievalBackendKind kind : {RetrievalBackendKind::kFlat, RetrievalBackendKind::kKMeans,
                                    RetrievalBackendKind::kHnsw}) {
    SCOPED_TRACE(RetrievalBackendKindName(kind));
    const std::string path = TempPath(std::string("cache_") + RetrievalBackendKindName(kind));
    auto embedder = std::make_shared<HashingEmbedder>();
    ExampleCacheConfig config;
    config.retrieval.kind = kind;
    ExampleCache original(embedder, config);
    Rng rng(kSeed);
    FillStore(&original, 120, &rng);
    ASSERT_GT(original.size(), 100u);

    SnapshotWriter writer;
    EncodePoolSections(original, {}, /*sim_time=*/123.5, &writer);
    ASSERT_TRUE(writer.WriteToFile(path).ok());

    ExampleCache restored(embedder, config);
    SnapshotReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    PoolRestoreReport report;
    ASSERT_TRUE(DecodePoolSections(reader, &restored, {}, &report).ok());
    EXPECT_EQ(report.examples, original.size());
    EXPECT_DOUBLE_EQ(report.sim_time, 123.5);
    EXPECT_EQ(report.native_index_load, kind == RetrievalBackendKind::kHnsw);
    EXPECT_TRUE(report.next_ids_restored);

    ExpectStoresEqual(original, restored);
    // Post-restore admissions continue the exact id sequence.
    EXPECT_EQ(original.ExportNextIds(), restored.ExportNextIds());

    std::vector<Request> queries;
    for (uint64_t q = 0; q < 20; ++q) {
      queries.push_back(MakeRequest(90000 + q, "how do i configure widget " + std::to_string(q) +
                                                   " for pipeline stage 3"));
    }
    ExpectSameSearchResults(original, restored, queries, 10);
  }
}

TEST_F(PersistTest, TombstoneHeavyHnswRoundTrip) {
  const std::string path = TempPath("tombstones");
  auto embedder = std::make_shared<HashingEmbedder>();
  ExampleCacheConfig config;
  config.retrieval.kind = RetrievalBackendKind::kHnsw;
  // Keep compaction from firing so the saved graph genuinely carries
  // tombstones (the waypoint case the loader must preserve).
  config.retrieval.hnsw.min_tombstones_to_compact = 100000;
  ExampleCache original(embedder, config);
  Rng rng(kSeed ^ 1);
  const std::vector<uint64_t> ids = FillStore(&original, 200, &rng);
  std::vector<uint64_t> removed;
  for (size_t i = 0; i < ids.size(); i += 3) {
    original.Remove(ids[i]);
    removed.push_back(ids[i]);
  }
  const auto* hnsw = dynamic_cast<const HnswIndex*>(&original.index());
  ASSERT_NE(hnsw, nullptr);
  ASSERT_GT(hnsw->tombstones(), 50u);

  SnapshotWriter writer;
  EncodePoolSections(original, {}, 0.0, &writer);
  ASSERT_TRUE(writer.WriteToFile(path).ok());

  ExampleCache restored(embedder, config);
  SnapshotReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  PoolRestoreReport report;
  ASSERT_TRUE(DecodePoolSections(reader, &restored, {}, &report).ok());
  ASSERT_TRUE(report.native_index_load);

  const auto* restored_hnsw = dynamic_cast<const HnswIndex*>(&restored.index());
  ASSERT_NE(restored_hnsw, nullptr);
  EXPECT_EQ(restored_hnsw->tombstones(), hnsw->tombstones());
  ExpectStoresEqual(original, restored);

  std::vector<Request> queries;
  for (uint64_t q = 0; q < 25; ++q) {
    queries.push_back(MakeRequest(80000 + q, "pipeline stage widget query " + std::to_string(q)));
  }
  ExpectSameSearchResults(original, restored, queries, 10);
  // Tombstoned ids never come back from a restored graph.
  for (const Request& query : queries) {
    for (const SearchResult& result : restored.FindSimilar(query, 10)) {
      for (uint64_t dead : removed) {
        EXPECT_NE(result.id, dead);
      }
    }
  }
}

TEST_F(PersistTest, ShardedRoundTripExactBytesAndSearch) {
  const std::string path = TempPath("sharded");
  auto embedder = std::make_shared<HashingEmbedder>();
  ShardedCacheConfig config;
  config.num_shards = 8;
  config.cache.retrieval.kind = RetrievalBackendKind::kHnsw;
  ShardedExampleCache original(embedder, config);
  Rng rng(kSeed ^ 2);
  const std::vector<uint64_t> ids = FillStore(&original, 300, &rng);
  // Churn: removals so per-shard next-ids run ahead of max(id)+1.
  for (size_t i = 0; i < ids.size(); i += 7) {
    original.Remove(ids[i]);
  }

  SnapshotWriter writer;
  EncodePoolSections(original, {}, 42.0, &writer);
  ASSERT_TRUE(writer.WriteToFile(path).ok());

  ShardedExampleCache restored(embedder, config);
  SnapshotReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  PoolRestoreReport report;
  ASSERT_TRUE(DecodePoolSections(reader, &restored, {}, &report).ok());
  ASSERT_TRUE(report.native_index_load);
  EXPECT_TRUE(report.next_ids_restored);

  ExpectStoresEqual(original, restored);
  // Watermark accounting replayed exactly: the atomic counter equals the
  // sum of shard usage, byte for byte.
  EXPECT_EQ(original.used_bytes(), restored.used_bytes());
  EXPECT_EQ(original.ExportNextIds(), restored.ExportNextIds());

  std::vector<Request> queries;
  for (uint64_t q = 0; q < 25; ++q) {
    queries.push_back(MakeRequest(70000 + q, "configure widget " + std::to_string(3 * q)));
  }
  ExpectSameSearchResults(original, restored, queries, 10);
}

TEST_F(PersistTest, ReshardOnRestoreFallsBackAndKeepsIds) {
  const std::string path = TempPath("reshard");
  auto embedder = std::make_shared<HashingEmbedder>();
  ShardedCacheConfig config8;
  config8.num_shards = 8;
  config8.cache.retrieval.kind = RetrievalBackendKind::kFlat;
  ShardedExampleCache original(embedder, config8);
  Rng rng(kSeed ^ 3);
  FillStore(&original, 150, &rng);

  SnapshotWriter writer;
  EncodePoolSections(original, {}, 0.0, &writer);
  ASSERT_TRUE(writer.WriteToFile(path).ok());

  // Restore under HALF the shard count: ids are preserved (the shard index
  // is re-derived from the id's low bits), the index is rebuilt, and the
  // per-shard insertion counters fall back to max(id)+1.
  ShardedCacheConfig config4 = config8;
  config4.num_shards = 4;
  ShardedExampleCache restored(embedder, config4);
  SnapshotReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  PoolRestoreReport report;
  ASSERT_TRUE(DecodePoolSections(reader, &restored, {}, &report).ok());
  EXPECT_FALSE(report.native_index_load);
  EXPECT_FALSE(report.next_ids_restored);
  ExpectStoresEqual(original, restored);

  // Flat retrieval is exact, so results match across the re-shard too.
  std::vector<Request> queries;
  for (uint64_t q = 0; q < 15; ++q) {
    queries.push_back(MakeRequest(60000 + q, "widget " + std::to_string(q) + " stage"));
  }
  ExpectSameSearchResults(original, restored, queries, 10);

  // GROWING the shard count cannot preserve the snapshot's smallest ids
  // (they would collapse onto the reserved inner id 0), so it is rejected
  // cleanly rather than silently re-labelled.
  ShardedCacheConfig config16 = config8;
  config16.num_shards = 16;
  ShardedExampleCache grown(embedder, config16);
  const Status status = DecodePoolSections(reader, &grown, {}, nullptr);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status.ToString();
}

// The link step runs per shard in that shard's append order, so a sharded
// pool's snapshot does not depend on the pool that links it, nor on whether
// the save links it instead.
TEST_F(PersistTest, ShardedLinkPassIsThreadCountInvariant) {
  auto embedder = std::make_shared<HashingEmbedder>();
  ShardedCacheConfig config;
  config.num_shards = 8;
  config.cache.retrieval.kind = RetrievalBackendKind::kHnsw;
  std::vector<std::string> images;
  for (size_t threads : {size_t{1}, size_t{4}, size_t{0}}) {
    SCOPED_TRACE(threads);
    ShardedExampleCache cache(embedder, config);
    Rng rng(kSeed ^ 8);
    FillStore(&cache, 300, &rng);
    ASSERT_GT(cache.pending(), 0u);
    if (threads > 0) {
      ThreadPool pool(threads);
      EXPECT_EQ(cache.Flush(&pool), cache.num_shards());
      EXPECT_EQ(cache.pending(), 0u);
      EXPECT_EQ(cache.Flush(&pool), 0u);  // nothing pending: no task
    }
    const std::string path = TempPath("link_" + std::to_string(threads));
    SnapshotWriter writer;
    EncodePoolSections(cache, {}, 0.0, &writer);
    ASSERT_TRUE(writer.WriteToFile(path).ok());
    images.push_back(ReadFile(path));
    EXPECT_EQ(cache.pending(), 0u);
  }
  ASSERT_FALSE(images[0].empty());
  EXPECT_TRUE(images[1] == images[0]);
  EXPECT_TRUE(images[2] == images[0]);
}

// A CRC-valid snapshot whose examples section holds an embedding one float
// short fails the restore with a Status wherever the index is rebuilt from
// the embeddings: on k-means always, on HNSW when the graph image is absent.
TEST_F(PersistTest, ShortEmbeddingFailsRestore) {
  for (RetrievalBackendKind kind : {RetrievalBackendKind::kKMeans, RetrievalBackendKind::kHnsw}) {
    SCOPED_TRACE(RetrievalBackendKindName(kind));
    auto embedder = std::make_shared<HashingEmbedder>();
    ExampleCacheConfig config;
    config.retrieval.kind = kind;
    ExampleCache original(embedder, config);
    Rng rng(kSeed ^ 9);
    FillStore(&original, 80, &rng);
    const std::string path = TempPath(std::string("short_src_") + RetrievalBackendKindName(kind));
    {
      SnapshotWriter writer;
      EncodePoolSections(original, {}, 0.0, &writer);
      ASSERT_TRUE(writer.WriteToFile(path).ok());
    }
    SnapshotReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    // Re-encode the examples with the tenth record's embedding cut by one
    // float; the writer computes fresh CRCs and no kIndex section is written.
    ByteWriter examples;
    const std::vector<uint64_t> next_ids = original.ExportNextIds();
    examples.PutU64(next_ids.size());
    for (uint64_t next_id : next_ids) {
      examples.PutU64(next_id);
    }
    examples.PutU64(original.size());
    size_t record = 0;
    ASSERT_TRUE(ForEachSnapshotExample(reader, [&](const Example& example,
                                                   const std::vector<float>& embedding) {
                  std::vector<float> written = embedding;
                  if (record++ == 9) {
                    written.pop_back();
                  }
                  EncodeExample(example.id, example, written, &examples);
                }).ok());
    const std::string bad_path = TempPath(std::string("short_") + RetrievalBackendKindName(kind));
    SnapshotWriter bad;
    bad.AddSection(SnapshotSection::kMeta, SectionBytes(reader, SnapshotSection::kMeta));
    bad.AddSection(SnapshotSection::kExamples, examples.TakeBytes());
    ASSERT_TRUE(bad.WriteToFile(bad_path).ok());

    SnapshotReader bad_reader;
    ASSERT_TRUE(bad_reader.Open(bad_path).ok());
    ExampleCache restored(embedder, config);
    const Status status = DecodePoolSections(bad_reader, &restored, {}, nullptr);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status.ToString();
    EXPECT_NE(status.ToString().find("embedding"), std::string::npos) << status.ToString();
  }
}

// With the graph loaded natively the import never consults it, so a
// CRC-valid snapshot whose index image and examples section disagree must
// fail the restore with a Status naming the id, whichever side holds it and
// on either store.
TEST_F(PersistTest, IndexImageThatDisagreesWithExamplesFailsRestore) {
  auto embedder = std::make_shared<HashingEmbedder>();
  ExampleCacheConfig plain;
  plain.retrieval.kind = RetrievalBackendKind::kHnsw;
  ShardedCacheConfig sharded;
  sharded.num_shards = 4;
  sharded.cache = plain;
  for (bool is_sharded : {false, true}) {
    const std::string tag = is_sharded ? "sharded" : "plain";
    SCOPED_TRACE(tag);
    const auto make_store = [&]() -> std::unique_ptr<ExampleStore> {
      if (is_sharded) {
        return std::make_unique<ShardedExampleCache>(embedder, sharded);
      }
      return std::make_unique<ExampleCache>(embedder, plain);
    };
    std::unique_ptr<ExampleStore> original = make_store();
    Rng rng(kSeed ^ 0xd15);
    const std::vector<uint64_t> ids = FillStore(original.get(), 80, &rng);
    const uint64_t dropped = ids[10];
    const std::string path = TempPath("disagree_src_" + tag);
    {
      SnapshotWriter writer;
      EncodePoolSections(*original, {}, 0.0, &writer);
      ASSERT_TRUE(writer.WriteToFile(path).ok());
    }
    SnapshotReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    const std::string meta = SectionBytes(reader, SnapshotSection::kMeta);
    const std::string index = SectionBytes(reader, SnapshotSection::kIndex);
    const auto restore = [&](const std::string& examples, const std::string& index_bytes,
                             const std::string& name) {
      const std::string mixed = TempPath(name + "_" + tag);
      WritePoolSnapshot(mixed, meta, examples, index_bytes);
      SnapshotReader mixed_reader;
      EXPECT_TRUE(mixed_reader.Open(mixed).ok());
      std::unique_ptr<ExampleStore> target = make_store();
      PoolRestoreReport report;
      const Status status = DecodePoolSections(mixed_reader, target.get(), {}, &report);
      EXPECT_TRUE(report.native_index_load || !status.ok());
      return status;
    };
    const auto keep_all = [](const Example&) { return true; };
    const Status same = restore(ExamplesSectionWhere(reader, *original, keep_all), index, "same");
    EXPECT_TRUE(same.ok()) << same.ToString();

    // The graph holds an id the examples section lacks.
    Status status = restore(ExamplesSectionWhere(reader, *original,
                                                 [dropped](const Example& example) {
                                                   return example.id != dropped;
                                                 }),
                            index, "graph_extra");
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
    EXPECT_NE(status.message().find("example id " + std::to_string(dropped) +
                                    " is in the graph image but not the examples section"),
              std::string::npos)
        << status.ToString();

    // The examples section holds an id the graph lacks: a later image, taken
    // after the example was removed (a tombstone is not a live id).
    ASSERT_TRUE(original->Remove(dropped));
    const std::string later = TempPath("disagree_later_" + tag);
    {
      SnapshotWriter writer;
      EncodePoolSections(*original, {}, 0.0, &writer);
      ASSERT_TRUE(writer.WriteToFile(later).ok());
    }
    SnapshotReader later_reader;
    ASSERT_TRUE(later_reader.Open(later).ok());
    status = restore(SectionBytes(reader, SnapshotSection::kExamples),
                     SectionBytes(later_reader, SnapshotSection::kIndex), "examples_extra");
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
    EXPECT_NE(status.message().find("example id " + std::to_string(dropped) +
                                    " is in the examples section but not the graph image"),
              std::string::npos)
        << status.ToString();
  }
}

// Shard graphs load as the index section streams past, so a CRC-valid file
// whose LAST shard image is malformed is found out only after the other
// shards loaded. The restore must reset them and rebuild every shard
// exactly as a restore of the same file without an index section does.
TEST_F(PersistTest, MalformedLastShardImageFallsBackToACleanRebuild) {
  auto embedder = std::make_shared<HashingEmbedder>();
  ShardedCacheConfig config;
  config.num_shards = 8;
  config.cache.retrieval.kind = RetrievalBackendKind::kHnsw;
  ShardedExampleCache original(embedder, config);
  Rng rng(kSeed ^ 0x1a57);
  FillStore(&original, 200, &rng);
  const std::string path = TempPath("last_shard_src");
  {
    SnapshotWriter writer;
    EncodePoolSections(original, {}, 0.0, &writer);
    ASSERT_TRUE(writer.WriteToFile(path).ok());
  }
  SnapshotReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  const std::string meta = SectionBytes(reader, SnapshotSection::kMeta);
  const std::string examples = SectionBytes(reader, SnapshotSection::kExamples);
  std::string index = SectionBytes(reader, SnapshotSection::kIndex);
  // Walk the per-shard framing (count, then length-prefixed images) to the
  // last image and break its dimension field, 128 -> 129.
  ByteReader framing(index);
  ASSERT_EQ(framing.GetU64(), config.num_shards);
  size_t last_image = 0;
  for (size_t shard = 0; shard < config.num_shards; ++shard) {
    const uint64_t length = framing.GetU64();
    last_image = index.size() - framing.remaining();
    std::string image(length, '\0');
    ASSERT_TRUE(framing.GetBytes(image.data(), image.size()));
  }
  ASSERT_TRUE(framing.AtEnd());
  constexpr size_t kDimOffset = 4 + 1;  // after the format version and mode byte
  index[last_image + kDimOffset] ^= 0x01;

  const auto restore = [&](const std::string& index_bytes, const std::string& name,
                           ShardedExampleCache* target) {
    const std::string file = TempPath(name);
    WritePoolSnapshot(file, meta, examples, index_bytes);
    SnapshotReader file_reader;
    ASSERT_TRUE(file_reader.Open(file).ok());
    PoolRestoreReport report;
    const Status status = DecodePoolSections(file_reader, target, {}, &report);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_FALSE(report.native_index_load);
  };
  ShardedExampleCache fallback(embedder, config);
  restore(index, "last_shard_bad", &fallback);
  ShardedExampleCache clean(embedder, config);
  restore("", "last_shard_clean", &clean);

  ExpectStoresEqual(clean, fallback);
  std::vector<Request> queries;
  for (uint64_t q = 0; q < 25; ++q) {
    queries.push_back(MakeRequest(50000 + q, "configure widget " + std::to_string(5 * q)));
  }
  ExpectSameSearchResults(clean, fallback, queries, 10);
  // The same graphs, tombstones and level-sampler states, byte for byte.
  SnapshotWriter clean_image;
  EncodePoolSections(clean, {}, 0.0, &clean_image);
  SnapshotWriter fallback_image;
  EncodePoolSections(fallback, {}, 0.0, &fallback_image);
  const StatusOr<std::string> a = clean_image.Encode();
  const StatusOr<std::string> b = fallback_image.Encode();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(*a == *b);
}

TEST_F(PersistTest, RestoreRequiresEmptyStoreAndMatchingDim) {
  const std::string path = TempPath("precond");
  auto embedder = std::make_shared<HashingEmbedder>();
  ExampleCache original(embedder);
  Rng rng(kSeed ^ 4);
  FillStore(&original, 30, &rng);
  SnapshotWriter writer;
  EncodePoolSections(original, {}, 0.0, &writer);
  ASSERT_TRUE(writer.WriteToFile(path).ok());

  SnapshotReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  // Non-empty target store.
  ExampleCache occupied(embedder);
  FillStore(&occupied, 3, &rng);
  EXPECT_FALSE(DecodePoolSections(reader, &occupied, {}, nullptr).ok());
  // Mismatched embedding dimension.
  HashingEmbedderConfig dim64;
  dim64.dim = 64;
  ExampleCache wrong_dim(std::make_shared<HashingEmbedder>(dim64));
  EXPECT_FALSE(DecodePoolSections(reader, &wrong_dim, {}, nullptr).ok());
}

TEST_F(PersistTest, ComponentAdaptiveStateRoundTrip) {
  const std::string path = TempPath("components");
  auto embedder = std::make_shared<HashingEmbedder>();
  ModelCatalog catalog;
  GenerationSimulator generator(kSeed);

  ExampleCache store(embedder);
  Rng rng(kSeed ^ 5);
  FillStore(&store, 40, &rng);

  ProxyUtilityModel proxy;
  ExampleSelector selector(&store, &proxy);
  ExampleManager manager(&store, &generator, catalog.Get("gemma-2-27b"));
  std::vector<RouterArmSpec> arms(2);
  arms[0].model_name = "small";
  arms[0].normalized_cost = 0.1;
  arms[0].uses_examples = true;
  arms[1].model_name = "large";
  RequestRouter router(arms);

  // Drive every component away from its defaults.
  selector.set_utility_threshold(0.61);
  for (int i = 0; i < 40; ++i) {
    const Request request = MakeRequest(500 + i, "adapt " + std::to_string(i));
    const auto selected = selector.Select(request, catalog.Get("gemma-2-2b"), 1.0 * i);
    selector.OnFeedback(request, selected, catalog.Get("gemma-2-2b"), 0.05);
    router.ObserveLoad(0.4 + 0.01 * i);
    const RouteDecision decision = router.Route(request, selected);
    router.UpdateReward(decision, 0.7);
    ProxyFeatures features = MakeProxyFeatures(0.8, 0.7, 0.9, 0.6, true, 120);
    proxy.Update(features, 0.66);
  }
  manager.set_last_decay_time(777.0);

  PoolComponents components{&selector, &manager, &proxy, &router};
  SnapshotWriter writer;
  EncodePoolSections(store, components, 0.0, &writer);
  ASSERT_TRUE(writer.WriteToFile(path).ok());

  // Fresh components around a fresh store.
  ExampleCache store2(embedder);
  ProxyUtilityModel proxy2;
  ExampleSelector selector2(&store2, &proxy2);
  ExampleManager manager2(&store2, &generator, catalog.Get("gemma-2-27b"));
  RequestRouter router2(arms);
  PoolComponents components2{&selector2, &manager2, &proxy2, &router2};
  SnapshotReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  ASSERT_TRUE(DecodePoolSections(reader, &store2, components2, nullptr).ok());

  const ThresholdLearnerState sa = selector.learner().state();
  const ThresholdLearnerState sb = selector2.learner().state();
  EXPECT_DOUBLE_EQ(sa.threshold, sb.threshold);
  EXPECT_EQ(sa.requests_seen, sb.requests_seen);
  EXPECT_EQ(sa.grid_benefit, sb.grid_benefit);
  EXPECT_EQ(sa.grid_count, sb.grid_count);
  EXPECT_DOUBLE_EQ(manager2.last_decay_time(), 777.0);
  EXPECT_EQ(proxy.weights(), proxy2.weights());
  EXPECT_EQ(proxy.updates(), proxy2.updates());
  EXPECT_DOUBLE_EQ(router.load_ema(), router2.load_ema());
  for (size_t arm = 0; arm < router.bandit().num_arms(); ++arm) {
    EXPECT_EQ(router.bandit().arm(arm).precision(), router2.bandit().arm(arm).precision());
    EXPECT_EQ(router.bandit().arm(arm).b(), router2.bandit().arm(arm).b());
    EXPECT_EQ(router.bandit().arm(arm).updates(), router2.bandit().arm(arm).updates());
  }
  // Identical Thompson streams: the next routing decisions coincide.
  for (int i = 0; i < 10; ++i) {
    const Request request = MakeRequest(900 + i, "post-restore " + std::to_string(i));
    const RouteDecision da = router.Route(request, {});
    const RouteDecision db = router2.Route(request, {});
    EXPECT_EQ(da.arm, db.arm);
    EXPECT_EQ(da.model_name, db.model_name);
  }
}

TEST_F(PersistTest, ServiceWarmStartPreservesReplayGains) {
  const std::string path = TempPath("service");
  ModelCatalog catalog;
  GenerationSimulator generator(kSeed);
  auto embedder = std::make_shared<HashingEmbedder>();
  ServiceConfig config;
  IcCacheService service(config, &catalog, &generator, embedder);

  QueryGenerator history(GetDatasetProfile(DatasetId::kLmsysChat), kSeed ^ 9);
  for (int i = 0; i < 150; ++i) {
    service.SeedExample(history.Next(), 0.0);
  }
  for (int i = 0; i < 100; ++i) {
    service.ServeRequest(history.Next(), static_cast<double>(i));
  }
  const ReplayReport replay = service.manager().RunReplayPass();
  ASSERT_GT(replay.replayed, 0u);
  ASSERT_TRUE(service.SaveSnapshot(path).ok());

  ServiceConfig warm = config;
  warm.snapshot_path = path;
  warm.restore_on_start = true;
  GenerationSimulator generator2(kSeed);
  IcCacheService restored(warm, &catalog, &generator2, embedder);
  ASSERT_TRUE(restored.restore_status().ok()) << restored.restore_status().ToString();
  ASSERT_TRUE(restored.restored_from_snapshot());
  ExpectStoresEqual(service.cache(), restored.cache());

  // A restored service continues byte-identically to the writer.
  for (int i = 0; i < 50; ++i) {
    const Request request = MakeRequest(40000 + i, "warm start query " + std::to_string(i));
    const ServeOutcome a = service.ServeRequest(request, 1000.0 + i);
    const ServeOutcome b = restored.ServeRequest(request, 1000.0 + i);
    EXPECT_EQ(a.route.model_name, b.route.model_name);
    EXPECT_EQ(a.offloaded, b.offloaded);
    EXPECT_EQ(a.examples_used.size(), b.examples_used.size());
    EXPECT_DOUBLE_EQ(a.generation.latent_quality, b.generation.latent_quality);
    EXPECT_DOUBLE_EQ(a.observed_quality, b.observed_quality);
    EXPECT_EQ(a.admitted_example_id, b.admitted_example_id);
  }
}

TEST_F(PersistTest, DumpHelpersReadMetaAndExamples) {
  const std::string path = TempPath("meta");
  auto embedder = std::make_shared<HashingEmbedder>();
  ExampleCache store(embedder);
  Rng rng(kSeed ^ 6);
  FillStore(&store, 60, &rng);

  SnapshotWriter writer;
  EncodePoolSections(store, {}, 55.0, &writer);
  ASSERT_TRUE(writer.WriteToFile(path).ok());

  SnapshotReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  PoolMeta meta;
  ASSERT_TRUE(DecodePoolMeta(reader, &meta).ok());
  EXPECT_EQ(meta.example_count, store.size());
  EXPECT_EQ(meta.used_bytes, store.used_bytes());
  EXPECT_EQ(meta.shard_count, 1u);
  EXPECT_EQ(meta.embed_dim, embedder->dim());
  EXPECT_DOUBLE_EQ(meta.sim_time, 55.0);

  size_t seen = 0;
  int64_t bytes = 0;
  Status status = ForEachSnapshotExample(reader, [&](const Example& example,
                                                     const std::vector<float>& embedding) {
    ++seen;
    bytes += example.SizeBytes();
    EXPECT_EQ(embedding.size(), embedder->dim());
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(seen, store.size());
  EXPECT_EQ(bytes, store.used_bytes());
}

// Restore re-adds stage-0 entries in the writer's scan order, so even an
// equal-score tie between two entries resolves as it did before the snapshot
// (an ascending-id rebuild would flip this one).
TEST_F(PersistTest, Stage0RoundTripKeepsEqualScoreTieBreaks) {
  auto embedder = std::make_shared<HashingEmbedder>();
  Stage0Config config;
  config.enabled = true;
  config.min_admit_quality = 0.0;
  Stage0ResponseCache original(embedder, config);
  // A prepare-phase probe that saw an empty cache: no near-duplicate merge,
  // so two texts with one vector become two entries.
  const Stage0DedupeHint saw_nothing;
  const auto put = [&](uint64_t id, const std::string& text, std::vector<float> embedding) {
    return original.Put(MakeRequest(id, text), std::move(embedding), "[cached-response]", 0.8,
                        30, 0.0, &saw_nothing);
  };
  const std::vector<float> shared = embedder->Embed("how do i reset my password");
  ASSERT_EQ(put(1, "first filler request", embedder->Embed("first filler request")), 1u);
  ASSERT_EQ(put(2, "second filler request", embedder->Embed("second filler request")), 2u);
  ASSERT_EQ(put(3, "how do i reset my password", shared), 3u);
  ASSERT_EQ(put(4, "How do I reset my password?", shared), 4u);
  ASSERT_TRUE(original.Invalidate(1));  // the last entry (4) now scans before 3
  ASSERT_EQ(original.Probe(shared, 0.0)->entry.id, 4u);  // the first scanned wins the tie
  const auto before = original.ProbeK(shared, 3, 0.0);
  ASSERT_EQ(before.size(), 3u);
  ASSERT_EQ(before[0].similarity, before[1].similarity);

  const std::string path = TempPath("stage0_ties");
  PoolComponents components;
  components.stage0 = &original;
  const ExampleCache empty_pool(embedder);
  SnapshotWriter writer;
  EncodePoolSections(empty_pool, components, 0.0, &writer);
  ASSERT_TRUE(writer.WriteToFile(path).ok());
  SnapshotReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  ExampleCache pool(embedder);
  Stage0ResponseCache restored(embedder, config);
  components.stage0 = &restored;
  ASSERT_TRUE(DecodePoolSections(reader, &pool, components, nullptr).ok());

  const auto after = restored.ProbeK(shared, 3, 0.0);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].entry.id, before[i].entry.id) << "rank " << i;
    EXPECT_EQ(after[i].similarity, before[i].similarity) << "rank " << i;
  }
  EXPECT_EQ(restored.Probe(shared, 0.0)->entry.id, 4u);
}

// Writers from before stage-0 used an exact index set the section's
// native-index flag and appended an HNSW graph image after the entries.
// Decoding skips the image and rebuilds the exact index from the entry
// embeddings, so such a snapshot restores the cache a fresh exact build
// holds; a truncated image is a malformed section, not a crash.
TEST_F(PersistTest, OlderStage0SectionWithGraphImageDecodes) {
  auto embedder = std::make_shared<HashingEmbedder>();
  Stage0Config config;
  config.enabled = true;
  config.min_admit_quality = 0.0;
  Stage0ResponseCache original(embedder, config);
  for (uint64_t i = 0; i < 60; ++i) {
    ASSERT_NE(original.Put(MakeRequest(i + 1, "what does error code " + std::to_string(i % 23) +
                                                  " mean in module " + std::to_string(i)),
                           0.5 + 0.005 * static_cast<double>(i), 40 + static_cast<int>(i),
                           static_cast<double>(i)),
              0u);
  }
  ASSERT_TRUE(original.Invalidate(7));
  original.set_hit_threshold(0.93);
  const ExampleCache empty_pool(embedder);

  // Today's encoding of this cache: native flag 0 and no image.
  PoolComponents components;
  components.stage0 = &original;
  const std::string path = TempPath("stage0_older");
  SnapshotWriter current_writer;
  EncodePoolSections(empty_pool, components, 0.0, &current_writer);
  ASSERT_TRUE(current_writer.WriteToFile(path).ok());
  SnapshotReader current;
  ASSERT_TRUE(current.Open(path).ok());
  const std::string section = SectionBytes(current, SnapshotSection::kStage0);
  // Header: threshold, requests seen, entry count, used bytes, then the flag.
  const size_t native_flag_offset = 4 * sizeof(uint64_t);
  ASSERT_EQ(section[native_flag_offset], 0);

  // The older layout over the same entries: flag 1 and a real graph image.
  HnswIndexConfig hnsw;
  hnsw.dim = embedder->dim();
  HnswIndex graph(hnsw);
  original.ExportEntries([&graph](const Stage0Entry& entry, const std::vector<float>& embedding) {
    ASSERT_TRUE(graph.Add(entry.id, embedding).ok());
  });
  ByteWriter image;
  graph.SaveGraph(&image);
  ByteWriter image_field;
  image_field.PutString(image.bytes());
  std::string older = section;
  older[native_flag_offset] = 1;
  older += image_field.TakeBytes();

  const auto decode = [&](const std::string& stage0_section, Stage0ResponseCache* cache) {
    SnapshotWriter writer;
    EncodePoolSections(empty_pool, {}, 0.0, &writer);
    writer.AddSection(SnapshotSection::kStage0, stage0_section);
    EXPECT_TRUE(writer.WriteToFile(path).ok());
    SnapshotReader reader;
    EXPECT_TRUE(reader.Open(path).ok());
    ExampleCache pool(embedder);
    PoolComponents restore_components;
    restore_components.stage0 = cache;
    return DecodePoolSections(reader, &pool, restore_components, nullptr);
  };

  Stage0ResponseCache restored(embedder, config);
  const Status status = decode(older, &restored);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored.used_bytes(), original.used_bytes());
  EXPECT_EQ(restored.hit_threshold(), 0.93);
  EXPECT_EQ(restored.next_id(), original.next_id());
  for (uint64_t q = 0; q < 30; ++q) {
    const std::vector<float> query = embedder->Embed(
        "what does error code " + std::to_string(q % 29) + " mean in module " +
        std::to_string(2 * q));
    const auto expected = original.Probe(query, 100.0);
    const auto actual = restored.Probe(query, 100.0);
    ASSERT_EQ(expected.has_value(), actual.has_value());
    ASSERT_TRUE(expected.has_value());
    EXPECT_EQ(expected->entry.id, actual->entry.id);
    EXPECT_EQ(expected->similarity, actual->similarity);
    EXPECT_EQ(expected->entry.request.text, actual->entry.request.text);
    EXPECT_EQ(expected->entry.response_quality, actual->entry.response_quality);
  }

  // Cut into the image, into its length prefix, and right after the entries.
  for (size_t cut : {size_t{1}, image.size() / 2, image.size() + 4, image.size() + 8}) {
    SCOPED_TRACE("cut " + std::to_string(cut));
    Stage0ResponseCache truncated(embedder, config);
    EXPECT_FALSE(decode(older.substr(0, older.size() - cut), &truncated).ok());
  }
}

}  // namespace
}  // namespace iccache
