// Persistence subsystem unit tests: binio primitives, snapshot container
// integrity (magic / version / CRC / truncation / crash staging), and
// whole-pool round trips over both stores and all three retrieval backends —
// including PII-scrubbed pools, tombstone-heavy HNSW graphs, the component
// (selector / manager / proxy / router) adaptive state, and stage-0 sections
// from older writers that appended an HNSW graph image.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/binio.h"
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

TEST_F(PersistTest, ContainerRejectsCorruption) {
  const std::string path = TempPath("corrupt");
  SnapshotWriter writer;
  writer.AddSection(SnapshotSection::kMeta, "meta-bytes");
  writer.AddSection(SnapshotSection::kExamples, std::string(1000, 'x'));
  ASSERT_TRUE(writer.WriteToFile(path).ok());

  const std::string image = [&] {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    std::string data;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      data.append(buf, n);
    }
    std::fclose(f);
    return data;
  }();

  {  // pristine image parses
    SnapshotReader reader;
    EXPECT_TRUE(reader.Parse(image).ok());
    EXPECT_NE(reader.Section(SnapshotSection::kExamples), nullptr);
  }
  {  // bad magic
    std::string bad = image;
    bad[0] ^= 0xFF;
    SnapshotReader reader;
    EXPECT_FALSE(reader.Parse(bad).ok());
  }
  {  // unsupported future format version
    std::string bad = image;
    bad[8] = 99;
    SnapshotReader reader;
    const Status status = reader.Parse(bad);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("version"), std::string::npos);
  }
  {  // flipped payload bit -> section CRC mismatch
    std::string bad = image;
    bad[bad.size() - 10] ^= 0x01;
    SnapshotReader reader;
    EXPECT_FALSE(reader.Parse(bad).ok());
  }
  {  // truncation at every interesting boundary
    for (size_t cut : {size_t{3}, size_t{20}, image.size() / 2, image.size() - 1}) {
      SnapshotReader reader;
      EXPECT_FALSE(reader.Parse(image.substr(0, cut)).ok()) << "cut=" << cut;
    }
  }
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
  ASSERT_NE(reader.Section(SnapshotSection::kMeta), nullptr);
  EXPECT_EQ(*reader.Section(SnapshotSection::kMeta), "checkpoint-1");

  // The interrupted writer retries and completes: the new image replaces the
  // old atomically.
  SnapshotWriter v2;
  v2.AddSection(SnapshotSection::kMeta, "checkpoint-2");
  ASSERT_TRUE(v2.WriteToFile(path).ok());
  SnapshotReader reader2;
  ASSERT_TRUE(reader2.Open(path).ok());
  EXPECT_EQ(*reader2.Section(SnapshotSection::kMeta), "checkpoint-2");
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

  const SelectorAdaptiveState sa = selector.SaveAdaptiveState();
  const SelectorAdaptiveState sb = selector2.SaveAdaptiveState();
  EXPECT_DOUBLE_EQ(sa.utility_threshold, sb.utility_threshold);
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

  PoolComponents components;
  components.stage0 = &original;
  SnapshotWriter writer;
  EncodePoolSections(ExampleCache(embedder), components, 0.0, &writer);
  SnapshotReader reader;
  ASSERT_TRUE(reader.Parse(writer.Encode()).ok());
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
  SnapshotWriter current_writer;
  EncodePoolSections(empty_pool, components, 0.0, &current_writer);
  SnapshotReader current;
  ASSERT_TRUE(current.Parse(current_writer.Encode()).ok());
  const std::string* section = current.Section(SnapshotSection::kStage0);
  ASSERT_NE(section, nullptr);
  // Header: threshold, requests seen, entry count, used bytes, then the flag.
  const size_t native_flag_offset = 4 * sizeof(uint64_t);
  ASSERT_EQ((*section)[native_flag_offset], 0);

  // The older layout over the same entries: flag 1 and a real graph image.
  HnswIndexConfig hnsw;
  hnsw.dim = embedder->dim();
  HnswIndex graph(hnsw);
  original.ExportEntries([&graph](const Stage0Entry& entry, const std::vector<float>& embedding) {
    ASSERT_TRUE(graph.Add(entry.id, embedding).ok());
  });
  std::string image;
  graph.SaveGraph(&image);
  ByteWriter image_field;
  image_field.PutString(image);
  std::string older = *section;
  older[native_flag_offset] = 1;
  older += image_field.TakeBytes();

  const auto decode = [&](const std::string& stage0_section, Stage0ResponseCache* cache) {
    SnapshotWriter writer;
    EncodePoolSections(empty_pool, {}, 0.0, &writer);
    writer.AddSection(SnapshotSection::kStage0, stage0_section);
    SnapshotReader reader;
    EXPECT_TRUE(reader.Parse(writer.Encode()).ok());
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
