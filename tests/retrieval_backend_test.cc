#include "src/core/retrieval_backend.h"

#include <cstring>
#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "src/common/binio.h"
#include "src/core/example_cache.h"
#include "src/core/selector.h"
#include "src/core/sharded_cache.h"
#include "src/embedding/embedder.h"
#include "src/persist/pool_codec.h"

namespace iccache {
namespace {

Request MakeRequest(uint64_t id, const std::string& text) {
  Request request;
  request.id = id;
  request.text = text;
  request.input_tokens = static_cast<int>(text.size() / 4 + 1);
  return request;
}

TEST(RetrievalBackendTest, KindNameRoundTrip) {
  for (RetrievalBackendKind kind : {RetrievalBackendKind::kFlat, RetrievalBackendKind::kKMeans,
                                    RetrievalBackendKind::kHnsw}) {
    RetrievalBackendKind parsed;
    ASSERT_TRUE(ParseRetrievalBackendKind(RetrievalBackendKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  RetrievalBackendKind parsed = RetrievalBackendKind::kFlat;
  EXPECT_FALSE(ParseRetrievalBackendKind("faiss", &parsed));
  EXPECT_EQ(parsed, RetrievalBackendKind::kFlat);  // untouched on failure
}

TEST(RetrievalBackendTest, FactoryBuildsEachKind) {
  RetrievalBackendConfig config;
  config.kind = RetrievalBackendKind::kFlat;
  auto flat = MakeRetrievalIndex(config, 8, 1);
  ASSERT_NE(flat, nullptr);
  EXPECT_NE(dynamic_cast<FlatIndex*>(flat.get()), nullptr);

  config.kind = RetrievalBackendKind::kKMeans;
  auto kmeans = MakeRetrievalIndex(config, 8, 1);
  EXPECT_NE(dynamic_cast<KMeansIndex*>(kmeans.get()), nullptr);

  config.kind = RetrievalBackendKind::kHnsw;
  config.hnsw.max_neighbors = 12;
  auto hnsw = MakeRetrievalIndex(config, 8, 7);
  auto* as_hnsw = dynamic_cast<HnswIndex*>(hnsw.get());
  ASSERT_NE(as_hnsw, nullptr);
  // Factory overrides dim/seed, preserves tuning knobs.
  EXPECT_EQ(as_hnsw->config().dim, 8u);
  EXPECT_EQ(as_hnsw->config().seed, 7u);
  EXPECT_EQ(as_hnsw->config().max_neighbors, 12u);
}

class BackendSweep : public ::testing::TestWithParam<RetrievalBackendKind> {};

// The cache behaves identically (same store/lookup contract) under every
// backend; approximate backends may rank differently, but a near-duplicate
// query must always surface its source example.
TEST_P(BackendSweep, ExampleCacheFindsNearDuplicates) {
  ExampleCacheConfig config;
  config.retrieval.kind = GetParam();
  ExampleCache cache(std::make_shared<HashingEmbedder>(), config);

  std::vector<uint64_t> ids;
  std::vector<std::string> texts;
  for (int i = 0; i < 200; ++i) {
    texts.push_back("how do i sort a list of " + std::to_string(i) + " items in python");
    const uint64_t id =
        cache.Put(MakeRequest(static_cast<uint64_t>(i + 1), texts.back()), "resp", 0.8, 0.9, 16,
                  0.0);
    ASSERT_NE(id, 0u);
    ids.push_back(id);
  }
  int hits = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    const auto results = cache.FindSimilar(MakeRequest(9999, texts[i]), 1);
    if (!results.empty() && results[0].id == ids[i]) {
      ++hits;
    }
  }
  EXPECT_GE(hits, 195) << "backend " << RetrievalBackendKindName(GetParam());
}

TEST_P(BackendSweep, RemoveDropsFromRetrieval) {
  ExampleCacheConfig config;
  config.retrieval.kind = GetParam();
  ExampleCache cache(std::make_shared<HashingEmbedder>(), config);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 120; ++i) {
    ids.push_back(cache.Put(
        MakeRequest(static_cast<uint64_t>(i + 1), "question about topic " + std::to_string(i)),
        "resp", 0.8, 0.9, 16, 0.0));
  }
  for (size_t i = 0; i < ids.size(); i += 2) {
    ASSERT_TRUE(cache.Remove(ids[i]));
  }
  const auto results =
      cache.FindSimilar(MakeRequest(9999, "question about topic 4"), cache.size());
  for (const auto& result : results) {
    Example example;
    EXPECT_TRUE(cache.Snapshot(result.id, &example)) << "stale id " << result.id;
  }
}

// The full selection pipeline runs unchanged over the sharded cache with any
// backend — the ExampleStore unification the driver relies on.
TEST_P(BackendSweep, SelectorRunsOverShardedCache) {
  ShardedCacheConfig config;
  config.num_shards = 4;
  config.cache.retrieval.kind = GetParam();
  ShardedExampleCache cache(std::make_shared<HashingEmbedder>(), config);
  ProxyUtilityModel proxy;
  ExampleSelector selector(&cache, &proxy);

  for (int i = 0; i < 150; ++i) {
    cache.Put(MakeRequest(static_cast<uint64_t>(i + 1),
                          "explain recursion with example number " + std::to_string(i % 10)),
              "resp", 0.9, 0.95, 16, 0.0);
  }
  ModelCatalog catalog;
  const ModelProfile& model = catalog.Get("gemma-2-2b");
  size_t total_selected = 0;
  for (int q = 0; q < 20; ++q) {
    const Request request =
        MakeRequest(static_cast<uint64_t>(1000 + q),
                    "explain recursion with example number " + std::to_string(q % 10));
    const auto selected = selector.Select(request, model, 0.0);
    EXPECT_LE(selected.size(), selector.config().max_examples);
    for (const auto& sel : selected) {
      Example example;
      EXPECT_TRUE(cache.Snapshot(sel.example_id, &example));
      EXPECT_GE(sel.similarity, selector.config().stage1_min_similarity);
    }
    total_selected += selected.size();
  }
  EXPECT_GT(total_selected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Kinds, BackendSweep,
                         ::testing::Values(RetrievalBackendKind::kFlat,
                                           RetrievalBackendKind::kKMeans,
                                           RetrievalBackendKind::kHnsw),
                         [](const ::testing::TestParamInfo<RetrievalBackendKind>& info) {
                           return RetrievalBackendKindName(info.param);
                         });

// --- Stored index vectors -----------------------------------------------------

// Keeps what ExampleStore::StreamSnapshotCut hands over: the summary, every
// record encoded with the snapshot record codec, and the index image.
class RecordingSnapshotSink : public StoreSnapshotSink {
 public:
  void Begin(const StoreCutSummary& cut) override { summary = cut; }
  void AddExample(uint64_t id, const Example& example,
                  const std::vector<float>& embedding) override {
    EncodeExample(id, example, embedding, &records);
  }
  ByteWriter* IndexImage() override { return &index_image; }

  StoreCutSummary summary;
  ByteWriter records;
  ByteWriter index_image;
};

struct StoredVectorBackend {
  const char* name;
  RetrievalBackendKind kind;
  QuantizationKind quantize;
  bool exact;  // keeps the embedder's output bit for bit
};

class StoredVectorSweep : public ::testing::TestWithParam<StoredVectorBackend> {};

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Every example's Snapshot vector is Embed(example.request.text) bit for bit
// on exact backends, and absent on int8. Returns how many stored texts the
// PII scrubber rewrote.
size_t ExpectStoredVectorsAreEmbedderOutput(const ExampleStore& store, const Embedder& embedder,
                                            bool exact) {
  size_t scrubbed = 0;
  for (uint64_t id : store.AllIds()) {
    Example example;
    std::vector<float> embedding = {1.0f};  // Snapshot must overwrite it
    EXPECT_TRUE(store.Snapshot(id, &example, &embedding));
    if (example.request.text.find("[EMAIL]") != std::string::npos) {
      ++scrubbed;
    }
    if (exact) {
      EXPECT_TRUE(SameBits(embedding, embedder.Embed(example.request.text))) << "id " << id;
    } else {
      EXPECT_TRUE(embedding.empty()) << "id " << id;
    }
  }
  return scrubbed;
}

// The selector copies candidate vectors out of the store instead of
// re-embedding them, which is only sound if the store hands back exactly what
// the embedder produced for the stored (scrubbed) text. Covers a sharded
// store through PII scrubbing, capacity evictions, removals (hnsw tombstones
// and compaction), a replay-style UpdateExample, and restores by native
// graph load and by rebuild from the exported embeddings.
TEST_P(StoredVectorSweep, SnapshotVectorIsTheEmbedderOutput) {
  const StoredVectorBackend backend = GetParam();
  auto embedder = std::make_shared<HashingEmbedder>();
  ShardedCacheConfig config;
  config.num_shards = 2;
  config.cache.capacity_bytes = 40000;  // ~230 of the 320 inserts fit
  config.cache.low_watermark = 0.8;
  config.cache.retrieval.kind = backend.kind;
  config.cache.retrieval.quantize = backend.quantize;
  config.cache.retrieval.hnsw.min_tombstones_to_compact = 8;
  EXPECT_EQ(StoresExactVectors(config.cache.retrieval), backend.exact);
  ShardedExampleCache store(embedder, config);

  std::vector<float> text_embedding(embedder->dim());
  for (uint64_t i = 0; i < 320; ++i) {
    Request request = MakeRequest(i + 1, "how should i tune cache shard " + std::to_string(i % 41) +
                                             " for workload " + std::to_string(i));
    if (i % 7 == 0) {
      request.text += " mail ops" + std::to_string(i) + "@example.com";
    }
    request.input_tokens = 10;
    // The driver's admission path: the request embedding is reused when
    // scrubbing leaves the text unchanged.
    embedder->EmbedInto(request.text, text_embedding.data());
    store.PutPrepared(request, store.PrepareAdmission(request, &text_embedding), "resp", 0.6,
                      0.9, 20, static_cast<double>(i));
  }
  EXPECT_GT(store.evicted_total(), 0u);
  std::vector<uint64_t> ids = store.AllIds();
  for (size_t i = 0; i < ids.size(); i += 3) {
    ASSERT_TRUE(store.Remove(ids[i]));
  }
  ids = store.AllIds();
  for (size_t i = 0; i < ids.size(); i += 4) {
    ASSERT_TRUE(store.UpdateExample(ids[i], [](Example& example) {
      ++example.replay_count;
      example.response_quality = 0.95;
      example.response_tokens = 30;
    }));
  }
  EXPECT_GT(ExpectStoredVectorsAreEmbedderOutput(store, *embedder, backend.exact), 0u);

  // Through the streamed snapshot export and the record codec, as a save
  // and a restore see the pool.
  RecordingSnapshotSink cut;
  ASSERT_TRUE(store.StreamSnapshotCut(&cut).ok());
  EXPECT_EQ(store.HasNativeIndex(), backend.kind == RetrievalBackendKind::kHnsw);
  EXPECT_EQ(cut.index_image.size() > 0, store.HasNativeIndex());
  EXPECT_EQ(cut.summary.example_count, store.size());
  for (bool native : {false, true}) {
    if (native && !store.HasNativeIndex()) {
      continue;
    }
    SCOPED_TRACE(native ? "native graph load" : "rebuild");
    ShardedExampleCache restored(embedder, config);
    if (native) {
      ASSERT_TRUE(restored.LoadIndexBlob(cut.index_image.bytes()));
    }
    ByteReader reader(cut.records.bytes());
    for (uint64_t i = 0; i < cut.summary.example_count; ++i) {
      Example example;
      std::vector<float> embedding;
      ASSERT_TRUE(DecodeExample(&reader, &example, &embedding));
      ASSERT_TRUE(restored.ImportExample(example, std::move(embedding), !native));
    }
    EXPECT_TRUE(reader.AtEnd());
    ASSERT_EQ(restored.size(), store.size());
    ExpectStoredVectorsAreEmbedderOutput(restored, *embedder, backend.exact);
  }

  // Candidates carry the stored vectors; where the store keeps none, the
  // commit embeds lazily. Either way the frozen commit picks what it picked
  // when prepare re-embedded every candidate.
  ProxyUtilityModel proxy;
  ExampleSelector selector(&store, &proxy);
  selector.set_utility_threshold(0.0);
  ModelCatalog catalog;
  const ModelProfile& model = catalog.Get("gemma-2-2b");
  const size_t num_queries = 12;
  std::vector<float> queries(num_queries * embedder->dim());
  std::vector<Request> requests;
  for (uint64_t q = 0; q < num_queries; ++q) {
    requests.push_back(MakeRequest(5000 + q, "how should i tune cache shard " +
                                                 std::to_string(q * 3) + " for workload 7"));
    embedder->EmbedInto(requests.back().text, queries.data() + q * embedder->dim());
  }
  SearchScratch scratch;
  std::vector<std::vector<SearchResult>> stage1;
  store.FindSimilarBatch(queries.data(), num_queries, embedder->dim(),
                         selector.config().stage1_candidates, &scratch, &stage1);
  size_t candidates_seen = 0;
  size_t picked = 0;
  for (size_t q = 0; q < num_queries; ++q) {
    const std::vector<SelectorCandidate> candidates =
        selector.PrepareCandidatesFrom(requests[q], model, stage1[q]);
    std::vector<SelectorCandidate> reembedded = candidates;
    for (SelectorCandidate& candidate : reembedded) {
      candidate.embedding = embedder->Embed(candidate.example.request.text);
    }
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (backend.exact) {
        EXPECT_TRUE(SameBits(candidates[c].embedding, reembedded[c].embedding));
      } else {
        EXPECT_TRUE(candidates[c].embedding.empty());
      }
    }
    candidates_seen += candidates.size();

    std::vector<uint64_t> accessed_stored;
    std::vector<uint64_t> accessed_reembedded;
    const auto from_store = selector.CommitSelectionFrozen(candidates, model, &accessed_stored);
    const auto from_embed =
        selector.CommitSelectionFrozen(reembedded, model, &accessed_reembedded);
    EXPECT_EQ(accessed_stored, accessed_reembedded);
    ASSERT_EQ(from_store.size(), from_embed.size());
    for (size_t i = 0; i < from_store.size(); ++i) {
      EXPECT_EQ(from_store[i].id, from_embed[i].id);
      EXPECT_TRUE(SameBits(from_store[i].embedding, from_embed[i].embedding));
    }
    picked += from_store.size();
  }
  EXPECT_GT(candidates_seen, num_queries);
  EXPECT_GT(picked, num_queries);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, StoredVectorSweep,
    ::testing::Values(
        StoredVectorBackend{"flat", RetrievalBackendKind::kFlat, QuantizationKind::kNone, true},
        StoredVectorBackend{"kmeans", RetrievalBackendKind::kKMeans, QuantizationKind::kNone,
                            true},
        StoredVectorBackend{"hnsw", RetrievalBackendKind::kHnsw, QuantizationKind::kNone, true},
        StoredVectorBackend{"hnsw_int8", RetrievalBackendKind::kHnsw, QuantizationKind::kInt8,
                            false}),
    [](const ::testing::TestParamInfo<StoredVectorBackend>& info) { return info.param.name; });

}  // namespace
}  // namespace iccache
