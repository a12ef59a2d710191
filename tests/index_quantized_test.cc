// Int8-quantized HNSW arena: recall regression against the float index,
// quantized GetVector error bounds, graph-image round trip (format v2), mode
// mismatch fallback, memory accounting, and rerank telemetry.
#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/binio.h"
#include "src/common/mathutil.h"
#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/core/retrieval_backend.h"
#include "src/index/hnsw.h"

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

// Loads a whole graph image held in memory.
bool LoadImage(HnswIndex* index, const std::string& image) {
  ByteReader reader(image);
  return index->LoadGraph(&reader, image.size());
}

HnswIndexConfig QuantizedConfig(size_t dim) {
  HnswIndexConfig config;
  config.dim = dim;
  config.quantize_int8 = true;
  return config;
}

TEST(HnswQuantizedTest, AddSearchRemove) {
  HnswIndexConfig config = QuantizedConfig(4);
  HnswIndex index(config);
  EXPECT_TRUE(index.Add(1, {1.0f, 0.0f, 0.0f, 0.0f}).ok());
  EXPECT_TRUE(index.Add(2, {0.0f, 1.0f, 0.0f, 0.0f}).ok());
  EXPECT_EQ(index.size(), 2u);

  const auto results = index.Search({1.0f, 0.0f, 0.0f, 0.0f}, 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, 1u);
  EXPECT_NEAR(results[0].score, 1.0, 1e-2);  // quantized storage: coarse score

  EXPECT_TRUE(index.Remove(1));
  EXPECT_EQ(index.Search({1.0f, 0.0f, 0.0f, 0.0f}, 1)[0].id, 2u);
}

TEST(HnswQuantizedTest, GetVectorErrorBoundedByHalfScale) {
  const size_t dim = 64;
  HnswIndex index(QuantizedConfig(dim));
  Rng rng(41);
  std::vector<std::vector<float>> stored;
  for (uint64_t i = 0; i < 100; ++i) {
    stored.push_back(RandomUnitVector(rng, dim));
    ASSERT_TRUE(index.Add(i, stored.back()).ok());
  }
  for (uint64_t i = 0; i < 100; ++i) {
    std::vector<float> out;
    ASSERT_TRUE(index.GetVector(i, &out));
    ASSERT_EQ(out.size(), dim);
    // Per-vector scale = max|x| / 127 <= 1/127 for unit vectors; each element
    // is off by at most half a quantization step.
    float max_abs = 0.0f;
    for (float x : stored[i]) {
      max_abs = std::max(max_abs, std::fabs(x));
    }
    const float bound = 0.5f * max_abs / 127.0f + 1e-6f;
    for (size_t d = 0; d < dim; ++d) {
      EXPECT_LE(std::fabs(out[d] - stored[i][d]), bound);
    }
  }
}

// Tentpole acceptance (10k fixture form): the quantized index with exact
// re-rank must keep recall@10 >= 0.95x the float index's recall against flat
// ground truth.
TEST(HnswQuantizedTest, RecallWithinFivePercentOfFloatIndex) {
  const size_t dim = 64;
  const size_t n = 10000;
  const size_t k = 10;
  const int queries = 100;

  HnswIndexConfig fconfig;
  fconfig.dim = dim;
  HnswIndex float_index(fconfig);
  HnswIndex quant_index(QuantizedConfig(dim));
  FlatIndex exact(dim);
  Rng rng(42);
  for (uint64_t i = 0; i < n; ++i) {
    const auto v = RandomUnitVector(rng, dim);
    ASSERT_TRUE(float_index.Add(i, v).ok());
    ASSERT_TRUE(quant_index.Add(i, v).ok());
    ASSERT_TRUE(exact.Add(i, v).ok());
  }

  size_t float_hits = 0;
  size_t quant_hits = 0;
  for (int q = 0; q < queries; ++q) {
    const auto query = RandomUnitVector(rng, dim);
    std::set<uint64_t> truth;
    for (const auto& r : exact.Search(query, k)) {
      truth.insert(r.id);
    }
    for (const auto& r : float_index.Search(query, k)) {
      float_hits += truth.count(r.id);
    }
    for (const auto& r : quant_index.Search(query, k)) {
      quant_hits += truth.count(r.id);
    }
  }
  const double float_recall = static_cast<double>(float_hits) / (queries * k);
  const double quant_recall = static_cast<double>(quant_hits) / (queries * k);
  EXPECT_GE(quant_recall, 0.95 * float_recall)
      << "quantized recall@10 = " << quant_recall << " vs float " << float_recall;
  EXPECT_GE(quant_recall, 0.95) << "absolute quantized recall@10 too low";
}

TEST(HnswQuantizedTest, RerankCountersAdvance) {
  const size_t dim = 16;
  HnswIndex index(QuantizedConfig(dim));
  Rng rng(43);
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(index.Add(i, RandomUnitVector(rng, dim)).ok());
  }
  const uint64_t q0 = HnswRerankQueriesTotal();
  const uint64_t c0 = HnswRerankCandidatesTotal();
  const int queries = 5;
  for (int q = 0; q < queries; ++q) {
    index.Search(RandomUnitVector(rng, dim), 10);
  }
  EXPECT_EQ(HnswRerankQueriesTotal() - q0, static_cast<uint64_t>(queries));
  // Each query re-scores at least k and at most rerank_k candidates.
  EXPECT_GE(HnswRerankCandidatesTotal() - c0, static_cast<uint64_t>(queries * 10));
  EXPECT_LE(HnswRerankCandidatesTotal() - c0,
            static_cast<uint64_t>(queries) * std::max<uint64_t>(index.config().rerank_k, 10));
}

TEST(HnswQuantizedTest, RerankZeroDisablesExactPass) {
  const size_t dim = 16;
  HnswIndexConfig config = QuantizedConfig(dim);
  config.rerank_k = 0;
  HnswIndex index(config);
  Rng rng(44);
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(index.Add(i, RandomUnitVector(rng, dim)).ok());
  }
  const uint64_t q0 = HnswRerankQueriesTotal();
  EXPECT_EQ(index.Search(RandomUnitVector(rng, dim), 5).size(), 5u);
  EXPECT_EQ(HnswRerankQueriesTotal(), q0);  // pure quantized scoring
}

TEST(HnswQuantizedTest, ArenaBytesMeetMemoryGate) {
  const size_t dim = 128;
  HnswIndex quant(QuantizedConfig(dim));
  HnswIndexConfig fconfig;
  fconfig.dim = dim;
  HnswIndex flt(fconfig);
  Rng rng(45);
  const size_t n = 500;
  for (uint64_t i = 0; i < n; ++i) {
    const auto v = RandomUnitVector(rng, dim);
    ASSERT_TRUE(quant.Add(i, v).ok());
    ASSERT_TRUE(flt.Add(i, v).ok());
  }
  // dim=128: float arena = 512 B/vec; int8 arena = 128 codes + 4 scale bytes.
  EXPECT_EQ(flt.arena_bytes(), n * dim * sizeof(float));
  EXPECT_EQ(quant.arena_bytes(), n * (dim + sizeof(float)));
  EXPECT_LE(quant.arena_bytes() / n, 160u);  // the ci.sh acceptance gate
}

TEST(HnswQuantizedTest, GraphImageRoundTripsExactly) {
  const size_t dim = 32;
  HnswIndexConfig config = QuantizedConfig(dim);
  HnswIndex index(config);
  Rng rng(46);
  for (uint64_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(index.Add(i, RandomUnitVector(rng, dim)).ok());
  }
  for (uint64_t i = 0; i < 400; i += 7) {
    ASSERT_TRUE(index.Remove(i));
  }
  ByteWriter blob;
  index.SaveGraph(&blob);

  HnswIndex restored(config);
  ASSERT_TRUE(LoadImage(&restored, blob.bytes()));
  EXPECT_EQ(restored.size(), index.size());
  EXPECT_EQ(restored.tombstones(), index.tombstones());
  EXPECT_EQ(restored.max_level(), index.max_level());
  EXPECT_EQ(restored.arena_bytes(), index.arena_bytes());

  // The quantized image stores raw codes + scales, so restored searches are
  // bit-identical, and restored vectors match the originals exactly.
  for (int q = 0; q < 20; ++q) {
    const auto query = RandomUnitVector(rng, dim);
    const auto a = index.Search(query, 10);
    const auto b = restored.Search(query, 10);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
    }
  }
  for (uint64_t i = 1; i < 400; i += 7) {
    std::vector<float> va, vb;
    ASSERT_TRUE(index.GetVector(i, &va));
    ASSERT_TRUE(restored.GetVector(i, &vb));
    EXPECT_EQ(va, vb);
  }

  // Future inserts diverge identically: the rng stream was restored too.
  const auto v = RandomUnitVector(rng, dim);
  ASSERT_TRUE(index.Add(1000, v).ok());
  ASSERT_TRUE(restored.Add(1000, v).ok());
  const auto query = RandomUnitVector(rng, dim);
  const auto a = index.Search(query, 10);
  const auto b = restored.Search(query, 10);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
  }
}

TEST(HnswQuantizedTest, QuantizationModeMismatchRejectsImage) {
  const size_t dim = 16;
  HnswIndexConfig qconfig = QuantizedConfig(dim);
  HnswIndexConfig fconfig;
  fconfig.dim = dim;
  Rng rng(47);

  HnswIndex quant(qconfig);
  HnswIndex flt(fconfig);
  for (uint64_t i = 0; i < 100; ++i) {
    const auto v = RandomUnitVector(rng, dim);
    ASSERT_TRUE(quant.Add(i, v).ok());
    ASSERT_TRUE(flt.Add(i, v).ok());
  }
  ByteWriter quant_blob, float_blob;
  quant.SaveGraph(&quant_blob);
  flt.SaveGraph(&float_blob);

  // Cross-mode loads must fail and leave the target untouched (the caller
  // falls back to rebuilding from embeddings, requantizing along the way).
  HnswIndex quant_target(qconfig);
  ASSERT_TRUE(quant_target.Add(7, RandomUnitVector(rng, dim)).ok());
  EXPECT_FALSE(LoadImage(&quant_target, float_blob.bytes()));
  EXPECT_EQ(quant_target.size(), 1u);

  HnswIndex float_target(fconfig);
  EXPECT_FALSE(LoadImage(&float_target, quant_blob.bytes()));
  EXPECT_EQ(float_target.size(), 0u);

  // Same mode still round-trips.
  EXPECT_TRUE(LoadImage(&quant_target, quant_blob.bytes()));
  EXPECT_EQ(quant_target.size(), 100u);
}

TEST(HnswQuantizedTest, CompactionPreservesQuantizedVectors) {
  const size_t dim = 32;
  HnswIndexConfig config = QuantizedConfig(dim);
  config.min_tombstones_to_compact = 1 << 30;  // manual compaction only
  HnswIndex index(config);
  Rng rng(48);
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(index.Add(i, RandomUnitVector(rng, dim)).ok());
  }
  std::vector<std::vector<float>> before(300);
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(index.GetVector(i, &before[i]));
  }
  for (uint64_t i = 0; i < 300; i += 2) {
    ASSERT_TRUE(index.Remove(i));
  }
  index.Compact();
  EXPECT_EQ(index.tombstones(), 0u);
  // Requantizing a dequantized vector reproduces the same codes and scale, so
  // survivors come through compaction bit-identical.
  for (uint64_t i = 1; i < 300; i += 2) {
    std::vector<float> after;
    ASSERT_TRUE(index.GetVector(i, &after));
    EXPECT_EQ(after, before[i]);
  }
}

TEST(RetrievalBackendQuantizeTest, ConfigMapsToHnsw) {
  RetrievalBackendConfig config;
  config.kind = RetrievalBackendKind::kHnsw;
  config.quantize = QuantizationKind::kInt8;
  config.rerank_k = 48;
  auto index = MakeRetrievalIndex(config, 64, 1);
  auto* hnsw = dynamic_cast<HnswIndex*>(index.get());
  ASSERT_NE(hnsw, nullptr);
  EXPECT_TRUE(hnsw->config().quantize_int8);
  EXPECT_EQ(hnsw->config().rerank_k, 48u);

  config.quantize = QuantizationKind::kNone;
  auto index2 = MakeRetrievalIndex(config, 64, 1);
  auto* hnsw2 = dynamic_cast<HnswIndex*>(index2.get());
  ASSERT_NE(hnsw2, nullptr);
  EXPECT_FALSE(hnsw2->config().quantize_int8);
}

TEST(RetrievalBackendQuantizeTest, KindNamesParseAndPrint) {
  EXPECT_STREQ(QuantizationKindName(QuantizationKind::kNone), "none");
  EXPECT_STREQ(QuantizationKindName(QuantizationKind::kInt8), "int8");
  QuantizationKind kind = QuantizationKind::kNone;
  EXPECT_TRUE(ParseQuantizationKind("int8", &kind));
  EXPECT_EQ(kind, QuantizationKind::kInt8);
  EXPECT_TRUE(ParseQuantizationKind("none", &kind));
  EXPECT_EQ(kind, QuantizationKind::kNone);
  EXPECT_FALSE(ParseQuantizationKind("fp16", &kind));
  EXPECT_EQ(kind, QuantizationKind::kNone);  // untouched on failure
}

}  // namespace
}  // namespace iccache
