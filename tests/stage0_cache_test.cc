// Stage-0 response tier (concurrency label; runs under TSan):
//
//  * hit semantics — threshold decision, TTL staleness, quality-feedback
//    invalidation, threshold learning from probe-sampled counterfactuals;
//  * the three latent-bug regressions fixed by the promotion: unbounded /
//    duplicate-accepting inserts, the -1.0 NearestSimilarity sentinel, and
//    the redundant re-embedding on every probe;
//  * driver determinism — stage-0 decisions are byte-identical at 1 vs 8
//    threads and 1 vs 4 commit lanes on a duplicate-heavy trace, and
//    proven hits skip retrieval without moving a pinned decisions digest;
//  * snapshot -> restore -> serve parity with the stage-0 section included.
#include "src/core/stage0_cache.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/serving/driver.h"
#include "src/workload/dataset.h"

namespace iccache {
namespace {

constexpr uint64_t kSeed = 0x57a9e5ull;

std::shared_ptr<const Embedder> SharedEmbedder() {
  return std::make_shared<HashingEmbedder>();
}

Request MakeRequest(uint64_t id, const std::string& text, int input_tokens = 16) {
  Request req;
  req.id = id;
  req.text = text;
  req.input_tokens = input_tokens;
  return req;
}

Stage0Config FlatConfig() {
  Stage0Config config;
  config.enabled = true;
  config.learn_threshold = false;
  config.min_admit_quality = 0.0;
  return config;
}

// --- Hit semantics ----------------------------------------------------------

TEST(Stage0CacheTest, ExactDuplicateHitsAboveThreshold) {
  Stage0ResponseCache cache(SharedEmbedder(), FlatConfig());
  const Request stored = MakeRequest(1, "what is the boiling point of water");
  ASSERT_NE(cache.Put(stored, 0.9, 120), 0u);
  const auto probe = cache.Probe(MakeRequest(2, stored.text), 0.0);
  ASSERT_TRUE(probe.has_value());
  EXPECT_NEAR(probe->similarity, 1.0, 1e-5);
  EXPECT_TRUE(probe->fresh);
  EXPECT_TRUE(cache.Confident(*probe));
  EXPECT_NEAR(probe->entry.response_quality, 0.9, 1e-9);
}

TEST(Stage0CacheTest, ThresholdGatesTheHitDecision) {
  Stage0ResponseCache cache(SharedEmbedder(), FlatConfig());
  cache.Put(MakeRequest(1, "alpha beta gamma delta"), 0.8, 50);
  const auto probe = cache.Probe(MakeRequest(2, "completely different words here"), 0.0);
  ASSERT_TRUE(probe.has_value());
  EXPECT_LT(probe->similarity, 0.9);
  cache.set_hit_threshold(0.95);
  EXPECT_FALSE(cache.Confident(*probe));
  cache.set_hit_threshold(probe->similarity - 0.01);
  EXPECT_TRUE(cache.Confident(*probe));
}

TEST(Stage0CacheTest, TtlStalenessAndExpireStale) {
  Stage0Config config = FlatConfig();
  config.ttl_s = 10.0;
  Stage0ResponseCache cache(SharedEmbedder(), config);
  const Request stored = MakeRequest(1, "cached answer about the weather");
  ASSERT_NE(cache.Put(stored, 0.9, 80, /*now=*/0.0), 0u);

  const auto young = cache.Probe(MakeRequest(2, stored.text), /*now=*/5.0);
  ASSERT_TRUE(young.has_value());
  EXPECT_TRUE(young->fresh);
  EXPECT_TRUE(cache.Confident(*young));

  // Past the TTL the entry still surfaces (nearest neighbour) but is marked
  // stale, so the hit decision fails regardless of similarity.
  const auto old = cache.Probe(MakeRequest(3, stored.text), /*now=*/25.0);
  ASSERT_TRUE(old.has_value());
  EXPECT_FALSE(old->fresh);
  EXPECT_FALSE(cache.Confident(*old));

  EXPECT_EQ(cache.ExpireStale(/*now=*/25.0), 1u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.used_bytes(), 0);
}

TEST(Stage0CacheTest, QualityFeedbackInvalidatesBadEntries) {
  Stage0ResponseCache cache(SharedEmbedder(), FlatConfig());  // invalidate below 0.30
  const uint64_t id = cache.Put(MakeRequest(1, "stale answer"), 0.8, 60);
  ASSERT_NE(id, 0u);
  EXPECT_FALSE(cache.OnQualityFeedback(id, 0.75));  // fine: stays cached
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.OnQualityFeedback(id, 0.1));  // reuse went bad: evicted
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.OnQualityFeedback(id, 0.1));  // already gone
}

TEST(Stage0CacheTest, QualityGateRejectsBadResponses) {
  Stage0Config config = FlatConfig();
  config.min_admit_quality = 0.45;
  Stage0ResponseCache cache(SharedEmbedder(), config);
  EXPECT_EQ(cache.Put(MakeRequest(1, "low quality answer"), 0.2, 40), 0u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_NE(cache.Put(MakeRequest(2, "good answer"), 0.8, 40), 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(Stage0CacheTest, ThresholdLearnsFromProbeFeedback) {
  Stage0Config config = FlatConfig();
  config.learn_threshold = true;
  config.threshold_grid = {0.85, 0.95};
  config.adapt_every_n_requests = 4;
  config.initial_hit_threshold = 0.90;
  config.token_saving_weight = 0.0;
  Stage0ResponseCache cache(SharedEmbedder(), config);

  // Reuse at similarity 0.90 is much worse than fresh generation: the 0.85
  // cell accumulates negative net benefit while 0.95 (which would have
  // missed) stays at zero — the stricter threshold must win.
  for (int i = 0; i < 8; ++i) {
    cache.OnHitFeedback(/*similarity=*/0.90, /*reused=*/0.2, /*fresh=*/0.9, 0);
  }
  cache.AdvanceWindow(4);
  EXPECT_DOUBLE_EQ(cache.hit_threshold(), 0.95);

  // Flip the evidence: reuse at 0.90 beats fresh — loosen back to 0.85.
  for (int i = 0; i < 64; ++i) {
    cache.OnHitFeedback(/*similarity=*/0.90, /*reused=*/0.95, /*fresh=*/0.4, 0);
  }
  cache.AdvanceWindow(4);
  EXPECT_DOUBLE_EQ(cache.hit_threshold(), 0.85);
}

// The driver's hit floor: the learner's ceiling while learning, and the
// current threshold, which nothing moves, when learning is off.
TEST(Stage0CacheTest, HighestHitThresholdFollowsTheLearnerOnlyWhenLearning) {
  Stage0Config config = FlatConfig();
  config.threshold_grid = {0.85, 0.95};
  config.adapt_every_n_requests = 4;
  config.initial_hit_threshold = 0.90;
  Stage0ResponseCache fixed(SharedEmbedder(), config);
  config.learn_threshold = true;
  Stage0ResponseCache learning(SharedEmbedder(), config);
  for (size_t pending : {size_t{0}, size_t{3}, size_t{4}, size_t{100}}) {
    EXPECT_EQ(fixed.HighestHitThresholdAfter(pending), 0.90) << pending;
  }
  EXPECT_EQ(learning.HighestHitThresholdAfter(0), 0.90);
  EXPECT_EQ(learning.HighestHitThresholdAfter(3), 0.90);
  EXPECT_EQ(learning.HighestHitThresholdAfter(4), 0.95);

  Stage0Probe probe;
  probe.similarity = 0.95;
  EXPECT_TRUE(Stage0ResponseCache::Clears(probe, learning.HighestHitThresholdAfter(4)));
  EXPECT_TRUE(learning.Confident(probe));
  probe.fresh = false;
  EXPECT_FALSE(Stage0ResponseCache::Clears(probe, 0.0));
}

TEST(Stage0CacheTest, AdaptiveStateRoundTrips) {
  Stage0Config config = FlatConfig();
  config.learn_threshold = true;
  Stage0ResponseCache cache(SharedEmbedder(), config);
  cache.OnHitFeedback(0.96, 0.9, 0.5, 120);
  cache.AdvanceWindow(300);

  Stage0ResponseCache other(SharedEmbedder(), config);
  ASSERT_TRUE(other.mutable_learner()->Restore(cache.learner().state()));
  EXPECT_DOUBLE_EQ(other.hit_threshold(), cache.hit_threshold());
  const ThresholdLearnerState a = cache.learner().state();
  const ThresholdLearnerState b = other.learner().state();
  EXPECT_EQ(a.requests_seen, b.requests_seen);
  EXPECT_EQ(a.grid_benefit, b.grid_benefit);
  EXPECT_EQ(a.grid_count, b.grid_count);

  ThresholdLearnerState mismatched = a;
  mismatched.grid_benefit.push_back(0.0);
  EXPECT_FALSE(other.mutable_learner()->Restore(mismatched));
}

// A snapshot entry whose embedding the exact index rejects (wrong length) is
// refused whole: an entry kept without its vector could never hit, and the
// next save would count it in the header but write no record for it.
TEST(Stage0CacheTest, ImportRejectsAnEmbeddingTheIndexRejects) {
  Stage0ResponseCache cache(SharedEmbedder(), FlatConfig());
  Stage0Entry entry;
  entry.id = 7;
  entry.request = MakeRequest(1, "what is the boiling point of water");
  entry.response_tokens = 30;
  EXPECT_FALSE(cache.ImportEntry(entry, std::vector<float>(3, 0.5f)));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.used_bytes(), 0);
  EXPECT_EQ(cache.next_id(), 1u);
  EXPECT_TRUE(cache.ImportEntry(entry, SharedEmbedder()->Embed(entry.request.text)));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.next_id(), 8u);
}

// --- Regression: the unbounded / duplicate-accepting baseline ---------------

TEST(Stage0CacheTest, DuplicateInsertsMergeKeepingBetterResponse) {
  Stage0ResponseCache cache(SharedEmbedder(), FlatConfig());
  const Request req = MakeRequest(1, "how do i reverse a linked list");
  const uint64_t first = cache.Put(req, 0.6, 90);
  ASSERT_NE(first, 0u);
  // The old baseline appended a second entry per duplicate; now the insert
  // dedupes into the existing id and upgrades the stored response.
  const uint64_t second = cache.Put(MakeRequest(2, req.text), 0.9, 110);
  EXPECT_EQ(second, first);
  EXPECT_EQ(cache.size(), 1u);
  const auto probe = cache.Probe(req, 0.0);
  ASSERT_TRUE(probe.has_value());
  EXPECT_NEAR(probe->entry.response_quality, 0.9, 1e-9);
  EXPECT_EQ(probe->entry.response_tokens, 110);

  // A worse duplicate must NOT downgrade the cached response.
  EXPECT_EQ(cache.Put(MakeRequest(3, req.text), 0.3, 10), first);
  const auto after = cache.Probe(req, 0.0);
  ASSERT_TRUE(after.has_value());
  EXPECT_NEAR(after->entry.response_quality, 0.9, 1e-9);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(Stage0CacheTest, EntryBoundIsEnforcedOnInsert) {
  Stage0Config config = FlatConfig();
  config.max_entries = 8;
  Stage0ResponseCache cache(SharedEmbedder(), config);
  for (int i = 0; i < 64; ++i) {
    cache.Put(MakeRequest(100 + i, "distinct request number " + std::to_string(i)),
              0.5 + 0.005 * i, 40);
    EXPECT_LE(cache.size(), config.max_entries);
  }
  EXPECT_GT(cache.size(), 0u);
}

TEST(Stage0CacheTest, ByteBoundEvictsWorstFirstDeterministically) {
  Stage0Config config = FlatConfig();
  config.capacity_bytes = 2048;
  config.high_watermark = 1.0;
  config.low_watermark = 0.5;
  Stage0ResponseCache a(SharedEmbedder(), config);
  Stage0ResponseCache b(SharedEmbedder(), config);
  for (int i = 0; i < 48; ++i) {
    const Request req =
        MakeRequest(200 + i, "padded request text " + std::to_string(i * 7919), 32);
    a.Put(req, 0.4 + 0.01 * i, 64);
    b.Put(req, 0.4 + 0.01 * i, 64);
    ASSERT_LE(a.used_bytes(), config.capacity_bytes);
  }
  // Deterministic ranking: two caches fed identically evict identically.
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.used_bytes(), b.used_bytes());
  std::vector<uint64_t> ids_a;
  std::vector<uint64_t> ids_b;
  a.ExportEntries([&](const Stage0Entry& e, const std::vector<float>&) {
    ids_a.push_back(e.id);
  });
  b.ExportEntries([&](const Stage0Entry& e, const std::vector<float>&) {
    ids_b.push_back(e.id);
  });
  EXPECT_EQ(ids_a, ids_b);
}

// --- Regression: the -1.0 empty-cache sentinel -------------------------------

TEST(Stage0CacheTest, NearestSimilarityIsNulloptWhenEmpty) {
  Stage0ResponseCache cache(SharedEmbedder(), FlatConfig());
  EXPECT_FALSE(cache.NearestSimilarity(MakeRequest(1, "anything")).has_value());
  EXPECT_FALSE(cache.Probe(MakeRequest(1, "anything"), 0.0).has_value());
  cache.Put(MakeRequest(2, "now it has one entry"), 0.8, 30);
  const auto nearest = cache.NearestSimilarity(MakeRequest(3, "now it has one entry"));
  ASSERT_TRUE(nearest.has_value());
  EXPECT_NEAR(*nearest, 1.0, 1e-5);
}

// --- Regression: redundant re-embedding --------------------------------------

TEST(Stage0CacheTest, EmbeddingOverloadsMatchInternalEmbedding) {
  auto embedder = SharedEmbedder();
  Stage0ResponseCache cache(embedder, FlatConfig());
  cache.Put(MakeRequest(1, "first cached request"), 0.7, 40);
  cache.Put(MakeRequest(2, "second cached request"), 0.8, 50);

  const Request query = MakeRequest(9, "second cached request");
  const std::vector<float> embedding = embedder->Embed(query.text);

  const auto by_request = cache.Probe(query, 0.0);
  const auto by_embedding = cache.Probe(embedding, 0.0);
  ASSERT_TRUE(by_request.has_value());
  ASSERT_TRUE(by_embedding.has_value());
  EXPECT_EQ(by_request->entry.id, by_embedding->entry.id);
  EXPECT_DOUBLE_EQ(by_request->similarity, by_embedding->similarity);

  const auto sim_request = cache.NearestSimilarity(query);
  const auto sim_embedding = cache.NearestSimilarity(embedding);
  ASSERT_TRUE(sim_request.has_value());
  ASSERT_TRUE(sim_embedding.has_value());
  EXPECT_DOUBLE_EQ(*sim_request, *sim_embedding);

  const auto k_by_embedding = cache.ProbeK(embedding, 2, 0.0);
  EXPECT_EQ(k_by_embedding.size(), 2u);

  // Put with a caller-computed embedding lands identically to internal embed.
  Stage0ResponseCache via_embedding(embedder, FlatConfig());
  const Request stored = MakeRequest(3, "stored through the fast path");
  via_embedding.Put(stored, embedder->Embed(stored.text), "[cached-response]", 0.9, 60,
                    0.0);
  const auto hit = via_embedding.Probe(MakeRequest(4, stored.text), 0.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_NEAR(hit->similarity, 1.0, 1e-5);
}

// --- Driver integration: determinism and persistence -------------------------

DatasetProfile SmallProfile() {
  DatasetProfile profile = GetDatasetProfile(DatasetId::kLmsysChat);
  profile.example_pool_size = 300;
  profile.num_topics = 60;
  return profile;
}

// Duplicate-heavy trace: half the tail requests repeat an earlier request's
// text verbatim (fresh ids, original arrival times) so the stage-0 tier has
// real hits to serve.
std::vector<Request> DuplicateHeavyWorkload(size_t approx_requests = 400) {
  TraceConfig trace;
  trace.kind = TraceKind::kPoisson;
  trace.mean_rps = 4.0;
  trace.duration_s = static_cast<double>(approx_requests) / trace.mean_rps;
  trace.seed = kSeed ^ 0x7ace;
  std::vector<Request> requests =
      ServingDriver::MakeWorkload(SmallProfile(), trace, kSeed ^ 0x9e4);
  Rng rng(kSeed ^ 0xd0b1e);
  for (size_t i = requests.size() / 8; i < requests.size(); ++i) {
    if (!rng.Bernoulli(0.5)) {
      continue;
    }
    const Request& source = requests[rng.UniformInt(static_cast<uint64_t>(i))];
    Request& repeat = requests[i];
    repeat.text = source.text;
    repeat.dataset = source.dataset;
    repeat.task = source.task;
    repeat.topic_id = source.topic_id;
    repeat.intent_id = source.intent_id;
    repeat.difficulty = source.difficulty;
    repeat.input_tokens = source.input_tokens;
    repeat.target_output_tokens = source.target_output_tokens;
  }
  return requests;
}

DriverConfig Stage0DriverConfig() {
  DriverConfig config;
  config.batch_window = 32;
  config.cache.num_shards = 4;
  config.cache.cache.retrieval.kind = RetrievalBackendKind::kHnsw;
  config.stage0.enabled = true;
  config.stage0.adapt_every_n_requests = 64;  // threshold moves within the trace
  config.seed = kSeed;
  return config;
}

std::unique_ptr<ServingDriver> MakeDriver(const ModelCatalog& catalog,
                                          DriverConfig config) {
  auto driver = std::make_unique<ServingDriver>(config, &catalog);
  QueryGenerator seeder(SmallProfile(), kSeed ^ 0x5eedb);
  for (size_t i = 0; i < 200; ++i) {
    driver->SeedExample(seeder.Next(), 0.0);
  }
  return driver;
}

void ExpectSameDecisions(const DriverReport& a, const DriverReport& b) {
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(a.decisions[i].request_id, b.decisions[i].request_id) << "at " << i;
    EXPECT_EQ(a.decisions[i].model_name, b.decisions[i].model_name) << "at " << i;
    EXPECT_EQ(a.decisions[i].offloaded, b.decisions[i].offloaded) << "at " << i;
    EXPECT_EQ(a.decisions[i].num_examples, b.decisions[i].num_examples) << "at " << i;
    EXPECT_EQ(a.decisions[i].latent_quality, b.decisions[i].latent_quality) << "at " << i;
  }
}

void ExpectSameStage0Counts(const DriverReport& a, const DriverReport& b) {
  EXPECT_EQ(a.stage0_hits, b.stage0_hits);
  EXPECT_EQ(a.stage0_probes, b.stage0_probes);
  EXPECT_EQ(a.stage0_invalidations, b.stage0_invalidations);
  EXPECT_EQ(a.stage0_admitted, b.stage0_admitted);
  EXPECT_EQ(a.stage0_tokens_saved, b.stage0_tokens_saved);
  EXPECT_EQ(a.generated_tokens, b.generated_tokens);
}

// The tentpole's concurrency acceptance: with stage-0 on, the decision
// stream (including which requests hit the response tier) is byte-identical
// across the full {1, 8} threads x {1, 4} lanes matrix.
TEST(Stage0DriverTest, DecisionsAreThreadAndLaneCountInvariant) {
  const std::vector<Request> requests = DuplicateHeavyWorkload();
  ModelCatalog catalog;
  DriverConfig config = Stage0DriverConfig();

  std::vector<DriverReport> reports;
  std::vector<double> thresholds;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    for (size_t lanes : {size_t{1}, size_t{4}}) {
      config.num_threads = threads;
      config.commit_lanes = lanes;
      auto driver = MakeDriver(catalog, config);
      reports.push_back(driver->Run(requests));
      thresholds.push_back(driver->stage0().hit_threshold());
    }
  }
  for (size_t i = 1; i < reports.size(); ++i) {
    SCOPED_TRACE("variant " + std::to_string(i));
    ExpectSameDecisions(reports[0], reports[i]);
    ExpectSameStage0Counts(reports[0], reports[i]);
    EXPECT_EQ(thresholds[0], thresholds[i]);
  }
  // Non-vacuous: the tier genuinely served hits and saved generation.
  EXPECT_GT(reports[0].stage0_hits, 0u);
  EXPECT_GT(reports[0].stage0_admitted, 0u);
  EXPECT_GT(reports[0].stage0_tokens_saved, 0);
}

// Stage-0 hits cost zero generated tokens: the on-run generates strictly
// fewer tokens than the off-run over the same duplicate-heavy trace.
TEST(Stage0DriverTest, HitsEliminateGenerationCost) {
  const std::vector<Request> requests = DuplicateHeavyWorkload();
  ModelCatalog catalog;
  DriverConfig config = Stage0DriverConfig();
  config.num_threads = 4;

  const DriverReport on = MakeDriver(catalog, config)->Run(requests);
  config.stage0.enabled = false;
  const DriverReport off = MakeDriver(catalog, config)->Run(requests);

  EXPECT_GT(on.stage0_hits, 0u);
  EXPECT_EQ(off.stage0_hits, 0u);
  EXPECT_LT(on.generated_tokens, off.generated_tokens);
  // Every hit's decision row reports the response tier, not a model.
  size_t stage0_rows = 0;
  for (const DriverDecision& d : on.decisions) {
    if (d.model_name == "stage0-cache") {
      ++stage0_rows;
      EXPECT_EQ(d.num_examples, 0u);
      EXPECT_FALSE(d.offloaded);
    }
  }
  EXPECT_EQ(stage0_rows, on.stage0_hits);
}

// FNV-1a over every decision's id, model, offload flag, example count and
// latent-quality bits (the digest bench/perf prints per segment).
uint64_t DecisionDigest(const DriverReport& report) {
  uint64_t hash = 0xcbf29ce484222325ull;
  const auto mix = [&hash](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash = (hash ^ bytes[i]) * 0x100000001b3ull;
    }
  };
  for (const DriverDecision& decision : report.decisions) {
    const uint64_t examples = decision.num_examples;
    const unsigned char offloaded = decision.offloaded ? 1 : 0;
    uint64_t quality_bits = 0;
    std::memcpy(&quality_bits, &decision.latent_quality, sizeof(quality_bits));
    mix(&decision.request_id, sizeof(decision.request_id));
    mix(decision.model_name.data(), decision.model_name.size() + 1);  // with the NUL
    mix(&offloaded, 1);
    mix(&examples, sizeof(examples));
    mix(&quality_bits, sizeof(quality_bits));
  }
  return hash;
}

// Prepare proves a request a stage-0 hit when its probe clears the highest
// threshold the request's lane can judge it against, and skips its
// retrieval. A proven hit that the lane judged a miss aborts the run, and a
// request served differently moves the decisions digest, pinned from the
// driver before prepare skipped anything (one value at both kernel levels).
// The trace crosses six threshold re-evaluations (every 64 requests, in
// 32-request windows), so half the windows are prepared under the grid
// maximum, and the threshold itself moves.
TEST(Stage0DriverTest, ProvenHitsSkipRetrievalWithoutMovingADecision) {
  constexpr uint64_t kPinnedDigest = 0x32043da359894784ull;
  const std::vector<Request> requests = DuplicateHeavyWorkload();
  ModelCatalog catalog;
  DriverConfig config = Stage0DriverConfig();
  ASSERT_GE(requests.size(), 2 * config.stage0.adapt_every_n_requests);

  std::vector<size_t> skips;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (size_t chunk : {size_t{1}, size_t{16}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " chunk=" + std::to_string(chunk));
      config.num_threads = threads;
      config.prepare_chunk = chunk;
      auto driver = MakeDriver(catalog, config);
      const DriverReport report = driver->Run(requests);
      EXPECT_EQ(DecisionDigest(report), kPinnedDigest)
          << std::hex << "digest 0x" << DecisionDigest(report);
      EXPECT_NE(driver->stage0().hit_threshold(), config.stage0.initial_hit_threshold);
      EXPECT_GT(report.stage0_retrieval_skips, 0u);
      EXPECT_LE(report.stage0_retrieval_skips, report.stage0_hits);
      EXPECT_EQ(driver->metrics_hub().Value("stage0_retrieval_skips_total"),
                static_cast<double>(report.stage0_retrieval_skips));
      skips.push_back(report.stage0_retrieval_skips);
    }
  }
  for (size_t i = 1; i < skips.size(); ++i) {
    EXPECT_EQ(skips[i], skips[0]) << "variant " << i;
  }

  config.stage0.enabled = false;
  const DriverReport off = MakeDriver(catalog, config)->Run(requests);
  EXPECT_EQ(off.stage0_hits, 0u);
  EXPECT_EQ(off.stage0_retrieval_skips, 0u);
}

// Snapshot -> restore -> serve parity: a driver restored mid-trace (stage-0
// section included) serves the suffix byte-identically to the uninterrupted
// driver. Without the stage-0 section the restored run would miss where the
// warm cache hits.
TEST(Stage0DriverTest, RestoredStage0ServesSuffixIdentically) {
  const std::vector<Request> requests = DuplicateHeavyWorkload(480);
  const size_t split = 256;  // batch-window multiple
  const std::vector<Request> prefix(requests.begin(), requests.begin() + split);
  const std::vector<Request> suffix(requests.begin() + split, requests.end());
  ModelCatalog catalog;
  const std::string path = testing::TempDir() + "iccache_stage0_" +
                           std::to_string(::getpid()) + ".snap";

  for (size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    DriverConfig config = Stage0DriverConfig();
    config.num_threads = threads;

    auto uninterrupted = MakeDriver(catalog, config);
    const DriverReport a1 = uninterrupted->Run(prefix);
    const DriverReport a2 = uninterrupted->Run(suffix);

    auto writer = MakeDriver(catalog, config);
    const DriverReport b1 = writer->Run(prefix);
    ExpectSameDecisions(a1, b1);
    ASSERT_GT(b1.stage0_hits, 0u);  // the snapshotted cache is genuinely warm
    ASSERT_TRUE(writer->SaveSnapshot(path).ok());
    const size_t entries_at_snapshot = writer->stage0().size();
    const int64_t bytes_at_snapshot = writer->stage0().used_bytes();
    const double threshold_at_snapshot = writer->stage0().hit_threshold();
    ASSERT_GT(entries_at_snapshot, 0u);
    writer.reset();

    // Restarted process: NO re-seeding — the snapshot carries the example
    // pool AND the stage-0 section.
    auto restored = std::make_unique<ServingDriver>(config, &catalog);
    const Status restore_status = restored->RestoreSnapshot(path);
    ASSERT_TRUE(restore_status.ok()) << restore_status.ToString();
    EXPECT_EQ(restored->stage0().size(), entries_at_snapshot);
    EXPECT_EQ(restored->stage0().used_bytes(), bytes_at_snapshot);
    EXPECT_EQ(restored->stage0().hit_threshold(), threshold_at_snapshot);

    const DriverReport c2 = restored->Run(suffix);
    ExpectSameDecisions(a2, c2);
    ExpectSameStage0Counts(a2, c2);
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace iccache
