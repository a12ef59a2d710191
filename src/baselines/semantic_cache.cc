#include "src/baselines/semantic_cache.h"

#include <utility>

namespace iccache {
namespace {

Stage0Config BaselineConfig(double similarity_threshold, size_t max_entries) {
  Stage0Config config;
  config.enabled = true;
  config.initial_hit_threshold = similarity_threshold;
  config.learn_threshold = false;  // the baseline's threshold is a fixed knob
  config.ttl_s = 0.0;
  config.min_admit_quality = -1e300;  // the baseline caches every response
  config.max_entries = max_entries;
  config.capacity_bytes = -1;
  return config;
}

SemanticCacheHit ToHit(const Stage0Probe& probe) {
  SemanticCacheHit hit;
  hit.entry.request = probe.entry.request;
  hit.entry.response_quality = probe.entry.response_quality;
  hit.entry.response_tokens = probe.entry.response_tokens;
  hit.similarity = probe.similarity;
  return hit;
}

}  // namespace

SemanticCache::SemanticCache(std::shared_ptr<const Embedder> embedder,
                             double similarity_threshold, size_t max_entries)
    : cache_(std::move(embedder), BaselineConfig(similarity_threshold, max_entries)) {}

void SemanticCache::Put(const Request& request, double response_quality,
                        int response_tokens) {
  cache_.Put(request, response_quality, response_tokens);
}

std::optional<SemanticCacheHit> SemanticCache::Lookup(const Request& request) const {
  return Lookup(cache_.embedder()->Embed(request.text));
}

std::optional<SemanticCacheHit> SemanticCache::Lookup(
    const std::vector<float>& embedding) const {
  const std::optional<Stage0Probe> probe = cache_.Probe(embedding, /*now=*/0.0);
  if (!probe.has_value() || !cache_.Confident(*probe)) return std::nullopt;
  return ToHit(*probe);
}

std::vector<SemanticCacheHit> SemanticCache::LookupK(const Request& request, size_t k) const {
  return LookupK(cache_.embedder()->Embed(request.text), k);
}

std::vector<SemanticCacheHit> SemanticCache::LookupK(const std::vector<float>& embedding,
                                                     size_t k) const {
  std::vector<SemanticCacheHit> hits;
  for (const Stage0Probe& probe : cache_.ProbeK(embedding, k, /*now=*/0.0)) {
    if (probe.similarity < cache_.hit_threshold()) continue;
    hits.push_back(ToHit(probe));
  }
  return hits;
}

std::optional<double> SemanticCache::NearestSimilarity(const Request& request) const {
  return cache_.NearestSimilarity(request);
}

std::optional<double> SemanticCache::NearestSimilarity(
    const std::vector<float>& embedding) const {
  return cache_.NearestSimilarity(embedding);
}

}  // namespace iccache
