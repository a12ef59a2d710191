#include "src/core/sharded_cache.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "src/common/binio.h"
#include "src/common/mathutil.h"
#include "src/common/rng.h"

namespace iccache {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

size_t Log2(size_t pow2) {
  size_t bits = 0;
  while ((size_t{1} << bits) < pow2) {
    ++bits;
  }
  return bits;
}

}  // namespace

ShardedExampleCache::ShardedExampleCache(std::shared_ptr<const Embedder> embedder,
                                         ShardedCacheConfig config)
    : embedder_(std::move(embedder)), config_(config) {
  const size_t n = RoundUpPow2(std::max<size_t>(1, config.num_shards));
  shard_bits_ = Log2(n);
  shard_mask_ = n - 1;

  // Shards are unbounded: the byte budget is global (watermark accounting in
  // this wrapper), so a hot shard may use more than an even split.
  ExampleCacheConfig shard_config = config.cache;
  shard_config.capacity_bytes = -1;
  shards_ = std::vector<Shard>(n);
  for (size_t i = 0; i < n; ++i) {
    ExampleCacheConfig c = shard_config;
    c.seed = Mix64(shard_config.seed ^ (0x5a4dull + i));
    shards_[i].cache = std::make_unique<ExampleCache>(embedder_, c);
  }
}

size_t ShardedExampleCache::ShardOfRequest(const Request& request) const {
  return static_cast<size_t>(Mix64(request.id ^ 0x9e3779b97f4a7c15ull) & shard_mask_);
}

uint64_t ShardedExampleCache::Put(const Request& request, std::string response_text,
                                  double response_quality, double source_capability,
                                  int response_tokens, double now) {
  PreparedAdmission prepared = PrepareAdmission(request);
  return PutPrepared(request, std::move(prepared), std::move(response_text), response_quality,
                     source_capability, response_tokens, now);
}

PreparedAdmission ShardedExampleCache::PrepareAdmission(
    const Request& request, const std::vector<float>* text_embedding) const {
  return PrepareAdmissionPayload(scrubber_, config_.cache.admission_mode, *embedder_, request,
                                 text_embedding);
}

uint64_t ShardedExampleCache::PutPrepared(const Request& request, PreparedAdmission prepared,
                                          std::string response_text, double response_quality,
                                          double source_capability, int response_tokens,
                                          double now) {
  if (!prepared.admit) {
    return 0;
  }
  const size_t shard = ShardOfRequest(request);
  uint64_t inner = 0;
  {
    std::unique_lock<std::shared_mutex> lock(shards_[shard].mu);
    const int64_t before = shards_[shard].cache->used_bytes();
    inner = shards_[shard].cache->PutPrepared(
        request, std::move(prepared.sanitized_text), std::move(prepared.embedding),
        std::move(response_text), response_quality, source_capability, response_tokens, now);
    used_bytes_total_.fetch_add(shards_[shard].cache->used_bytes() - before,
                                std::memory_order_relaxed);
  }
  // Automatic capacity enforcement past the high watermark (the shard lock is
  // released first: EnforceCapacity re-locks every shard in turn). Suspended
  // while a commit pipeline publishes a window from several lanes at once
  // (set_defer_capacity): the publisher runs one deterministic enforcement
  // after the lanes join instead.
  const int64_t capacity = config_.cache.capacity_bytes;
  if (capacity > 0 && !defer_capacity_.load(std::memory_order_relaxed) &&
      static_cast<double>(used_bytes()) >
          static_cast<double>(capacity) * config_.cache.high_watermark) {
    EnforceCapacity();
  }
  return GlobalId(inner, shard);
}

std::vector<SearchResult> ShardedExampleCache::FindSimilar(const Request& request,
                                                           size_t k) const {
  return FindSimilar(embedder_->Embed(request.text), k);
}

std::vector<SearchResult> ShardedExampleCache::FindSimilar(const std::vector<float>& embedding,
                                                           size_t k) const {
  std::vector<SearchResult> merged;
  merged.reserve(k * shards_.size());
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    std::shared_lock<std::shared_mutex> lock(shards_[shard].mu);
    for (SearchResult result : shards_[shard].cache->FindSimilar(embedding, k)) {
      result.id = GlobalId(result.id, shard);
      merged.push_back(result);
    }
  }
  std::sort(merged.begin(), merged.end(), [](const SearchResult& a, const SearchResult& b) {
    if (a.score != b.score) {
      return a.score > b.score;
    }
    return a.id < b.id;  // deterministic tie-break
  });
  if (merged.size() > k) {
    merged.resize(k);
  }
  return merged;
}

void ShardedExampleCache::FindSimilarBatch(const float* queries, size_t num_queries,
                                           size_t query_dim, size_t k, SearchScratch* scratch,
                                           std::vector<std::vector<SearchResult>>* out) const {
  out->resize(num_queries);
  for (auto& merged : *out) {
    merged.clear();  // capacity retained: steady-state batches do not allocate
  }
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    std::shared_lock<std::shared_mutex> lock(shards_[shard].mu);
    shards_[shard].cache->index().SearchBatch(queries, num_queries, query_dim, k, scratch);
    for (size_t i = 0; i < num_queries; ++i) {
      const SearchResult* results = scratch->ResultsOf(i);
      for (size_t r = 0; r < scratch->ResultCountOf(i); ++r) {
        SearchResult global = results[r];
        global.id = GlobalId(global.id, shard);
        (*out)[i].push_back(global);
      }
    }
  }
  for (auto& merged : *out) {
    std::sort(merged.begin(), merged.end(), [](const SearchResult& a, const SearchResult& b) {
      if (a.score != b.score) {
        return a.score > b.score;
      }
      return a.id < b.id;  // deterministic tie-break
    });
    if (merged.size() > k) {
      merged.resize(k);
    }
  }
}

bool ShardedExampleCache::Snapshot(uint64_t id, Example* out,
                                   std::vector<float>* embedding) const {
  const size_t shard = ShardOfId(id);
  std::shared_lock<std::shared_mutex> lock(shards_[shard].mu);
  if (!shards_[shard].cache->Snapshot(InnerId(id), out, embedding)) {
    return false;
  }
  out->id = id;  // expose the global id, not the shard-internal one
  return true;
}

bool ShardedExampleCache::Contains(uint64_t id) const {
  const size_t shard = ShardOfId(id);
  std::shared_lock<std::shared_mutex> lock(shards_[shard].mu);
  return shards_[shard].cache->Get(InnerId(id)) != nullptr;
}

bool ShardedExampleCache::Remove(uint64_t id) {
  const size_t shard = ShardOfId(id);
  std::unique_lock<std::shared_mutex> lock(shards_[shard].mu);
  const int64_t before = shards_[shard].cache->used_bytes();
  const bool removed = shards_[shard].cache->Remove(InnerId(id));
  used_bytes_total_.fetch_add(shards_[shard].cache->used_bytes() - before,
                              std::memory_order_relaxed);
  return removed;
}

bool ShardedExampleCache::UpdateExample(uint64_t id,
                                        const std::function<void(Example&)>& mutate) {
  const size_t shard = ShardOfId(id);
  std::unique_lock<std::shared_mutex> lock(shards_[shard].mu);
  const int64_t before = shards_[shard].cache->used_bytes();
  const bool updated = shards_[shard].cache->UpdateExample(InnerId(id), mutate);
  used_bytes_total_.fetch_add(shards_[shard].cache->used_bytes() - before,
                              std::memory_order_relaxed);
  return updated;
}

void ShardedExampleCache::RecordAccess(uint64_t id, double now) {
  const size_t shard = ShardOfId(id);
  std::unique_lock<std::shared_mutex> lock(shards_[shard].mu);
  shards_[shard].cache->RecordAccess(InnerId(id), now);
}

void ShardedExampleCache::RecordOffload(uint64_t id, double gain) {
  const size_t shard = ShardOfId(id);
  std::unique_lock<std::shared_mutex> lock(shards_[shard].mu);
  shards_[shard].cache->RecordOffload(InnerId(id), gain);
}

void ShardedExampleCache::DecayTick() {
  for (Shard& shard : shards_) {
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    shard.cache->DecayTick();
  }
}

std::vector<uint64_t> ShardedExampleCache::EnforceCapacity() {
  std::vector<uint64_t> evicted;
  const int64_t capacity = config_.cache.capacity_bytes;
  const int64_t total = used_bytes();
  // Evict once usage passes the high watermark; a watermark above 1.0 (used
  // by tests to disable auto-eviction) still enforces at the capacity line.
  const double trigger = static_cast<double>(capacity) *
                         std::min(1.0, config_.cache.high_watermark);
  if (capacity <= 0 || static_cast<double>(total) <= trigger) {
    return evicted;
  }
  const double target = static_cast<double>(capacity) *
                        Clamp(config_.cache.low_watermark, 0.1, 1.0);
  // Apportion the global target across shards in proportion to their usage:
  // a hot shard keeps a larger slice of the budget than a cold one.
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    std::unique_lock<std::shared_mutex> lock(shards_[shard].mu);
    const int64_t before = shards_[shard].cache->used_bytes();
    const int64_t shard_target = static_cast<int64_t>(
        target * static_cast<double>(before) / static_cast<double>(total));
    for (uint64_t inner : shards_[shard].cache->EvictToBytes(shard_target)) {
      evicted.push_back(GlobalId(inner, shard));
    }
    used_bytes_total_.fetch_add(shards_[shard].cache->used_bytes() - before,
                                std::memory_order_relaxed);
  }
  evicted_total_.fetch_add(evicted.size(), std::memory_order_relaxed);
  return evicted;
}

size_t ShardedExampleCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    total += shard.cache->size();
  }
  return total;
}

std::vector<uint64_t> ShardedExampleCache::AllIds() const {
  std::vector<uint64_t> ids;
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    std::shared_lock<std::shared_mutex> lock(shards_[shard].mu);
    for (uint64_t inner : shards_[shard].cache->AllIds()) {
      ids.push_back(GlobalId(inner, shard));
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

MaintenanceCut ShardedExampleCache::ExportMaintenanceCut() const {
  // Every shard lock, shared, ascending (same discipline as
  // StreamSnapshotCut): the records and byte counts form one epoch-consistent
  // view even while other threads serve.
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    locks.emplace_back(shard.mu);
  }

  MaintenanceCut cut;
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    const ExampleCache& cache = *shards_[shard].cache;
    for (uint64_t inner : cache.AllIds()) {
      Example copy = *cache.Get(inner);
      copy.id = GlobalId(inner, shard);
      cut.examples.push_back(std::move(copy));
    }
    cut.used_bytes += cache.used_bytes();
  }
  std::sort(cut.examples.begin(), cut.examples.end(),
            [](const Example& a, const Example& b) { return a.id < b.id; });
  cut.capacity_bytes = config_.cache.capacity_bytes;
  cut.high_watermark = config_.cache.high_watermark;
  cut.low_watermark = config_.cache.low_watermark;
  cut.decay_factor = config_.cache.decay_factor;
  return cut;
}

Status ShardedExampleCache::StreamSnapshotCut(StoreSnapshotSink* sink) const {
  // Every shard lock, shared, in ascending order (writers take one unique
  // shard lock at a time, so this cannot deadlock): until the stream ends no
  // admission, mutation, or eviction can slip between the example records,
  // the graph images, the insertion counters, and the byte counts.
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    locks.emplace_back(shard.mu);
  }

  StoreCutSummary summary;
  std::vector<uint64_t> ids;
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    const ExampleCache& cache = *shards_[shard].cache;
    for (uint64_t inner : cache.AllIds()) {
      ids.push_back(GlobalId(inner, shard));
    }
    summary.next_ids.push_back(cache.ExportNextIds()[0]);
    summary.used_bytes += cache.used_bytes();
  }
  std::sort(ids.begin(), ids.end());
  summary.example_count = ids.size();
  sink->Begin(summary);

  std::vector<float> embedding;
  for (uint64_t id : ids) {
    const ExampleCache& cache = *shards_[ShardOfId(id)].cache;
    embedding.clear();
    cache.index().GetVector(InnerId(id), &embedding);
    sink->AddExample(id, *cache.Get(InnerId(id)), embedding);
  }

  if (!HasNativeIndex()) {
    return Status::Ok();
  }
  ByteWriter* out = sink->IndexImage();
  out->PutU64(shards_.size());
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    const HnswIndex& graph = *shards_[shard].cache->native_index();
    const uint64_t length = graph.GraphImageSize();
    out->PutU64(length);
    const size_t start = out->size();
    graph.SaveGraph(out);
    if (out->size() - start != length) {
      return Status::Internal("shard " + std::to_string(shard) + " graph image wrote " +
                              std::to_string(out->size() - start) + " bytes, promised " +
                              std::to_string(length));
    }
  }
  return Status::Ok();
}

bool ShardedExampleCache::ImportExample(const Example& example, std::vector<float> embedding,
                                        bool add_to_index) {
  const uint64_t inner = InnerId(example.id);
  if (inner == 0) {
    return false;  // id 0 is the rejection sentinel; low bits alone are no id
  }
  const size_t shard = ShardOfId(example.id);
  Example local = example;
  local.id = inner;
  std::unique_lock<std::shared_mutex> lock(shards_[shard].mu);
  const int64_t before = shards_[shard].cache->used_bytes();
  const bool imported =
      shards_[shard].cache->ImportExample(local, std::move(embedding), add_to_index);
  used_bytes_total_.fetch_add(shards_[shard].cache->used_bytes() - before,
                              std::memory_order_relaxed);
  return imported;
}

std::vector<uint64_t> ShardedExampleCache::ExportNextIds() const {
  std::vector<uint64_t> next_ids;
  next_ids.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    next_ids.push_back(shard.cache->ExportNextIds()[0]);
  }
  return next_ids;
}

bool ShardedExampleCache::ImportNextIds(const std::vector<uint64_t>& next_ids) {
  if (next_ids.size() != shards_.size()) {
    return false;  // shard count changed; keep the max(id)+1 counters
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::unique_lock<std::shared_mutex> lock(shards_[i].mu);
    shards_[i].cache->ImportNextIds({next_ids[i]});
  }
  return true;
}

bool ShardedExampleCache::LoadIndexBlob(std::string_view blob) {
  ByteReader reader(blob);
  const uint64_t shard_count = reader.GetU64();
  if (!reader.ok() || shard_count != shards_.size()) {
    return false;  // snapshot taken under a different shard count: rebuild
  }
  // Split first so a malformed trailing sub-blob is detected before any
  // shard is touched; a per-shard graph mismatch after that point still
  // reports false and the rebuild fallback overwrites cleanly.
  std::vector<std::string_view> per_shard;
  per_shard.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    per_shard.push_back(reader.GetStringView());
  }
  if (!reader.ok() || !reader.AtEnd()) {
    return false;
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::unique_lock<std::shared_mutex> lock(shards_[i].mu);
    if (!shards_[i].cache->LoadIndexBlob(per_shard[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace iccache
