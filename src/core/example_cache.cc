#include "src/core/example_cache.h"

#include <algorithm>
#include <utility>

#include "src/common/knapsack.h"
#include "src/common/mathutil.h"

namespace iccache {

ExampleCache::ExampleCache(std::shared_ptr<const Embedder> embedder, ExampleCacheConfig config)
    : embedder_(std::move(embedder)),
      config_(config),
      index_(MakeRetrievalIndex(config.retrieval, embedder_->dim(), config.seed)) {}

uint64_t ExampleCache::Put(const Request& request, std::string response_text,
                           double response_quality, double source_capability, int response_tokens,
                           double now) {
  return PutPrepared(request, PrepareAdmission(request), std::move(response_text),
                     response_quality, source_capability, response_tokens, now);
}

PreparedAdmission ExampleCache::PrepareAdmission(const Request& request,
                                                 const std::vector<float>* text_embedding) const {
  return PrepareAdmissionPayload(scrubber_, config_.admission_mode, *embedder_, request,
                                 text_embedding);
}

uint64_t ExampleCache::PutPrepared(const Request& request, PreparedAdmission prepared,
                                   std::string response_text, double response_quality,
                                   double source_capability, int response_tokens, double now) {
  if (!prepared.admit) {
    return 0;
  }
  return PutPrepared(request, std::move(prepared.sanitized_text), std::move(prepared.embedding),
                     std::move(response_text), response_quality, source_capability,
                     response_tokens, now);
}

uint64_t ExampleCache::PutPrepared(const Request& request, std::string sanitized_text,
                                   std::vector<float> embedding, std::string response_text,
                                   double response_quality, double source_capability,
                                   int response_tokens, double now) {
  Example example;
  example.id = next_id_++;
  example.request = request;
  example.request.text = std::move(sanitized_text);
  example.response_text = std::move(response_text);
  example.response_quality = response_quality;
  example.source_capability = source_capability;
  example.response_tokens = response_tokens;
  example.admitted_time = now;
  example.last_access_time = now;
  // New examples start with replay gain proportional to their headroom.
  example.replay_gain_ema = (1.0 - response_quality);

  used_bytes_ += example.SizeBytes();
  index_->Add(example.id, std::move(embedding));
  examples_[example.id] = std::move(example);

  if (config_.capacity_bytes > 0 &&
      static_cast<double>(used_bytes_) >
          static_cast<double>(config_.capacity_bytes) * config_.high_watermark) {
    EnforceCapacity();
  }
  return next_id_ - 1;
}

std::vector<SearchResult> ExampleCache::FindSimilar(const Request& request, size_t k) const {
  return FindSimilar(embedder_->Embed(request.text), k);
}

std::vector<SearchResult> ExampleCache::FindSimilar(const std::vector<float>& embedding,
                                                    size_t k) const {
  return index_->Search(embedding, k);
}

void ExampleCache::FindSimilarBatch(const float* queries, size_t num_queries, size_t query_dim,
                                    size_t k, SearchScratch* scratch,
                                    std::vector<std::vector<SearchResult>>* out) const {
  index_->SearchBatch(queries, num_queries, query_dim, k, scratch);
  out->resize(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    const SearchResult* results = scratch->ResultsOf(i);
    (*out)[i].assign(results, results + scratch->ResultCountOf(i));
  }
}

const Example* ExampleCache::Get(uint64_t id) const {
  const auto it = examples_.find(id);
  return it == examples_.end() ? nullptr : &it->second;
}

Example* ExampleCache::GetMutable(uint64_t id) {
  const auto it = examples_.find(id);
  return it == examples_.end() ? nullptr : &it->second;
}

bool ExampleCache::Snapshot(uint64_t id, Example* out, std::vector<float>* embedding) const {
  const Example* example = Get(id);
  if (example == nullptr) {
    return false;
  }
  *out = *example;
  if (embedding != nullptr) {
    embedding->clear();
    if (StoresExactVectors(config_.retrieval)) {
      index_->GetVector(id, embedding);
    }
  }
  return true;
}

bool ExampleCache::Remove(uint64_t id) {
  const auto it = examples_.find(id);
  if (it == examples_.end()) {
    return false;
  }
  used_bytes_ -= it->second.SizeBytes();
  index_->Remove(id);
  examples_.erase(it);
  return true;
}

bool ExampleCache::UpdateExample(uint64_t id, const std::function<void(Example&)>& mutate) {
  Example* example = GetMutable(id);
  if (example == nullptr) {
    return false;
  }
  const int64_t before = example->SizeBytes();
  mutate(*example);
  used_bytes_ += example->SizeBytes() - before;
  return true;
}

void ExampleCache::RecordAccess(uint64_t id, double now) {
  Example* example = GetMutable(id);
  if (example == nullptr) {
    return;
  }
  ++example->access_count;
  example->last_access_time = now;
}

void ExampleCache::RecordOffload(uint64_t id, double gain) {
  Example* example = GetMutable(id);
  if (example == nullptr) {
    return;
  }
  example->offload_value += gain;
}

void ExampleCache::DecayTick() {
  for (auto& [id, example] : examples_) {
    example.offload_value *= config_.decay_factor;
    example.replay_gain_ema *= config_.decay_factor;
  }
}

std::vector<uint64_t> ExampleCache::EnforceCapacity() {
  // Evict once usage passes the high watermark; a watermark above 1.0 (used
  // by tests to disable auto-eviction) still enforces at the capacity line.
  const double trigger = static_cast<double>(config_.capacity_bytes) *
                         std::min(1.0, config_.high_watermark);
  if (config_.capacity_bytes <= 0 || static_cast<double>(used_bytes_) <= trigger) {
    return {};
  }
  return EvictToBytes(static_cast<int64_t>(static_cast<double>(config_.capacity_bytes) *
                                           Clamp(config_.low_watermark, 0.1, 1.0)));
}

std::vector<uint64_t> ExampleCache::EvictToBytes(int64_t target_bytes) {
  std::vector<uint64_t> evicted;
  if (used_bytes_ <= target_bytes) {
    return evicted;
  }

  // Knapsack over retained examples: weight = plaintext bytes, value =
  // decayed offload gain (with a small recency epsilon so fresh, not-yet-used
  // examples are not starved out immediately). Items are fed in ascending-id
  // order: the solver's tie-breaks depend on item order, so eviction must be
  // a function of pool CONTENTS, not of hash-map iteration history — a
  // snapshot-restored pool has to evict exactly what the original would.
  const std::vector<uint64_t> ids = AllIds();
  std::vector<KnapsackItem> items;
  items.reserve(ids.size());
  for (uint64_t id : ids) {
    const Example& example = examples_.at(id);
    KnapsackItem item;
    item.weight = example.SizeBytes();
    item.value = example.offload_value + 1e-3;
    items.push_back(item);
  }

  const KnapsackSolution solution = SolveKnapsack(items, target_bytes);
  std::vector<bool> keep(ids.size(), false);
  for (size_t idx : solution.selected) {
    keep[idx] = true;
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!keep[i]) {
      evicted.push_back(ids[i]);
      Remove(ids[i]);
    }
  }
  return evicted;
}

std::vector<uint64_t> ExampleCache::AllIds() const {
  std::vector<uint64_t> ids;
  ids.reserve(examples_.size());
  for (const auto& [id, example] : examples_) {
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

MaintenanceCut ExampleCache::ExportMaintenanceCut() const {
  MaintenanceCut cut;
  cut.examples.reserve(examples_.size());
  for (uint64_t id : AllIds()) {
    cut.examples.push_back(examples_.at(id));
  }
  cut.used_bytes = used_bytes_;
  cut.capacity_bytes = config_.capacity_bytes;
  cut.high_watermark = config_.high_watermark;
  cut.low_watermark = config_.low_watermark;
  cut.decay_factor = config_.decay_factor;
  return cut;
}

Status ExampleCache::StreamSnapshotCut(StoreSnapshotSink* sink) const {
  // Single-threaded by contract, so the piecewise reads already form a cut.
  StoreCutSummary summary;
  summary.example_count = examples_.size();
  summary.used_bytes = used_bytes_;
  summary.next_ids = ExportNextIds();
  sink->Begin(summary);
  std::vector<float> embedding;
  for (uint64_t id : AllIds()) {
    embedding.clear();
    index_->GetVector(id, &embedding);
    sink->AddExample(id, examples_.at(id), embedding);
  }
  if (const HnswIndex* graph = native_index()) {
    graph->SaveGraph(sink->IndexImage());
  }
  return Status::Ok();
}

bool ExampleCache::ImportExample(const Example& example, std::vector<float> embedding,
                                 bool add_to_index) {
  if (example.id == 0 || examples_.count(example.id) > 0) {
    return false;
  }
  used_bytes_ += example.SizeBytes();
  if (add_to_index) {
    index_->Add(example.id, std::move(embedding));
  }
  examples_[example.id] = example;
  next_id_ = std::max(next_id_, example.id + 1);
  return true;
}

std::vector<uint64_t> ExampleCache::ExportNextIds() const { return {next_id_}; }

bool ExampleCache::ImportNextIds(const std::vector<uint64_t>& next_ids) {
  if (next_ids.size() != 1) {
    return false;
  }
  next_id_ = std::max(next_id_, next_ids[0]);
  return true;
}

const HnswIndex* ExampleCache::native_index() const {
  return dynamic_cast<const HnswIndex*>(index_.get());
}

bool ExampleCache::LoadIndexBlob(std::string_view blob) {
  auto* hnsw = dynamic_cast<HnswIndex*>(index_.get());
  return hnsw != nullptr && hnsw->LoadGraph(blob);
}

}  // namespace iccache
