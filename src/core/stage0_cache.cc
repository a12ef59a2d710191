#include "src/core/stage0_cache.h"

#include <algorithm>
#include <utility>

#include "src/obs/trace.h"

namespace iccache {

Stage0ResponseCache::Stage0ResponseCache(std::shared_ptr<const Embedder> embedder,
                                         Stage0Config config)
    : embedder_(std::move(embedder)),
      config_(std::move(config)),
      index_(embedder_->dim()),
      hit_threshold_(config_.initial_hit_threshold),
      grid_benefit_(config_.threshold_grid.size(), 0.0),
      grid_count_(config_.threshold_grid.size(), 0) {}

const Stage0Entry* Stage0ResponseCache::Nearest(const std::vector<float>& embedding,
                                                double* similarity) const {
  const std::vector<SearchResult> results = index_.Search(embedding, 1);
  if (results.empty()) {
    return nullptr;
  }
  const auto it = entries_.find(results[0].id);
  if (it == entries_.end()) {
    return nullptr;
  }
  *similarity = results[0].score;
  return &it->second;
}

std::optional<Stage0Probe> Stage0ResponseCache::Probe(const std::vector<float>& embedding,
                                                      double now) const {
  // arg0: 1 when a nearest entry was found, arg1: 1 when it was also fresh.
  TraceSpan span(TraceCategory::kStage0Probe);
  double similarity = 0.0;
  const Stage0Entry* nearest = Nearest(embedding, &similarity);
  if (nearest == nullptr) {
    return std::nullopt;
  }
  Stage0Probe probe;
  probe.entry = *nearest;
  probe.similarity = similarity;
  probe.fresh = config_.ttl_s <= 0.0 || now - nearest->admitted_time <= config_.ttl_s;
  span.SetArgs(1, probe.fresh ? 1 : 0);
  return probe;
}

std::optional<Stage0Probe> Stage0ResponseCache::Probe(const Request& request, double now) const {
  return Probe(embedder_->Embed(request.text), now);
}

void Stage0ResponseCache::ProbeBatch(const float* embeddings, size_t num_queries,
                                     size_t query_dim, const double* nows,
                                     SearchScratch* scratch,
                                     std::vector<std::optional<Stage0Probe>>* out) const {
  out->assign(num_queries, std::nullopt);
  if (num_queries == 0) {
    return;
  }
  index_.SearchBatch(embeddings, num_queries, query_dim, /*k=*/1, scratch);
  for (size_t i = 0; i < num_queries; ++i) {
    // Same span shape as Probe: arg0 = found, arg1 = fresh.
    TraceSpan span(TraceCategory::kStage0Probe);
    if (scratch->ResultCountOf(i) == 0) {
      continue;
    }
    const SearchResult& top = scratch->ResultsOf(i)[0];
    const auto it = entries_.find(top.id);
    if (it == entries_.end()) {
      continue;
    }
    Stage0Probe probe;
    probe.entry = it->second;
    probe.similarity = top.score;
    probe.fresh =
        config_.ttl_s <= 0.0 || nows[i] - it->second.admitted_time <= config_.ttl_s;
    span.SetArgs(1, probe.fresh ? 1 : 0);
    (*out)[i] = std::move(probe);
  }
}

std::vector<Stage0Probe> Stage0ResponseCache::ProbeK(const std::vector<float>& embedding,
                                                     size_t k, double now) const {
  std::vector<Stage0Probe> probes;
  for (const SearchResult& result : index_.Search(embedding, k)) {
    const auto it = entries_.find(result.id);
    if (it == entries_.end()) {
      continue;
    }
    Stage0Probe probe;
    probe.entry = it->second;
    probe.similarity = result.score;
    probe.fresh = config_.ttl_s <= 0.0 || now - it->second.admitted_time <= config_.ttl_s;
    if (!probe.fresh) {
      continue;
    }
    probes.push_back(std::move(probe));
  }
  return probes;
}

std::optional<double> Stage0ResponseCache::NearestSimilarity(
    const std::vector<float>& embedding) const {
  const std::vector<SearchResult> results = index_.Search(embedding, 1);
  if (results.empty()) {
    return std::nullopt;
  }
  return results[0].score;
}

std::optional<double> Stage0ResponseCache::NearestSimilarity(const Request& request) const {
  return NearestSimilarity(embedder_->Embed(request.text));
}

uint64_t Stage0ResponseCache::Put(const Request& request, std::vector<float> embedding,
                                  std::string response_text, double response_quality,
                                  int response_tokens, double now,
                                  const Stage0DedupeHint* dedupe_hint) {
  if (response_quality < config_.min_admit_quality) {
    return 0;
  }

  // Dedupe: byte-identical text always merges; otherwise a near-exact
  // neighbour (paraphrase-of-a-paraphrase traffic) absorbs the insert. The
  // stored response only changes when the new one is better — repeated
  // traffic must not degrade a good cached answer — but recency is always
  // refreshed: the entry just proved it matches live traffic.
  uint64_t existing_id = 0;
  const auto exact = id_by_text_.find(request.text);
  if (exact != id_by_text_.end()) {
    existing_id = exact->second;
  } else if (dedupe_hint != nullptr) {
    // Prepare-phase hint: no index search on the serial path. Revalidate —
    // the hinted entry may have been evicted since the probe.
    if (dedupe_hint->id != 0 && dedupe_hint->similarity >= config_.dedupe_min_similarity &&
        entries_.count(dedupe_hint->id) > 0) {
      existing_id = dedupe_hint->id;
    }
  } else {
    double similarity = 0.0;
    const Stage0Entry* nearest = Nearest(embedding, &similarity);
    if (nearest != nullptr && similarity >= config_.dedupe_min_similarity) {
      existing_id = nearest->id;
    }
  }
  if (existing_id != 0) {
    Stage0Entry& entry = entries_[existing_id];
    entry.admitted_time = now;
    if (response_quality > entry.response_quality) {
      used_bytes_ -= entry.SizeBytes();
      entry.response_text = std::move(response_text);
      entry.response_quality = response_quality;
      entry.response_tokens = response_tokens;
      used_bytes_ += entry.SizeBytes();
    }
    return existing_id;
  }

  const uint64_t id = next_id_++;
  Stage0Entry entry;
  entry.id = id;
  entry.request = request;
  entry.response_text = std::move(response_text);
  entry.response_quality = response_quality;
  entry.response_tokens = response_tokens;
  entry.admitted_time = now;
  used_bytes_ += entry.SizeBytes();
  id_by_text_[entry.request.text] = id;
  entries_[id] = std::move(entry);
  index_.Add(id, std::move(embedding));
  EnforceBounds();
  return entries_.count(id) > 0 ? id : 0;
}

uint64_t Stage0ResponseCache::Put(const Request& request, double response_quality,
                                  int response_tokens, double now) {
  return Put(request, embedder_->Embed(request.text), "[cached-response]", response_quality,
             response_tokens, now);
}

void Stage0ResponseCache::RecordHit(uint64_t id, double now) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) {
    return;
  }
  ++it->second.hit_count;
  it->second.last_hit_time = now;
}

bool Stage0ResponseCache::RemoveEntry(uint64_t id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) {
    return false;
  }
  used_bytes_ -= it->second.SizeBytes();
  const auto text_it = id_by_text_.find(it->second.request.text);
  if (text_it != id_by_text_.end() && text_it->second == id) {
    id_by_text_.erase(text_it);
  }
  index_.Remove(id);
  entries_.erase(it);
  return true;
}

bool Stage0ResponseCache::Invalidate(uint64_t id) { return RemoveEntry(id); }

bool Stage0ResponseCache::OnQualityFeedback(uint64_t id, double observed_reuse_quality) {
  if (observed_reuse_quality >= config_.invalidate_below_quality) {
    return false;
  }
  return RemoveEntry(id);
}

size_t Stage0ResponseCache::ExpireStale(double now) {
  if (config_.ttl_s <= 0.0) {
    return 0;
  }
  std::vector<uint64_t> stale;
  for (const auto& [id, entry] : entries_) {
    if (now - entry.admitted_time > config_.ttl_s) {
      stale.push_back(id);
    }
  }
  std::sort(stale.begin(), stale.end());
  for (uint64_t id : stale) {
    RemoveEntry(id);
  }
  return stale.size();
}

void Stage0ResponseCache::EnforceBounds() {
  const bool over_entries = config_.max_entries > 0 && entries_.size() > config_.max_entries;
  const bool over_bytes =
      config_.capacity_bytes > 0 &&
      static_cast<double>(used_bytes_) >
          static_cast<double>(config_.capacity_bytes) * std::min(1.0, config_.high_watermark);
  if (!over_entries && !over_bytes) {
    return;
  }
  // Deterministic worst-first ranking: least recently useful (older of
  // last-hit/admission), then lower quality, then older id. A plain total
  // order — not a knapsack — keeps the insert path O(n log n) worst case and
  // identical across runs.
  struct Ranked {
    uint64_t id;
    double last_use;
    double quality;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) {
    ranked.push_back({id, std::max(entry.admitted_time, entry.last_hit_time),
                      entry.response_quality});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.last_use != b.last_use) {
      return a.last_use < b.last_use;
    }
    if (a.quality != b.quality) {
      return a.quality < b.quality;
    }
    return a.id < b.id;
  });
  const size_t entry_target =
      config_.max_entries > 0 ? config_.max_entries : entries_.size();
  const double byte_target =
      config_.capacity_bytes > 0
          ? static_cast<double>(config_.capacity_bytes) * std::min(1.0, config_.low_watermark)
          : static_cast<double>(used_bytes_);
  for (const Ranked& victim : ranked) {
    if (entries_.size() <= entry_target && static_cast<double>(used_bytes_) <= byte_target) {
      break;
    }
    if (entries_.size() <= 1) {
      break;  // never evict the entry just inserted down to an empty cache
    }
    RemoveEntry(victim.id);
  }
}

void Stage0ResponseCache::OnHitFeedback(double similarity, double reused_quality,
                                        double fresh_quality, int tokens_saved) {
  for (size_t g = 0; g < config_.threshold_grid.size(); ++g) {
    if (similarity >= config_.threshold_grid[g]) {
      grid_benefit_[g] += (reused_quality - fresh_quality) +
                          config_.token_saving_weight * static_cast<double>(tokens_saved);
    }
    // A cell the similarity does not clear would have generated fresh: zero
    // net benefit, but the sample still counts so cell means are comparable.
    ++grid_count_[g];
  }
}

void Stage0ResponseCache::AdvanceWindow(size_t requests) {
  if (requests == 0 || !config_.learn_threshold) {
    return;
  }
  const uint64_t before = requests_seen_;
  requests_seen_ += requests;
  if (config_.adapt_every_n_requests == 0) {
    return;
  }
  const uint64_t n = config_.adapt_every_n_requests;
  if (before / n != requests_seen_ / n) {
    AdaptThresholdFromGrid();
  }
}

void Stage0ResponseCache::AdaptThresholdFromGrid() {
  double best_benefit = -1e300;
  double best_threshold = hit_threshold_;
  bool any = false;
  for (size_t g = 0; g < config_.threshold_grid.size(); ++g) {
    if (grid_count_[g] == 0) {
      continue;
    }
    const double mean_benefit = grid_benefit_[g] / static_cast<double>(grid_count_[g]);
    if (mean_benefit > best_benefit) {
      best_benefit = mean_benefit;
      best_threshold = config_.threshold_grid[g];
      any = true;
    }
  }
  if (any) {
    hit_threshold_ = best_threshold;
  }
}

Stage0AdaptiveState Stage0ResponseCache::SaveAdaptiveState() const {
  Stage0AdaptiveState state;
  state.hit_threshold = hit_threshold_;
  state.requests_seen = requests_seen_;
  state.grid_benefit = grid_benefit_;
  state.grid_count = grid_count_;
  return state;
}

bool Stage0ResponseCache::RestoreAdaptiveState(const Stage0AdaptiveState& state) {
  if (state.grid_benefit.size() != config_.threshold_grid.size() ||
      state.grid_count.size() != config_.threshold_grid.size()) {
    return false;
  }
  hit_threshold_ = state.hit_threshold;
  requests_seen_ = state.requests_seen;
  grid_benefit_ = state.grid_benefit;
  grid_count_ = state.grid_count;
  return true;
}

void Stage0ResponseCache::ExportEntries(
    const std::function<void(const Stage0Entry&, const std::vector<float>&)>& fn) const {
  std::vector<float> embedding;
  for (uint64_t id : index_.slot_ids()) {
    const float* vec = index_.Find(id);
    embedding.assign(vec, vec + index_.dim());
    fn(entries_.at(id), embedding);
  }
}

bool Stage0ResponseCache::ImportEntry(const Stage0Entry& entry, std::vector<float> embedding) {
  if (entry.id == 0 || entries_.count(entry.id) > 0) {
    return false;
  }
  used_bytes_ += entry.SizeBytes();
  id_by_text_[entry.request.text] = entry.id;
  entries_[entry.id] = entry;
  next_id_ = std::max(next_id_, entry.id + 1);
  index_.Add(entry.id, std::move(embedding));
  return true;
}

void Stage0ResponseCache::restore_next_id(uint64_t next_id) {
  next_id_ = std::max(next_id_, next_id);
}

}  // namespace iccache
