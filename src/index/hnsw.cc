#include "src/index/hnsw.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>
#include <queue>
#include <utility>

#include "src/common/binio.h"
#include "src/common/simd.h"
#include "src/obs/trace.h"

namespace iccache {

namespace {

// Hard cap on sampled levels; with mL = 1/ln(16) the probability of level 24
// is ~16^-24, so this only guards against pathological rng output.
constexpr int kMaxLevel = 24;

// Version of the SaveGraph byte layout; bump on incompatible change so stale
// graph images fall back to a rebuild instead of being misread.
//   v1: float arena only.
//   v2: adds a quantization-mode byte; quantized images carry the int8 code
//       arena plus per-slot scales instead of the float arena. v1 images are
//       still accepted by float-mode indexes.
constexpr uint32_t kGraphFormatVersion = 2;

// Process-wide rerank telemetry (relaxed: these are monotonic counters the
// driver reads as deltas; no ordering is implied with index state).
std::atomic<uint64_t> g_rerank_queries{0};
std::atomic<uint64_t> g_rerank_candidates{0};

inline void PrefetchLine(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p);
  __builtin_prefetch(static_cast<const char*>(p) + 64);
#else
  (void)p;
#endif
}

// Prefetches every cache line of [p, p + bytes): a 128-d float vector spans 8
// lines and the hardware stride prefetcher only kicks in after the first
// misses, so covering the whole span up front matters when the scoring pass
// runs a beam-step (or seven other queries' beam-steps) later.
inline void PrefetchSpan(const void* p, size_t bytes) {
#if defined(__GNUC__) || defined(__clang__)
  const char* c = static_cast<const char*>(p);
  for (size_t off = 0; off < bytes; off += 64) {
    __builtin_prefetch(c + off);
  }
#else
  (void)p;
  (void)bytes;
#endif
}

// Write-intent prefetch for the visited bookkeeping (the line will be dirtied
// by the epoch/mask store).
inline void PrefetchWrite(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 1);
#else
  (void)p;
#endif
}

}  // namespace

uint64_t HnswRerankQueriesTotal() { return g_rerank_queries.load(std::memory_order_relaxed); }
uint64_t HnswRerankCandidatesTotal() {
  return g_rerank_candidates.load(std::memory_order_relaxed);
}

HnswIndex::HnswIndex(HnswIndexConfig config)
    : config_(config),
      level_multiplier_(1.0 /
                        std::log(static_cast<double>(std::max<size_t>(2, config.max_neighbors)))),
      rng_(config.seed) {}

int HnswIndex::SampleLevel() {
  // Geometric-ish level distribution: floor(-ln(U) * mL), U in (0, 1].
  const double u = std::max(1e-12, 1.0 - rng_.Uniform());
  const int level = static_cast<int>(-std::log(u) * level_multiplier_);
  return std::min(level, kMaxLevel);
}

double HnswIndex::SimQ(const QueryRef& query, uint32_t slot) const {
  if (config_.quantize_int8) {
    // Symmetric quantized inner product. DotI8 is bit-exact across dispatch
    // levels, so traversal order is deterministic per process and across
    // machines.
    return static_cast<double>(simd::DotI8(query.i8, QVecOf(slot), config_.dim)) *
           static_cast<double>(query.scale) * static_cast<double>(scales_[slot]);
  }
  return simd::Dot(query.f32, VecOf(slot), config_.dim);
}

double HnswIndex::SimSlots(uint32_t a, uint32_t b) const {
  if (config_.quantize_int8) {
    return static_cast<double>(simd::DotI8(QVecOf(a), QVecOf(b), config_.dim)) *
           static_cast<double>(scales_[a]) * static_cast<double>(scales_[b]);
  }
  return simd::Dot(VecOf(a), VecOf(b), config_.dim);
}

uint32_t HnswIndex::GreedyStep(const QueryRef& query, uint32_t slot, int layer) const {
  double best = SimQ(query, slot);
  bool improved = true;
  while (improved) {
    improved = false;
    for (uint32_t neighbor : nodes_[slot].links[layer]) {
      const double sim = SimQ(query, neighbor);
      if (sim > best) {
        best = sim;
        slot = neighbor;
        improved = true;
      }
    }
  }
  return slot;
}

std::vector<HnswIndex::ScoredSlot> HnswIndex::SearchLayer(const QueryRef& query, uint32_t entry,
                                                          int layer, size_t ef,
                                                          std::vector<uint32_t>& epochs,
                                                          uint32_t epoch, uint64_t* visited,
                                                          uint64_t* hops) const {
  // candidates: max-heap on similarity (frontier to expand).
  std::priority_queue<std::pair<double, uint32_t>> candidates;
  // results: min-heap on similarity, bounded to ef (current best set).
  std::priority_queue<std::pair<double, uint32_t>, std::vector<std::pair<double, uint32_t>>,
                      std::greater<std::pair<double, uint32_t>>>
      results;

  const double entry_sim = SimQ(query, entry);
  candidates.emplace(entry_sim, entry);
  results.emplace(entry_sim, entry);
  epochs[entry] = epoch;
  if (visited != nullptr) {
    ++*visited;
  }

  while (!candidates.empty()) {
    const auto [sim, slot] = candidates.top();
    candidates.pop();
    if (results.size() >= ef && sim < results.top().first) {
      break;  // frontier can no longer improve the result set
    }
    if (hops != nullptr) {
      ++*hops;
    }
    const std::vector<uint32_t>& links = nodes_[slot].links[layer];
    // Warm the arena lines for the whole neighborhood before evaluating it:
    // graph hops are random access, and the evaluation loop would otherwise
    // stall on every line.
    for (uint32_t neighbor : links) {
      if (epochs[neighbor] != epoch) {
        PrefetchLine(config_.quantize_int8 ? static_cast<const void*>(QVecOf(neighbor))
                                           : static_cast<const void*>(VecOf(neighbor)));
      }
    }
    for (uint32_t neighbor : links) {
      if (epochs[neighbor] == epoch) {
        continue;
      }
      epochs[neighbor] = epoch;
      if (visited != nullptr) {
        ++*visited;
      }
      const double neighbor_sim = SimQ(query, neighbor);
      if (results.size() < ef || neighbor_sim > results.top().first) {
        candidates.emplace(neighbor_sim, neighbor);
        results.emplace(neighbor_sim, neighbor);
        if (results.size() > ef) {
          results.pop();
        }
      }
    }
  }

  std::vector<ScoredSlot> out;
  out.reserve(results.size());
  while (!results.empty()) {
    out.push_back(ScoredSlot{results.top().first, results.top().second});
    results.pop();
  }
  std::reverse(out.begin(), out.end());  // best-first
  return out;
}

std::vector<uint32_t> HnswIndex::SelectNeighbors(const std::vector<ScoredSlot>& candidates,
                                                 size_t max_count) const {
  std::vector<uint32_t> selected;
  selected.reserve(max_count);
  for (const ScoredSlot& candidate : candidates) {
    if (selected.size() >= max_count) {
      break;
    }
    // Keep only candidates closer to the query than to any kept neighbor:
    // this spreads links across directions instead of clustering them on the
    // nearest blob (no backfill of pruned candidates — redundant links waste
    // degree slots that long-range edges need).
    bool diverse = true;
    for (uint32_t kept : selected) {
      if (SimSlots(candidate.slot, kept) > candidate.sim) {
        diverse = false;
        break;
      }
    }
    if (diverse) {
      selected.push_back(candidate.slot);
    }
  }
  return selected;
}

void HnswIndex::ShrinkLinks(uint32_t slot, int layer) {
  std::vector<uint32_t>& links = nodes_[slot].links[layer];
  const size_t cap = LayerCap(layer);
  if (links.size() <= cap) {
    return;
  }
  std::vector<ScoredSlot> scored;
  scored.reserve(links.size());
  for (uint32_t neighbor : links) {
    scored.push_back(ScoredSlot{SimSlots(slot, neighbor), neighbor});
  }
  std::sort(scored.begin(), scored.end(), [](const ScoredSlot& a, const ScoredSlot& b) {
    if (a.sim != b.sim) {
      return a.sim > b.sim;
    }
    return a.slot < b.slot;
  });
  links = SelectNeighbors(scored, cap);
}

void HnswIndex::InsertLocked(uint64_t id, std::vector<float> vec) {
  const int level = SampleLevel();
  const uint32_t slot = static_cast<uint32_t>(nodes_.size());
  Node node;
  node.id = id;
  node.level = level;
  node.links.resize(static_cast<size_t>(level) + 1);
  nodes_.push_back(std::move(node));
  QueryRef query;
  query.f32 = vec.data();
  if (config_.quantize_int8) {
    qarena_.resize(qarena_.size() + config_.dim);
    float scale = 0.0f;
    simd::QuantizeI8(vec.data(), config_.dim, qarena_.data() + slot * config_.dim, &scale);
    scales_.push_back(scale);
    // Stable for the duration of this insert: qarena_ only grows on the next
    // Add.
    query.i8 = QVecOf(slot);
    query.scale = scale;
  } else {
    arena_.insert(arena_.end(), vec.begin(), vec.end());
    query.f32 = VecOf(slot);  // same stability argument as the int8 arena
  }
  slot_of_[id] = slot;
  ++live_;
  insert_epochs_.push_back(0);

  if (entry_level_ < 0) {
    entry_ = slot;
    entry_level_ = level;
    return;
  }

  uint32_t cur = entry_;
  for (int layer = entry_level_; layer > level; --layer) {
    cur = GreedyStep(query, cur, layer);
  }
  for (int layer = std::min(level, entry_level_); layer >= 0; --layer) {
    ++insert_epoch_;
    const std::vector<ScoredSlot> found =
        SearchLayer(query, cur, layer, std::max<size_t>(1, config_.ef_construction),
                    insert_epochs_, insert_epoch_);
    cur = found.empty() ? cur : found[0].slot;
    const std::vector<uint32_t> neighbors = SelectNeighbors(found, config_.max_neighbors);
    for (uint32_t neighbor : neighbors) {
      nodes_[slot].links[layer].push_back(neighbor);
      nodes_[neighbor].links[layer].push_back(slot);
      ShrinkLinks(neighbor, layer);
    }
  }
  if (level > entry_level_) {
    entry_ = slot;
    entry_level_ = level;
  }
}

Status HnswIndex::Add(uint64_t id, std::vector<float> vec) {
  if (vec.size() != config_.dim) {
    return Status::InvalidArgument("vector dimension mismatch");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  RemoveLocked(id);  // overwrite semantics, matching FlatIndex
  InsertLocked(id, std::move(vec));
  MaybeCompactLocked();
  return Status::Ok();
}

bool HnswIndex::RemoveLocked(uint64_t id) {
  const auto it = slot_of_.find(id);
  if (it == slot_of_.end()) {
    return false;
  }
  nodes_[it->second].deleted = true;
  slot_of_.erase(it);
  --live_;
  if (live_ == 0) {
    // Nothing left to preserve: drop the whole graph instead of keeping a
    // structure made purely of tombstones.
    nodes_.clear();
    arena_.clear();
    qarena_.clear();
    scales_.clear();
    insert_epochs_.clear();
    insert_epoch_ = 0;
    entry_ = 0;
    entry_level_ = -1;
  }
  return true;
}

bool HnswIndex::Remove(uint64_t id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!RemoveLocked(id)) {
    return false;
  }
  MaybeCompactLocked();
  return true;
}

void HnswIndex::MaybeCompactLocked() {
  const size_t dead = nodes_.size() - live_;
  if (dead < config_.min_tombstones_to_compact) {
    return;
  }
  if (static_cast<double>(dead) <=
      config_.max_tombstone_fraction * static_cast<double>(nodes_.size())) {
    return;
  }
  CompactLocked();
}

void HnswIndex::CompactLocked() {
  // Survivors are re-inserted from the float form. In quantized mode the
  // dequantized values are exact multiples of the slot scale with the max
  // element on the ±127 rail, so requantization reproduces the identical
  // codes and scale — compaction is lossless either way.
  std::vector<std::pair<uint64_t, std::vector<float>>> survivors;
  survivors.reserve(live_);
  for (uint32_t slot = 0; slot < nodes_.size(); ++slot) {
    if (nodes_[slot].deleted) {
      continue;
    }
    std::vector<float> vec(config_.dim);
    if (config_.quantize_int8) {
      simd::DequantizeI8(QVecOf(slot), config_.dim, scales_[slot], vec.data());
    } else {
      std::copy(VecOf(slot), VecOf(slot) + config_.dim, vec.begin());
    }
    survivors.emplace_back(nodes_[slot].id, std::move(vec));
  }
  nodes_.clear();
  arena_.clear();
  qarena_.clear();
  scales_.clear();
  slot_of_.clear();
  insert_epochs_.clear();
  insert_epoch_ = 0;
  entry_ = 0;
  entry_level_ = -1;
  live_ = 0;
  for (auto& [id, vec] : survivors) {
    InsertLocked(id, std::move(vec));
  }
}

void HnswIndex::Compact() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  CompactLocked();
}

std::vector<SearchResult> HnswIndex::SearchLocked(const std::vector<float>& query, size_t k,
                                                  size_t ef) const {
  // The single-query path IS the batch core at batch size 1 over a
  // thread-local scratch: one traversal implementation (batch-vs-single
  // identity holds structurally), and the retained scratch makes repeated
  // Search calls allocation-free apart from the returned vector. The scratch
  // is thread_local so concurrent readers under the shared lock never share
  // state; it is shared across index instances on a thread, which is safe
  // because the epoch counter is monotonic (marks from any earlier search
  // can never equal a later query's epoch).
  std::vector<SearchResult> results;
  if (k == 0 || entry_level_ < 0 || query.size() != config_.dim) {
    return results;
  }
  static thread_local SearchScratch scratch;
  SearchBatchLocked(query.data(), 1, config_.dim, k, ef, scratch);
  results.assign(scratch.results.begin(), scratch.results.end());
  return results;
}

void HnswIndex::SearchBatchLocked(const float* queries, size_t num_queries, size_t query_dim,
                                  size_t k, size_t ef, SearchScratch& s) const {
  s.BeginOutput(num_queries);
  if (num_queries == 0) {
    return;
  }
  if (k == 0 || entry_level_ < 0 || query_dim != config_.dim) {
    return;  // offsets are all zero: every query reports an empty result range
  }
  // Visited high-watermark: the epoch buffer tracks nodes_.size() and would
  // otherwise only ever grow, pinning a peak-size buffer on long-lived
  // serving threads after the graph shrinks (eviction, compaction). Rebuild
  // it once capacity is far above what the graph needs; never fires while the
  // graph is at or near its peak, so steady state stays allocation-free.
  if (s.epochs.capacity() > config_.visited_shrink_floor &&
      s.epochs.capacity() / 4 > nodes_.size()) {
    std::vector<uint32_t>().swap(s.epochs);
    std::vector<uint16_t>().swap(s.visited_mask);
    s.epoch = 0;
  }
  if (s.epochs.size() < nodes_.size()) {
    s.GrowResize(s.epochs, nodes_.size());
    s.GrowResize(s.visited_mask, nodes_.size());
  }
  if (config_.quantize_int8) {
    s.GrowResize(s.q8, num_queries * config_.dim);
    s.GrowResize(s.q8_scales, num_queries);
    for (size_t i = 0; i < num_queries; ++i) {
      simd::QuantizeI8(queries + i * query_dim, config_.dim, s.q8.data() + i * config_.dim,
                       &s.q8_scales[i]);
    }
  }
  // Interleave width: enough in-flight queries to cover an arena-line miss
  // with the other queries' scoring work, few enough that the in-flight
  // working set (beam states + prefetched vectors) stays cache-resident.
  // int8 codes are 4x smaller than float vectors, so more queries fit before
  // the group starts evicting its own prefetches (12 and 16 measure within
  // noise of each other; 12 leaves more L1 headroom for the beam heaps).
  const size_t kInterleave = config_.quantize_int8 ? 12 : 8;
  if (s.beams.size() < std::min(num_queries, kInterleave)) {
    ++s.grows;
    s.beams.resize(std::min(num_queries, kInterleave));
  }
  if (s.heaps.empty()) {
    ++s.grows;
    s.heaps.resize(1);
  }
  const size_t ef_eff = std::max(ef, k);
  const auto query_ref = [&](size_t qi) {
    QueryRef q;
    q.f32 = queries + qi * query_dim;
    if (config_.quantize_int8) {
      q.i8 = s.q8.data() + qi * config_.dim;
      q.scale = s.q8_scales[qi];
    }
    return q;
  };
  for (size_t base = 0; base < num_queries; base += kInterleave) {
    const size_t group = std::min(kInterleave, num_queries - base);
    // One span per interleave group; args sum the group's layer-0 visited and
    // frontier-expansion counts (for a single-query call this is exactly the
    // old per-search span). Counters only tick while tracing is enabled so
    // the beam loop stays counter-free otherwise.
    TraceSpan span(TraceCategory::kHnswSearch);
    uint64_t visited = 0;
    uint64_t hops = 0;
    uint64_t* vis = span.active() ? &visited : nullptr;
    uint64_t* hop = span.active() ? &hops : nullptr;
    // One epoch per interleave group; which of the group's queries visited a
    // slot lives in the per-slot bitmask (bit g). A single epoch-per-slot
    // word cannot serve interleaved queries — query B's mark would overwrite
    // query A's and A would rescan the slot — while a stale group epoch
    // implicitly zeroes the mask, keeping the O(1)-reset property.
    if (++s.epoch == 0) {  // wrap-around: stale marks would alias, clear once
      std::fill(s.epochs.begin(), s.epochs.end(), 0);
      s.epoch = 1;
    }
    const uint32_t group_epoch = s.epoch;
    // Phase 1: lockstep greedy upper-layer descent. One round scans one
    // node's layer links per live query — the same neighbor-evaluation order
    // as the sequential GreedyStep (the scan list is fixed at round start
    // even when the position advances mid-scan), so every query lands on the
    // bit-identical layer-0 entry — while the other queries' scans overlap
    // each vector load the round's pre-pass prefetched.
    for (size_t g = 0; g < group; ++g) {
      SearchScratch::Beam& beam = s.beams[g];
      beam.candidates.clear();
      beam.results.clear();
      beam.found.clear();
      beam.pending.clear();
      beam.done = false;
      beam.cur = entry_;
      beam.layer = entry_level_;
      beam.best = SimQ(query_ref(base + g), entry_);
    }
    bool any_descending = entry_level_ >= 1;
    while (any_descending) {
      // Pre-pass: stream the head line of every neighbor vector each live
      // query is about to score this round.
      for (size_t g = 0; g < group; ++g) {
        const SearchScratch::Beam& beam = s.beams[g];
        if (beam.layer < 1) {
          continue;
        }
        for (uint32_t neighbor : nodes_[beam.cur].links[beam.layer]) {
          PrefetchLine(config_.quantize_int8 ? static_cast<const void*>(QVecOf(neighbor))
                                             : static_cast<const void*>(VecOf(neighbor)));
        }
      }
      any_descending = false;
      for (size_t g = 0; g < group; ++g) {
        SearchScratch::Beam& beam = s.beams[g];
        if (beam.layer < 1) {
          continue;
        }
        const QueryRef q = query_ref(base + g);
        const uint32_t scan_slot = beam.cur;
        bool improved = false;
        for (uint32_t neighbor : nodes_[scan_slot].links[beam.layer]) {
          const double sim = SimQ(q, neighbor);
          if (sim > beam.best) {
            beam.best = sim;
            beam.cur = neighbor;
            improved = true;
          }
        }
        if (improved) {
          PrefetchLine(&nodes_[beam.cur]);  // next round rescans from here
        } else {
          --beam.layer;  // converged at this layer; next round scans one lower
        }
        any_descending = any_descending || beam.layer >= 1;
      }
    }
    // Phase 1b (per query): seed the beam at the layer-0 entry under the
    // query's visited bit. beam.best IS the sequential path's entry
    // similarity — the same deterministic arithmetic over the same inputs.
    for (size_t g = 0; g < group; ++g) {
      SearchScratch::Beam& beam = s.beams[g];
      const uint32_t cur = beam.cur;
      const double entry_sim = beam.best;
      s.GrowPush(beam.candidates, {entry_sim, cur});  // one element: already a heap
      s.GrowPush(beam.results, {entry_sim, cur});
      if (s.epochs[cur] != group_epoch) {
        s.epochs[cur] = group_epoch;
        s.visited_mask[cur] = 0;
      }
      s.visited_mask[cur] |= static_cast<uint16_t>(1u << g);
      if (vis != nullptr) {
        ++*vis;
      }
    }
    // Phase 2: interleaved beam expansion. 2a pops each live query's best
    // frontier node, marks its unvisited neighbors and prefetches their
    // vectors (full span: float or int8 arena); 2b scores them — by then the
    // other queries' 2a passes have hidden the arena-line latency — and tops
    // off by prefetching the NEXT pop's graph node, so the following round's
    // adjacency chase starts warm. Per query the operation sequence is
    // exactly the single-query beam's; prefetches never change a result.
    const size_t vec_bytes =
        config_.quantize_int8 ? config_.dim : config_.dim * sizeof(float);
    bool any_active = true;
    while (any_active) {
      any_active = false;
      // 2a-pre: the next pop per live query is the frontier top; its Node
      // struct was prefetched at the end of the previous 2b, so reading the
      // adjacency pointer here is cheap — stream the links array in now,
      // while the other queries' marking passes below overlap the fill.
      for (size_t g = 0; g < group; ++g) {
        const SearchScratch::Beam& beam = s.beams[g];
        if (!beam.done && !beam.candidates.empty()) {
          const std::vector<uint32_t>& links = nodes_[beam.candidates.front().second].links[0];
          if (!links.empty()) {
            PrefetchSpan(links.data(), links.size() * sizeof(uint32_t));
          }
        }
      }
      // 2a-pop: per live query, pop the frontier top, decide beam
      // termination, stash the adjacency list, and issue write-intent
      // prefetches for its neighbors' visited words (random 4B/2B accesses
      // over up to 2M slots — the batch path's dominant misses). The marking
      // pass below consumes them only after every OTHER query's pop has run
      // in between, so the whole group's visited-word misses overlap instead
      // of each query stalling on its own.
      for (size_t g = 0; g < group; ++g) {
        SearchScratch::Beam& beam = s.beams[g];
        beam.pending.clear();
        beam.scan_links = nullptr;
        if (beam.done) {
          continue;
        }
        if (beam.candidates.empty()) {
          beam.done = true;
          continue;
        }
        const auto [sim, slot] = beam.candidates.front();
        std::pop_heap(beam.candidates.begin(), beam.candidates.end());
        beam.candidates.pop_back();
        if (beam.results.size() >= ef_eff && sim < beam.results.front().first) {
          beam.done = true;  // frontier can no longer improve the result set
          continue;
        }
        if (hop != nullptr) {
          ++*hop;
        }
        beam.scan_links = &nodes_[slot].links[0];
        for (uint32_t neighbor : *beam.scan_links) {
          PrefetchWrite(&s.epochs[neighbor]);
          PrefetchWrite(&s.visited_mask[neighbor]);
        }
        any_active = true;
      }
      if (!any_active) {
        break;
      }
      // 2a-mark: claim each popped node's unvisited neighbors. Queries mark
      // in the same per-query order as the sequential beam, and the visited
      // state is per-query (bit g) — the shared epoch word converges to the
      // same value whichever group member touches a slot first — so the
      // pending lists are bit-identical to the unsplit pass.
      for (size_t g = 0; g < group; ++g) {
        SearchScratch::Beam& beam = s.beams[g];
        if (beam.scan_links == nullptr) {
          continue;
        }
        const uint16_t bit = static_cast<uint16_t>(1u << g);
        for (uint32_t neighbor : *beam.scan_links) {
          if (s.epochs[neighbor] != group_epoch) {
            s.epochs[neighbor] = group_epoch;
            s.visited_mask[neighbor] = 0;
          }
          if ((s.visited_mask[neighbor] & bit) == 0) {
            s.visited_mask[neighbor] = static_cast<uint16_t>(s.visited_mask[neighbor] | bit);
            if (vis != nullptr) {
              ++*vis;
            }
            // Head of the vector only: a full-span prefetch of ~30 512-byte
            // float vectors here would flood the miss buffers and evict the
            // other interleaved queries' lines; the scoring pass below
            // streams the remaining lines one neighbor ahead instead.
            PrefetchLine(config_.quantize_int8 ? static_cast<const void*>(QVecOf(neighbor))
                                               : static_cast<const void*>(VecOf(neighbor)));
            s.GrowPush(beam.pending, neighbor);
          }
        }
      }
      // 2b: score the marked neighbors. Scoring a neighbor and pushing it
      // through the query's bounded heaps is identical in either arena; only
      // the ORDER queries take turns differs by arena (see below), and each
      // query always scores its own pending list front to back against its
      // own heaps, so either schedule is bit-identical to the sequential
      // single-query beam.
      const auto score_neighbor = [&](SearchScratch::Beam& beam, const QueryRef& q,
                                      uint32_t neighbor) {
        const double neighbor_sim = SimQ(q, neighbor);
        if (beam.results.size() < ef_eff || neighbor_sim > beam.results.front().first) {
          s.GrowPush(beam.candidates, {neighbor_sim, neighbor});
          std::push_heap(beam.candidates.begin(), beam.candidates.end());
          s.GrowPush(beam.results, {neighbor_sim, neighbor});
          std::push_heap(beam.results.begin(), beam.results.end(),
                         std::greater<std::pair<double, uint32_t>>{});
          if (beam.results.size() > ef_eff) {
            std::pop_heap(beam.results.begin(), beam.results.end(),
                          std::greater<std::pair<double, uint32_t>>{});
            beam.results.pop_back();
          }
        }
      };
      if (!config_.quantize_int8) {
        // Float arena: ROUND-ROBIN across the group, one neighbor per live
        // query per turn, so the full-span prefetch issued for a query's
        // next 512-byte vector has a whole group's worth of other queries'
        // dot products to hide behind before it is consumed. At group == 1
        // this degenerates to a plain one-ahead software pipeline.
        size_t max_pending = 0;
        for (size_t g = 0; g < group; ++g) {
          const SearchScratch::Beam& beam = s.beams[g];
          max_pending = std::max(max_pending, beam.pending.size());
          if (beam.pending.empty()) {
            if (!beam.done && !beam.candidates.empty()) {
              PrefetchLine(&nodes_[beam.candidates.front().second]);
            }
          } else {
            PrefetchSpan(VecOf(beam.pending[0]), vec_bytes);
          }
        }
        for (size_t p = 0; p < max_pending; ++p) {
          for (size_t g = 0; g < group; ++g) {
            SearchScratch::Beam& beam = s.beams[g];
            if (p >= beam.pending.size()) {
              continue;
            }
            if (p + 1 < beam.pending.size()) {
              PrefetchSpan(VecOf(beam.pending[p + 1]), vec_bytes);
            }
            score_neighbor(beam, query_ref(base + g), beam.pending[p]);
            if (p + 1 == beam.pending.size() && !beam.candidates.empty()) {
              // Last pending neighbor scored: warm the next round's pop
              // target so 2a-pre's adjacency read is cheap.
              PrefetchLine(&nodes_[beam.candidates.front().second]);
            }
          }
        }
      } else {
        // Int8 arena: per-query sequential scoring. A 128-byte code is
        // fully covered by the marking pass's line prefetch and the dot is
        // a handful of cycles, so round-robin turn-taking across a 16-wide
        // group costs more in bookkeeping than it hides in latency.
        for (size_t g = 0; g < group; ++g) {
          SearchScratch::Beam& beam = s.beams[g];
          if (beam.pending.empty()) {
            if (!beam.done && !beam.candidates.empty()) {
              PrefetchLine(&nodes_[beam.candidates.front().second]);
            }
            continue;
          }
          const QueryRef q = query_ref(base + g);
          for (const uint32_t neighbor : beam.pending) {
            score_neighbor(beam, q, neighbor);
          }
          // Warm the next round's pop target (2a-pre reads its adjacency
          // pointer) — by then every other query's scoring pass has run.
          if (!beam.candidates.empty()) {
            PrefetchLine(&nodes_[beam.candidates.front().second]);
          }
        }
      }
    }
    span.SetArgs(visited, hops);
    // Phase 3 (per query): drain the beam best-first, re-rank / filter
    // tombstones through the TopK-mirroring scratch heap, append to the flat
    // result arena.
    for (size_t g = 0; g < group; ++g) {
      const size_t qi = base + g;
      SearchScratch::Beam& beam = s.beams[g];
      while (!beam.results.empty()) {
        s.GrowPush(beam.found, beam.results.front());
        std::pop_heap(beam.results.begin(), beam.results.end(),
                      std::greater<std::pair<double, uint32_t>>{});
        beam.results.pop_back();
      }
      std::reverse(beam.found.begin(), beam.found.end());  // best-first
      auto& heap = s.heaps[0];
      heap.clear();
      if (config_.quantize_int8 && config_.rerank_k > 0) {
        // Exact re-rank: the beam ordered candidates by the quantized metric;
        // re-score the best rerank_k live ones against the full-precision
        // query (asymmetric f32 x i8 dot) so the final top-k ordering is free
        // of quantization noise on the query side.
        const size_t budget = std::max(config_.rerank_k, k);
        size_t rescored = 0;
        const float* qf = queries + qi * query_dim;
        // The id/deleted reads below are random Node loads the beam last
        // touched many pops ago; an 8-ahead pipeline keeps them in flight.
        const size_t nf = beam.found.size();
        for (size_t j = 0; j < nf && j < 8; ++j) {
          PrefetchLine(&nodes_[beam.found[j].second]);
        }
        for (size_t j = 0; j < nf; ++j) {
          if (j + 8 < nf) {
            PrefetchLine(&nodes_[beam.found[j + 8].second]);
          }
          const auto& scored = beam.found[j];
          if (nodes_[scored.second].deleted) {
            continue;
          }
          if (rescored >= budget) {
            break;
          }
          const double exact = simd::DotF32I8(qf, QVecOf(scored.second), config_.dim) *
                               static_cast<double>(scales_[scored.second]);
          ScratchTopK::Push(heap, k, exact, nodes_[scored.second].id, s);
          ++rescored;
        }
        g_rerank_queries.fetch_add(1, std::memory_order_relaxed);
        g_rerank_candidates.fetch_add(rescored, std::memory_order_relaxed);
      } else {
        const size_t nf = beam.found.size();
        for (size_t j = 0; j < nf && j < 8; ++j) {
          PrefetchLine(&nodes_[beam.found[j].second]);
        }
        for (size_t j = 0; j < nf; ++j) {
          if (j + 8 < nf) {
            PrefetchLine(&nodes_[beam.found[j + 8].second]);
          }
          const auto& scored = beam.found[j];
          if (!nodes_[scored.second].deleted) {
            ScratchTopK::Push(heap, k, scored.first, nodes_[scored.second].id, s);
          }
        }
      }
      ScratchTopK::DrainDescending(heap, &s.results, s);
      s.EndQuery(qi);
    }
  }
}

void HnswIndex::SearchBatch(const float* queries, size_t num_queries, size_t query_dim,
                            size_t k, SearchScratch* scratch) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  SearchBatchLocked(queries, num_queries, query_dim, k, config_.ef_search, *scratch);
}

void HnswIndex::SearchBatchEf(const float* queries, size_t num_queries, size_t query_dim,
                              size_t k, size_t ef, SearchScratch* scratch) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  SearchBatchLocked(queries, num_queries, query_dim, k, ef, *scratch);
}

std::vector<SearchResult> HnswIndex::Search(const std::vector<float>& query, size_t k) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return SearchLocked(query, k, config_.ef_search);
}

std::vector<SearchResult> HnswIndex::SearchEf(const std::vector<float>& query, size_t k,
                                              size_t ef) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return SearchLocked(query, k, ef);
}

bool HnswIndex::GetVector(uint64_t id, std::vector<float>* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = slot_of_.find(id);
  if (it == slot_of_.end()) {
    return false;
  }
  if (config_.quantize_int8) {
    out->resize(config_.dim);
    simd::DequantizeI8(QVecOf(it->second), config_.dim, scales_[it->second], out->data());
  } else {
    out->assign(VecOf(it->second), VecOf(it->second) + config_.dim);
  }
  return true;
}

size_t HnswIndex::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return live_;
}

size_t HnswIndex::tombstones() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return nodes_.size() - live_;
}

int HnswIndex::max_level() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return entry_level_;
}

size_t HnswIndex::arena_bytes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return arena_.size() * sizeof(float) + qarena_.size() * sizeof(int8_t) +
         scales_.size() * sizeof(float);
}

void HnswIndex::SaveGraph(ByteWriter* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  ByteWriter& w = *out;
  w.PutU32(kGraphFormatVersion);
  w.PutU8(config_.quantize_int8 ? 1 : 0);
  w.PutU64(config_.dim);
  w.PutU64(config_.max_neighbors);
  w.PutU64(nodes_.size());
  w.PutU64(live_);
  w.PutU32(entry_);
  w.PutI32(entry_level_);
  const RngState rng = rng_.SaveState();
  for (uint64_t s : rng.s) {
    w.PutU64(s);
  }
  w.PutDouble(rng.cached_normal);
  w.PutU8(rng.has_cached_normal ? 1 : 0);
  for (const Node& node : nodes_) {
    w.PutU64(node.id);
    w.PutI32(node.level);
    w.PutU8(node.deleted ? 1 : 0);
    for (const std::vector<uint32_t>& layer : node.links) {
      w.PutU32(static_cast<uint32_t>(layer.size()));
      for (uint32_t link : layer) {
        w.PutU32(link);
      }
    }
  }
  static_assert(sizeof(float) == 4, "IEEE-754 float expected");
  if (config_.quantize_int8) {
    // Quantized image: the raw code arena plus per-slot scales. Storing the
    // codes (not dequantized floats) makes restore exact by construction.
    w.PutU64(qarena_.size());
    w.PutBytes(qarena_.data(), qarena_.size());
    w.PutBytes(scales_.data(), scales_.size() * sizeof(float));
  } else {
    // Arena as one raw little-endian float block (the dominant payload).
    w.PutU64(arena_.size());
    w.PutBytes(arena_.data(), arena_.size() * sizeof(float));
  }
}

void HnswIndex::SaveGraph(std::string* out) const {
  ByteWriter w;
  SaveGraph(&w);
  *out = w.TakeBytes();
}

size_t HnswIndex::GraphImageSize() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  // Header through the level-sampler RNG: version, quantize flag, dim,
  // degree, node count, live count, entry, entry level, 4 RNG words, the
  // cached normal, and its flag.
  size_t bytes = 4 + 1 + 8 * 4 + 4 + 4 + 8 * 4 + 8 + 1;
  for (const Node& node : nodes_) {
    bytes += 8 + 4 + 1;  // id, level, tombstone flag
    for (const std::vector<uint32_t>& layer : node.links) {
      bytes += 4 + 4 * layer.size();
    }
  }
  bytes += 8;  // arena length
  if (config_.quantize_int8) {
    bytes += qarena_.size() + scales_.size() * sizeof(float);
  } else {
    bytes += arena_.size() * sizeof(float);
  }
  return bytes;
}

bool HnswIndex::LoadGraph(std::string_view blob) {
  // Parse and validate into locals first: a mismatched or corrupted image
  // must leave the index exactly as it was (the caller rebuilds instead).
  ByteReader r(blob);
  const uint32_t version = r.GetU32();
  if (version != kGraphFormatVersion && version != 1) {
    return false;
  }
  // v1 images predate quantization and are implicitly float; a quantized
  // index cannot adopt one (the caller rebuilds, requantizing as it goes).
  const bool quantized = version >= 2 && r.GetU8() != 0;
  if (quantized != config_.quantize_int8) {
    return false;
  }
  const uint64_t dim = r.GetU64();
  const uint64_t max_neighbors = r.GetU64();
  const uint64_t node_count = r.GetU64();
  const uint64_t live = r.GetU64();
  const uint32_t entry = r.GetU32();
  const int32_t entry_level = r.GetI32();
  RngState rng;
  for (auto& s : rng.s) {
    s = r.GetU64();
  }
  rng.cached_normal = r.GetDouble();
  rng.has_cached_normal = r.GetU8() != 0;
  // node_count is also bounded by the blob itself (every node costs >= 13
  // bytes), which keeps the reserve() below sane on corrupted input.
  if (!r.ok() || dim != config_.dim || max_neighbors != config_.max_neighbors ||
      live > node_count || node_count > blob.size()) {
    return false;
  }

  std::vector<Node> nodes;
  nodes.reserve(node_count);
  std::unordered_map<uint64_t, uint32_t> slot_of;
  slot_of.reserve(live);
  for (uint64_t slot = 0; slot < node_count; ++slot) {
    Node node;
    node.id = r.GetU64();
    node.level = r.GetI32();
    node.deleted = r.GetU8() != 0;
    if (!r.ok() || node.level < 0 || node.level > kMaxLevel) {
      return false;
    }
    node.links.resize(static_cast<size_t>(node.level) + 1);
    for (auto& layer : node.links) {
      const uint32_t n = r.GetU32();
      if (!r.ok() || n > node_count) {
        return false;
      }
      layer.resize(n);
      for (auto& link : layer) {
        link = r.GetU32();
        if (link >= node_count) {
          return false;
        }
      }
    }
    if (!node.deleted && !slot_of.emplace(node.id, static_cast<uint32_t>(slot)).second) {
      return false;  // duplicate live id
    }
    nodes.push_back(std::move(node));
  }
  // Structural validation pass (needs every node's level, so it runs after
  // parsing): a link at layer l must target a node whose links reach layer l,
  // or the first traversal through it would index out of bounds.
  for (const Node& node : nodes) {
    for (size_t layer = 0; layer < node.links.size(); ++layer) {
      for (uint32_t link : node.links[layer]) {
        if (static_cast<size_t>(nodes[link].level) < layer) {
          return false;
        }
      }
    }
  }
  const uint64_t arena_len = r.GetU64();
  if (!r.ok() || arena_len != node_count * config_.dim) {
    return false;
  }
  std::vector<float> arena;
  std::vector<int8_t> qarena;
  std::vector<float> scales;
  if (quantized) {
    if (r.remaining() != arena_len + node_count * 4) {
      return false;
    }
    qarena.resize(static_cast<size_t>(arena_len));
    scales.resize(static_cast<size_t>(node_count));
    if (!r.GetBytes(qarena.data(), qarena.size()) ||
        !r.GetBytes(scales.data(), scales.size() * sizeof(float))) {
      return false;
    }
  } else {
    if (r.remaining() != arena_len * 4) {
      return false;
    }
    arena.resize(static_cast<size_t>(arena_len));
    if (!r.GetBytes(arena.data(), arena.size() * sizeof(float))) {
      return false;
    }
  }
  if (slot_of.size() != live ||
      (node_count > 0 && (entry >= node_count || entry_level < 0 || entry_level > kMaxLevel)) ||
      (node_count == 0 && entry_level != -1)) {
    return false;
  }

  std::unique_lock<std::shared_mutex> lock(mu_);
  nodes_ = std::move(nodes);
  arena_ = std::move(arena);
  qarena_ = std::move(qarena);
  scales_ = std::move(scales);
  slot_of_ = std::move(slot_of);
  entry_ = entry;
  entry_level_ = entry_level;
  live_ = static_cast<size_t>(live);
  rng_.RestoreState(rng);
  insert_epochs_.assign(nodes_.size(), 0);
  insert_epoch_ = 0;
  return true;
}

}  // namespace iccache
