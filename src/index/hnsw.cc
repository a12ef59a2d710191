#include "src/index/hnsw.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <mutex>
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
//   v1: float arena.
//   v2: adds a mode byte after the version. It is always written as 0 (float
//       arena); an image with any other mode is rejected. v1 images are
//       still accepted.
constexpr uint32_t kGraphFormatVersion = 2;

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

double HnswIndex::SimQ(const float* query, uint32_t slot) const {
  return simd::Dot(query, VecOf(slot), config_.dim);
}

double HnswIndex::SimSlots(uint32_t a, uint32_t b) const {
  return simd::Dot(VecOf(a), VecOf(b), config_.dim);
}

uint32_t HnswIndex::GreedyStep(const float* query, uint32_t slot, int layer) const {
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

std::vector<HnswIndex::ScoredSlot> HnswIndex::SearchLayer(const float* query, uint32_t entry,
                                                          int layer, size_t ef) {
  // candidates: max-heap of beam keys (frontier to expand); results: min-heap,
  // bounded to ef (current best set). Key order is (similarity, slot) order,
  // so both run the comparisons std::priority_queue over the pairs would.
  std::vector<uint64_t>& candidates = link_candidates_;
  std::vector<uint64_t>& results = link_results_;
  candidates.clear();
  results.clear();
  const uint64_t entry_key = BeamKey(SimQ(query, entry), entry);
  candidates.push_back(entry_key);
  results.push_back(entry_key);
  insert_epochs_[entry] = insert_epoch_;

  while (!candidates.empty()) {
    std::pop_heap(candidates.begin(), candidates.end());
    const uint64_t top = candidates.back();
    candidates.pop_back();
    if (results.size() >= ef && BeamKeySim(top) < BeamKeySim(results.front())) {
      break;  // frontier can no longer improve the result set
    }
    // Mark the unvisited neighbors in link order, warming their arena lines
    // (graph hops are random access), then score them with one call.
    link_pending_.clear();
    link_vecs_.clear();
    for (uint32_t neighbor : nodes_[BeamKeySlot(top)].links[layer]) {
      if (insert_epochs_[neighbor] == insert_epoch_) {
        continue;
      }
      insert_epochs_[neighbor] = insert_epoch_;
      PrefetchLine(VecOf(neighbor));
      link_pending_.push_back(neighbor);
      link_vecs_.push_back(VecOf(neighbor));
    }
    link_sims_.resize(link_vecs_.size());
    simd::DotMany(query, link_vecs_.data(), link_vecs_.size(), config_.dim, link_sims_.data());
    for (size_t i = 0; i < link_pending_.size(); ++i) {
      const double neighbor_sim = link_sims_[i];
      if (results.size() < ef || neighbor_sim > BeamKeySim(results.front())) {
        const uint64_t key = BeamKey(neighbor_sim, link_pending_[i]);
        candidates.push_back(key);
        std::push_heap(candidates.begin(), candidates.end());
        results.push_back(key);
        std::push_heap(results.begin(), results.end(), std::greater<uint64_t>{});
        if (results.size() > ef) {
          std::pop_heap(results.begin(), results.end(), std::greater<uint64_t>{});
          results.pop_back();
        }
      }
    }
  }

  std::vector<ScoredSlot> out(results.size());
  for (auto it = out.rbegin(); it != out.rend(); ++it) {  // best-first
    *it = ScoredSlot{BeamKeySim(results.front()), BeamKeySlot(results.front())};
    std::pop_heap(results.begin(), results.end(), std::greater<uint64_t>{});
    results.pop_back();
  }
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

void HnswIndex::AppendLocked(uint64_t id, const std::vector<float>& vec) {
  const uint32_t slot = static_cast<uint32_t>(nodes_.size());
  Node node;
  node.id = id;
  node.level = SampleLevel();
  node.links.resize(static_cast<size_t>(node.level) + 1);
  nodes_.push_back(std::move(node));
  arena_.insert(arena_.end(), vec.begin(), vec.end());
  slot_of_[id] = slot;
  ++live_;
  insert_epochs_.push_back(0);
}

void HnswIndex::LinkPendingLocked() {
  for (; linked_ < nodes_.size(); ++linked_) {
    const uint32_t slot = static_cast<uint32_t>(linked_);
    const int level = nodes_[slot].level;
    const float* query = VecOf(slot);
    if (entry_level_ < 0) {
      entry_ = slot;
      entry_level_ = level;
      continue;
    }
    uint32_t cur = entry_;
    for (int layer = entry_level_; layer > level; --layer) {
      cur = GreedyStep(query, cur, layer);
    }
    for (int layer = std::min(level, entry_level_); layer >= 0; --layer) {
      ++insert_epoch_;
      const std::vector<ScoredSlot> found =
          SearchLayer(query, cur, layer, std::max<size_t>(1, config_.ef_construction));
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
}

std::shared_lock<std::shared_mutex> HnswIndex::LinkedReadLock() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (linked_ < nodes_.size()) {
    lock.unlock();
    {
      // Logically const: every read links first, so no result depends on
      // when the link work ran (the cast is defined: no HnswIndex is a
      // const object, readers only hold const references). An Add racing
      // this gap leaves its node pending and unreachable, as if it had come
      // after the read.
      std::unique_lock<std::shared_mutex> write(mu_);
      const_cast<HnswIndex*>(this)->LinkPendingLocked();
    }
    lock.lock();
  }
  return lock;
}

Status HnswIndex::Add(uint64_t id, std::vector<float> vec) {
  if (vec.size() != config_.dim) {
    return Status::InvalidArgument("vector dimension mismatch");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (slot_of_.count(id) > 0) {
    // Overwrite semantics, matching FlatIndex. The old node is tombstoned
    // linked, as it would be had every earlier Add linked at once.
    LinkPendingLocked();
    RemoveLocked(id);
  }
  AppendLocked(id, vec);
  MaybeCompactLocked();
  return Status::Ok();
}

void HnswIndex::Flush() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  LinkPendingLocked();
}

size_t HnswIndex::pending() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return nodes_.size() - linked_;
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
    insert_epochs_.clear();
    insert_epoch_ = 0;
    entry_ = 0;
    entry_level_ = -1;
    linked_ = 0;
  }
  return true;
}

bool HnswIndex::Remove(uint64_t id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  LinkPendingLocked();
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
  // Survivors, pending ones included, are re-inserted in slot order; links
  // are rebuilt from scratch, so whether a survivor was linked changes
  // nothing.
  std::vector<std::pair<uint64_t, std::vector<float>>> survivors;
  survivors.reserve(live_);
  for (uint32_t slot = 0; slot < nodes_.size(); ++slot) {
    if (nodes_[slot].deleted) {
      continue;
    }
    survivors.emplace_back(nodes_[slot].id,
                           std::vector<float>(VecOf(slot), VecOf(slot) + config_.dim));
  }
  nodes_.clear();
  arena_.clear();
  slot_of_.clear();
  insert_epochs_.clear();
  insert_epoch_ = 0;
  entry_ = 0;
  entry_level_ = -1;
  live_ = 0;
  linked_ = 0;
  for (const auto& [id, vec] : survivors) {
    AppendLocked(id, vec);
  }
  LinkPendingLocked();
}

void HnswIndex::Compact() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  CompactLocked();
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
    std::vector<uint8_t>().swap(s.visited_mask);
    s.epoch = 0;
  }
  if (s.epochs.size() < nodes_.size()) {
    s.GrowResize(s.epochs, nodes_.size());
    s.GrowResize(s.visited_mask, nodes_.size());
  }
  // Interleave width: enough in-flight queries to cover an arena-line miss
  // with the other queries' scoring work, few enough that the in-flight
  // working set (beam states + prefetched vectors) stays cache-resident.
  // Each group member owns one bit of the visited mask.
  constexpr size_t kInterleave = 8;
  static_assert(kInterleave <= 8 * sizeof(decltype(SearchScratch::visited_mask)::value_type),
                "one visited-mask bit per interleaved query");
  if (s.beams.size() < std::min(num_queries, kInterleave)) {
    ++s.grows;
    s.beams.resize(std::min(num_queries, kInterleave));
  }
  if (s.heaps.empty()) {
    ++s.grows;
    s.heaps.resize(1);
  }
  const size_t ef_eff = std::max(ef, k);
  const auto query_of = [&](size_t qi) { return queries + qi * query_dim; };
  for (size_t base = 0; base < num_queries; base += kInterleave) {
    const size_t group = std::min(kInterleave, num_queries - base);
    // One span per interleave group; args sum the group's layer-0 visited and
    // frontier-expansion counts (for a batch of one, that one search's).
    // Counters only tick while tracing is enabled so the beam loop stays
    // counter-free otherwise.
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
      beam.best = SimQ(query_of(base + g), entry_);
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
          PrefetchLine(VecOf(neighbor));
        }
      }
      any_descending = false;
      for (size_t g = 0; g < group; ++g) {
        SearchScratch::Beam& beam = s.beams[g];
        if (beam.layer < 1) {
          continue;
        }
        const float* q = query_of(base + g);
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
      s.GrowPush(beam.candidates, BeamKey(entry_sim, cur));  // one element: already a heap
      s.GrowPush(beam.results, BeamKey(entry_sim, cur));
      if (s.epochs[cur] != group_epoch) {
        s.epochs[cur] = group_epoch;
        s.visited_mask[cur] = 0;
      }
      s.visited_mask[cur] |= static_cast<uint8_t>(1u << g);
      if (vis != nullptr) {
        ++*vis;
      }
    }
    // Phase 2: interleaved beam expansion. 2a pops each live query's best
    // frontier node, marks its unvisited neighbors and prefetches their
    // vectors; 2b scores each query's marked neighbors in one DotMany call —
    // by then the other queries' 2a passes have hidden the arena-line
    // latency — and tops off by prefetching the NEXT pop's graph node, so
    // the following round's adjacency chase starts warm. Per query the
    // operation sequence is exactly the single-query beam's; prefetches
    // never change a result.
    const size_t vec_bytes = config_.dim * sizeof(float);
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
          const std::vector<uint32_t>& links =
              nodes_[BeamKeySlot(beam.candidates.front())].links[0];
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
        const uint64_t top = beam.candidates.front();
        std::pop_heap(beam.candidates.begin(), beam.candidates.end());
        beam.candidates.pop_back();
        if (beam.results.size() >= ef_eff &&
            BeamKeySim(top) < BeamKeySim(beam.results.front())) {
          beam.done = true;  // frontier can no longer improve the result set
          continue;
        }
        if (hop != nullptr) {
          ++*hop;
        }
        beam.scan_links = &nodes_[BeamKeySlot(top)].links[0];
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
        const uint8_t bit = static_cast<uint8_t>(1u << g);
        for (uint32_t neighbor : *beam.scan_links) {
          if (s.epochs[neighbor] != group_epoch) {
            s.epochs[neighbor] = group_epoch;
            s.visited_mask[neighbor] = 0;
          }
          if ((s.visited_mask[neighbor] & bit) == 0) {
            s.visited_mask[neighbor] = static_cast<uint8_t>(s.visited_mask[neighbor] | bit);
            if (vis != nullptr) {
              ++*vis;
            }
            // Head of the vector only: the marking passes of a whole group
            // would otherwise stream ~30 512-byte vectors per query through
            // the miss buffers at once; the scoring pass below streams each
            // query's remaining lines while the query before it scores.
            PrefetchLine(VecOf(neighbor));
            s.GrowPush(beam.pending, neighbor);
          }
        }
      }
      // 2b: per live query, score the marked neighbors with one DotMany
      // call and push them in marking order, against the query's own heaps,
      // so the schedule is bit-identical to the sequential single-query
      // beam. Each query's vectors are streamed in whole while the query
      // before it scores, and each query ends by warming its next pop's
      // graph node so 2a-pre's adjacency read is cheap.
      for (size_t g = 0; g < group; ++g) {
        SearchScratch::Beam& beam = s.beams[g];
        if (g + 1 < group) {
          for (uint32_t neighbor : s.beams[g + 1].pending) {
            PrefetchSpan(VecOf(neighbor), vec_bytes);
          }
        }
        // The gather buffers hold the level-0 degree bound, or a loaded
        // image's longer list.
        const size_t count = beam.pending.size();
        if (s.gather_vecs.size() < count) {
          s.GrowResize(s.gather_vecs, std::max(count, LayerCap(0)));
          s.GrowResize(s.gather_sims, std::max(count, LayerCap(0)));
        }
        for (size_t p = 0; p < count; ++p) {
          s.gather_vecs[p] = VecOf(beam.pending[p]);
        }
        simd::DotMany(query_of(base + g), s.gather_vecs.data(), count, config_.dim,
                      s.gather_sims.data());
        for (size_t p = 0; p < count; ++p) {
          const double neighbor_sim = s.gather_sims[p];
          if (beam.results.size() < ef_eff || neighbor_sim > BeamKeySim(beam.results.front())) {
            const uint64_t key = BeamKey(neighbor_sim, beam.pending[p]);
            s.GrowPush(beam.candidates, key);
            std::push_heap(beam.candidates.begin(), beam.candidates.end());
            s.GrowPush(beam.results, key);
            std::push_heap(beam.results.begin(), beam.results.end(), std::greater<uint64_t>{});
            if (beam.results.size() > ef_eff) {
              std::pop_heap(beam.results.begin(), beam.results.end(), std::greater<uint64_t>{});
              beam.results.pop_back();
            }
          }
        }
        if (!beam.done && !beam.candidates.empty()) {
          PrefetchLine(&nodes_[BeamKeySlot(beam.candidates.front())]);
        }
      }
    }
    span.SetArgs(visited, hops);
    // Phase 3 (per query): drain the beam best-first, filter tombstones
    // through the bounded scratch heap, append to the flat result arena.
    for (size_t g = 0; g < group; ++g) {
      const size_t qi = base + g;
      SearchScratch::Beam& beam = s.beams[g];
      while (!beam.results.empty()) {
        s.GrowPush(beam.found, beam.results.front());
        std::pop_heap(beam.results.begin(), beam.results.end(), std::greater<uint64_t>{});
        beam.results.pop_back();
      }
      std::reverse(beam.found.begin(), beam.found.end());  // best-first
      auto& heap = s.heaps[0];
      heap.clear();
      // The id/deleted reads below are random Node loads the beam last
      // touched many pops ago; an 8-ahead pipeline keeps them in flight.
      const size_t nf = beam.found.size();
      for (size_t j = 0; j < nf && j < 8; ++j) {
        PrefetchLine(&nodes_[BeamKeySlot(beam.found[j])]);
      }
      for (size_t j = 0; j < nf; ++j) {
        if (j + 8 < nf) {
          PrefetchLine(&nodes_[BeamKeySlot(beam.found[j + 8])]);
        }
        const Node& node = nodes_[BeamKeySlot(beam.found[j])];
        if (!node.deleted) {
          ScratchTopK::Push(heap, k, BeamKeySim(beam.found[j]), node.id, s);
        }
      }
      ScratchTopK::DrainDescending(heap, &s.results, s);
      s.EndQuery(qi);
    }
  }
}

void HnswIndex::SearchBatch(const float* queries, size_t num_queries, size_t query_dim,
                            size_t k, SearchScratch* scratch) const {
  const auto lock = LinkedReadLock();
  SearchBatchLocked(queries, num_queries, query_dim, k, config_.ef_search, *scratch);
}

bool HnswIndex::GetVector(uint64_t id, std::vector<float>* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = slot_of_.find(id);
  if (it == slot_of_.end()) {
    return false;
  }
  out->assign(VecOf(it->second), VecOf(it->second) + config_.dim);
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
  const auto lock = LinkedReadLock();
  return entry_level_;
}

size_t HnswIndex::arena_bytes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return arena_.size() * sizeof(float);
}

void HnswIndex::SaveGraph(ByteWriter* out) const {
  const auto lock = LinkedReadLock();
  ByteWriter& w = *out;
  w.PutU32(kGraphFormatVersion);
  w.PutU8(0);  // mode: float arena
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
  // Arena as one raw little-endian float block (the dominant payload).
  w.PutU64(arena_.size());
  w.PutBytes(arena_.data(), arena_.size() * sizeof(float));
}

size_t HnswIndex::GraphImageSize() const {
  const auto lock = LinkedReadLock();
  // Header through the level-sampler RNG: version, mode byte, dim,
  // degree, node count, live count, entry, entry level, 4 RNG words, the
  // cached normal, and its flag.
  size_t bytes = 4 + 1 + 8 * 4 + 4 + 4 + 8 * 4 + 8 + 1;
  for (const Node& node : nodes_) {
    bytes += 8 + 4 + 1;  // id, level, tombstone flag
    for (const std::vector<uint32_t>& layer : node.links) {
      bytes += 4 + 4 * layer.size();
    }
  }
  bytes += 8 + arena_.size() * sizeof(float);  // arena length, arena
  return bytes;
}

bool HnswIndex::LoadGraph(ByteReader* reader, uint64_t image_bytes) {
  // Parse and validate into locals first: a mismatched or corrupted image
  // must leave the index exactly as it was (the caller rebuilds instead).
  ByteReader& r = *reader;
  if (image_bytes > r.remaining()) {
    return false;
  }
  // What remains of the reader once the image is read; a read that crosses
  // it has overrun the image.
  const uint64_t after = r.remaining() - image_bytes;
  const uint32_t version = r.GetU32();
  if (version != kGraphFormatVersion && version != 1) {
    return false;
  }
  // v1 images have no mode byte; v2's must be 0, the float arena.
  if (version >= 2 && r.GetU8() != 0) {
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
  // Every node costs at least its id, level, tombstone flag and layer-0
  // link count, plus `dim` arena floats, so node_count is bounded by the
  // image itself, which keeps the reserve() below sane on corrupted input.
  constexpr uint64_t kMinNodeBytes = 8 + 4 + 1 + 4;
  if (!r.ok() || dim != config_.dim || max_neighbors != config_.max_neighbors ||
      live > node_count ||
      node_count > image_bytes / (kMinNodeBytes + config_.dim * sizeof(float))) {
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
    if (!r.ok() || r.remaining() < after) {
      return false;
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
  if (!r.ok() || r.remaining() < after || arena_len != node_count * config_.dim) {
    return false;
  }
  if (r.remaining() - after != arena_len * sizeof(float)) {
    return false;
  }
  std::vector<float> arena(static_cast<size_t>(arena_len));
  if (!r.GetBytes(arena.data(), arena.size() * sizeof(float))) {
    return false;
  }
  // Searches descend from the entry node's links at the entry level, so
  // those links must exist.
  if (slot_of.size() != live ||
      (node_count > 0 && (entry >= node_count || entry_level < 0 || entry_level > kMaxLevel ||
                          nodes[entry].level < entry_level)) ||
      (node_count == 0 && entry_level != -1)) {
    return false;
  }

  std::unique_lock<std::shared_mutex> lock(mu_);
  nodes_ = std::move(nodes);
  arena_ = std::move(arena);
  slot_of_ = std::move(slot_of);
  entry_ = entry;
  entry_level_ = entry_level;
  live_ = static_cast<size_t>(live);
  rng_.RestoreState(rng);
  insert_epochs_.assign(nodes_.size(), 0);
  insert_epoch_ = 0;
  linked_ = nodes_.size();
  return true;
}

std::vector<uint64_t> HnswIndex::LiveIds() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<uint64_t> ids;
  ids.reserve(slot_of_.size());
  for (const auto& [id, slot] : slot_of_) {
    ids.push_back(id);
  }
  return ids;
}

}  // namespace iccache
