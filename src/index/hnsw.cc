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

inline void Prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}

// A vector's first two cache lines.
inline void PrefetchLine(const void* p) {
  Prefetch(p);
  Prefetch(static_cast<const char*>(p) + 64);
}

}  // namespace

HnswIndex::HnswIndex(HnswIndexConfig config)
    : config_(config),
      level_multiplier_(1.0 /
                        std::log(static_cast<double>(std::max<size_t>(2, config.max_neighbors)))),
      rng_(config.seed),
      arena_(config.dim) {}

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

void HnswIndex::PrepareVisited(SearchScratch& s) const {
  // Visited high-watermark: the epoch buffer tracks nodes_.size() and would
  // otherwise only ever grow, pinning a peak-size buffer after the graph
  // shrinks (eviction, compaction). Rebuild it once capacity is far above
  // what the graph needs; never fires while the graph is at or near its
  // peak, so steady state stays allocation-free.
  if (s.epochs.capacity() > config_.visited_shrink_floor &&
      s.epochs.capacity() / 4 > nodes_.size()) {
    std::vector<uint32_t>().swap(s.epochs);
    s.epoch = 0;
  }
  if (s.epochs.size() < nodes_.size()) {
    s.GrowResize(s.epochs, nodes_.size());
  }
}

void HnswIndex::BeamSearch(const float* query, uint32_t entry, int layer, size_t ef,
                           SearchScratch& s, uint64_t* visited, uint64_t* hops) const {
  // A fresh epoch empties the visited set in O(1). When it wraps to 0, every
  // slot still marked 0 would read as visited, so clear the buffer once.
  if (++s.epoch == 0) {
    std::fill(s.epochs.begin(), s.epochs.end(), 0);
    s.epoch = 1;
  }
  const uint32_t epoch = s.epoch;
  // candidates: 4-ary max-heap of beam keys (frontier to expand); results:
  // 4-ary min-heap, bounded to ef (current best set). Keys are unique and
  // key order is (similarity, slot) order, so both pop what std::priority_queue
  // over the pairs would.
  std::vector<uint64_t>& candidates = s.beam.candidates;
  std::vector<uint64_t>& results = s.beam.results;
  std::vector<uint32_t>& pending = s.beam.pending;
  const VectorArena::View vecs = arena_.view();
  const size_t dim = config_.dim;
  candidates.clear();
  results.clear();
  const uint64_t entry_key = BeamKey(simd::Dot(query, vecs.Vec(entry), dim), entry);
  s.GrowPush(candidates, entry_key);
  s.GrowPush(results, entry_key);
  s.epochs[entry] = epoch;
  uint64_t marked = 1;
  uint64_t expanded = 0;

  while (!candidates.empty()) {
    const uint64_t top = MaxBeamHeap::Pop(candidates);
    if (results.size() >= ef && BeamKeySim(top) < BeamKeySim(results.front())) {
      break;  // frontier can no longer improve the result set
    }
    // The next frontier key is likely the next node expanded: start fetching
    // its links while this hop runs (a new, better neighbor wastes only the
    // prefetch).
    if (!candidates.empty()) {
      Prefetch(nodes_[BeamKeySlot(candidates.front())].links[layer].data());
    }
    ++expanded;
    // Mark the popped node's links: every link gets the epoch, and only an
    // unvisited one advances the count, so the kept slots land in link order
    // with no data-dependent branch (a repeated link counts once). Then warm
    // the kept slots' arena lines (graph hops are random access) and score
    // them with one call. The buffers hold the level-0 degree bound, or a
    // loaded image's longer list.
    const std::vector<uint32_t>& links = nodes_[BeamKeySlot(top)].links[layer];
    if (pending.size() < links.size()) {
      s.GrowResize(pending, std::max(links.size(), LayerCap(0)));
      s.GrowResize(s.gather_vecs, pending.size());
      s.GrowResize(s.gather_sims, pending.size());
    }
    uint32_t* epochs = s.epochs.data();
    size_t count = 0;
    for (const uint32_t neighbor : links) {
      pending[count] = neighbor;
      count += epochs[neighbor] != epoch ? 1 : 0;
      epochs[neighbor] = epoch;
    }
    for (size_t i = 0; i < count; ++i) {
      const float* vec = vecs.Vec(pending[i]);
      PrefetchLine(vec);
      s.gather_vecs[i] = vec;
    }
    marked += count;
    simd::DotMany(query, s.gather_vecs.data(), count, dim, s.gather_sims.data());
    for (size_t i = 0; i < count; ++i) {
      const double neighbor_sim = s.gather_sims[i];
      const bool full = results.size() >= ef;
      if (full && !(neighbor_sim > BeamKeySim(results.front()))) {
        continue;
      }
      const uint64_t key = BeamKey(neighbor_sim, pending[i]);
      s.GrowPush(candidates, key);
      MaxBeamHeap::SiftUpBack(candidates);
      if (full) {
        // The key beats the worst result, so it takes the worst one's place:
        // the set a push and then a pop of the worst would leave.
        MinBeamHeap::ReplaceFront(results, key);
      } else {
        s.GrowPush(results, key);
        MinBeamHeap::SiftUpBack(results);
      }
    }
  }
  // Best-first; keys are unique, so this is the order popping the heap
  // would give.
  std::sort(results.begin(), results.end(), std::greater<uint64_t>{});
  if (visited != nullptr) {
    *visited += marked;
  }
  if (hops != nullptr) {
    *hops += expanded;
  }
}

std::vector<uint32_t> HnswIndex::SelectNeighbors(const std::vector<uint64_t>& candidates,
                                                 size_t max_count) const {
  std::vector<uint32_t> selected;
  selected.reserve(max_count);
  for (const uint64_t candidate : candidates) {
    if (selected.size() >= max_count) {
      break;
    }
    // Keep only candidates closer to the query than to any kept neighbor:
    // this spreads links across directions instead of clustering them on the
    // nearest blob (no backfill of pruned candidates — redundant links waste
    // degree slots that long-range edges need).
    const uint32_t slot = BeamKeySlot(candidate);
    const double sim = BeamKeySim(candidate);
    bool diverse = true;
    for (uint32_t kept : selected) {
      if (SimSlots(slot, kept) > sim) {
        diverse = false;
        break;
      }
    }
    if (diverse) {
      selected.push_back(slot);
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
  std::vector<uint64_t> scored;
  scored.reserve(links.size());
  for (uint32_t neighbor : links) {
    scored.push_back(BeamKey(SimSlots(slot, neighbor), neighbor));
  }
  // Best-first by similarity (the key's high word), ties in ascending slot
  // order.
  std::sort(scored.begin(), scored.end(), [](uint64_t a, uint64_t b) {
    return (a >> 32) != (b >> 32) ? a > b : a < b;
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
  arena_.Append(vec.data());
  slot_of_[id] = slot;
  ++live_;
}

void HnswIndex::LinkPendingLocked() {
  PrepareVisited(link_scratch_);
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
      BeamSearch(query, cur, layer, std::max<size_t>(1, config_.ef_construction), link_scratch_,
                 nullptr, nullptr);
      const std::vector<uint64_t>& found = link_scratch_.beam.results;
      cur = found.empty() ? cur : BeamKeySlot(found[0]);
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
    arena_.Clear();
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
  arena_.Clear();
  slot_of_.clear();
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

void HnswIndex::SearchBatch(const float* queries, size_t num_queries, size_t query_dim,
                            size_t k, SearchScratch* scratch) const {
  const auto lock = LinkedReadLock();
  SearchScratch& s = *scratch;
  s.BeginOutput(num_queries);
  if (num_queries == 0 || k == 0 || entry_level_ < 0 || query_dim != config_.dim) {
    return;  // offsets are all zero: every query reports an empty result range
  }
  PrepareVisited(s);
  if (s.heaps.empty()) {
    ++s.grows;
    s.heaps.resize(1);
  }
  std::vector<std::pair<double, uint64_t>>& heap = s.heaps[0];
  // One span per call; its args sum the queries' layer-0 visited and
  // frontier-expansion counts.
  TraceSpan span(TraceCategory::kHnswSearch);
  uint64_t visited = 0;
  uint64_t hops = 0;
  for (size_t qi = 0; qi < num_queries; ++qi) {
    const float* query = queries + qi * query_dim;
    uint32_t cur = entry_;
    for (int layer = entry_level_; layer >= 1; --layer) {
      cur = GreedyStep(query, cur, layer);
    }
    BeamSearch(query, cur, 0, std::max(config_.ef_search, k), s, &visited, &hops);
    // The beam keeps tombstones as waypoints; drop them from the results.
    heap.clear();
    for (const uint64_t key : s.beam.results) {
      const Node& node = nodes_[BeamKeySlot(key)];
      if (!node.deleted) {
        ScratchTopK::Push(heap, k, BeamKeySim(key), node.id, s);
      }
    }
    ScratchTopK::DrainDescending(heap, &s.results, s);
    s.EndQuery(qi);
  }
  span.SetArgs(visited, hops);
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
  return arena_.size() * config_.dim * sizeof(float);
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
  // Arena as one raw little-endian float run in slot order (the dominant
  // payload), written block by block.
  w.PutU64(arena_.size() * config_.dim);
  for (size_t b = 0; b < arena_.num_blocks(); ++b) {
    w.PutBytes(arena_.Block(b), arena_.BlockSlots(b) * config_.dim * sizeof(float));
  }
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
  bytes += 8 + arena_.size() * config_.dim * sizeof(float);  // arena length, arena
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
  // Every count is checked against the image by now; each block's slice
  // goes straight from the reader into the block.
  VectorArena arena(config_.dim);
  while (arena.size() < node_count) {
    const size_t count =
        std::min<size_t>(VectorArena::kBlockSlots, static_cast<size_t>(node_count) - arena.size());
    if (!r.GetBytes(arena.AppendBlock(count), count * config_.dim * sizeof(float))) {
      return false;
    }
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
