// Hierarchical Navigable Small World (HNSW) graph index — the online ANN
// substrate for stage-1 retrieval at cache sizes where brute force and static
// K-Means clustering stop being viable (millions of cached examples; cf. the
// paper's GPU FAISS deployment, section 5).
//
// Properties the serving path relies on:
//
//  * Incremental Add, linked later: Add draws the node's level and appends
//    its vector; Flush (or the next read) wires every pending node into the
//    multi-layer graph in append order, O(ef_construction * degree) distance
//    evaluations each — no global rebuild, so the index never goes stale
//    under churn (unlike KMeansIndex, whose clusters drift between
//    rebuilds). A pending node has no links in or out, so the graph is the
//    one linking at every Add would build; splitting the steps only moves
//    the link work, which lets the serving driver link all its shards in
//    parallel.
//  * Tombstone Remove: deletion marks the node and keeps it as a traversal
//    waypoint (removing it outright would tear holes in the graph). Search
//    filters tombstones from results; when tombstones exceed
//    `max_tombstone_fraction` of all slots the graph is compacted by
//    re-inserting the live nodes.
//  * One beam search: the link step and every query run the same BeamSearch
//    (4-ary heaps of 8-byte keys, a branch-free marking pass and one
//    simd::DotMany call per hop), the link step per layer at width
//    ef_construction, a query at layer 0 at width max(ef_search, k) after a
//    greedy descent through the upper layers. Queries in a batch run one
//    after another, so a query's result does not depend on its batch.
//  * Concurrent readers: SearchBatch takes a shared lock and keeps all query
//    state in the caller's scratch (Search's is thread-local), so any number
//    of threads may search while at most one mutates
//    (Add/Remove/Compact/Flush take the exclusive lock; a reader that finds
//    pending nodes takes it once to link them, in the index's own link
//    scratch). This matches the sharded cache's locking discipline but also
//    makes the index safe standalone.
//
// Vectors are expected L2-normalized (HashingEmbedder output); similarity is
// the inner product == cosine, higher is better, consistent with FlatIndex.
#ifndef SRC_INDEX_HNSW_H_
#define SRC_INDEX_HNSW_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "src/common/binio.h"
#include "src/common/rng.h"
#include "src/index/vector_arena.h"
#include "src/index/vector_index.h"

namespace iccache {

struct HnswIndexConfig {
  size_t dim = 128;
  // Degree bound M: layers >= 1 keep at most M links per node, layer 0 keeps
  // 2M (the standard HNSW setting; layer 0 holds every node).
  size_t max_neighbors = 32;
  // Beam width while wiring a new node in. Larger = better graph, slower Add.
  size_t ef_construction = 200;
  // Beam width for Search and SearchBatch; raise for recall, lower for
  // latency. A recall/latency sweep loads one graph image (SaveGraph /
  // LoadGraph) into an index per width.
  size_t ef_search = 192;
  // Compact (rebuild from live nodes) when tombstones exceed this fraction of
  // total slots and there are at least `min_tombstones_to_compact` of them.
  static constexpr double max_tombstone_fraction = 0.25;
  size_t min_tombstones_to_compact = 64;
  // Visited-scratch high-watermark: a search scratch's (or the link step's)
  // epoch buffer is rebuilt when its capacity exceeds BOTH this floor and 4x
  // the current node count, so long-lived serving threads stop pinning
  // peak-size buffers after the graph shrinks (eviction, compaction). Never
  // fires near the peak, so steady-state search stays allocation-free.
  size_t visited_shrink_floor = size_t{1} << 16;
  uint64_t seed = 0x9f5eed;
};

// --- Beam keys ---------------------------------------------------------------
//
// The HNSW beam (BeamSearch, run by the link step and by every query) holds
// each entry as one 8-byte key: the similarity's float bits in unsigned
// order in the high word, the slot in the low word. Similarities are
// float-accumulated (simd::Dot widens a float), so the float is exact, and
// for every finite similarity key order equals std::pair<double, uint32_t>
// order: non-negatives get the sign bit set, negatives are inverted, and -0
// folds onto +0, which the pair comparison already treats as equal. So a
// heap of keys runs the comparisons a heap of pairs would, at half the
// bytes.
inline uint64_t BeamKey(double sim, uint32_t slot) {
  const float f = static_cast<float>(sim);
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  if (bits == 0x80000000u) {
    bits = 0;  // -0 sorts as +0
  }
  bits = (bits & 0x80000000u) != 0 ? ~bits : (bits | 0x80000000u);
  return (uint64_t{bits} << 32) | slot;
}

// The similarity a key holds, bit for bit (-0 comes back as +0).
inline float BeamKeySim(uint64_t key) {
  uint32_t bits = static_cast<uint32_t>(key >> 32);
  bits = (bits & 0x80000000u) != 0 ? (bits & 0x7fffffffu) : ~bits;
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

inline uint32_t BeamKeySlot(uint64_t key) { return static_cast<uint32_t>(key); }

// --- Beam heaps --------------------------------------------------------------
//
// BeamSearch keeps its frontier and its result set as 4-ary heaps of beam
// keys: half a binary heap's depth, and a node's four children share one
// 32-byte run. `Before` orders keys as std::push_heap's comparator does:
// std::less<uint64_t> makes a max-heap, std::greater<uint64_t> a min-heap.
// The keys in one heap must be unique. Then every valid heap over the same
// keys pops them in the same order, so the heap's shape never reaches a
// result.
template <typename Before>
struct BeamHeap {
  // Restores the heap after heap.push_back(key).
  static void SiftUpBack(std::vector<uint64_t>& heap) {
    uint64_t* h = heap.data();
    size_t i = heap.size() - 1;
    const uint64_t key = h[i];
    while (i > 0) {
      const size_t parent = (i - 1) / 4;
      if (!Before{}(h[parent], key)) {
        break;
      }
      h[i] = h[parent];
      i = parent;
    }
    h[i] = key;
  }

  // Removes and returns the front key. The heap must not be empty.
  static uint64_t Pop(std::vector<uint64_t>& heap) {
    const uint64_t front = heap.front();
    const uint64_t last = heap.back();
    heap.pop_back();
    if (!heap.empty()) {
      SiftDown(heap.data(), heap.size(), last);
    }
    return front;
  }

  // Overwrites the front key with `key` and restores the heap in one sift:
  // the set a push of `key` followed by a pop would leave, whenever `key`
  // does not itself belong at the front. The heap must not be empty.
  static void ReplaceFront(std::vector<uint64_t>& heap, uint64_t key) {
    SiftDown(heap.data(), heap.size(), key);
  }

 private:
  // Moves the hole at the root down to where `key` belongs among h[0, n).
  static void SiftDown(uint64_t* h, size_t n, uint64_t key) {
    size_t i = 0;
    for (;;) {
      const size_t first = 4 * i + 1;
      if (first >= n) {
        break;
      }
      const size_t end = first + 4 < n ? first + 4 : n;
      size_t best = first;
      for (size_t c = first + 1; c < end; ++c) {
        if (Before{}(h[best], h[c])) {
          best = c;
        }
      }
      if (!Before{}(key, h[best])) {
        break;
      }
      h[i] = h[best];
      i = best;
    }
    h[i] = key;
  }
};
using MaxBeamHeap = BeamHeap<std::less<uint64_t>>;     // front: the best key
using MinBeamHeap = BeamHeap<std::greater<uint64_t>>;  // front: the worst key

class HnswIndex : public VectorIndex {
 public:
  explicit HnswIndex(HnswIndexConfig config = {});

  // Appends (or overwrites) the vector for id as a pending node. Takes the
  // exclusive lock. An overwrite links every pending node first, so the old
  // node is tombstoned exactly as linking at every Add would leave it.
  Status Add(uint64_t id, std::vector<float> vec) override;

  // Tombstones id; returns false when absent. Links pending nodes first;
  // may trigger compaction.
  bool Remove(uint64_t id) override;

  // Links every pending node, in append order, under the exclusive lock.
  void Flush() override;
  size_t pending() const override;

  // Batched top-k by cosine similarity with beam width max(ef_search, k):
  // ONE shared lock for the whole batch (safe from many threads concurrently
  // with one writer), then each query in turn descends greedily to layer 0,
  // runs BeamSearch there and drops tombstones from its beam. A query runs
  // the same operations at every batch size, so results do not depend on
  // the batch — and every buffer lives in the caller's SearchScratch, so
  // steady-state batches allocate nothing.
  void SearchBatch(const float* queries, size_t num_queries, size_t query_dim, size_t k,
                   SearchScratch* scratch) const override;

  // Copies the vector for a live id; false for absent or tombstoned ids.
  bool GetVector(uint64_t id, std::vector<float>* out) const override;

  size_t size() const override;  // live (non-tombstoned) vectors

  // --- Native graph persistence (snapshot subsystem) -----------------------
  //
  // SaveGraph serializes the complete graph image — nodes with their
  // per-layer links (tombstones included: they are traversal waypoints),
  // the vector arena, the entry point, and the level-sampler RNG stream —
  // so LoadGraph reproduces a BIT-IDENTICAL index: identical searches now
  // and identical graphs after any sequence of future inserts. Loading is
  // O(bytes) (no re-insertion), which is what makes restoring a 100k-vector
  // pool cheap compared to an O(N * ef_construction) rebuild.
  // The image streams through `out`, the arena one block at a time, as one
  // float run in slot order.
  void SaveGraph(ByteWriter* out) const;

  // Exact byte length of SaveGraph's image, so a stream can length-prefix
  // the image before writing it. Equal to what SaveGraph writes as long as
  // no Add or Remove runs in between.
  size_t GraphImageSize() const;

  // Decodes the image that occupies exactly the next `image_bytes` bytes of
  // `reader`, reading its node table and arena straight into the locals it
  // validates (a streaming reader never holds the image whole). Validates
  // the embedded format version, dimension, and degree bound against this
  // index's config and the graph's structure before touching any state; on
  // mismatch or corruption the index is left untouched and false is
  // returned (the caller falls back to rebuilding from raw embeddings),
  // and the reader's position is unspecified. On success the reader stands
  // at the image's end and the previous contents are replaced wholesale.
  bool LoadGraph(ByteReader* reader, uint64_t image_bytes);

  // Live (non-tombstoned) ids, pending ones included, in no set order.
  std::vector<uint64_t> LiveIds() const;

  // Diagnostics. size(), tombstones() and arena_bytes() count pending nodes.
  size_t tombstones() const;
  int max_level() const;
  // Bytes the stored vectors occupy: slots x dim x 4. Tombstoned slots
  // included — they still occupy arena space until compaction.
  // bench_retrieval_scaling prints and records it per vector.
  size_t arena_bytes() const;

  // Rebuilds the graph from the live nodes (pending ones included), dropping
  // every tombstone, and leaves nothing pending. Normally triggered
  // automatically by Remove; exposed for tests and for maintenance windows.
  void Compact();

  const HnswIndexConfig& config() const { return config_; }

 private:
  struct Node {
    uint64_t id = 0;
    int level = 0;
    bool deleted = false;
    // links[l] = neighbor slots at layer l, 0 <= l <= level.
    std::vector<std::vector<uint32_t>> links;
  };

  size_t LayerCap(int layer) const {
    return layer == 0 ? 2 * config_.max_neighbors : config_.max_neighbors;
  }

  int SampleLevel();

  // nodes_[s]'s vector is arena slot s. The hot loops read slots through a
  // VectorArena::View held in a local instead.
  const float* VecOf(uint32_t slot) const { return arena_.Vec(slot); }

  // query-vs-slot similarity. A node being linked is its own query, aliasing
  // its arena slot (linking never grows the arena).
  double SimQ(const float* query, uint32_t slot) const;
  // stored-vs-stored similarity, for the diversity heuristic and link pruning.
  double SimSlots(uint32_t a, uint32_t b) const;

  // Greedy hill-climb at `layer` starting from `slot`; returns the local
  // optimum slot for `query`.
  uint32_t GreedyStep(const float* query, uint32_t slot, int layer) const;

  // Sizes s's visited epochs to the graph, first dropping a buffer far above
  // it (config_.visited_shrink_floor).
  void PrepareVisited(SearchScratch& s) const;

  // The one beam search, at one layer from `entry`, keeping the ef best.
  // The frontier and the result set are 4-ary BeamHeaps of unique keys; a
  // neighbor that beats a full result set replaces its worst key in one
  // sift. The visited set is s.epochs under a fresh s.epoch (slot visited
  // iff the two are equal; the buffer is zeroed when the epoch wraps). Each
  // hop's marking pass stamps every link of the popped node with the epoch
  // and keeps, without a data-dependent branch, the ones it had not seen, in
  // link order; it prefetches and gathers only those, scores them with one
  // simd::DotMany call and pushes them in that order. Traverses through
  // tombstones (they remain waypoints); the caller filters them. Leaves the
  // result keys best-first in s.beam.results. Adds the slots it marked (the
  // entry included) to *visited and the nodes it expanded to *hops, where
  // non-null. Needs PrepareVisited(s) since the graph last grew.
  void BeamSearch(const float* query, uint32_t entry, int layer, size_t ef, SearchScratch& s,
                  uint64_t* visited, uint64_t* hops) const;

  // The HNSW diversity heuristic (Malkov & Yashunin, Alg. 4): scanning
  // `candidates` (beam keys, best-first), keep a candidate only if it is
  // closer to the query than to every already-kept neighbor (no backfill —
  // redundant links waste degree slots that long-range edges need).
  std::vector<uint32_t> SelectNeighbors(const std::vector<uint64_t>& candidates,
                                        size_t max_count) const;

  // Re-prunes `slot`'s layer-`layer` neighbor list down to LayerCap.
  void ShrinkLinks(uint32_t slot, int layer);

  // The append step: draws id's level and appends its vector, its id and a
  // node with no links (pending until LinkPendingLocked reaches it).
  void AppendLocked(uint64_t id, const std::vector<float>& vec);
  // The link step: wires every pending node into the graph in append order.
  // A node's links depend only on the nodes before it, which pending nodes
  // cannot change: they are unreachable (no links in, never the entry).
  void LinkPendingLocked();
  // A shared lock over a graph with nothing pending. A reader that finds
  // pending nodes links them under the exclusive lock first.
  std::shared_lock<std::shared_mutex> LinkedReadLock() const;
  bool RemoveLocked(uint64_t id);
  void CompactLocked();
  void MaybeCompactLocked();

  mutable std::shared_mutex mu_;
  HnswIndexConfig config_;
  double level_multiplier_;  // 1 / ln(M)
  Rng rng_;

  std::vector<Node> nodes_;
  VectorArena arena_;  // nodes_[s]'s vector in slot s
  std::unordered_map<uint64_t, uint32_t> slot_of_;  // live ids only
  uint32_t entry_ = 0;
  int entry_level_ = -1;  // -1 == empty graph (or nothing linked yet)
  size_t live_ = 0;
  // nodes_[0, linked_) are wired into the graph; the rest are pending. Only
  // live nodes are ever pending: Remove and an overwriting Add link first.
  size_t linked_ = 0;

  // The link step's beam scratch. Linking holds the exclusive lock, so one
  // scratch serves every link; readers keep theirs in a SearchScratch of
  // their own, so a reader never shares beam state with the writer.
  SearchScratch link_scratch_;
};

}  // namespace iccache

#endif  // SRC_INDEX_HNSW_H_
