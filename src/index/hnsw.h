// Hierarchical Navigable Small World (HNSW) graph index — the online ANN
// substrate for stage-1 retrieval at cache sizes where brute force and static
// K-Means clustering stop being viable (millions of cached examples; cf. the
// paper's GPU FAISS deployment, section 5).
//
// Properties the serving path relies on:
//
//  * Incremental Add: each insert wires the new vector into the multi-layer
//    graph in O(ef_construction * degree) distance evaluations — no global
//    rebuild, so the index never goes stale under churn (unlike KMeansIndex,
//    whose clusters drift between rebuilds).
//  * Tombstone Remove: deletion marks the node and keeps it as a traversal
//    waypoint (removing it outright would tear holes in the graph). Search
//    filters tombstones from results; when tombstones exceed
//    `max_tombstone_fraction` of all slots the graph is compacted by
//    re-inserting the live nodes.
//  * Concurrent readers: Search takes a shared lock and uses thread-local
//    scratch, so any number of threads may search while at most one mutates
//    (Add/Remove/Compact take the exclusive lock). This matches the sharded
//    cache's locking discipline but also makes the index safe standalone.
//
// Vectors are expected L2-normalized (HashingEmbedder output); similarity is
// the inner product == cosine, higher is better, consistent with FlatIndex.
#ifndef SRC_INDEX_HNSW_H_
#define SRC_INDEX_HNSW_H_

#include <cstdint>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/binio.h"
#include "src/common/rng.h"
#include "src/index/vector_index.h"

namespace iccache {

struct HnswIndexConfig {
  size_t dim = 128;
  // Degree bound M: layers >= 1 keep at most M links per node, layer 0 keeps
  // 2M (the standard HNSW setting; layer 0 holds every node).
  size_t max_neighbors = 32;
  // Beam width while wiring a new node in. Larger = better graph, slower Add.
  size_t ef_construction = 200;
  // Default beam width for Search; raise for recall, lower for latency.
  // SearchEf overrides per call.
  size_t ef_search = 192;
  // Compact (rebuild from live nodes) when tombstones exceed this fraction of
  // total slots and there are at least `min_tombstones_to_compact` of them.
  static constexpr double max_tombstone_fraction = 0.25;
  size_t min_tombstones_to_compact = 64;
  // Int8 scalar quantization of the vector arena: each vector is stored as
  // dim int8 codes plus one float scale (symmetric, scale = max|x| / 127),
  // cutting arena memory ~3.9x at dim=128 and letting graph traversal run on
  // the bit-exact integer dot kernel. Queries quantize once on entry; the
  // top `rerank_k` beam candidates are re-scored against the float query
  // (asymmetric f32xi8 dot) so quantization noise does not reorder the final
  // top-k. Takes effect at construction; LoadGraph rejects images whose
  // quantization mode differs (caller falls back to a rebuild).
  bool quantize_int8 = false;
  // Number of beam candidates re-scored with the float query before the final
  // top-k cut (only meaningful with quantize_int8; clamped up to k).
  size_t rerank_k = 64;
  // Reader visited-scratch high-watermark: a search scratch's epoch buffer is
  // rebuilt when its capacity exceeds BOTH this floor and 4x the current node
  // count, so long-lived serving threads stop pinning peak-size buffers after
  // the graph shrinks (eviction, compaction). Never fires near the peak, so
  // steady-state search stays allocation-free.
  size_t visited_shrink_floor = size_t{1} << 16;
  uint64_t seed = 0x9f5eed;
};

// Process-wide rerank counters (monotonic; all HnswIndex instances). The
// serving driver samples these at window boundaries and publishes deltas as
// metrics — plumbing a hub through every index would couple layers for two
// numbers.
uint64_t HnswRerankQueriesTotal();
uint64_t HnswRerankCandidatesTotal();

class HnswIndex : public VectorIndex {
 public:
  explicit HnswIndex(HnswIndexConfig config = {});

  // Inserts (or overwrites) the vector for id. Takes the exclusive lock.
  Status Add(uint64_t id, std::vector<float> vec) override;

  // Tombstones id; returns false when absent. May trigger compaction.
  bool Remove(uint64_t id) override;

  // Top-k by cosine similarity with beam width ef_search. Shared lock;
  // safe to call from many threads concurrently with one writer.
  std::vector<SearchResult> Search(const std::vector<float>& query, size_t k) const override;

  // Search with an explicit beam width (recall/latency sweeps).
  std::vector<SearchResult> SearchEf(const std::vector<float>& query, size_t k, size_t ef) const;

  // Batched top-k: ONE shared lock for the whole batch, queries traversed in
  // interleaved groups so one query's compute hides another's arena-line
  // misses (each 2a pass prefetches the next hop's neighbor vectors/codes;
  // the matching 2b pass scores them after the other queries' passes have
  // covered the latency). Per query the traversal is the exact single-query
  // algorithm over per-query beam state, so results are bit-identical to
  // Search(query_i, k) — and every buffer lives in the caller's SearchScratch,
  // so steady-state batches allocate nothing.
  void SearchBatch(const float* queries, size_t num_queries, size_t query_dim, size_t k,
                   SearchScratch* scratch) const override;

  // Batched search with an explicit beam width.
  void SearchBatchEf(const float* queries, size_t num_queries, size_t query_dim, size_t k,
                     size_t ef, SearchScratch* scratch) const;

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
  // The image streams through `out` (the arena block bypasses a streaming
  // writer's buffer); the string overload returns it whole.
  void SaveGraph(ByteWriter* out) const;
  void SaveGraph(std::string* out) const;

  // Exact byte length of SaveGraph's image, so a stream can length-prefix
  // the image before writing it. Equal to what SaveGraph writes as long as
  // no Add or Remove runs in between.
  size_t GraphImageSize() const;

  // Validates the blob's embedded format version, dimension, and degree
  // bound against this index's config before touching any state; on
  // mismatch or corruption the index is left untouched and false is
  // returned (the caller falls back to rebuilding from raw embeddings).
  // On success the previous contents are replaced wholesale.
  bool LoadGraph(std::string_view blob);

  // Diagnostics.
  size_t tombstones() const;
  int max_level() const;
  // Bytes of vector storage currently held (float arena, or int8 codes plus
  // scales when quantized). Tombstoned slots included — they still occupy
  // arena space until compaction. Feeds the bytes-per-vector CI gate.
  size_t arena_bytes() const;

  // Rebuilds the graph from the live nodes, dropping every tombstone.
  // Normally triggered automatically by Remove; exposed for tests and for
  // maintenance windows.
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

  // (similarity, slot) scored candidate; ordered best-first where sorted.
  struct ScoredSlot {
    double sim = 0.0;
    uint32_t slot = 0;
  };

  size_t LayerCap(int layer) const {
    return layer == 0 ? 2 * config_.max_neighbors : config_.max_neighbors;
  }

  int SampleLevel();

  // Vectors live in one flat arena (slot-major): `dim` floats per slot, or —
  // with quantize_int8 — `dim` int8 codes per slot plus a parallel scales_
  // array. One indirection per distance evaluation and prefetchable by
  // address arithmetic, which is what makes graph hops cheap at 100k+
  // vectors.
  const float* VecOf(uint32_t slot) const { return arena_.data() + slot * config_.dim; }
  const int8_t* QVecOf(uint32_t slot) const { return qarena_.data() + slot * config_.dim; }

  // A query as the traversal kernels see it: the float form always, plus the
  // int8 codes + scale when the arena is quantized. For inserts the int8 side
  // aliases the just-appended arena slot (stable until the next Add).
  struct QueryRef {
    const float* f32 = nullptr;
    const int8_t* i8 = nullptr;
    float scale = 0.0f;
  };

  // query-vs-slot similarity (quantized domain when enabled).
  double SimQ(const QueryRef& query, uint32_t slot) const;
  // stored-vs-stored similarity, for the diversity heuristic and link pruning.
  double SimSlots(uint32_t a, uint32_t b) const;

  // Greedy hill-climb at `layer` starting from `slot`; returns the local
  // optimum slot for `query`.
  uint32_t GreedyStep(const QueryRef& query, uint32_t slot, int layer) const;

  // Beam search at one layer. `epochs`/`epoch` implement an O(1)-reset
  // visited set (slot visited iff epochs[slot] == epoch). Traverses through
  // tombstones (they remain waypoints); the caller filters them. When
  // `visited`/`hops` are non-null they accumulate the number of distinct
  // nodes marked visited and of frontier expansions (tracing only — callers
  // pass nullptr on the untraced path so the loop stays counter-free).
  std::vector<ScoredSlot> SearchLayer(const QueryRef& query, uint32_t entry, int layer, size_t ef,
                                      std::vector<uint32_t>& epochs, uint32_t epoch,
                                      uint64_t* visited = nullptr,
                                      uint64_t* hops = nullptr) const;

  // The HNSW diversity heuristic (Malkov & Yashunin, Alg. 4): scanning
  // best-first, keep a candidate only if it is closer to the query than to
  // every already-kept neighbor (no backfill — redundant links waste degree
  // slots that long-range edges need).
  std::vector<uint32_t> SelectNeighbors(const std::vector<ScoredSlot>& candidates,
                                        size_t max_count) const;

  // Re-prunes `slot`'s layer-`layer` neighbor list down to LayerCap.
  void ShrinkLinks(uint32_t slot, int layer);

  void InsertLocked(uint64_t id, std::vector<float> vec);
  bool RemoveLocked(uint64_t id);
  void CompactLocked();
  void MaybeCompactLocked();
  std::vector<SearchResult> SearchLocked(const std::vector<float>& query, size_t k,
                                         size_t ef) const;
  // The shared batch core (Search/SearchEf run it at batch size 1 over a
  // thread-local scratch — one traversal implementation, so batch-vs-single
  // identity is structural rather than re-proved per change).
  void SearchBatchLocked(const float* queries, size_t num_queries, size_t query_dim, size_t k,
                         size_t ef, SearchScratch& scratch) const;

  mutable std::shared_mutex mu_;
  HnswIndexConfig config_;
  double level_multiplier_;  // 1 / ln(M)
  Rng rng_;

  std::vector<Node> nodes_;
  // Exactly one arena is populated: arena_ (float mode) or qarena_ + scales_
  // (quantized mode) — keeping both would defeat the memory point of
  // quantizing.
  std::vector<float> arena_;    // nodes_[s]'s vector at [s*dim, (s+1)*dim)
  std::vector<int8_t> qarena_;  // int8 codes, same slot-major layout
  std::vector<float> scales_;   // scales_[s]: dequant factor for slot s
  std::unordered_map<uint64_t, uint32_t> slot_of_;  // live ids only
  uint32_t entry_ = 0;
  int entry_level_ = -1;  // -1 == empty graph
  size_t live_ = 0;

  // Writer-side visited scratch (Add/Compact hold the exclusive lock, so a
  // shared buffer is safe there; Search uses a thread_local one so concurrent
  // readers never share state).
  std::vector<uint32_t> insert_epochs_;
  uint32_t insert_epoch_ = 0;
};

}  // namespace iccache

#endif  // SRC_INDEX_HNSW_H_
