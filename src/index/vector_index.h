// Vector similarity-search substrate (stand-in for the paper's GPU FAISS
// deployment, section 5). Two implementations share one interface:
//
//  * FlatIndex    — exact brute-force search; the correctness reference.
//  * KMeansIndex  — inverted-file index over K-Means clusters with the paper's
//                   K = sqrt(N) sizing (section 4.1); approximate but probes
//                   only nprobe clusters per query.
//
// Vectors are expected to be L2-normalized (the HashingEmbedder guarantees
// this), so the similarity score is the inner product == cosine similarity.
#ifndef SRC_INDEX_VECTOR_INDEX_H_
#define SRC_INDEX_VECTOR_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/index/vector_arena.h"

namespace iccache {

struct SearchResult {
  uint64_t id = 0;
  double score = 0.0;  // cosine similarity, higher is better
};

// Reusable per-thread scratch for the batched search path of every backend.
// Every buffer retains its capacity across batches, so once warmed up a
// steady-state SearchBatch performs ZERO heap allocations per query; `grows`
// counts scratch reallocations and must stop advancing in steady state (the
// batch tests and the retrieval bench acceptance assert exactly that).
// Not thread-safe: one scratch per thread.
struct SearchScratch {
  uint64_t grows = 0;  // scratch-buffer reallocations since construction

  // --- Flat result arena ---------------------------------------------------
  // Results for query i of the last batch occupy
  // results[offsets[i] .. offsets[i+1]), sorted best-first.
  std::vector<SearchResult> results;
  std::vector<size_t> offsets;

  // --- Bounded top-k heaps (flat scan, kmeans members, hnsw results) -------
  std::vector<std::vector<std::pair<double, uint64_t>>> heaps;
  // KMeans probe-selection scratch (one query at a time).
  std::vector<std::pair<double, uint64_t>> cluster_heap;
  std::vector<SearchResult> cluster_order;

  // --- HNSW beam state -----------------------------------------------------
  // Epoch-reset visited set shared by the batch's interleaved queries: slot n
  // was visited by interleave-group member g iff epochs[n] holds the group's
  // epoch AND bit g of visited_mask[n] is set. The mask is what lets up to
  // eight in-flight queries share one buffer without clobbering each other's
  // marks; a stale epoch implicitly clears the mask, so nothing is ever
  // rescanned between groups.
  std::vector<uint32_t> epochs;
  std::vector<uint8_t> visited_mask;
  uint32_t epoch = 0;
  // Beam entries are 8-byte (similarity, slot) keys ordered like the pair
  // (hnsw.h BeamKey).
  struct Beam {
    std::vector<uint64_t> candidates;  // max-heap frontier
    std::vector<uint64_t> results;     // min-heap, bounded ef
    std::vector<uint64_t> found;       // drained best-first
    std::vector<uint32_t> pending;     // neighbors marked this round, to score
    // Adjacency list popped this round (hnsw): set by the pop pass, consumed
    // by the marking pass after every other query's pop has run in between —
    // the gap is what gives the pop pass's visited-word prefetches time to
    // land. Null when this query popped nothing this round.
    const std::vector<uint32_t>* scan_links = nullptr;
    bool done = false;
    // Lockstep greedy-descent position (upper layers, before the beam runs).
    uint32_t cur = 0;
    int layer = 0;
    double best = 0.0;
  };
  std::vector<Beam> beams;
  // One query's marked neighbors, gathered for one simd::DotMany call, and
  // their similarities (hnsw sizes both to its level-0 degree bound).
  std::vector<const float*> gather_vecs;
  std::vector<double> gather_sims;

  template <typename T>
  void GrowResize(std::vector<T>& v, size_t n) {
    if (n > v.capacity()) {
      ++grows;
    }
    v.resize(n);
  }
  template <typename T>
  void GrowPush(std::vector<T>& v, T value) {
    if (v.size() == v.capacity()) {
      ++grows;
    }
    v.push_back(std::move(value));
  }

  void BeginOutput(size_t num_queries) {
    results.clear();
    if (num_queries + 1 > offsets.capacity()) {
      ++grows;
    }
    offsets.assign(num_queries + 1, 0);
  }
  // Records the end of query i's result range (call after appending them).
  void EndQuery(size_t i) { offsets[i + 1] = results.size(); }

  const SearchResult* ResultsOf(size_t i) const { return results.data() + offsets[i]; }
  size_t ResultCountOf(size_t i) const { return offsets[i + 1] - offsets[i]; }
};

// Bounded top-k selection over a caller-retained buffer: a min-first binary
// heap (the std::priority_queue push/pop sequences) holding the k best
// (score, payload) pairs, so every scan reuses its heap's capacity across
// queries. Equal-score tie-breaks depend only on the push order, which each
// kernel fixes (ascending slot or centroid order), never on the batch size.
struct ScratchTopK {
  using Entry = std::pair<double, uint64_t>;
  struct MinFirst {
    bool operator()(const Entry& a, const Entry& b) const { return a.first > b.first; }
  };

  static void Push(std::vector<Entry>& heap, size_t k, double score, uint64_t payload,
                   SearchScratch& scratch) {
    if (k == 0) {
      return;
    }
    if (heap.size() < k) {
      scratch.GrowPush(heap, Entry{score, payload});
      std::push_heap(heap.begin(), heap.end(), MinFirst{});
      return;
    }
    if (score > heap.front().first) {
      std::pop_heap(heap.begin(), heap.end(), MinFirst{});
      heap.pop_back();
      heap.emplace_back(score, payload);
      std::push_heap(heap.begin(), heap.end(), MinFirst{});
    }
  }

  // Drains the heap, appending (id, score) best-first to *out (pop
  // worst-first, then reverse).
  static void DrainDescending(std::vector<Entry>& heap, std::vector<SearchResult>* out,
                              SearchScratch& scratch) {
    const size_t first = out->size();
    while (!heap.empty()) {
      scratch.GrowPush(*out, SearchResult{heap.front().second, heap.front().first});
      std::pop_heap(heap.begin(), heap.end(), MinFirst{});
      heap.pop_back();
    }
    std::reverse(out->begin() + static_cast<ptrdiff_t>(first), out->end());
  }
};

class VectorIndex {
 public:
  virtual ~VectorIndex() = default;

  // Inserts (or overwrites) the vector for id.
  virtual Status Add(uint64_t id, std::vector<float> vec) = 0;

  // Removes id; returns false when absent.
  virtual bool Remove(uint64_t id) = 0;

  // Links what Add appended but has not yet wired into the search structure.
  // Only HNSW defers work (its graph links); flat and k-means do nothing.
  // Every read links first, so Flush moves link work onto the caller's
  // thread and time without changing any result.
  virtual void Flush() {}
  // Vectors Flush would link.
  virtual size_t pending() const { return 0; }

  // Returns up to k nearest neighbours sorted best-first: SearchBatch at
  // batch size 1 over a thread-local scratch.
  std::vector<SearchResult> Search(const std::vector<float>& query, size_t k) const;

  // Batched search over `num_queries` contiguous queries (query i at
  // queries[i*query_dim .. (i+1)*query_dim)). Results land in the scratch's
  // flat arena: scratch->ResultsOf(i) / ResultCountOf(i). Query i's range is
  // bit-identical at every batch size — batching changes WHEN work happens,
  // never WHAT is computed — and every backend's kernel does zero
  // steady-state allocations. A query_dim other than the index's dimension
  // is malformed: every range comes back empty.
  virtual void SearchBatch(const float* queries, size_t num_queries, size_t query_dim, size_t k,
                           SearchScratch* scratch) const = 0;

  // Copies the stored vector for id into *out; false when absent. Used by
  // the persistence subsystem to export each example's embedding alongside
  // its lifecycle record.
  virtual bool GetVector(uint64_t id, std::vector<float>* out) const = 0;

  virtual size_t size() const = 0;
};

// Exact brute-force index. Vectors live in a VectorArena (dense slots,
// swap-to-back removal), so the scan sweeps each block sequentially and the
// shared SIMD dot kernel streams through it — the same arena as HNSW's.
class FlatIndex : public VectorIndex {
 public:
  explicit FlatIndex(size_t dim);

  Status Add(uint64_t id, std::vector<float> vec) override;
  bool Remove(uint64_t id) override;
  // Blocked multi-query scan: queries sweep the arena one block at a time so
  // a hot block is scored against the whole batch while it sits in cache.
  void SearchBatch(const float* queries, size_t num_queries, size_t query_dim, size_t k,
                   SearchScratch* scratch) const override;
  bool GetVector(uint64_t id, std::vector<float>* out) const override;
  size_t size() const override { return slot_of_.size(); }

  // Direct access: the dim()-length vector for id, nullptr when absent. An
  // Add never moves a stored vector (an overwrite of id rewrites it in
  // place); the next Remove invalidates the pointer.
  const float* Find(uint64_t id) const;

  // Stored ids in arena slot order, the order Search scans (and breaks
  // equal-score ties) in. Adding vectors to an empty index in this order
  // reproduces the slot layout exactly.
  const std::vector<uint64_t>& slot_ids() const { return ids_; }

  size_t dim() const { return dim_; }

 private:
  size_t dim_;
  // Dense slots with swap-to-back removal: ids_[s]'s vector is arena slot s.
  std::vector<uint64_t> ids_;
  VectorArena arena_;
  std::unordered_map<uint64_t, size_t> slot_of_;
};

struct KMeansIndexConfig {
  size_t dim = 128;
  // Number of clusters probed per query. The paper probes the nearest
  // centroid; probing a couple more trades a little compute for recall.
  size_t nprobe = 3;
  // Below this size, brute force beats clustering; stay flat.
  size_t min_points_to_cluster = 64;
  uint64_t seed = 0x5eed;
};

// Inverted-file index over K-Means clusters (K = sqrt(N) at build time).
// Vectors live in a VectorArena with swap-to-back removal, as in FlatIndex;
// the cluster structures only hold ids.
class KMeansIndex : public VectorIndex {
 public:
  explicit KMeansIndex(KMeansIndexConfig config = {});

  Status Add(uint64_t id, std::vector<float> vec) override;
  bool Remove(uint64_t id) override;
  // Blocked multi-query scan below the clustering threshold; per-query probes
  // over reused scratch (no allocations) once clustered.
  void SearchBatch(const float* queries, size_t num_queries, size_t query_dim, size_t k,
                   SearchScratch* scratch) const override;
  bool GetVector(uint64_t id, std::vector<float>* out) const override;
  size_t size() const override { return ids_.size(); }

  // Re-runs K-Means over the current contents with K = sqrt(N).
  void Rebuild();

  size_t num_clusters() const { return centroids_.size(); }
  bool clustered() const { return !centroids_.empty(); }

 private:
  void MaybeRebuild();
  size_t NearestCluster(const float* vec) const;

  KMeansIndexConfig config_;
  Rng rng_;
  // Dense slots with swap-to-back removal: ids_[s]'s vector is arena slot s.
  std::vector<uint64_t> ids_;
  VectorArena arena_;
  std::unordered_map<uint64_t, size_t> slot_of_;
  std::unordered_map<uint64_t, size_t> cluster_of_;
  std::vector<std::vector<float>> centroids_;
  std::vector<std::vector<uint64_t>> cluster_members_;
  size_t size_at_last_build_ = 0;
};

}  // namespace iccache

#endif  // SRC_INDEX_VECTOR_INDEX_H_
