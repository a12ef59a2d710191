// Unified stage-1 retrieval backend.
//
// Every component that performs embedding-similarity retrieval — ExampleCache,
// each ShardedExampleCache shard, the figure benches — routes through one
// pluggable VectorIndex chosen here:
//
//   flat   — exact brute force; the correctness reference and the
//            determinism-preserving default for small pools.
//   kmeans — inverted-file over K-Means clusters (the paper's section 4.1
//            offline clustering); approximate, rebuilds as the pool grows.
//   hnsw   — incremental graph ANN (src/index/hnsw.h); sub-millisecond
//            search at pool sizes where flat scans and stale clusters fail.
//
// The ExampleStore interface below is the consumer-side half of the
// unification: ExampleSelector runs against it, so the full selection
// pipeline (dynamic threshold, diversity, worst-to-best ordering) works
// identically over a plain ExampleCache and over the concurrent
// ShardedExampleCache the serving driver uses.
#ifndef SRC_CORE_RETRIEVAL_BACKEND_H_
#define SRC_CORE_RETRIEVAL_BACKEND_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/binio.h"
#include "src/common/status.h"
#include "src/core/example.h"
#include "src/core/privacy.h"
#include "src/embedding/embedder.h"
#include "src/index/hnsw.h"
#include "src/index/vector_index.h"

namespace iccache {

enum class RetrievalBackendKind {
  kFlat,
  kKMeans,
  kHnsw,
};

struct RetrievalBackendConfig {
  // kKMeans is the seed repo's behavior and stays the default.
  RetrievalBackendKind kind = RetrievalBackendKind::kKMeans;
  // K-Means: clusters probed per query.
  size_t nprobe = 3;
  // HNSW knobs; `hnsw.dim` and `hnsw.seed` are overridden by the owning
  // cache (embedder dimension / per-shard seed) at construction.
  HnswIndexConfig hnsw;
};

// Builds the configured index with the given vector dimension and seed.
std::unique_ptr<VectorIndex> MakeRetrievalIndex(const RetrievalBackendConfig& config, size_t dim,
                                                uint64_t seed);

// "flat" | "kmeans" | "hnsw".
const char* RetrievalBackendKindName(RetrievalBackendKind kind);

// Parses a backend name (as accepted by bench --index flags); returns false
// on an unknown name, leaving *out untouched.
bool ParseRetrievalBackendKind(const std::string& name, RetrievalBackendKind* out);

// Result of the pure (parallel-phase) half of an admission: the privacy
// decision plus the embedding of the sanitized text. Produced by
// ExampleStore::PrepareAdmission, consumed by ExampleStore::PutPrepared.
struct PreparedAdmission {
  bool admit = false;
  std::string sanitized_text;
  std::vector<float> embedding;
};

// Shared implementation of PrepareAdmission for every store: privacy
// decision + embedding of the sanitized text. When the caller already
// embedded request.text, pass it as `text_embedding`; it is reused whenever
// scrubbing left the text unchanged (the PII-free common case).
PreparedAdmission PrepareAdmissionPayload(const PiiScrubber& scrubber, CacheAdmissionMode mode,
                                          const Embedder& embedder, const Request& request,
                                          const std::vector<float>* text_embedding);

// Totals of one consistent cut (ExampleStore::StreamSnapshotCut), handed to
// StoreSnapshotSink::Begin before any record.
struct StoreCutSummary {
  uint64_t example_count = 0;
  int64_t used_bytes = 0;
  std::vector<uint64_t> next_ids;  // per-shard insertion counters
};

// Receives ExampleStore::StreamSnapshotCut: Begin, then every example in
// ascending public-id order, then, when the store HasNativeIndex, the index
// image written into IndexImage(). Records and vectors are borrowed from the
// store and valid only for the duration of the call.
class StoreSnapshotSink {
 public:
  virtual ~StoreSnapshotSink() = default;
  virtual void Begin(const StoreCutSummary& summary) = 0;
  // `id` is the public id; `example.id` is store-internal on sharded stores.
  virtual void AddExample(uint64_t id, const Example& example,
                          const std::vector<float>& embedding) = 0;
  virtual ByteWriter* IndexImage() = 0;
};

// Epoch-consistent view of the pool for background maintenance planning
// (ExampleStore::ExportMaintenanceCut): every lifecycle record plus the byte
// accounting and the capacity/decay policy knobs the planner needs, all
// describing one instant. Much cheaper than a snapshot cut — no
// embeddings, no native index image — because decay, knapsack eviction, and
// replay ranking only read the records.
struct MaintenanceCut {
  std::vector<Example> examples;  // ascending (global) id order
  int64_t used_bytes = 0;
  // Capacity policy of the owning store at cut time.
  int64_t capacity_bytes = -1;
  double high_watermark = 1.0;
  double low_watermark = 0.9;
  double decay_factor = 0.9;
};

// Surface the selection pipeline AND the example lifecycle layer
// (ExampleManager: admission, gain accounting, replay, decay + eviction) need
// from an example store. Implemented by ExampleCache (single-threaded) and
// ShardedExampleCache (concurrent). Snapshot copies the example out so no
// pointer escapes a shard lock; UpdateExample applies a mutation under it.
class ExampleStore {
 public:
  virtual ~ExampleStore() = default;

  // --- Selection surface ---------------------------------------------------

  // Stage-1 relevance lookup: top-k most similar cached examples, best
  // first. FindSimilarBatch at batch size 1 over a thread-local scratch; the
  // Request overload embeds request.text first.
  std::vector<SearchResult> FindSimilar(const Request& request, size_t k) const;
  std::vector<SearchResult> FindSimilar(const std::vector<float>& embedding, size_t k) const;

  // Batched stage-1 lookup over `num_queries` contiguous embeddings (query i
  // at queries[i*query_dim, (i+1)*query_dim)); (*out)[i] is the same at
  // every batch size — batching is a locking and cache-locality
  // optimization, never a semantic one. `scratch` carries the reusable
  // per-thread search buffers (one scratch per thread); `out`'s inner vectors
  // retain capacity across calls, so steady-state batches do not allocate.
  // ExampleCache routes to VectorIndex::SearchBatch; ShardedExampleCache
  // takes each shard's shared lock ONCE per batch and merges the shards'
  // rows.
  virtual void FindSimilarBatch(const float* queries, size_t num_queries, size_t query_dim,
                                size_t k, SearchScratch* scratch,
                                std::vector<std::vector<SearchResult>>* out) const = 0;

  // Copies the example for id into *out; false when absent (e.g. evicted).
  // When `embedding` is non-null it receives, under the same lock, the
  // example's stored index vector, which is the embedder's output for
  // example.request.text.
  virtual bool Snapshot(uint64_t id, Example* out,
                        std::vector<float>* embedding = nullptr) const = 0;

  // Marks a stage-2 access for recency/statistics bookkeeping.
  virtual void RecordAccess(uint64_t id, double now) = 0;

  virtual std::shared_ptr<const Embedder> embedder() const = 0;

  // --- Lifecycle surface (Example Manager, section 4.3) --------------------

  // Pure half of an admission: privacy decision + embedding of the sanitized
  // text. Const and thread-safe; safe in a concurrent driver's parallel
  // phase. When the caller already embedded request.text (e.g. for
  // retrieval), pass it as `text_embedding` to skip a second embedding pass
  // on the PII-free common case.
  virtual PreparedAdmission PrepareAdmission(
      const Request& request, const std::vector<float>* text_embedding = nullptr) const = 0;

  // Stateful half: inserts a prepared admission. Returns the new example id,
  // or 0 when the preparation was rejected.
  virtual uint64_t PutPrepared(const Request& request, PreparedAdmission prepared,
                               std::string response_text, double response_quality,
                               double source_capability, int response_tokens, double now) = 0;

  // One-shot admission (PrepareAdmission, then PutPrepared): returns the new
  // example id, or 0 when rejected.
  uint64_t Put(const Request& request, std::string response_text, double response_quality,
               double source_capability, int response_tokens, double now);

  // Applies `mutate` to the stored example under the store's write lock (gain
  // EMAs, replay state). Byte accounting is refreshed afterwards, so mutators
  // may change token counts. The example's `id` field is store-internal and
  // must not be read or written by the mutator; `request.text` must not
  // change either, because the index vector is its embedding. Returns false
  // when absent.
  virtual bool UpdateExample(uint64_t id, const std::function<void(Example&)>& mutate) = 0;

  // Credits the example for a successful offload (knapsack eviction value).
  virtual void RecordOffload(uint64_t id, double gain) = 0;

  // Removes the example (and its index entry); false when absent. Used by
  // maintenance batches that apply a background-planned eviction set.
  virtual bool Remove(uint64_t id) = 0;

  // Hourly multiplicative utility decay over every example.
  virtual void DecayTick() = 0;

  // Knapsack eviction down to the configured byte budget; returns evicted
  // ids. No-op when unbounded or under budget.
  virtual std::vector<uint64_t> EnforceCapacity() = 0;

  // Snapshot of ids for iteration (replay scheduling, experiments); sorted.
  virtual std::vector<uint64_t> AllIds() const = 0;

  virtual size_t size() const = 0;
  virtual int64_t used_bytes() const = 0;

  // --- Persistence surface (src/persist: snapshot/restore) -----------------

  // One atomically consistent export of everything background maintenance
  // needs: every example record, the byte accounting, and the capacity/decay
  // policy, all describing one instant (the sharded store holds every shard
  // lock, shared, for the duration). The epoch scheduler plans decay,
  // eviction, and replay against this view off the request path and applies
  // the resulting mutation batch at a later window boundary.
  virtual MaintenanceCut ExportMaintenanceCut() const = 0;

  // Streams one atomically consistent cut of everything a snapshot needs
  // into `sink`: the totals and insertion counters, every example record
  // (ascending public id) with its index vector, and the native index image
  // all describe the SAME instant. The sharded store holds every shard lock
  // (shared, ascending order) until it returns, so a checkpoint taken while
  // other threads serve can never capture an example the saved index image
  // lacks (which would make it silently unretrievable after a native-graph
  // restore) or a byte count that disagrees with the records. Nothing is
  // copied out but one record's vector at a time. Fails (Internal) only
  // when a graph image's length disagrees with the length promised for it.
  virtual Status StreamSnapshotCut(StoreSnapshotSink* sink) const = 0;

  // Re-inserts a previously exported example, preserving its id, every
  // lifecycle statistic, and byte accounting (the sharded store re-shards by
  // id and replays the delta through its global watermark counter, so
  // used_bytes() is exact after a restore). When `add_to_index` is false the
  // caller has already restored the retrieval index natively
  // (LoadIndexBlob). The embedding is indexed as given and is what Snapshot
  // hands back, so it must be the embedder's output for the example's text.
  // Returns false, changing nothing, on id 0, an id collision, or an
  // embedding the index rejects (wrong length).
  virtual bool ImportExample(const Example& example, std::vector<float> embedding,
                             bool add_to_index) = 0;

  // Store-private insertion counters, one per shard (a plain cache is one
  // shard). Restoring them exactly — rather than max(id)+1 — is what makes
  // post-restore admissions assign the same ids the uninterrupted run would
  // have. ImportNextIds returns false on a shard-count mismatch; the store
  // then keeps the safe max(id)+1 counters ImportExample maintained.
  virtual std::vector<uint64_t> ExportNextIds() const = 0;
  virtual bool ImportNextIds(const std::vector<uint64_t>& next_ids) = 0;

  // Native retrieval-index image (HNSW graph save/load; one length-prefixed
  // graph per shard on the sharded store). HasNativeIndex is false when the
  // configured backend has no native format (flat | kmeans). LoadIndexBlob
  // decodes the image from the rest of `reader`, which it must consume
  // exactly, into a store that holds no examples yet. It returns false on a
  // backend without a native format, or when the image does not match this
  // store's geometry or is malformed; the index is then empty again, as
  // before the call, and callers fall back to rebuilding it from the
  // exported embeddings, which always works.
  virtual bool HasNativeIndex() const = 0;
  virtual bool LoadIndexBlob(ByteReader* reader) = 0;

  // After a native LoadIndexBlob and the imports that follow it (with
  // add_to_index false, so the import never consults the graph): false when
  // each shard's graph holds live exactly the ids imported into it, else
  // true with *id the smallest id that one side holds and the other lacks
  // and *in_index telling which side holds it. A CRC-valid snapshot whose
  // index image and examples section disagree would otherwise restore a
  // graph hit with no example behind it, or an example stage-1 never
  // returns.
  virtual bool FindNativeIndexMismatch(uint64_t* id, bool* in_index) const = 0;
};

}  // namespace iccache

#endif  // SRC_CORE_RETRIEVAL_BACKEND_H_
