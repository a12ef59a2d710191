// Section encodings for the learned example-pool state (the policy half of
// the persistence subsystem; snapshot.h is the container half).
//
// A pool snapshot carries the WHOLE learned state, not just the example
// records: restore-then-serve is only byte-identical to the uninterrupted
// run if every adaptive component resumes exactly where it stopped —
//
//   kExamples  per-example lifecycle records (text, embedding, gain EMA,
//              use counts, quality, privacy domain, byte weights) plus the
//              store's per-shard insertion counters,
//   kIndex     the native HNSW graph image per shard (flat/kmeans rebuild
//              from the embeddings instead),
//   kSelector  dynamic utility threshold + adaptation-grid accounting,
//   kManager   the maintenance (decay) cursor,
//   kProxy     stage-2 proxy weights,
//   kRouter    bandit posteriors, Thompson/exploration RNG streams, load EMA.
//
// Owners with extra private state (ServingDriver, IcCacheService) append
// their own kDriver/kService sections using the EncodeRngState/DecodeRngState
// helpers; DecodePoolSections ignores sections it has no consumer for.
#ifndef SRC_PERSIST_POOL_CODEC_H_
#define SRC_PERSIST_POOL_CODEC_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/binio.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/core/manager.h"
#include "src/core/proxy_model.h"
#include "src/core/retrieval_backend.h"
#include "src/core/router.h"
#include "src/core/selector.h"
#include "src/core/stage0_cache.h"
#include "src/persist/snapshot.h"

namespace iccache {

// Adaptive components snapshotted alongside the store. All optional: null
// members are skipped on save and left untouched on load.
struct PoolComponents {
  ExampleSelector* selector = nullptr;
  ExampleManager* manager = nullptr;
  ProxyUtilityModel* proxy = nullptr;
  RequestRouter* router = nullptr;
  Stage0ResponseCache* stage0 = nullptr;
};

// kMeta payload: the summary a dump tool or a restore precheck needs without
// decoding the (much larger) examples section.
struct PoolMeta {
  uint64_t example_count = 0;
  int64_t used_bytes = 0;
  uint64_t shard_count = 0;
  uint32_t embed_dim = 0;
  uint8_t has_native_index = 0;
  double sim_time = 0.0;
};

struct PoolRestoreReport {
  size_t examples = 0;
  int64_t used_bytes = 0;
  // True when the retrieval index was restored from its native graph image
  // (HNSW happy path: no rebuild); false means rebuild-from-embeddings.
  bool native_index_load = false;
  // False when the snapshot's shard count differs from the restoring store's
  // (ids are preserved; insertion counters fall back to max(id)+1).
  bool next_ids_restored = false;
  double sim_time = 0.0;
};

// --- RNG stream helpers (shared with the kDriver/kService sections) --------
void EncodeRngState(const RngState& state, ByteWriter* writer);
RngState DecodeRngState(ByteReader* reader);

// --- Single-example record (shared with tools/snapshot_dump) ---------------
// `id` is written in place of example.id, which is shard-local on a sharded
// store.
void EncodeExample(uint64_t id, const Example& example, const std::vector<float>& embedding,
                   ByteWriter* writer);
bool DecodeExample(ByteReader* reader, Example* example, std::vector<float>* embedding);

// --- Whole-pool encode/decode ----------------------------------------------

// Adds kMeta + kExamples (+ kIndex when the backend has a native image) and
// one section per non-null component to `writer`. `sim_time` stamps the
// snapshot with the trace clock it was taken at. The store sections (and
// stage-0's) are encoded while the writer writes, straight from one cut of
// the store, so `store` and `components.stage0` must outlive the writer's
// WriteToFile / Encode.
void EncodePoolSections(const ExampleStore& store, const PoolComponents& components,
                        double sim_time, SnapshotWriter* writer);

// Restores into an EMPTY store (FailedPrecondition otherwise): native index
// load first when possible, examples re-imported (re-sharded by id) with the
// byte accounting replayed, insertion counters restored, then each present
// component section applied. Absent sections leave their component at its
// configured defaults. Sections load one at a time and the index and
// examples payloads are freed once decoded.
Status DecodePoolSections(const SnapshotReader& reader, ExampleStore* store,
                          const PoolComponents& components, PoolRestoreReport* report);

// Loads section `id` and applies `decode` when the snapshot carries it (OK
// and untouched when it does not); a payload `decode` rejects is
// InvalidArgument("malformed <section> section"). Owners decode their own
// kDriver / kService sections through this.
Status DecodeOptionalSection(const SnapshotReader& reader, SnapshotSection id,
                             const std::function<bool(std::string_view)>& decode);

// kMeta alone (dump tool, prechecks).
Status DecodePoolMeta(const SnapshotReader& reader, PoolMeta* meta);

// kStage0 summary for the dump tool: the header fields without decoding (or
// needing an embedder for) the entry records.
struct Stage0Summary {
  double hit_threshold = 0.0;
  uint64_t requests_seen = 0;
  uint64_t entry_count = 0;
  int64_t used_bytes = 0;
  uint8_t has_native_index = 0;
};

// InvalidArgument when the section is absent or malformed.
Status DecodeStage0Summary(const SnapshotReader& reader, Stage0Summary* summary);

// Iterates the kExamples section without a store (dump tool, format checks).
Status ForEachSnapshotExample(
    const SnapshotReader& reader,
    const std::function<void(const Example&, const std::vector<float>&)>& fn);

}  // namespace iccache

#endif  // SRC_PERSIST_POOL_CODEC_H_
