// Concurrent end-to-end serving driver.
//
// Runs the IC-Cache pipeline — embed, stage-1 retrieval, stage-2 proxy
// scoring, bandit routing, generation, ClusterSim submission, feedback and
// admission — over a stream of arrival-stamped requests, using a ThreadPool
// to exploit parallel hardware. The driver thread is one of the pool's
// threads: it queues each fan-out as one batch and runs queued tasks itself
// until the batch is done, so `num_threads` counts it and a 1-thread driver
// starts no worker at all.
//
// Selection runs through the real ExampleSelector pipeline (dynamic threshold
// adaptation, diversity guard, worst-to-best ordering) against the sharded
// cache via the unified ExampleStore/RetrievalBackend abstraction; the
// stage-1 index (flat | kmeans | hnsw) and the shard count are both chosen
// through DriverConfig. The full example lifecycle (section 4.3 + section 5)
// runs through the shared ExampleManager over the same store.
//
// Concurrency model (three-lane pipelined windows, determinism-preserving):
// the stream is processed in fixed `batch_window` batches, each flowing
// through three kinds of work:
//
//   PREPARE (parallel)  — pure per-request work: embed, stage-0 probe,
//       stage-1 sharded retrieval, stage-2 proxy scoring, admission
//       scrub/embed + dedupe probe. The window is fanned out in
//       `prepare_chunk`-sized batches: each chunk embeds into a reused
//       per-thread arena and drives stage-0 and stage-1 through the
//       multi-query index path, taking each shard lock once per chunk. A
//       request whose stage-0 probe is a proven hit (it clears the highest
//       threshold its lane can judge it against) skips retrieval, scoring
//       and admission prep. Window N+1's prepare overlaps window N's commit
//       lanes: both go to the pool as one batch.
//   SHARDED COMMIT (parallel lanes + serial merge) — the per-request half of
//       the old serial phase runs on `commit_lanes` actor-style lanes
//       (requests partitioned by request-key shard, each lane internally
//       arrival-ordered): frozen-threshold selector combination, bandit
//       routing against window-start posteriors, generation, and probe
//       shadow generation, each driven by a per-request RNG stream. Lanes
//       mutate NOTHING; every globally stateful step — cluster clock +
//       submit, load observation, bandit reward updates, selector access
//       accounting + feedback, gain EMAs — is applied afterwards by a
//       deterministic cross-shard MERGE that walks the window in arrival
//       order on the driver thread. Admission inserts are then PUBLISHED by
//       per-shard tasks (per-shard arrival order keeps id assignment exact)
//       with watermark eviction deferred to one enforcement after the join.
//   MAINTENANCE (driver thread, between windows) — at the boundary where
//       decay, knapsack eviction or replay falls due, the driver exports an
//       epoch-consistent all-shard cut, plans the tick against it
//       (ExampleManager::PlanMaintenance, on the tick's own RNG stream) and
//       drops the cut; the plan is applied as a mutation batch
//       kMaintenancePublishLag boundaries later, or at the next checkpoint
//       or the end of the run, whichever comes first.
//
// Determinism contract: every lane-stage computation depends only on the
// prepared slot, state frozen at the window start, and RNG streams derived
// from (seed, request id); every mutation is applied at a schedule fixed by
// the window structure. A fixed seed therefore produces identical routing
// decisions and completions at ANY thread count AND any lane count —
// `num_threads` and `commit_lanes` only change wall-clock time. Within a
// window all requests see the cache/bandit/threshold as of the window start;
// admissions from window N become retrievable in window N+2, because window
// N+1's prepare is fanned out (and joined) BEFORE window N's admissions
// publish — prepare overlaps only the mutation-free lane stage, never a
// store write.
#ifndef SRC_SERVING_DRIVER_H_
#define SRC_SERVING_DRIVER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/manager.h"
#include "src/core/proxy_model.h"
#include "src/core/router.h"
#include "src/core/selector.h"
#include "src/core/sharded_cache.h"
#include "src/core/stage0_cache.h"
#include "src/llm/generation.h"
#include "src/llm/model_profile.h"
#include "src/obs/metrics.h"
#include "src/obs/watchdog.h"
#include "src/persist/checkpointer.h"
#include "src/persist/pool_codec.h"
#include "src/serving/cluster.h"
#include "src/workload/dataset.h"
#include "src/workload/query_generator.h"
#include "src/workload/trace.h"

namespace iccache {

struct DriverConfig {
  std::string small_model = "gemma-2-2b";
  std::string large_model = "gemma-2-27b";

  // Parallelism. `num_threads` counts the calling thread: Run starts
  // num_threads - 1 pool workers and runs pool tasks on its own thread too.
  // `batch_window` is the lookahead batch fanned out per window; it is part
  // of the pipeline semantics (all lookups in a window see the cache as of
  // the window start), so results depend on it but NOT on `num_threads` or
  // `commit_lanes`.
  size_t num_threads = 1;
  size_t batch_window = 64;
  // Commit lanes: how many actor-style lanes the window's commit stage is
  // partitioned into (by request-key shard). Results are lane-count
  // invariant; more lanes expose more parallelism to the pool.
  size_t commit_lanes = 4;
  // Batched prepare: each prepare task handles up to `prepare_chunk`
  // consecutive requests of the window — batch-embedding into a reused
  // per-thread arena, probing stage-0 and sweeping stage-1 through the
  // multi-query index path (one shard lock per chunk instead of one per
  // request). Purely a throughput knob: decisions are byte-identical at any
  // chunk size (each query's batched search result equals its single-query
  // result).
  size_t prepare_chunk = 16;

  // Stage-0 response tier: before stage-1 example retrieval, probe a bounded
  // semantic response cache; a confident hit (learned embedding-similarity
  // threshold) serves the cached response at ZERO generation cost — no
  // routing, no generation, no cluster submission. Probes run in the
  // parallel prepare phase against the window-start cache; the hit decision
  // (frozen threshold), insert, invalidation, and threshold adaptation all
  // run on the serial path, so stage-0 preserves the thread- and
  // lane-invariance contract. Off by default.
  Stage0Config stage0;

  // Full two-stage selection pipeline (stage-1 pool size, dynamic threshold
  // grid, diversity, context budget, ...). A kSelectorProbeRate slice of
  // offloaded requests (src/core/pipeline.h) shadow-generates the plain
  // small-model response for the selector's counterfactual gain label,
  // sampled per request id, deterministically.
  SelectorConfig selector;

  RouterConfig router;
  // Sharded cache: `cache.num_shards` picks the shard count and
  // `cache.cache.retrieval` the stage-1 backend (flat | kmeans | hnsw).
  ShardedCacheConfig cache;

  // Example lifecycle (section 4.3), shared with IcCacheService: admission
  // quality gate + dedupe, gain EMAs, replay rationing, decay cadence.
  // Responses are always admitted as future examples through ExampleManager
  // (large-model responses always, offloaded small-model responses above the
  // manager's quality gate).
  ManagerConfig manager;
  // Maintenance (decay + knapsack eviction) ticks off trace time, planned and
  // applied at window boundaries.
  bool lifecycle_maintenance = true;
  // Off-peak replay: when cluster utilization at a window boundary is below
  // `replay_load_threshold` and at least `replay_min_interval_s` of simulated
  // time has passed since the last pass, the next maintenance tick includes
  // one cost-aware replay pass.
  bool offpeak_replay = true;
  double replay_load_threshold = 0.35;
  double replay_min_interval_s = 900.0;

  // Fault injection (section 5): bypass the selector (serve without
  // examples) or the router (direct route to the large backend).
  bool selector_fault_bypass = false;
  bool router_fault_bypass = false;

  // Persistence (src/persist). With `snapshot_path` set, `restore_on_start`
  // warm-starts the driver from that file at construction (a missing file is
  // a cold start; any other failure is surfaced by restore_status()), and
  // `checkpoint_interval_s` > 0 takes periodic crash-recovery checkpoints
  // between batch windows — off the serial phase, reusing the off-peak gate
  // (`replay_load_threshold`), with a forced write once a checkpoint is two
  // intervals overdue so a saturated cluster still bounds staleness.
  std::string snapshot_path;
  bool restore_on_start = false;
  double checkpoint_interval_s = 0.0;

  // Observability (strictly passive — none of it can change a decision).
  // SLO watchdog rules evaluated on each per-window hub snapshot; all rules
  // default to disabled. Watchdog state is per Run (trailing EMAs restart
  // with each segment).
  WatchdogConfig watchdog;
  // Tail-exemplar sampling over the run's completions: keep the K slowest
  // (by simulated e2e latency) per window, plus every request whose id is a
  // multiple of `tail_sample_every` (0 disables the fixed-rate sample).
  // Selection keys on simulated latency and request ids only, so the
  // exemplar set is identical at any thread/lane count.
  size_t tail_slowest_per_window = 2;
  uint64_t tail_sample_every = 0;

  uint64_t seed = 0xd21e5;
};

// One completion picked by the deterministic tail sampler: the request to
// pull from the trace (`trace_dump --request=<id>`) when investigating that
// window's latency.
struct TailExemplar {
  uint64_t request_id = 0;
  uint64_t window = 0;          // batch window the request was served in
  double e2e_latency_s = 0.0;   // simulated end-to-end latency
  bool slowest = false;         // slowest-K pick (vs fixed-rate sample)
};

// Per-request routing outcome, recorded in arrival order.
struct DriverDecision {
  uint64_t request_id = 0;
  std::string model_name;
  bool offloaded = false;  // served by the small model with examples
  size_t num_examples = 0;
  double latent_quality = 0.0;
};

struct DriverReport {
  std::vector<DriverDecision> decisions;       // arrival order
  std::vector<CompletionRecord> completions;   // simulated completion order
  size_t total_requests = 0;
  size_t offloaded_requests = 0;
  size_t admitted_examples = 0;

  // Stage-0 response tier activity (zeros when the tier is disabled).
  size_t stage0_hits = 0;           // requests served from the response cache
  size_t stage0_probes = 0;         // hits that also shadow-generated fresh
  size_t stage0_invalidations = 0;  // entries removed by quality feedback
  size_t stage0_expired = 0;        // entries removed by TTL
  size_t stage0_admitted = 0;       // responses inserted (after dedupe/gate)
  // Hits the prepare phase proved before the lane judged them, so their
  // stage-1 sweep, stage-2 scoring and admission prep never ran. A subset
  // of stage0_hits, fixed by the decisions: identical at any thread, lane
  // or chunk count.
  size_t stage0_retrieval_skips = 0;
  int64_t stage0_tokens_saved = 0;  // output tokens avoided by hits
  int64_t generated_tokens = 0;     // output tokens actually generated

  // Lifecycle activity (maintenance ticks, eviction, off-peak replay).
  size_t maintenance_runs = 0;
  size_t evicted_examples = 0;   // knapsack evictions during this run
  size_t replay_passes = 0;
  size_t replayed_examples = 0;
  size_t improved_examples = 0;
  // Always 0: the driver plans every tick itself, so no window waits for a
  // plan. Kept only because bench/perf still reads it.
  size_t maintenance_stalled_windows = 0;

  // Checkpoint activity during this run (snapshot writes between windows).
  size_t checkpoints_taken = 0;
  double checkpoint_p50_ms = 0.0;
  double checkpoint_p99_ms = 0.0;

  // Host-side pipeline throughput (what the ThreadPool accelerates).
  double wall_seconds = 0.0;
  double requests_per_second = 0.0;
  // Wall-clock split, three buckets summing to wall_seconds:
  //   pool_seconds        — driver time inside pool task groups, running
  //                         tasks or waiting for them (the parallel work:
  //                         prepare, commit lanes, publish fan-outs, the
  //                         link pass over seeded shards at the start);
  //                         scales with num_threads.
  //   maintenance_seconds — cut exports, planning, and mutation-batch
  //                         application. Booked separately so maintenance
  //                         cost can no longer masquerade as serial-phase
  //                         time.
  //   serial_seconds      — the ordered merge and remaining bookkeeping.
  double pool_seconds = 0.0;
  double serial_seconds = 0.0;
  double maintenance_seconds = 0.0;

  // Simulated serving latency over the completions: end-to-end,
  // time-to-first-token, and scheduler queue delay.
  double p50_latency_s = 0.0;
  double p99_latency_s = 0.0;
  double p50_ttft_s = 0.0;
  double p99_ttft_s = 0.0;
  double p50_queue_delay_s = 0.0;
  double p99_queue_delay_s = 0.0;
  double mean_quality = 0.0;

  // Distance-kernel dispatch level used for every similarity computation in
  // this run ("avx2" | "scalar"). Resolved once at process startup, so all
  // threads and lanes of a run share one kernel — the determinism contract
  // (byte-identical decisions at any thread/lane count) holds per process.
  std::string simd_kernel;

  // Always 0: prepare no longer memoizes embeddings. Kept only because
  // bench/perf still reads them.
  size_t embed_memo_hits = 0;
  size_t embed_memo_misses = 0;

  // Deterministic tail exemplars (slowest-K per window + fixed-rate sample),
  // sorted by (window, request_id). Stage-0 hits never reach the cluster, so
  // they produce no completion and cannot appear here.
  std::vector<TailExemplar> tail_exemplars;
  // SLO-watchdog anomalies fired during this run (empty unless configured).
  std::vector<WatchdogEvent> anomalies;
};

class ServingDriver {
 public:
  ServingDriver(DriverConfig config, const ModelCatalog* catalog);

  // Generates an arrival-stamped request stream: one QueryGenerator request
  // per ArrivalTrace timestamp. Deterministic in (profile, trace, seed).
  static std::vector<Request> MakeWorkload(const DatasetProfile& profile,
                                           const TraceConfig& trace, uint64_t seed);

  // Seeds the example pool with a large-model response (pool initialization).
  // On HNSW this only appends the example's vector to its shard: the graphs
  // are linked in one parallel pass, one pool task per shard, when seeding
  // ends (SaveSnapshot or the start of Run) or by the first search.
  uint64_t SeedExample(const Request& request, double now);

  // Processes one stream segment (must be sorted by arrival_time) and runs
  // the cluster to completion. May be called repeatedly: each call reports
  // its own segment, and serving state (pool, selector, router, clocks)
  // carries across calls — Run(a) then Run(b) serves b exactly as a driver
  // restored from a snapshot taken after Run(a) would. Run applies any
  // planned maintenance tick at its final boundary, so snapshots between
  // runs capture a complete state.
  DriverReport Run(const std::vector<Request>& requests);

  // --- Persistence ---------------------------------------------------------

  // Writes the complete learned serving state — example pool with native
  // HNSW graphs, selector/manager/proxy/router adaptation, generator stream,
  // replay/maintenance cursors + epoch, trace clock — as one atomic
  // snapshot. In-flight simulated requests are NOT captured: a snapshot
  // taken mid-trace restores the learned pool, not the cluster's queue.
  // First links every shard's pending HNSW nodes in parallel (num_threads
  // threads counting this one; workers start only when something is
  // pending), so a freshly seeded pool's graphs are built here; the bytes do
  // not depend on the thread count.
  Status SaveSnapshot(const std::string& path);

  // Restores a SaveSnapshot image into this (freshly constructed, unserved)
  // driver and fast-forwards the trace clock to the snapshot time. After a
  // successful restore, serving a stream produces byte-identical decisions
  // to the driver that wrote the snapshot serving the same stream.
  Status RestoreSnapshot(const std::string& path);

  // Outcome of the constructor-time restore (restore_on_start): Ok after a
  // successful warm start AND after a cold start with no snapshot file.
  const Status& restore_status() const { return restore_status_; }
  bool restored_from_snapshot() const { return restored_from_snapshot_; }
  const PoolRestoreReport& restore_report() const { return restore_report_; }
  const Checkpointer& checkpointer() const { return checkpointer_; }

  // Pipeline metrics: counters/gauges maintained on the serial path plus a
  // per-window snapshot series, exportable as Prometheus text or Chrome-trace
  // counter tracks. Always on (passive; cannot influence decisions), and
  // cumulative across repeated Run calls.
  MetricsHub& metrics_hub() { return hub_; }
  const MetricsHub& metrics_hub() const { return hub_; }

  ShardedExampleCache& cache() { return cache_; }
  RequestRouter& router() { return router_; }
  ProxyUtilityModel& proxy() { return proxy_; }
  ExampleSelector& selector() { return selector_; }
  ExampleManager& manager() { return manager_; }
  Stage0ResponseCache& stage0() { return stage0_; }
  ClusterSim& cluster() { return cluster_; }
  const DriverConfig& config() const { return config_; }

 private:
  // Phase-1 output: everything the commit stage needs, computed purely.
  struct Prepared {
    std::vector<float> embedding;  // shared by stage-0, selection, admission
    std::vector<SelectorCandidate> candidates;
    PreparedLifecycleAdmission lifecycle;
    // Stage-0 probe against the window-start cache. The threshold decision
    // is NOT applied here — the lane judges it against the frozen threshold.
    std::optional<Stage0Probe> stage0;
    // The probe cleared the hit floor, so the lane must judge it a hit:
    // prepare left `embedding`, `candidates` and `lifecycle` empty.
    bool retrieval_skipped = false;
  };

  // Lane-stage output: everything the deterministic merge and the publish
  // step apply, computed without touching shared mutable state.
  struct CommitSlot {
    std::vector<SelectedExample> selected;  // presentation order
    std::vector<uint64_t> accessed;         // selector access accounting
    RouteDecision decision;
    bool offloaded = false;
    size_t num_examples = 0;
    GenerationResult generation;
    bool probed = false;
    double probe_gain = 0.0;
    PreparedLifecycleAdmission lifecycle;  // staged admission (publish step)
    std::vector<float> embedding;          // for the merge-time stage-0 insert

    // Stage-0 hit outcome: the request was served from the response cache —
    // no routing, no generation, no cluster submission, no admission.
    bool stage0_hit = false;
    bool retrieval_skipped = false;  // the hit was proven in prepare
    // On a hit: the served entry. On a miss: the probe's top-1 neighbour,
    // reused by the merge as the admission dedupe hint (no serial search).
    uint64_t stage0_id = 0;
    double stage0_similarity = 0.0;
    bool stage0_probed = false;          // shadow-generated the fresh response
    double stage0_fresh_quality = 0.0;   // counterfactual (probed hits only)
    int stage0_tokens_saved = 0;
  };

  // Batched prepare for `count` consecutive requests (one pool task's chunk):
  // per-request embeds into a reused arena, one batched stage-0 probe, one
  // batched stage-1 sweep over the requests whose probe does not clear
  // `hit_floor` (the others are proven hits and get no retrieval), then the
  // per-request tail (filter/snapshot/stage-2 scoring + admission prep). For every request the lane serves as a miss, out[i] is exactly
  // what the historical per-request prepare produced for chunk_requests[i].
  void PrepareChunk(const Request* chunk_requests, size_t count, double hit_floor,
                    Prepared* out) const;

  // Lane stage for one request: frozen selection, frozen-posterior routing,
  // generation, probe shadow generation. Pure given window-start state.
  void CommitLaneRequest(const Request& request, Prepared& prep, CommitSlot& slot) const;

  // Links every shard's pending HNSW nodes on a num_threads pool, one task
  // per shard; creates no thread when nothing is pending (or at 1 thread).
  void LinkPendingShards();

  DriverConfig config_;
  ModelProfile small_;
  ModelProfile large_;
  std::shared_ptr<const Embedder> embedder_;
  ShardedExampleCache cache_;
  ProxyUtilityModel proxy_;
  ExampleSelector selector_;
  RequestRouter router_;
  GenerationSimulator generator_;
  ExampleManager manager_;
  Stage0ResponseCache stage0_;
  ClusterSim cluster_;
  // The next maintenance tick's ordinal, which derives its sampling stream;
  // snapshots save it, so a restored driver plans the ticks the
  // uninterrupted run would.
  uint64_t next_maintenance_epoch_ = 0;
  double last_replay_time_ = 0.0;

  MetricsHub hub_;

  Checkpointer checkpointer_;
  Status restore_status_;
  bool restored_from_snapshot_ = false;
  PoolRestoreReport restore_report_;
};

}  // namespace iccache

#endif  // SRC_SERVING_DRIVER_H_
