#include "src/serving/driver.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>

#include "src/common/binio.h"
#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/common/stats.h"
#include "src/common/thread_pool.h"
#include "src/core/pipeline.h"
#include "src/embedding/embedder.h"
#include "src/obs/trace.h"
#include "src/persist/snapshot.h"

namespace iccache {

namespace {

// Each model pool runs this many replicas of the default ServerConfig.
constexpr int kReplicasPerPool = 2;
// Window boundaries a planned maintenance tick ages before its mutation
// batch is applied. Part of the decision schedule: admissions from the
// windows in between land before the batch, so applying a tick at another
// boundary changes decisions. Checkpoints and end-of-run apply a planned
// tick early (at equally deterministic points).
constexpr size_t kMaintenancePublishLag = 2;

RouterConfig SeededRouterConfig(RouterConfig config, uint64_t seed) {
  config.seed = Mix64(seed ^ 0x4073ull);
  return config;
}

ShardedCacheConfig SeededCacheConfig(ShardedCacheConfig config, uint64_t seed) {
  config.cache.seed = Mix64(seed ^ 0xcac4eull);
  return config;
}

double Since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

ServingDriver::ServingDriver(DriverConfig config, const ModelCatalog* catalog)
    : config_(config),
      small_(catalog->Get(config.small_model)),
      large_(catalog->Get(config.large_model)),
      embedder_(std::make_shared<HashingEmbedder>()),
      cache_(embedder_, SeededCacheConfig(config.cache, config.seed)),
      proxy_(),
      selector_(&cache_, &proxy_, config.selector),
      router_(MakeArms(small_, large_), SeededRouterConfig(config.router, config.seed)),
      generator_(Mix64(config.seed ^ 0x6e4ull)),
      manager_(&cache_, &generator_, large_, config.manager),
      stage0_(embedder_, config.stage0),
      checkpointer_(CheckpointerConfig{config.snapshot_path, config.checkpoint_interval_s,
                                       config.replay_load_threshold}) {
  cluster_.AddPool(small_, kReplicasPerPool);
  cluster_.AddPool(large_, kReplicasPerPool);
  if (config_.restore_on_start && !config_.snapshot_path.empty()) {
    const Status status = RestoreSnapshot(config_.snapshot_path);
    // A missing snapshot is a normal cold start; anything else (corruption,
    // geometry mismatch) is surfaced through restore_status().
    if (!status.ok() && status.code() != StatusCode::kNotFound) {
      restore_status_ = status;
    }
  }
}

std::vector<Request> ServingDriver::MakeWorkload(const DatasetProfile& profile,
                                                 const TraceConfig& trace, uint64_t seed) {
  ArrivalTrace arrivals(trace);
  QueryGenerator generator(profile, seed);
  std::vector<Request> requests;
  for (double t : arrivals.GenerateArrivals()) {
    Request request = generator.Next();
    request.arrival_time = t;
    requests.push_back(std::move(request));
  }
  return requests;
}

uint64_t ServingDriver::SeedExample(const Request& request, double now) {
  const GenerationResult generation = generator_.Generate(large_, request, {});
  return cache_.Put(request, "[seed-response]", generation.latent_quality, large_.capability,
                    generation.output_tokens, now);
}

void ServingDriver::LinkPendingShards() {
  if (cache_.pending() == 0) {
    return;
  }
  ThreadPool pool(config_.num_threads);
  cache_.Flush(&pool);
}

Status ServingDriver::SaveSnapshot(const std::string& path) {
  LinkPendingShards();
  SnapshotWriter writer;
  PoolComponents components;
  components.selector = &selector_;
  components.manager = &manager_;
  components.proxy = &proxy_;
  components.router = &router_;
  components.stage0 = config_.stage0.enabled ? &stage0_ : nullptr;
  EncodePoolSections(cache_, components, cluster_.now(), &writer);

  // No planned tick is held at any point a snapshot can be taken
  // (checkpoints apply it first; Run applies it before returning), so the
  // epoch counter alone captures the maintenance state.
  ByteWriter driver;
  driver.PutDouble(last_replay_time_);
  EncodeRngState(generator_.rng_state(), &driver);
  driver.PutU64(next_maintenance_epoch_);
  writer.AddSection(SnapshotSection::kDriver, driver.TakeBytes());
  return writer.WriteToFile(path);
}

Status ServingDriver::RestoreSnapshot(const std::string& path) {
  SnapshotReader reader;
  Status status = reader.Open(path);
  if (!status.ok()) {
    return status;
  }
  PoolComponents components;
  components.selector = &selector_;
  components.manager = &manager_;
  components.proxy = &proxy_;
  components.router = &router_;
  components.stage0 = config_.stage0.enabled ? &stage0_ : nullptr;
  status = DecodePoolSections(reader, &cache_, components, &restore_report_);
  if (!status.ok()) {
    return status;
  }
  // The rebuild fallback (no usable graph image) appended every example;
  // link them now, all shards at once. A native load leaves nothing pending.
  LinkPendingShards();
  status = DecodeOptionalSection(reader, SnapshotSection::kDriver, [this](ByteReader* r) {
    const double last_replay_time = r->GetDouble();
    const RngState generator_rng = DecodeRngState(r);
    const uint64_t maintenance_epoch = r->GetU64();
    if (!r->ok() || !r->AtEnd()) {
      return false;
    }
    last_replay_time_ = last_replay_time;
    generator_.restore_rng_state(generator_rng);
    next_maintenance_epoch_ = maintenance_epoch;
    return true;
  });
  if (!status.ok()) {
    return status;
  }
  // Fast-forward the (idle) cluster to the snapshot's trace time so load
  // observations and maintenance cadence resume where the writer stopped.
  cluster_.AdvanceTo(restore_report_.sim_time);
  checkpointer_.NoteRestored(restore_report_.sim_time);
  restored_from_snapshot_ = true;
  return Status::Ok();
}

namespace {

// Per-thread scratch for the batched prepare path. Every buffer retains its
// capacity across chunks, so steady-state prepare work allocates only what
// the per-request outputs themselves own.
struct PrepareScratch {
  std::vector<float> embeddings;  // chunk-size * dim embedding arena
  std::vector<double> arrivals;   // per-request freshness clocks for stage-0
  std::vector<uint64_t> begin_ns;
  SearchScratch index_scratch;
  std::vector<std::optional<Stage0Probe>> probes;
  std::vector<uint8_t> skipped;  // per request: a proven stage-0 hit
  std::vector<std::vector<SearchResult>> stage1;  // one row per swept request
};

}  // namespace

void ServingDriver::PrepareChunk(const Request* chunk_requests, size_t count,
                                 double hit_floor, Slot* out) const {
  static thread_local PrepareScratch s;
  const size_t dim = embedder_->dim();
  const bool traced = TraceRecorder::tracing_enabled();
  s.embeddings.resize(count * dim);
  s.begin_ns.resize(count);

  // One embed per request, shared by every stage below: stage-0 probe,
  // stage-1 retrieval, and the admission scrub all reuse the arena slot.
  for (size_t i = 0; i < count; ++i) {
    if (traced) {
      s.begin_ns[i] = TraceRecorder::Global().NowNs();
    }
    TraceSpan embed_span(TraceCategory::kEmbed, chunk_requests[i].id);
    embedder_->EmbedInto(chunk_requests[i].text, s.embeddings.data() + i * dim);
  }

  // Batched stage-0 probe against the window-start response cache (pure
  // read). The lane makes the hit decision against the threshold frozen at
  // its window start, which prepare cannot read yet; `hit_floor` is the
  // highest value that threshold can take (the driver derives it from the
  // learner's cadence), so a probe that clears the floor is a certain hit.
  // Such a request needs no retrieval: a hit is served without candidates
  // and admits nothing. Every other request is swept, since the lane may
  // still judge it a miss and serve it from its candidates.
  if (config_.stage0.enabled) {
    s.arrivals.resize(count);
    for (size_t i = 0; i < count; ++i) {
      s.arrivals[i] = chunk_requests[i].arrival_time;
    }
    stage0_.ProbeBatch(s.embeddings.data(), count, dim, s.arrivals.data(), &s.index_scratch,
                       &s.probes);
  }

  // Pack the swept requests' embeddings to the front of the arena, in chunk
  // order (a proven hit needs its embedding no further): row j of the sweep
  // below is the j-th swept request.
  s.skipped.resize(count);
  size_t swept = 0;
  for (size_t i = 0; i < count; ++i) {
    s.skipped[i] = config_.stage0.enabled && s.probes[i].has_value() &&
                   Stage0ResponseCache::Clears(*s.probes[i], hit_floor);
    if (s.skipped[i] != 0) {
      continue;
    }
    if (swept != i) {
      std::copy_n(s.embeddings.data() + i * dim, dim, s.embeddings.data() + swept * dim);
    }
    ++swept;
  }

  // Batched stage-1 sweep: one multi-query pass over the sharded store takes
  // each shard's lock once for the whole chunk, and not at all when every
  // request is a proven hit. Each query's result list is exactly what its
  // single-query FindSimilar would have returned, so the per-request
  // selector tail below is byte-identical to the unbatched path. A bypassed
  // selector (section 5) skips retrieval entirely.
  if (!config_.selector_fault_bypass && swept > 0) {
    TraceSpan batch_span(TraceCategory::kStage1Batch);
    batch_span.SetArgs(swept, config_.selector.stage1_candidates);
    cache_.FindSimilarBatch(s.embeddings.data(), swept, dim, config_.selector.stage1_candidates,
                            &s.index_scratch, &s.stage1);
  }

  // Per-request tail: selector filter/snapshot/stage-2 scoring (each
  // snapshot carries the example's stored vector, which the commit lanes'
  // diversity guard reads — the dynamic utility threshold is applied in the
  // lane stage) and the pure lifecycle half
  // (near-duplicate check + scrub/embed of the admission payload; the
  // quality gate runs at publish time). The check reads the top-1 of the
  // request's stage-1 row, which the store, frozen until publish, still
  // describes; a bypassed selector has no row, so the check searches for
  // itself.
  for (size_t i = 0, row = 0; i < count; ++i) {
    const Request& request = chunk_requests[i];
    Slot& slot = out[i];
    slot = Slot();
    if (config_.stage0.enabled) {
      slot.stage0 = s.probes[i];
    }
    if (s.skipped[i] != 0) {
      slot.retrieval_skipped = true;
    } else {
      slot.embedding.assign(s.embeddings.data() + row * dim,
                            s.embeddings.data() + (row + 1) * dim);
      const std::vector<SearchResult>* stage1 =
          config_.selector_fault_bypass ? nullptr : &s.stage1[row];
      if (stage1 != nullptr) {
        slot.candidates = selector_.PrepareCandidatesFrom(request, small_, *stage1);
      }
      slot.lifecycle = manager_.PrepareAdmission(request, &slot.embedding, stage1);
      ++row;
    }
    if (traced) {
      // Per-request prepare phase span, emitted manually so it brackets the
      // request's embed through its tail even though chunk phases interleave
      // the requests in between (the timeline assembler books the interleaved
      // work to prepare_other).
      TraceEvent prepare_event;
      prepare_event.category = TraceCategory::kPrepare;
      prepare_event.request_id = request.id;
      prepare_event.begin_ns = s.begin_ns[i];
      prepare_event.end_ns = TraceRecorder::Global().NowNs();
      TraceRecorder::Global().Emit(prepare_event);
    }
  }
}

void ServingDriver::CommitLaneRequest(const Request& request, Slot& slot) const {
  // Stage-0 hit path: the probe's similarity clears the threshold FROZEN at
  // the window start (every lane judges against the same value), so the
  // cached response is served verbatim — no routing, no generation, no
  // cluster submission. The reuse quality is drawn from a dedicated
  // per-request stream, so the outcome stays a pure function of
  // (seed, request id, window-start state).
  if (config_.stage0.enabled && slot.stage0.has_value() && stage0_.Confident(*slot.stage0)) {
    const Stage0Entry& hit = slot.stage0->entry;
    slot.stage0_hit = true;

    Rng reuse_rng(Mix64(request.id ^ config_.seed ^ 0x57a9e17ull));
    const double relevance = StructuralRelevance(request, hit.request, reuse_rng);
    slot.generation.request_id = request.id;
    slot.generation.model_name = "stage0-cache";
    slot.generation.latent_quality =
        generator_.ReusedResponseQuality(hit.response_quality, relevance, reuse_rng);
    slot.generation.prompt_tokens = request.input_tokens;
    slot.generation.output_tokens = 0;  // zero generation cost
    slot.stage0_tokens_saved = hit.response_tokens;  // estimate when unprobed

    // Probe sampling for threshold learning: on a deterministic per-request
    // slice of hits, ALSO generate the response fresh so the merge can credit
    // the adaptation grid with a genuine (reused - fresh) counterfactual.
    Rng probe_rng(Mix64(request.id ^ config_.seed ^ 0x57a9ebull));
    if (probe_rng.Uniform() < config_.stage0.probe_rate) {
      TraceSpan generate_span(TraceCategory::kGenerate, request.id);
      Rng commit_rng(Mix64(request.id ^ config_.seed ^ 0x1a9ec0113ull));
      const GenerationResult fresh = generator_.Generate(large_, request, {}, commit_rng);
      slot.stage0_probed = true;
      slot.stage0_fresh_quality = fresh.latent_quality;
      slot.stage0_tokens_saved = fresh.output_tokens;
    }
    return;
  }
  if (slot.retrieval_skipped) {
    // Prepare proved this request a hit against a floor no lower than the
    // threshold just applied, and left it without candidates or an
    // admission: the floor rule is broken, and serving on would silently
    // change the request's decision.
    std::fprintf(stderr,
                 "ServingDriver: request %llu skipped retrieval as a proven stage-0 hit, "
                 "but its lane judged a miss (similarity %.9g, threshold %.9g)\n",
                 static_cast<unsigned long long>(request.id),
                 slot.stage0.has_value() ? slot.stage0->similarity : 0.0,
                 stage0_.hit_threshold());
    std::abort();
  }

  // Frozen-threshold combination: diversity, token budget, worst-to-best
  // ordering against the window-start adaptation state. The picks are
  // positions in the slot's candidates; the merge records their accesses.
  std::vector<size_t> picked;
  if (!config_.selector_fault_bypass) {
    picked = selector_.CommitSelectionFrozen(slot.candidates, small_);
  }
  slot.selected = ExampleSelector::ToSelected(slot.candidates, picked);

  // One per-request stream drives every stochastic step of this request —
  // Thompson sampling, generation, probe shadow generation — so the outcome
  // is a pure function of (seed, request id, window-start state).
  Rng commit_rng(Mix64(request.id ^ config_.seed ^ 0x1a9ec0113ull));

  {
    TraceSpan route_span(TraceCategory::kRoute, request.id);
    slot.decision = config_.router_fault_bypass
                        ? BypassRoute(router_, request, slot.selected, large_)
                        : router_.RouteWithRng(request, slot.selected, commit_rng);
  }
  const bool offloaded = slot.decision.uses_examples;
  const ModelProfile& model = offloaded ? small_ : large_;

  {
    TraceSpan generate_span(TraceCategory::kGenerate, request.id);
    std::vector<ExampleView> views;
    if (offloaded) {
      views.reserve(picked.size());
      Rng view_rng(Mix64(request.id ^ config_.seed ^ 0x71e35ull));
      for (size_t position : picked) {
        views.push_back(MakeExampleView(request, slot.candidates[position].example, view_rng));
      }
    }
    slot.generation = generator_.Generate(model, request, views, commit_rng);
  }

  // Probe sampling: on a deterministic per-request slice of offloaded
  // traffic, shadow-generate the plain small-model response so the
  // selector's feedback (applied in the merge) uses a genuine counterfactual
  // quality gain, as in IcCacheService.
  if (offloaded && !slot.selected.empty()) {
    Rng probe_rng(Mix64(request.id ^ config_.seed ^ 0x9a0beull));
    if (probe_rng.Uniform() < kSelectorProbeRate) {
      TraceSpan generate_span(TraceCategory::kGenerate, request.id);
      const GenerationResult plain = generator_.Generate(small_, request, {}, commit_rng);
      slot.probed = true;
      slot.probe_gain = slot.generation.latent_quality - plain.latent_quality;
    }
  }
}

DriverReport ServingDriver::Run(const std::vector<Request>& requests) {
  DriverReport report;
  report.total_requests = requests.size();
  report.decisions.reserve(requests.size());
  const uint64_t evicted_before = cache_.evicted_total();
  size_t planned_evictions = 0;  // maintenance-batch removals (not in the store counter)
  const size_t checkpoints_before = checkpointer_.taken();
  LatencyHistogram run_checkpoint_ms(1e-3, 1.10, 256);  // this segment's writes only

  // Metric handles, registered once per Run (stable pointers, atomic-add hot
  // path). Every update below happens on the driver thread's serial path or
  // at a window boundary — lanes and prepare tasks never touch the hub, and
  // none of it feeds back into decisions.
  MetricCounter* m_requests = hub_.Counter("requests_total");
  MetricCounter* m_windows = hub_.Counter("windows_total");
  MetricCounter* m_offloaded = hub_.Counter("requests_offloaded_total");
  MetricCounter* m_stage0_hits = hub_.Counter("stage0_hits_total");
  MetricCounter* m_stage0_probes = hub_.Counter("stage0_probes_total");
  MetricCounter* m_stage0_invalidations = hub_.Counter("stage0_invalidations_total");
  MetricCounter* m_stage0_expired = hub_.Counter("stage0_expired_total");
  MetricCounter* m_stage0_admitted = hub_.Counter("stage0_admitted_total");
  MetricCounter* m_stage0_skips = hub_.Counter("stage0_retrieval_skips_total");
  MetricCounter* m_stage0_tokens_saved = hub_.Counter("stage0_tokens_saved_total");
  MetricCounter* m_generated_tokens = hub_.Counter("generated_tokens_total");
  MetricCounter* m_admitted = hub_.Counter("examples_admitted_total");
  MetricCounter* m_evicted = hub_.Counter("examples_evicted_total");
  MetricCounter* m_anomalies = hub_.Counter("watchdog_anomalies_total");
  MetricCounter* m_maintenance_ticks = hub_.Counter("maintenance_ticks_total");
  MetricCounter* m_replay_passes = hub_.Counter("replay_passes_total");
  MetricCounter* m_replayed = hub_.Counter("replayed_examples_total");
  MetricCounter* m_checkpoints = hub_.Counter("checkpoints_total");
  MetricGauge* g_pool_bytes = hub_.Gauge("pool_bytes");
  MetricGauge* g_pool_examples = hub_.Gauge("pool_examples");
  MetricGauge* g_stage0_entries = hub_.Gauge("stage0_entries");
  MetricGauge* g_queue_depth = hub_.Gauge("cluster_inflight");
  MetricGauge* g_sim_time = hub_.Gauge("sim_time_s");
  MetricHistogram* h_e2e = hub_.Histogram("e2e_latency_seconds");
  MetricHistogram* h_ttft = hub_.Histogram("ttft_seconds");
  MetricHistogram* h_queue = hub_.Histogram("queue_delay_seconds");
  MetricHistogram* h_prepare = hub_.Histogram("window_prepare_seconds");
  // Requests per prepare chunk (fill of the batched prepare tasks). Observed
  // on the driver thread at submit time from the deterministic chunking, so
  // the series is thread- and lane-count invariant.
  MetricHistogram* h_batch_fill = hub_.Histogram("prepare_batch_fill");
  MetricHistogram* h_merge = hub_.Histogram("window_merge_seconds");
  MetricHistogram* h_publish = hub_.Histogram("window_publish_seconds");
  // Per batch the driver runs on the pool (prologue, window fan-out,
  // publish): seconds from its submit to the start of its last task to leave
  // the queue, i.e. how long the pool took to put the whole batch to work.
  MetricHistogram* h_start_delay = hub_.Histogram("pool_task_start_delay_seconds");
  MetricHistogram* h_checkpoint = hub_.Histogram("checkpoint_write_ms", 1e-3, 1.10, 256);
  // Determinism guard: the distance-kernel dispatch level is resolved once at
  // process startup and never changes; publish it so any decision mismatch
  // between runs can be checked against the kernel in one glance.
  MetricGauge* g_simd_level = hub_.Gauge("simd_kernel_level");
  g_simd_level->Set(static_cast<double>(static_cast<int>(simd::ActiveKernelLevel())));

  // Utilization denominator: both pools' replicas at full batch occupancy.
  const double pool_capacity =
      static_cast<double>(2 * kReplicasPerPool * ServerConfig{}.max_batch_size);
  // One utilization definition for everything that gates on load (router
  // ObserveLoad, the off-peak replay threshold, the checkpoint gate).
  const auto current_load = [this, pool_capacity] {
    return static_cast<double>(cluster_.PoolInFlight(small_.name) +
                               cluster_.PoolInFlight(large_.name)) /
           pool_capacity;
  };

  ThreadPool pool(config_.num_threads);
  const size_t window = std::max<size_t>(1, config_.batch_window);
  const size_t lanes = std::max<size_t>(1, config_.commit_lanes);
  // The window being committed and the next one, which prepare fills while
  // this window's lanes run; swapped at every boundary.
  std::vector<Slot> slots(window);
  std::vector<Slot> slots_next(window);
  RunningStat quality;
  double pool_wall = 0.0;         // driver time inside pool task groups
  double maintenance_wall = 0.0;  // cut exports + planning + batch apply

  // Per-Run SLO watchdog over the per-window hub snapshots. Passive: it
  // reads metrics already maintained above, so arming it cannot perturb a
  // single decision.
  SloWatchdog watchdog(config_.watchdog);
  uint64_t evicted_seen = evicted_before;  // store-counter cursor for the window delta
  size_t planned_seen = 0;                 // maintenance-batch cursor, same delta

  // Bounded log-bucket histograms instead of retained-sample trackers: the
  // report's percentiles carry the histogram's quantile error bound
  // (relative error <= sqrt(growth) - 1, ~4.9% at growth 1.10) but memory
  // stays constant however many completions a run produces.
  LatencyHistogram latency;
  LatencyHistogram ttft;
  LatencyHistogram queue_delay;
  // Drains the cluster's finished requests into the report at each window
  // boundary (rather than once at the end) so the per-window hub snapshots
  // carry live latency histograms for the watchdog. TakeCompletions is
  // driven purely by the simulated clock, so per-boundary draining yields
  // the same global completion order as one final take.
  const auto drain_completions = [&] {
    for (CompletionRecord& record : cluster_.TakeCompletions()) {
      const double e2e = record.E2eLatency();
      latency.Add(e2e);
      ttft.Add(record.Ttft());
      queue_delay.Add(record.QueueDelay());
      h_e2e->Observe(e2e);
      h_ttft->Observe(record.Ttft());
      h_queue->Observe(record.QueueDelay());
      report.completions.push_back(std::move(record));
    }
  };

  // The maintenance tick planned at an earlier boundary and not yet applied
  // (at most one), and the window boundaries it has aged since.
  std::optional<MaintenancePlan> planned_tick;
  size_t planned_tick_age = 0;

  // Applies the planned tick's mutation batch.
  const auto apply_tick = [&] {
    const auto start = std::chrono::steady_clock::now();
    MaintenanceApplyOutcome outcome;
    {
      TraceSpan span(TraceCategory::kMaintenanceApply);
      outcome = manager_.ApplyMaintenance(*planned_tick);
      span.SetArgs(outcome.evicted, outcome.replayed);
    }
    planned_tick.reset();
    planned_evictions += outcome.evicted;
    if (outcome.decay_ran) {
      ++report.maintenance_runs;
      m_maintenance_ticks->Increment();
    }
    if (outcome.replay_ran) {
      ++report.replay_passes;
      report.replayed_examples += outcome.replayed;
      report.improved_examples += outcome.improved;
      m_replay_passes->Increment();
      m_replayed->Add(static_cast<double>(outcome.replayed));
    }
    maintenance_wall += Since(start);
  };

  // Runs one non-empty fan-out on the pool: every task is queued at once,
  // and the driver thread runs queued tasks beside the workers until the
  // batch is done. Returns the seconds that took, which is pool time.
  using Batch = std::vector<std::function<void()>>;
  const auto run_batch = [&](Batch tasks) {
    const auto start = std::chrono::steady_clock::now();
    WaitGroup group;
    pool.Submit(std::move(tasks), &group);
    pool.Wait(group);
    h_start_delay->Observe(group.last_start_delay_seconds());
    const double seconds = Since(start);
    pool_wall += seconds;
    return seconds;
  };

  // Chunked prepare: one task per prepare_chunk-sized slice of the window,
  // appended to `tasks`. Chunk boundaries depend only on (window,
  // prepare_chunk), so the batch-fill histogram — observed here on the
  // driver thread — is identical at any thread/lane count. `pending` is the
  // request count the stage-0 learner will be advanced by before these
  // requests' lanes run (the window being committed now); the hit floor is
  // the highest threshold the learner can then hold, read here before that
  // window's merge begins.
  const size_t chunk = std::max<size_t>(1, config_.prepare_chunk);
  const auto add_prepare = [&](size_t begin, size_t count, size_t pending,
                               std::vector<Slot>* out, Batch* tasks) {
    const double hit_floor = stage0_.HighestHitThresholdAfter(pending);
    for (size_t chunk_begin = 0; chunk_begin < count; chunk_begin += chunk) {
      const size_t chunk_count = std::min(chunk, count - chunk_begin);
      h_batch_fill->Observe(static_cast<double>(chunk_count));
      tasks->push_back([this, &requests, out, begin, chunk_begin, chunk_count, hit_floor] {
        PrepareChunk(&requests[begin + chunk_begin], chunk_count, hit_floor,
                     &(*out)[chunk_begin]);
      });
    }
  };

  const auto wall_start = std::chrono::steady_clock::now();

  // Link whatever SeedExample appended since the last link pass before the
  // first window reads the pool: one task per shard with pending nodes.
  {
    const auto start = std::chrono::steady_clock::now();
    cache_.Flush(&pool);
    pool_wall += Since(start);
  }

  // Prologue: prepare window 0 (there is nothing to overlap it with yet).
  if (!requests.empty()) {
    Batch tasks;
    add_prepare(0, std::min(window, requests.size()), /*pending=*/0, &slots, &tasks);
    run_batch(std::move(tasks));
  }

  for (size_t begin = 0; begin < requests.size(); begin += window) {
    const size_t count = std::min(window, requests.size() - begin);
    const size_t window_index = begin / window;
    // Phase span covering the whole window (fan-out through boundary work).
    TraceSpan window_span(TraceCategory::kWindow);
    window_span.SetArgs(window_index, count);
    const bool final_window = begin + window >= requests.size();
    const size_t next_begin = begin + window;
    const size_t next_count =
        final_window ? 0 : std::min(window, requests.size() - next_begin);

    // Freeze the routing state for this window's lanes: refresh the bandit's
    // lazy posterior factorizations on this thread so concurrent frozen
    // routes are race-free.
    router_.PrepareSampling();

    // Fan out the sharded commit lanes for THIS window alongside the pure
    // preparation of the NEXT window (the pipeline overlap), as one batch.
    // Both task families only read state frozen at this boundary, so they
    // can share the pool freely.
    std::vector<std::vector<size_t>> lane_slots(lanes);
    for (size_t slot = 0; slot < count; ++slot) {
      lane_slots[cache_.shard_for_request(requests[begin + slot]) % lanes].push_back(slot);
    }
    Batch tasks;
    for (size_t lane = 0; lane < lanes; ++lane) {
      if (lane_slots[lane].empty()) {
        continue;
      }
      tasks.push_back([this, &requests, &slots, &lane_slots, lane, begin] {
        TraceSpan lane_span(TraceCategory::kCommitLane, 0, static_cast<uint32_t>(lane));
        lane_span.SetArgs(lane_slots[lane].size());
        for (size_t slot : lane_slots[lane]) {
          TraceSpan commit_span(TraceCategory::kLaneCommit, requests[begin + slot].id,
                                static_cast<uint32_t>(lane));
          CommitLaneRequest(requests[begin + slot], slots[slot]);
        }
      });
    }
    if (next_count > 0) {
      add_prepare(next_begin, next_count, /*pending=*/count, &slots_next, &tasks);
    }
    h_prepare->Observe(run_batch(std::move(tasks)));

    // Deterministic cross-shard merge: every globally stateful step, applied
    // strictly in arrival order on the driver thread. The span is emitted
    // manually (not RAII) so it closes exactly at the end of the loop.
    const auto merge_start = std::chrono::steady_clock::now();
    TraceEvent merge_event;
    merge_event.category = TraceCategory::kMerge;
    merge_event.arg0 = window_index;
    merge_event.arg1 = count;
    const bool merge_traced = TraceRecorder::tracing_enabled();
    if (merge_traced) {
      merge_event.begin_ns = TraceRecorder::Global().NowNs();
    }
    for (size_t slot = 0; slot < count; ++slot) {
      const Request& request = requests[begin + slot];
      // Per-request slice of the serial merge, nested under the manual merge
      // span — lets the timeline assembler charge merge time to a request.
      TraceSpan step_span(TraceCategory::kMergeStep, request.id);
      Slot& c = slots[slot];
      const bool offloaded = c.decision.uses_examples;
      cluster_.AdvanceTo(request.arrival_time);

      if (c.stage0_hit) {
        // Stage-0 hit: the response came from the cache, so nothing
        // downstream of stage-0 (router, cluster queues, selector accounting,
        // lifecycle) sees this request. Only the cache's own state advances:
        // hit recency/count, probe-fed threshold learning, and
        // quality-feedback invalidation — all on the serial path, ordered
        // against every probe.
        const Stage0Probe& hit = *c.stage0;
        ++report.stage0_hits;
        report.stage0_tokens_saved += c.stage0_tokens_saved;
        m_stage0_hits->Increment();
        m_stage0_tokens_saved->Add(static_cast<double>(c.stage0_tokens_saved));
        if (c.retrieval_skipped) {
          ++report.stage0_retrieval_skips;
          m_stage0_skips->Increment();
        }
        stage0_.RecordHit(hit.entry.id, request.arrival_time);
        if (c.stage0_probed) {
          ++report.stage0_probes;
          m_stage0_probes->Increment();
          stage0_.OnHitFeedback(hit.similarity, c.generation.latent_quality,
                                c.stage0_fresh_quality, c.stage0_tokens_saved);
        }
        if (stage0_.OnQualityFeedback(hit.entry.id, c.generation.latent_quality)) {
          ++report.stage0_invalidations;
          m_stage0_invalidations->Increment();
        }
      } else {
        const ModelProfile& model = offloaded ? small_ : large_;
        router_.ObserveLoad(current_load());
        // Each pick is a distinct example, and an access only counts and
        // stamps it, so the order of these calls reaches no state.
        for (const SelectedExample& pick : c.selected) {
          cache_.RecordAccess(pick.example_id, request.arrival_time);
        }

        ServingRequest serving;
        serving.id = request.id;
        serving.arrival_time = request.arrival_time;
        serving.prompt_tokens = c.generation.prompt_tokens;
        serving.output_tokens = c.generation.output_tokens;
        cluster_.Submit(model.name, serving);

        if (!config_.router_fault_bypass) {
          router_.UpdateReward(c.decision, c.generation.latent_quality);
        }
        if (offloaded) {
          ++report.offloaded_requests;
          m_offloaded->Increment();
          std::vector<uint64_t> used_ids;
          used_ids.reserve(c.selected.size());
          for (const SelectedExample& used : c.selected) {
            used_ids.push_back(used.example_id);
            if (c.generation.latent_quality > 0.5) {
              cache_.RecordOffload(used.example_id, c.generation.latent_quality);
            }
          }
          // Per-use gain accounting: G(e) = (1 - quality) * model_cost folded
          // into each used example's EMA — the replay ranking signal.
          if (!used_ids.empty()) {
            manager_.RecordUsage(used_ids, c.generation.latent_quality,
                                 large_.cost_per_1k_tokens > 0.0
                                     ? small_.cost_per_1k_tokens / large_.cost_per_1k_tokens
                                     : 0.1);
          }
          if (c.probed) {
            selector_.OnFeedback(request, c.selected, small_, c.probe_gain);
          }
        }

        // Stage-0 insert (serial, arrival order): every freshly generated
        // response is a candidate cached answer for future duplicates. The
        // cache dedupes near-exact repeats and enforces its bounds inside
        // Put, reusing the probe's top-1 neighbour as its dedupe hint (no
        // serial search); admissions become probe-visible in window N+2
        // (same schedule as the example pool).
        if (config_.stage0.enabled) {
          const Stage0DedupeHint hint = c.stage0.has_value()
                                            ? Stage0DedupeHint{c.stage0->entry.id,
                                                               c.stage0->similarity}
                                            : Stage0DedupeHint{};
          if (stage0_.Put(request, std::move(c.embedding), "[cached-response]",
                          c.generation.latent_quality, c.generation.output_tokens,
                          request.arrival_time, &hint) != 0) {
            ++report.stage0_admitted;
            m_stage0_admitted->Increment();
          }
        }
        report.generated_tokens += c.generation.output_tokens;
        m_generated_tokens->Add(static_cast<double>(c.generation.output_tokens));
      }

      // A hit's model name is "stage0-cache"; a miss's is the served model's.
      quality.Add(c.generation.latent_quality);
      DriverDecision row;
      row.request_id = request.id;
      row.model_name = c.generation.model_name;
      row.offloaded = offloaded;
      row.num_examples = offloaded ? c.selected.size() : 0;
      row.latent_quality = c.generation.latent_quality;
      report.decisions.push_back(std::move(row));
    }
    if (merge_traced) {
      merge_event.end_ns = TraceRecorder::Global().NowNs();
      TraceRecorder::Global().Emit(merge_event);
    }
    h_merge->Observe(Since(merge_start));
    // Batched threshold-adaptation cadence: the whole window served under
    // the frozen threshold; count it and re-evaluate at the boundary. This
    // is the only point a Run moves the stage-0 hit threshold, which the
    // next window's prepare, already joined, bounded by its hit floor.
    if (!config_.selector_fault_bypass) {
      selector_.AdvanceWindow(count);
    }
    if (config_.stage0.enabled) {
      stage0_.AdvanceWindow(count);
      const size_t expired = stage0_.ExpireStale(cluster_.now());
      report.stage0_expired += expired;
      m_stage0_expired->Add(static_cast<double>(expired));
    }

    // Publish the window's admissions: per-shard tasks, per-shard arrival
    // order (deterministic id assignment), watermark eviction deferred to
    // ONE enforcement after the join so no lane can trigger a knapsack under
    // a racing pool view.
    {
      std::vector<std::vector<size_t>> shard_slots(cache_.num_shards());
      for (size_t slot = 0; slot < count; ++slot) {
        shard_slots[cache_.shard_for_request(requests[begin + slot])].push_back(slot);
      }
      std::vector<uint64_t> admitted(count, 0);
      cache_.set_defer_capacity(true);
      TraceSpan publish_span(TraceCategory::kPublish);
      publish_span.SetArgs(window_index, count);
      Batch publish;
      for (size_t shard = 0; shard < shard_slots.size(); ++shard) {
        if (shard_slots[shard].empty()) {
          continue;
        }
        publish.push_back([this, &requests, &slots, &shard_slots, &admitted, shard, begin] {
          for (size_t slot : shard_slots[shard]) {
            const Request& request = requests[begin + slot];
            Slot& c = slots[slot];
            if (c.stage0_hit) {
              continue;  // nothing was generated — nothing to admit
            }
            const bool offloaded = c.decision.uses_examples;
            admitted[slot] = manager_.CommitAdmission(
                request, std::move(c.lifecycle), c.generation,
                (offloaded ? small_ : large_).capability,
                /*from_large_model=*/!offloaded, request.arrival_time);
          }
          // Link this shard's admissions here, so the next window's
          // readers find nothing pending.
          cache_.FlushShard(shard);
        });
      }
      h_publish->Observe(run_batch(std::move(publish)));
      cache_.set_defer_capacity(false);
      for (size_t slot = 0; slot < count; ++slot) {
        if (admitted[slot] != 0) {
          ++report.admitted_examples;
          m_admitted->Increment();
        }
      }
      // No synchronous watermark knapsack here: capacity pressure plans an
      // eviction tick below (soft watermark — see the end-of-run
      // enforcement that restores the hard invariant). The planned global
      // knapsack is greedy at pool scale; most evictions come from the exact
      // per-shard re-enforcement that ApplyMaintenance runs when the tick is
      // applied (74% on churn256k).
    }

    // --- Window boundary: maintenance + checkpoint ---

    // 1. Apply a planned tick that reached its lag (or any planned tick at
    //    the end of the run) — BEFORE any checkpoint, so a snapshot never
    //    holds half a tick.
    if (planned_tick && (++planned_tick_age >= kMaintenancePublishLag || final_window)) {
      apply_tick();
    }

    // 2. Periodic crash-recovery checkpoint: rides the off-peak gate, forced
    //    once two intervals overdue. A still-planned tick is applied first at
    //    this (deterministic) point so the snapshot captures a complete
    //    state. The write is atomic (temp + fsync + rename).
    if (checkpointer_.enabled() && checkpointer_.Due(cluster_.now(), current_load())) {
      if (planned_tick) {
        apply_tick();
      }
      if (checkpointer_
              .Take(cluster_.now(), [this] { return SaveSnapshot(config_.snapshot_path); })
              .ok()) {
        run_checkpoint_ms.Add(checkpointer_.last_write_ms());
        h_checkpoint->Observe(checkpointer_.last_write_ms());
        m_checkpoints->Increment();
      }
    }

    // 3. Plan the next tick when decay, watermark eviction, or off-peak
    //    replay is due: export the cut (records only, no embeddings or
    //    graphs), plan against it and drop it; only the plan waits for its
    //    boundary. At the final boundary the tick is applied at once, so Run
    //    never returns holding a plan (snapshot parity).
    if (!planned_tick) {
      const double sim_now = cluster_.now();
      const bool decay_due =
          config_.lifecycle_maintenance &&
          sim_now - manager_.last_decay_time() >= config_.manager.decay_interval_s;
      const int64_t capacity = config_.cache.cache.capacity_bytes;
      const bool evict_due =
          decay_due ||
          (capacity > 0 && static_cast<double>(cache_.used_bytes()) >
                               static_cast<double>(capacity) *
                                   std::min(1.0, config_.cache.cache.high_watermark));
      const bool replay_due = config_.offpeak_replay &&
                              current_load() < config_.replay_load_threshold &&
                              sim_now - last_replay_time_ >= config_.replay_min_interval_s;
      if (decay_due || evict_due || replay_due) {
        const auto start = std::chrono::steady_clock::now();
        MaintenanceTickSpec spec;
        spec.decay = decay_due;
        spec.evict = evict_due;
        spec.replay = replay_due;
        spec.now = sim_now;
        spec.epoch = next_maintenance_epoch_++;
        if (decay_due) {
          manager_.set_last_decay_time(sim_now);
        }
        if (replay_due) {
          last_replay_time_ = sim_now;
        }
        {
          const MaintenanceCut cut = cache_.ExportMaintenanceCut();
          TraceSpan span(TraceCategory::kMaintenancePlan);
          span.SetArgs(spec.epoch);
          // The tick's private stream, derived from (seed, epoch): the plan
          // is a pure function of the cut, the spec and this stream.
          Rng rng(Mix64(Mix64(config_.seed ^ 0x3a171ull) ^ Mix64(spec.epoch)));
          planned_tick = manager_.PlanMaintenance(cut, spec, rng);
        }
        planned_tick_age = 0;
        maintenance_wall += Since(start);
        if (final_window) {
          apply_tick();
        }
      }
    }

    // Window-boundary metrics: gauges reflect the post-publish state, and
    // one row of the per-window series records every counter/gauge (the
    // exported Chrome-trace counter tracks and the windowed hit-rate /
    // queue-depth / pool-size time series).
    m_requests->Add(static_cast<double>(count));
    m_windows->Increment();
    g_pool_bytes->Set(static_cast<double>(cache_.used_bytes()));
    g_pool_examples->Set(static_cast<double>(cache_.size()));
    g_stage0_entries->Set(config_.stage0.enabled ? static_cast<double>(stage0_.size()) : 0.0);
    g_queue_depth->Set(static_cast<double>(cluster_.PoolInFlight(small_.name) +
                                           cluster_.PoolInFlight(large_.name)));
    g_sim_time->Set(cluster_.now());
    {
      // Evictions as a counter (store watermark + maintenance batches), so
      // the watchdog's eviction-storm rule sees per-window deltas.
      const uint64_t store_evicted = cache_.evicted_total();
      m_evicted->Add(static_cast<double>(store_evicted - evicted_seen) +
                     static_cast<double>(planned_evictions - planned_seen));
      evicted_seen = store_evicted;
      planned_seen = planned_evictions;
    }
    drain_completions();
    const MetricsWindowSample window_sample =
        hub_.SnapshotWindow(window_index, cluster_.now(), TraceRecorder::Global().NowNs());
    if (watchdog.armed()) {
      for (const WatchdogEvent& event :
           watchdog.OnWindow(window_sample, h_e2e->snapshot(), h_queue->snapshot())) {
        m_anomalies->Increment();
        if (TraceRecorder::tracing_enabled()) {
          TraceEvent anomaly;
          anomaly.category = TraceCategory::kAnomaly;
          anomaly.begin_ns = TraceRecorder::Global().NowNs();
          anomaly.end_ns = anomaly.begin_ns;
          anomaly.arg0 = static_cast<uint64_t>(event.rule);
          anomaly.arg1 = event.window;
          TraceRecorder::Global().Emit(anomaly);
        }
        report.anomalies.push_back(event);
      }
    }

    std::swap(slots, slots_next);
  }
  // Watermark eviction is planned with a publish lag (soft watermark during
  // the run), so the last windows' admissions may leave the pool above the
  // trigger with no further boundary to catch it; one synchronous pass
  // restores the hard capacity invariant before Run returns.
  if (config_.cache.cache.capacity_bytes > 0) {
    const auto start = std::chrono::steady_clock::now();
    cache_.EnforceCapacity();
    maintenance_wall += Since(start);
  }
  cluster_.RunUntilIdle();
  const auto wall_end = std::chrono::steady_clock::now();

  // Final drain: whatever finished after the last boundary. Per-boundary
  // drains already moved earlier completions into the report, in the same
  // simulated completion order one end-of-run take would have produced.
  drain_completions();
  // The drains grew the rows by push_back; a caller that keeps the report
  // should not keep up to twice its rows.
  report.completions.shrink_to_fit();
  report.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  report.pool_seconds = pool_wall;
  report.maintenance_seconds = maintenance_wall;
  report.serial_seconds = report.wall_seconds - pool_wall - maintenance_wall;
  report.requests_per_second =
      report.wall_seconds > 0.0 ? static_cast<double>(report.total_requests) / report.wall_seconds
                                : 0.0;
  report.p50_latency_s = latency.Percentile(50);
  report.p99_latency_s = latency.Percentile(99);
  report.p50_ttft_s = ttft.Percentile(50);
  report.p99_ttft_s = ttft.Percentile(99);
  report.p50_queue_delay_s = queue_delay.Percentile(50);
  report.p99_queue_delay_s = queue_delay.Percentile(99);
  report.mean_quality = quality.mean();
  report.evicted_examples =
      static_cast<size_t>(cache_.evicted_total() - evicted_before) + planned_evictions;
  report.checkpoints_taken = checkpointer_.taken() - checkpoints_before;
  report.checkpoint_p50_ms = run_checkpoint_ms.Percentile(50);
  report.checkpoint_p99_ms = run_checkpoint_ms.Percentile(99);
  report.simd_kernel = simd::KernelLevelName(simd::ActiveKernelLevel());

  // Deterministic tail-exemplar selection: slowest-K completions per batch
  // window (ties broken by request id) plus an optional fixed-rate sample.
  // Everything here keys on simulated latency, request ids, and the window
  // structure — all thread- and lane-count invariant.
  if (config_.tail_slowest_per_window > 0 || config_.tail_sample_every > 0) {
    std::unordered_map<uint64_t, uint64_t> window_of;
    window_of.reserve(report.decisions.size());
    for (size_t i = 0; i < report.decisions.size(); ++i) {
      window_of.emplace(report.decisions[i].request_id, i / window);
    }
    std::map<uint64_t, std::vector<const CompletionRecord*>> by_window;
    for (const CompletionRecord& record : report.completions) {
      const auto it = window_of.find(record.id);
      by_window[it == window_of.end() ? 0 : it->second].push_back(&record);
    }
    std::map<std::pair<uint64_t, uint64_t>, TailExemplar> picked;
    const auto add = [&picked](uint64_t win, const CompletionRecord& record, bool slowest) {
      TailExemplar& exemplar = picked[{win, record.id}];
      exemplar.request_id = record.id;
      exemplar.window = win;
      exemplar.e2e_latency_s = record.E2eLatency();
      exemplar.slowest = exemplar.slowest || slowest;
    };
    for (auto& [win, records] : by_window) {
      const size_t keep = std::min(config_.tail_slowest_per_window, records.size());
      if (keep == 0) {
        continue;
      }
      std::partial_sort(records.begin(), records.begin() + keep, records.end(),
                        [](const CompletionRecord* a, const CompletionRecord* b) {
                          const double la = a->E2eLatency();
                          const double lb = b->E2eLatency();
                          if (la != lb) {
                            return la > lb;
                          }
                          return a->id < b->id;
                        });
      for (size_t i = 0; i < keep; ++i) {
        add(win, *records[i], /*slowest=*/true);
      }
    }
    if (config_.tail_sample_every > 0) {
      for (const CompletionRecord& record : report.completions) {
        if (record.id % config_.tail_sample_every == 0) {
          const auto it = window_of.find(record.id);
          add(it == window_of.end() ? 0 : it->second, record, /*slowest=*/false);
        }
      }
    }
    report.tail_exemplars.reserve(picked.size());
    for (auto& [key, exemplar] : picked) {
      report.tail_exemplars.push_back(exemplar);
    }
  }
  return report;
}

}  // namespace iccache
