#include "src/persist/pool_codec.h"

#include <utility>

namespace iccache {

namespace {

// Bump kSnapshotFormatVersion (snapshot_format.h) when any encoding below
// changes; the container version covers these section layouts.

std::string EncodeSelectorSection(const ExampleSelector& selector) {
  const SelectorAdaptiveState state = selector.SaveAdaptiveState();
  ByteWriter w;
  w.PutDouble(state.utility_threshold);
  w.PutU64(state.requests_seen);
  w.PutU64(state.grid_benefit.size());
  for (double benefit : state.grid_benefit) {
    w.PutDouble(benefit);
  }
  for (uint64_t count : state.grid_count) {
    w.PutU64(count);
  }
  return w.TakeBytes();
}

bool DecodeSelectorSection(const std::string& bytes, ExampleSelector* selector) {
  ByteReader r(bytes);
  SelectorAdaptiveState state;
  state.utility_threshold = r.GetDouble();
  state.requests_seen = r.GetU64();
  const uint64_t grid = r.GetU64();
  if (!r.ok() || grid > bytes.size()) {
    return false;
  }
  state.grid_benefit.resize(grid);
  for (auto& benefit : state.grid_benefit) {
    benefit = r.GetDouble();
  }
  state.grid_count.resize(grid);
  for (auto& count : state.grid_count) {
    count = r.GetU64();
  }
  if (!r.ok() || !r.AtEnd()) {
    return false;
  }
  // A grid-size mismatch (restoring under a different threshold_grid config)
  // is not a format error: the selector keeps its configured defaults.
  selector->RestoreAdaptiveState(state);
  return true;
}

std::string EncodeProxySection(const ProxyUtilityModel& proxy) {
  ByteWriter w;
  w.PutU64(ProxyFeatures::kDim);
  for (double weight : proxy.weights()) {
    w.PutDouble(weight);
  }
  w.PutU64(proxy.updates());
  return w.TakeBytes();
}

bool DecodeProxySection(const std::string& bytes, ProxyUtilityModel* proxy) {
  ByteReader r(bytes);
  if (r.GetU64() != ProxyFeatures::kDim) {
    return false;
  }
  std::array<double, ProxyFeatures::kDim> weights{};
  for (auto& weight : weights) {
    weight = r.GetDouble();
  }
  const uint64_t updates = r.GetU64();
  if (!r.ok() || !r.AtEnd()) {
    return false;
  }
  proxy->RestoreState(weights, static_cast<size_t>(updates));
  return true;
}

std::string EncodeRouterSection(const RequestRouter& router) {
  ByteWriter w;
  w.PutDouble(router.load_ema());
  w.PutU8(router.load_ema_initialized() ? 1 : 0);
  EncodeRngState(router.explore_rng_state(), &w);
  const ContextualBandit& bandit = router.bandit();
  EncodeRngState(bandit.rng_state(), &w);
  w.PutU64(bandit.num_arms());
  for (size_t i = 0; i < bandit.num_arms(); ++i) {
    const LinearThompsonArm& arm = bandit.arm(i);
    w.PutU64(arm.dim());
    for (double v : arm.precision()) {
      w.PutDouble(v);
    }
    for (double v : arm.b()) {
      w.PutDouble(v);
    }
    w.PutU64(arm.updates());
  }
  return w.TakeBytes();
}

bool DecodeRouterSection(const std::string& bytes, RequestRouter* router) {
  ByteReader r(bytes);
  const double load_ema = r.GetDouble();
  const bool load_initialized = r.GetU8() != 0;
  const RngState explore_rng = DecodeRngState(&r);
  const RngState bandit_rng = DecodeRngState(&r);
  const uint64_t num_arms = r.GetU64();
  ContextualBandit& bandit = router->mutable_bandit();
  if (!r.ok() || num_arms != bandit.num_arms()) {
    return false;
  }
  // Stage every arm before committing any: a half-restored bandit would be
  // worse than a fresh one.
  std::vector<std::vector<double>> precisions(num_arms);
  std::vector<std::vector<double>> bs(num_arms);
  std::vector<uint64_t> updates(num_arms);
  for (size_t i = 0; i < num_arms; ++i) {
    const uint64_t dim = r.GetU64();
    if (!r.ok() || dim != bandit.arm(i).dim()) {
      return false;
    }
    precisions[i].resize(dim * dim);
    for (auto& v : precisions[i]) {
      v = r.GetDouble();
    }
    bs[i].resize(dim);
    for (auto& v : bs[i]) {
      v = r.GetDouble();
    }
    updates[i] = r.GetU64();
  }
  if (!r.ok() || !r.AtEnd()) {
    return false;
  }
  for (size_t i = 0; i < num_arms; ++i) {
    if (!bandit.mutable_arm(i).RestoreState(precisions[i], bs[i],
                                            static_cast<size_t>(updates[i]))) {
      return false;
    }
  }
  router->RestoreLoadEma(load_ema, load_initialized);
  router->restore_explore_rng_state(explore_rng);
  bandit.restore_rng_state(bandit_rng);
  return true;
}

// kStage0 layout: a summary-friendly header (threshold, cadence counter,
// entry count, byte accounting, native-index flag) the dump tool can read
// without an embedder, then the adaptation grid, the id counter, and the
// entry records with their index embeddings in index scan order. The cache's
// exact index is rebuilt from those embeddings, which reproduces the writer's
// probes. The native-index flag is always written as 0: older writers set it
// to 1 and appended an HNSW graph image, which decoding skips.
std::string EncodeStage0Section(const Stage0ResponseCache& cache) {
  const Stage0AdaptiveState state = cache.SaveAdaptiveState();
  ByteWriter w;
  w.PutDouble(state.hit_threshold);
  w.PutU64(state.requests_seen);
  w.PutU64(cache.size());
  w.PutI64(cache.used_bytes());
  w.PutU8(0);  // no native index image

  w.PutU64(state.grid_benefit.size());
  for (double benefit : state.grid_benefit) {
    w.PutDouble(benefit);
  }
  for (uint64_t count : state.grid_count) {
    w.PutU64(count);
  }
  w.PutU64(cache.next_id());

  cache.ExportEntries([&w](const Stage0Entry& entry, const std::vector<float>& embedding) {
    w.PutU64(entry.id);
    const Request& request = entry.request;
    w.PutU64(request.id);
    w.PutU8(static_cast<uint8_t>(request.dataset));
    w.PutU8(static_cast<uint8_t>(request.task));
    w.PutString(request.text);
    w.PutU32(request.topic_id);
    w.PutU32(request.intent_id);
    w.PutDouble(request.difficulty);
    w.PutI32(request.input_tokens);
    w.PutI32(request.target_output_tokens);
    w.PutDouble(request.arrival_time);
    w.PutU32(request.privacy_domain);
    w.PutString(entry.response_text);
    w.PutDouble(entry.response_quality);
    w.PutI32(entry.response_tokens);
    w.PutDouble(entry.admitted_time);
    w.PutDouble(entry.last_hit_time);
    w.PutU64(entry.hit_count);
    w.PutFloats(embedding);
  });
  return w.TakeBytes();
}

bool DecodeStage0Section(const std::string& bytes, Stage0ResponseCache* cache) {
  if (cache->size() != 0) {
    return false;  // restore requires an empty stage-0 cache
  }
  ByteReader r(bytes);
  Stage0AdaptiveState state;
  state.hit_threshold = r.GetDouble();
  state.requests_seen = r.GetU64();
  const uint64_t entry_count = r.GetU64();
  const int64_t used_bytes = r.GetI64();
  const bool native = r.GetU8() != 0;
  const uint64_t grid = r.GetU64();
  if (!r.ok() || grid > bytes.size() || entry_count > bytes.size()) {
    return false;
  }
  state.grid_benefit.resize(grid);
  for (auto& benefit : state.grid_benefit) {
    benefit = r.GetDouble();
  }
  state.grid_count.resize(grid);
  for (auto& count : state.grid_count) {
    count = r.GetU64();
  }
  const uint64_t next_id = r.GetU64();

  std::vector<Stage0Entry> entries(static_cast<size_t>(entry_count));
  std::vector<std::vector<float>> embeddings(static_cast<size_t>(entry_count));
  for (uint64_t i = 0; i < entry_count; ++i) {
    Stage0Entry& entry = entries[i];
    entry.id = r.GetU64();
    Request& request = entry.request;
    request.id = r.GetU64();
    request.dataset = static_cast<DatasetId>(r.GetU8());
    request.task = static_cast<TaskType>(r.GetU8());
    request.text = r.GetString();
    request.topic_id = r.GetU32();
    request.intent_id = r.GetU32();
    request.difficulty = r.GetDouble();
    request.input_tokens = r.GetI32();
    request.target_output_tokens = r.GetI32();
    request.arrival_time = r.GetDouble();
    request.privacy_domain = r.GetU32();
    entry.response_text = r.GetString();
    entry.response_quality = r.GetDouble();
    entry.response_tokens = r.GetI32();
    entry.admitted_time = r.GetDouble();
    entry.last_hit_time = r.GetDouble();
    entry.hit_count = r.GetU64();
    embeddings[i] = r.GetFloats();
    if (!r.ok()) {
      return false;
    }
  }
  if (native) {
    r.GetString();  // an older writer's HNSW graph image; the index is rebuilt below
  }
  if (!r.ok() || !r.AtEnd()) {
    return false;
  }

  for (uint64_t i = 0; i < entry_count; ++i) {
    if (!cache->ImportEntry(entries[i], std::move(embeddings[i]))) {
      return false;
    }
  }
  if (cache->used_bytes() != used_bytes) {
    return false;  // replayed byte accounting disagrees with the writer's
  }
  cache->restore_next_id(next_id);
  // A grid-size mismatch (restoring under a different threshold_grid config)
  // keeps the configured defaults, exactly like the selector.
  cache->RestoreAdaptiveState(state);
  return true;
}

}  // namespace

void EncodeRngState(const RngState& state, ByteWriter* writer) {
  for (uint64_t s : state.s) {
    writer->PutU64(s);
  }
  writer->PutDouble(state.cached_normal);
  writer->PutU8(state.has_cached_normal ? 1 : 0);
}

RngState DecodeRngState(ByteReader* reader) {
  RngState state;
  for (auto& s : state.s) {
    s = reader->GetU64();
  }
  state.cached_normal = reader->GetDouble();
  state.has_cached_normal = reader->GetU8() != 0;
  return state;
}

void EncodeExample(const Example& example, const std::vector<float>& embedding,
                   ByteWriter* writer) {
  writer->PutU64(example.id);
  const Request& request = example.request;
  writer->PutU64(request.id);
  writer->PutU8(static_cast<uint8_t>(request.dataset));
  writer->PutU8(static_cast<uint8_t>(request.task));
  writer->PutString(request.text);
  writer->PutU32(request.topic_id);
  writer->PutU32(request.intent_id);
  writer->PutDouble(request.difficulty);
  writer->PutI32(request.input_tokens);
  writer->PutI32(request.target_output_tokens);
  writer->PutDouble(request.arrival_time);
  writer->PutU32(request.privacy_domain);
  writer->PutString(example.response_text);
  writer->PutDouble(example.response_quality);
  writer->PutDouble(example.source_capability);
  writer->PutI32(example.response_tokens);
  writer->PutU64(example.access_count);
  writer->PutDouble(example.last_access_time);
  writer->PutDouble(example.admitted_time);
  writer->PutDouble(example.replay_gain_ema);
  writer->PutI32(example.replay_count);
  writer->PutDouble(example.offload_value);
  writer->PutFloats(embedding);
}

bool DecodeExample(ByteReader* reader, Example* example, std::vector<float>* embedding) {
  example->id = reader->GetU64();
  Request& request = example->request;
  request.id = reader->GetU64();
  request.dataset = static_cast<DatasetId>(reader->GetU8());
  request.task = static_cast<TaskType>(reader->GetU8());
  request.text = reader->GetString();
  request.topic_id = reader->GetU32();
  request.intent_id = reader->GetU32();
  request.difficulty = reader->GetDouble();
  request.input_tokens = reader->GetI32();
  request.target_output_tokens = reader->GetI32();
  request.arrival_time = reader->GetDouble();
  request.privacy_domain = reader->GetU32();
  example->response_text = reader->GetString();
  example->response_quality = reader->GetDouble();
  example->source_capability = reader->GetDouble();
  example->response_tokens = reader->GetI32();
  example->access_count = reader->GetU64();
  example->last_access_time = reader->GetDouble();
  example->admitted_time = reader->GetDouble();
  example->replay_gain_ema = reader->GetDouble();
  example->replay_count = reader->GetI32();
  example->offload_value = reader->GetDouble();
  *embedding = reader->GetFloats();
  return reader->ok();
}

void EncodePoolSections(const ExampleStore& store, const PoolComponents& components,
                        double sim_time, SnapshotWriter* writer) {
  // One consistent cut for everything the store contributes (records, native
  // index image, insertion counters, byte accounting): a checkpoint taken
  // while other threads serve must never save an example its graph image
  // lacks, or a meta byte count its records don't sum to. The component
  // sections below are NOT covered by the cut — drivers snapshot them from
  // the serial phase, where they are quiescent.
  StoreSnapshotCut cut = store.ExportSnapshotCut();
  if (cut.native_index) {
    writer->AddSection(SnapshotSection::kIndex, std::move(cut.index_blob));
  }

  ByteWriter examples;
  examples.PutU64(cut.next_ids.size());
  for (uint64_t next_id : cut.next_ids) {
    examples.PutU64(next_id);
  }
  examples.PutU64(cut.examples.size());
  for (const ExportedExample& entry : cut.examples) {
    EncodeExample(entry.example, entry.embedding, &examples);
  }
  writer->AddSection(SnapshotSection::kExamples, examples.TakeBytes());

  ByteWriter meta;
  meta.PutU64(cut.examples.size());
  meta.PutI64(cut.used_bytes);
  meta.PutU64(cut.next_ids.size());
  meta.PutU32(static_cast<uint32_t>(store.embedder()->dim()));
  meta.PutU8(cut.native_index ? 1 : 0);
  meta.PutDouble(sim_time);
  writer->AddSection(SnapshotSection::kMeta, meta.TakeBytes());

  if (components.selector != nullptr) {
    writer->AddSection(SnapshotSection::kSelector, EncodeSelectorSection(*components.selector));
  }
  if (components.manager != nullptr) {
    ByteWriter manager;
    manager.PutDouble(components.manager->last_decay_time());
    writer->AddSection(SnapshotSection::kManager, manager.TakeBytes());
  }
  if (components.proxy != nullptr) {
    writer->AddSection(SnapshotSection::kProxy, EncodeProxySection(*components.proxy));
  }
  if (components.router != nullptr) {
    writer->AddSection(SnapshotSection::kRouter, EncodeRouterSection(*components.router));
  }
  if (components.stage0 != nullptr) {
    writer->AddSection(SnapshotSection::kStage0, EncodeStage0Section(*components.stage0));
  }
}

Status DecodePoolMeta(const SnapshotReader& reader, PoolMeta* meta) {
  const std::string* bytes = reader.Section(SnapshotSection::kMeta);
  if (bytes == nullptr) {
    return Status::InvalidArgument("snapshot has no meta section");
  }
  ByteReader r(*bytes);
  meta->example_count = r.GetU64();
  meta->used_bytes = r.GetI64();
  meta->shard_count = r.GetU64();
  meta->embed_dim = r.GetU32();
  meta->has_native_index = r.GetU8();
  meta->sim_time = r.GetDouble();
  if (!r.ok() || !r.AtEnd()) {
    return Status::InvalidArgument("malformed meta section");
  }
  return Status::Ok();
}

Status DecodeStage0Summary(const SnapshotReader& reader, Stage0Summary* summary) {
  const std::string* bytes = reader.Section(SnapshotSection::kStage0);
  if (bytes == nullptr) {
    return Status::InvalidArgument("snapshot has no stage0 section");
  }
  ByteReader r(*bytes);
  summary->hit_threshold = r.GetDouble();
  summary->requests_seen = r.GetU64();
  summary->entry_count = r.GetU64();
  summary->used_bytes = r.GetI64();
  summary->has_native_index = r.GetU8();
  if (!r.ok()) {
    return Status::InvalidArgument("malformed stage0 section");
  }
  return Status::Ok();
}

Status ForEachSnapshotExample(
    const SnapshotReader& reader,
    const std::function<void(const Example&, const std::vector<float>&)>& fn) {
  const std::string* bytes = reader.Section(SnapshotSection::kExamples);
  if (bytes == nullptr) {
    return Status::InvalidArgument("snapshot has no examples section");
  }
  ByteReader r(*bytes);
  const uint64_t shard_count = r.GetU64();
  if (!r.ok() || shard_count > bytes->size()) {
    return Status::InvalidArgument("malformed examples section (shard counters)");
  }
  for (uint64_t i = 0; i < shard_count; ++i) {
    r.GetU64();
  }
  const uint64_t count = r.GetU64();
  Example example;
  std::vector<float> embedding;
  for (uint64_t i = 0; i < count; ++i) {
    if (!DecodeExample(&r, &example, &embedding)) {
      return Status::InvalidArgument("malformed example record " + std::to_string(i));
    }
    fn(example, embedding);
  }
  if (!r.ok() || !r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in examples section");
  }
  return Status::Ok();
}

Status DecodePoolSections(const SnapshotReader& reader, ExampleStore* store,
                          const PoolComponents& components, PoolRestoreReport* report) {
  PoolRestoreReport local;
  if (store->size() != 0) {
    return Status::FailedPrecondition("restore requires an empty example store");
  }
  PoolMeta meta;
  Status status = DecodePoolMeta(reader, &meta);
  if (!status.ok()) {
    return status;
  }
  local.sim_time = meta.sim_time;
  if (meta.embed_dim != store->embedder()->dim()) {
    return Status::FailedPrecondition(
        "snapshot embedding dimension " + std::to_string(meta.embed_dim) +
        " != store dimension " + std::to_string(store->embedder()->dim()));
  }

  // Native index image first (HNSW graph load, no rebuild); on any mismatch
  // fall back to per-example Add during import below.
  const std::string* index_blob = reader.Section(SnapshotSection::kIndex);
  local.native_index_load = index_blob != nullptr && store->LoadIndexBlob(*index_blob);

  const std::string* examples = reader.Section(SnapshotSection::kExamples);
  if (examples == nullptr) {
    return Status::InvalidArgument("snapshot has no examples section");
  }
  ByteReader r(*examples);
  const uint64_t shard_count = r.GetU64();
  if (!r.ok() || shard_count > examples->size()) {
    return Status::InvalidArgument("malformed examples section (shard counters)");
  }
  std::vector<uint64_t> next_ids(static_cast<size_t>(shard_count));
  for (auto& next_id : next_ids) {
    next_id = r.GetU64();
  }
  const uint64_t count = r.GetU64();
  if (!r.ok()) {
    return Status::InvalidArgument("malformed examples section (count)");
  }
  Example example;
  std::vector<float> embedding;
  for (uint64_t i = 0; i < count; ++i) {
    if (!DecodeExample(&r, &example, &embedding)) {
      return Status::InvalidArgument("malformed example record " + std::to_string(i));
    }
    if (!store->ImportExample(example, std::move(embedding),
                              /*add_to_index=*/!local.native_index_load)) {
      return Status::FailedPrecondition(
          "import rejected for example id " + std::to_string(example.id) +
          " (duplicate id, or restoring into MORE shards than the snapshot was "
          "taken with — the smallest ids cannot be re-sharded; equal or fewer "
          "shards always work)");
    }
    ++local.examples;
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in examples section");
  }
  local.next_ids_restored = store->ImportNextIds(next_ids);
  local.used_bytes = store->used_bytes();

  const std::string* selector = reader.Section(SnapshotSection::kSelector);
  if (selector != nullptr && components.selector != nullptr &&
      !DecodeSelectorSection(*selector, components.selector)) {
    return Status::InvalidArgument("malformed selector section");
  }
  const std::string* manager = reader.Section(SnapshotSection::kManager);
  if (manager != nullptr && components.manager != nullptr) {
    ByteReader mr(*manager);
    const double last_decay = mr.GetDouble();
    if (!mr.ok() || !mr.AtEnd()) {
      return Status::InvalidArgument("malformed manager section");
    }
    components.manager->set_last_decay_time(last_decay);
  }
  const std::string* proxy = reader.Section(SnapshotSection::kProxy);
  if (proxy != nullptr && components.proxy != nullptr &&
      !DecodeProxySection(*proxy, components.proxy)) {
    return Status::InvalidArgument("malformed proxy section");
  }
  const std::string* router = reader.Section(SnapshotSection::kRouter);
  if (router != nullptr && components.router != nullptr &&
      !DecodeRouterSection(*router, components.router)) {
    return Status::InvalidArgument("malformed router section");
  }
  const std::string* stage0 = reader.Section(SnapshotSection::kStage0);
  if (stage0 != nullptr && components.stage0 != nullptr &&
      !DecodeStage0Section(*stage0, components.stage0)) {
    return Status::InvalidArgument("malformed stage0 section");
  }

  if (report != nullptr) {
    *report = local;
  }
  return Status::Ok();
}

}  // namespace iccache
