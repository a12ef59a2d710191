#include "src/persist/pool_codec.h"

#include <utility>

namespace iccache {

namespace {

// Bump kSnapshotFormatVersion (snapshot_format.h) when any encoding below
// changes; the container version covers these section layouts.

// The request half of an example record and of a stage-0 entry record.
void EncodeRequest(const Request& request, ByteWriter* w) {
  w->PutU64(request.id);
  w->PutU8(static_cast<uint8_t>(request.dataset));
  w->PutU8(static_cast<uint8_t>(request.task));
  w->PutString(request.text);
  w->PutU32(request.topic_id);
  w->PutU32(request.intent_id);
  w->PutDouble(request.difficulty);
  w->PutI32(request.input_tokens);
  w->PutI32(request.target_output_tokens);
  w->PutDouble(request.arrival_time);
  w->PutU32(request.privacy_domain);
}

void DecodeRequest(ByteReader* r, Request* request) {
  request->id = r->GetU64();
  request->dataset = static_cast<DatasetId>(r->GetU8());
  request->task = static_cast<TaskType>(r->GetU8());
  request->text = r->GetString();
  request->topic_id = r->GetU32();
  request->intent_id = r->GetU32();
  request->difficulty = r->GetDouble();
  request->input_tokens = r->GetI32();
  request->target_output_tokens = r->GetI32();
  request->arrival_time = r->GetDouble();
  request->privacy_domain = r->GetU32();
}

// A learner's adaptation grid: the cell count, every cell's benefit, then
// every cell's sample count. The selector and stage-0 sections both carry
// one, each after its own threshold and cadence counter.
void EncodeGrid(const ThresholdLearnerState& state, ByteWriter* w) {
  w->PutU64(state.grid_benefit.size());
  for (double benefit : state.grid_benefit) {
    w->PutDouble(benefit);
  }
  for (uint64_t count : state.grid_count) {
    w->PutU64(count);
  }
}

// False on a read past the end, or a cell count the rest of the section
// cannot hold (16 bytes a cell), before anything is allocated for it.
bool DecodeGrid(ByteReader* r, ThresholdLearnerState* state) {
  const uint64_t cells = r->GetU64();
  if (!r->ok() || cells > r->remaining() / 16) {
    return false;
  }
  state->grid_benefit.resize(static_cast<size_t>(cells));
  for (auto& benefit : state->grid_benefit) {
    benefit = r->GetDouble();
  }
  state->grid_count.resize(static_cast<size_t>(cells));
  for (auto& count : state->grid_count) {
    count = r->GetU64();
  }
  return r->ok();
}

std::string EncodeSelectorSection(const ExampleSelector& selector) {
  const ThresholdLearnerState& state = selector.learner().state();
  ByteWriter w;
  w.PutDouble(state.threshold);
  w.PutU64(state.requests_seen);
  EncodeGrid(state, &w);
  return w.TakeBytes();
}

bool DecodeSelectorSection(ByteReader* r, ExampleSelector* selector) {
  ThresholdLearnerState state;
  state.threshold = r->GetDouble();
  state.requests_seen = r->GetU64();
  if (!DecodeGrid(r, &state) || !r->AtEnd()) {
    return false;
  }
  // A grid-size mismatch (restoring under a different threshold_grid config)
  // is not a format error: the selector keeps its configured defaults.
  selector->mutable_learner()->Restore(state);
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

bool DecodeProxySection(ByteReader* r, ProxyUtilityModel* proxy) {
  if (r->GetU64() != ProxyFeatures::kDim) {
    return false;
  }
  std::array<double, ProxyFeatures::kDim> weights{};
  for (auto& weight : weights) {
    weight = r->GetDouble();
  }
  const uint64_t updates = r->GetU64();
  if (!r->ok() || !r->AtEnd()) {
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

bool DecodeRouterSection(ByteReader* r, RequestRouter* router) {
  const double load_ema = r->GetDouble();
  const bool load_initialized = r->GetU8() != 0;
  const RngState explore_rng = DecodeRngState(r);
  const RngState bandit_rng = DecodeRngState(r);
  const uint64_t num_arms = r->GetU64();
  ContextualBandit& bandit = router->mutable_bandit();
  if (!r->ok() || num_arms != bandit.num_arms()) {
    return false;
  }
  // Stage every arm before committing any: a half-restored bandit would be
  // worse than a fresh one.
  std::vector<std::vector<double>> precisions(num_arms);
  std::vector<std::vector<double>> bs(num_arms);
  std::vector<uint64_t> updates(num_arms);
  for (size_t i = 0; i < num_arms; ++i) {
    const uint64_t dim = r->GetU64();
    if (!r->ok() || dim != bandit.arm(i).dim()) {
      return false;
    }
    precisions[i].resize(dim * dim);
    for (auto& v : precisions[i]) {
      v = r->GetDouble();
    }
    bs[i].resize(dim);
    for (auto& v : bs[i]) {
      v = r->GetDouble();
    }
    updates[i] = r->GetU64();
  }
  if (!r->ok() || !r->AtEnd()) {
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
void EncodeStage0Section(const Stage0ResponseCache& cache, ByteWriter* out) {
  const ThresholdLearnerState& state = cache.learner().state();
  ByteWriter& w = *out;
  w.PutDouble(state.threshold);
  w.PutU64(state.requests_seen);
  w.PutU64(cache.size());
  w.PutI64(cache.used_bytes());
  w.PutU8(0);  // no native index image
  EncodeGrid(state, &w);
  w.PutU64(cache.next_id());

  cache.ExportEntries([&w](const Stage0Entry& entry, const std::vector<float>& embedding) {
    w.PutU64(entry.id);
    EncodeRequest(entry.request, &w);
    w.PutString(entry.response_text);
    w.PutDouble(entry.response_quality);
    w.PutI32(entry.response_tokens);
    w.PutDouble(entry.admitted_time);
    w.PutDouble(entry.last_hit_time);
    w.PutU64(entry.hit_count);
    w.PutFloats(embedding);
  });
}

// Imports each entry as it is read and stops at the first failed read or
// rejected import, so nothing is sized from the claimed entry count.
bool DecodeStage0Section(ByteReader* r, Stage0ResponseCache* cache) {
  if (cache->size() != 0) {
    return false;  // restore requires an empty stage-0 cache
  }
  ThresholdLearnerState state;
  state.threshold = r->GetDouble();
  state.requests_seen = r->GetU64();
  const uint64_t entry_count = r->GetU64();
  const int64_t used_bytes = r->GetI64();
  const bool native = r->GetU8() != 0;
  if (!DecodeGrid(r, &state)) {
    return false;
  }
  const uint64_t next_id = r->GetU64();
  Stage0Entry entry;
  for (uint64_t i = 0; i < entry_count; ++i) {
    entry.id = r->GetU64();
    DecodeRequest(r, &entry.request);
    entry.response_text = r->GetString();
    entry.response_quality = r->GetDouble();
    entry.response_tokens = r->GetI32();
    entry.admitted_time = r->GetDouble();
    entry.last_hit_time = r->GetDouble();
    entry.hit_count = r->GetU64();
    std::vector<float> embedding = r->GetFloats();
    if (!r->ok() || !cache->ImportEntry(entry, std::move(embedding))) {
      return false;
    }
  }
  if (native) {
    r->GetString();  // an older writer's HNSW graph image; the index was rebuilt above
  }
  if (!r->ok() || !r->AtEnd()) {
    return false;
  }
  if (cache->used_bytes() != used_bytes) {
    return false;  // replayed byte accounting disagrees with the writer's
  }
  cache->restore_next_id(next_id);
  // A grid-size mismatch (restoring under a different threshold_grid config)
  // keeps the configured defaults, exactly like the selector.
  cache->mutable_learner()->Restore(state);
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

void EncodeExample(uint64_t id, const Example& example, const std::vector<float>& embedding,
                   ByteWriter* writer) {
  writer->PutU64(id);
  EncodeRequest(example.request, writer);
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
  DecodeRequest(reader, &example->request);
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
  if (embedding != nullptr) {
    *embedding = reader->GetFloats();
  } else {
    reader->SkipFloats();
  }
  return reader->ok();
}

namespace {

// Encodes the store's kMeta, kExamples and (with a native index) kIndex
// sections as ExampleStore::StreamSnapshotCut hands over one cut: the
// summary fills kMeta and the examples header, each record goes straight
// into kExamples, and the store writes its graph images into kIndex.
class StoreSectionEncoder final : public StoreSnapshotSink {
 public:
  StoreSectionEncoder(SnapshotSectionStream* stream, uint32_t embed_dim, bool native_index,
                      double sim_time)
      : stream_(stream), embed_dim_(embed_dim), native_index_(native_index), sim_time_(sim_time) {}

  void Begin(const StoreCutSummary& summary) override {
    ByteWriter* meta = stream_->Begin(SnapshotSection::kMeta);
    meta->PutU64(summary.example_count);
    meta->PutI64(summary.used_bytes);
    meta->PutU64(summary.next_ids.size());
    meta->PutU32(embed_dim_);
    meta->PutU8(native_index_ ? 1 : 0);
    meta->PutDouble(sim_time_);

    examples_ = stream_->Begin(SnapshotSection::kExamples);
    examples_->PutU64(summary.next_ids.size());
    for (uint64_t next_id : summary.next_ids) {
      examples_->PutU64(next_id);
    }
    examples_->PutU64(summary.example_count);
  }

  void AddExample(uint64_t id, const Example& example,
                  const std::vector<float>& embedding) override {
    EncodeExample(id, example, embedding, examples_);
  }

  ByteWriter* IndexImage() override { return stream_->Begin(SnapshotSection::kIndex); }

 private:
  SnapshotSectionStream* stream_;
  uint32_t embed_dim_;
  bool native_index_;
  double sim_time_;
  ByteWriter* examples_ = nullptr;
};

}  // namespace

void EncodePoolSections(const ExampleStore& store, const PoolComponents& components,
                        double sim_time, SnapshotWriter* writer) {
  // One consistent cut for everything the store contributes (records, native
  // index image, insertion counters, byte accounting): a checkpoint taken
  // while other threads serve must never save an example its graph image
  // lacks, or a meta byte count its records don't sum to. The cut streams
  // into the file when the writer runs; the component sections below are
  // NOT covered by it — drivers snapshot them from the serial phase, where
  // they are quiescent.
  const bool native = store.HasNativeIndex();
  std::vector<SnapshotSection> store_sections = {SnapshotSection::kMeta,
                                                 SnapshotSection::kExamples};
  if (native) {
    store_sections.push_back(SnapshotSection::kIndex);
  }
  const uint32_t dim = static_cast<uint32_t>(store.embedder()->dim());
  writer->AddStreamedSections(
      std::move(store_sections), [&store, dim, native, sim_time](SnapshotSectionStream* stream) {
        StoreSectionEncoder encoder(stream, dim, native, sim_time);
        return store.StreamSnapshotCut(&encoder);
      });

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
    const Stage0ResponseCache* stage0 = components.stage0;
    writer->AddStreamedSections({SnapshotSection::kStage0},
                                [stage0](SnapshotSectionStream* stream) {
                                  EncodeStage0Section(*stage0,
                                                      stream->Begin(SnapshotSection::kStage0));
                                  return Status::Ok();
                                });
  }
}

Status DecodeOptionalSection(const SnapshotReader& reader, SnapshotSection id,
                             const std::function<bool(ByteReader*)>& decode) {
  if (!reader.HasSection(id)) {
    return Status::Ok();
  }
  return reader.StreamSection(id, [id, &decode](ByteReader* r) {
    if (!decode(r)) {
      return Status::InvalidArgument(std::string("malformed ") + SnapshotSectionName(id) +
                                     " section");
    }
    return Status::Ok();
  });
}

Status DecodePoolMeta(const SnapshotReader& reader, PoolMeta* meta) {
  return reader.StreamSection(SnapshotSection::kMeta, [meta](ByteReader* r) {
    meta->example_count = r->GetU64();
    meta->used_bytes = r->GetI64();
    meta->shard_count = r->GetU64();
    meta->embed_dim = r->GetU32();
    meta->has_native_index = r->GetU8();
    meta->sim_time = r->GetDouble();
    if (!r->ok() || !r->AtEnd()) {
      return Status::InvalidArgument("malformed meta section");
    }
    return Status::Ok();
  });
}

Status DecodeStage0Summary(const SnapshotReader& reader, Stage0Summary* summary) {
  return reader.StreamSection(SnapshotSection::kStage0, [summary](ByteReader* r) {
    summary->hit_threshold = r->GetDouble();
    summary->requests_seen = r->GetU64();
    summary->entry_count = r->GetU64();
    summary->used_bytes = r->GetI64();
    summary->has_native_index = r->GetU8();
    if (!r->ok()) {
      return Status::InvalidArgument("malformed stage0 section");
    }
    return Status::Ok();
  });
}

namespace {

// Walks the kExamples payload: the per-shard insertion counters into
// *next_ids, then each record through `fn` (its embedding skipped, and
// handed over empty, unless `embeddings`), stopping at its first error.
Status WalkExamplesSection(ByteReader* r, bool embeddings, std::vector<uint64_t>* next_ids,
                           const std::function<Status(const Example&, std::vector<float>)>& fn) {
  const uint64_t shard_count = r->GetU64();
  if (!r->ok() || shard_count > r->remaining() / 8) {
    return Status::InvalidArgument("malformed examples section (shard counters)");
  }
  next_ids->resize(static_cast<size_t>(shard_count));
  for (auto& next_id : *next_ids) {
    next_id = r->GetU64();
  }
  const uint64_t count = r->GetU64();
  if (!r->ok()) {
    return Status::InvalidArgument("malformed examples section (count)");
  }
  Example example;
  std::vector<float> embedding;
  for (uint64_t i = 0; i < count; ++i) {
    if (!DecodeExample(r, &example, embeddings ? &embedding : nullptr)) {
      return Status::InvalidArgument("malformed example record " + std::to_string(i));
    }
    const Status status = fn(example, std::move(embedding));
    if (!status.ok()) {
      return status;
    }
  }
  if (!r->AtEnd()) {
    return Status::InvalidArgument("trailing bytes in examples section");
  }
  return Status::Ok();
}

}  // namespace

Status ForEachSnapshotExample(
    const SnapshotReader& reader,
    const std::function<void(const Example&, const std::vector<float>&)>& fn) {
  std::vector<uint64_t> next_ids;
  return reader.StreamSection(SnapshotSection::kExamples, [&](ByteReader* r) {
    return WalkExamplesSection(r, /*embeddings=*/true, &next_ids,
                               [&fn](const Example& example, std::vector<float> embedding) {
                                 fn(example, embedding);
                                 return Status::Ok();
                               });
  });
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
  // fall back to per-example Add during import below. Both large sections
  // stream through one buffer, each graph and each record decoded as it
  // passes, so a restore holds the pool plus that buffer.
  if (reader.HasSection(SnapshotSection::kIndex)) {
    status = reader.StreamSection(SnapshotSection::kIndex, [store, &local](ByteReader* r) {
      local.native_index_load = store->LoadIndexBlob(r);
      return Status::Ok();
    });
    if (!status.ok()) {
      return status;
    }
  }

  // With the graph loaded the import never reads an embedding, so the
  // records' embeddings are skipped unread.
  std::vector<uint64_t> next_ids;
  const auto import = [store, &local](const Example& example, std::vector<float> embedding) {
    if (!store->ImportExample(example, std::move(embedding),
                              /*add_to_index=*/!local.native_index_load)) {
      return Status::FailedPrecondition(
          "import rejected for example id " + std::to_string(example.id) +
          " (duplicate id; an embedding the index rejects, e.g. of the wrong "
          "length; or restoring into MORE shards than the snapshot was "
          "taken with — the smallest ids cannot be re-sharded; equal or fewer "
          "shards always work)");
    }
    ++local.examples;
    return Status::Ok();
  };
  status = reader.StreamSection(SnapshotSection::kExamples, [&](ByteReader* r) {
    return WalkExamplesSection(r, /*embeddings=*/!local.native_index_load, &next_ids, import);
  });
  if (!status.ok()) {
    return status;
  }
  uint64_t mismatch = 0;
  bool in_index = false;
  if (local.native_index_load && store->FindNativeIndexMismatch(&mismatch, &in_index)) {
    return Status::InvalidArgument(
        "index section and examples section disagree: example id " + std::to_string(mismatch) +
        (in_index ? " is in the graph image but not the examples section"
                  : " is in the examples section but not the graph image"));
  }
  local.next_ids_restored = store->ImportNextIds(next_ids);
  local.used_bytes = store->used_bytes();

  // Component sections: each applied only when present and wanted.
  struct ComponentSection {
    SnapshotSection id;
    bool wanted;
    std::function<bool(ByteReader*)> decode;
  };
  const ComponentSection sections[] = {
      {SnapshotSection::kSelector, components.selector != nullptr,
       [&components](ByteReader* r) { return DecodeSelectorSection(r, components.selector); }},
      {SnapshotSection::kManager, components.manager != nullptr,
       [&components](ByteReader* r) {
         const double last_decay = r->GetDouble();
         if (!r->ok() || !r->AtEnd()) {
           return false;
         }
         components.manager->set_last_decay_time(last_decay);
         return true;
       }},
      {SnapshotSection::kProxy, components.proxy != nullptr,
       [&components](ByteReader* r) { return DecodeProxySection(r, components.proxy); }},
      {SnapshotSection::kRouter, components.router != nullptr,
       [&components](ByteReader* r) { return DecodeRouterSection(r, components.router); }},
      {SnapshotSection::kStage0, components.stage0 != nullptr,
       [&components](ByteReader* r) { return DecodeStage0Section(r, components.stage0); }},
  };
  for (const ComponentSection& section : sections) {
    if (section.wanted) {
      status = DecodeOptionalSection(reader, section.id, section.decode);
      if (!status.ok()) {
        return status;
      }
    }
  }

  if (report != nullptr) {
    *report = local;
  }
  return Status::Ok();
}

}  // namespace iccache
