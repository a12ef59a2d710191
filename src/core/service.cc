#include "src/core/service.h"

#include <algorithm>

#include "src/common/binio.h"
#include "src/common/mathutil.h"
#include "src/core/pipeline.h"
#include "src/obs/trace.h"
#include "src/persist/pool_codec.h"
#include "src/persist/snapshot.h"

namespace iccache {

namespace {

// Observed-feedback model: user quality signals are noisy reads of the
// latent quality. Every response is fed back (production systems sample
// ~1%; the experiments keep every signal to learn fast at small request
// counts).
constexpr double kFeedbackNoise = 0.08;
// Stage-0 probe overhead charged per request: embed + ANN probe.
constexpr double kStage0ProbeLatencyS = 0.004;

}  // namespace

IcCacheService::IcCacheService(ServiceConfig config, const ModelCatalog* catalog,
                               GenerationSimulator* generator,
                               std::shared_ptr<const Embedder> embedder)
    : config_(config),
      catalog_(catalog),
      generator_(generator),
      small_model_(catalog->Get(config.small_model)),
      large_model_(catalog->Get(config.large_model)),
      cache_(std::move(embedder), config.cache),
      stage0_(cache_.embedder(), config.stage0),
      proxy_(),
      selector_(&cache_, &proxy_, config.selector),
      router_(MakeArms(small_model_, large_model_), config.router),
      manager_(&cache_, generator, large_model_, config.manager),
      baseline_quality_(0.02),
      rng_(config.seed) {
  if (config_.restore_on_start && !config_.snapshot_path.empty()) {
    const Status status = RestoreSnapshot(config_.snapshot_path);
    // A missing snapshot is a normal cold start.
    if (!status.ok() && status.code() != StatusCode::kNotFound) {
      restore_status_ = status;
    }
  }
}

Status IcCacheService::SaveSnapshot(const std::string& path) {
  SnapshotWriter writer;
  PoolComponents components;
  components.selector = &selector_;
  components.manager = &manager_;
  components.proxy = &proxy_;
  components.router = &router_;
  components.stage0 = config_.stage0.enabled ? &stage0_ : nullptr;
  // Stamp the snapshot with this service's clock so the manager's decay
  // cursor and a restoring driver's trace clock stay on the same timeline.
  EncodePoolSections(cache_, components, /*sim_time=*/last_now_, &writer);

  ByteWriter service;
  EncodeRngState(rng_.SaveState(), &service);
  service.PutDouble(baseline_quality_.value());
  service.PutU8(baseline_quality_.initialized() ? 1 : 0);
  EncodeRngState(generator_->rng_state(), &service);
  writer.AddSection(SnapshotSection::kService, service.TakeBytes());
  return writer.WriteToFile(path);
}

Status IcCacheService::RestoreSnapshot(const std::string& path) {
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
  PoolRestoreReport report;
  status = DecodePoolSections(reader, &cache_, components, &report);
  if (!status.ok()) {
    return status;
  }
  status = DecodeOptionalSection(reader, SnapshotSection::kService, [this](ByteReader* r) {
    const RngState service_rng = DecodeRngState(r);
    const double baseline = r->GetDouble();
    const bool baseline_initialized = r->GetU8() != 0;
    const RngState generator_rng = DecodeRngState(r);
    if (!r->ok() || !r->AtEnd()) {
      return false;
    }
    rng_.RestoreState(service_rng);
    baseline_quality_.RestoreState(baseline, baseline_initialized);
    generator_->restore_rng_state(generator_rng);
    return true;
  });
  if (!status.ok()) {
    return status;
  }
  last_now_ = report.sim_time;
  restored_from_snapshot_ = true;
  return Status::Ok();
}

uint64_t IcCacheService::SeedExample(const Request& request, double now) {
  last_now_ = std::max(last_now_, now);
  const GenerationResult generation = generator_->Generate(large_model_, request, {});
  return cache_.Put(request, "[seed-response]", generation.latent_quality,
                    large_model_.capability, generation.output_tokens, now);
}

void IcCacheService::PretrainProxy(size_t num_samples) {
  const std::vector<uint64_t> ids = cache_.AllIds();
  if (ids.size() < 2) {
    return;
  }
  const auto embedder = cache_.embedder();
  for (size_t i = 0; i < num_samples; ++i) {
    const Example* query_example = cache_.Get(ids[rng_.UniformInt(ids.size())]);
    const Request& query = query_example->request;

    const Example* candidate = nullptr;
    if (rng_.Bernoulli(0.5)) {
      // Retrieved neighbour: the pairs stage 2 must rank among.
      const auto neighbours = cache_.FindSimilar(query, 4);
      if (!neighbours.empty()) {
        candidate = cache_.Get(neighbours[rng_.UniformInt(neighbours.size())].id);
      }
    }
    if (candidate == nullptr) {
      candidate = cache_.Get(ids[rng_.UniformInt(ids.size())]);
    }

    ExampleView view;
    view.relevance = StructuralRelevance(query, candidate->request, rng_);
    view.quality = candidate->response_quality;
    view.source_capability = candidate->source_capability;
    view.tokens = candidate->PromptTokens();

    const double with_example =
        generator_->Generate(small_model_, query, {view}).latent_quality;
    const double without = generator_->Generate(small_model_, query, {}).latent_quality;
    const double label =
        Clamp(0.5 + config_.selector.feedback_gain_scale * (with_example - without), 0.0, 1.0);

    const double similarity = CosineSimilarity(embedder->Embed(query.text),
                                               embedder->Embed(candidate->request.text));
    proxy_.Update(MakeProxyFeatures(similarity, candidate->response_quality,
                                    candidate->source_capability, small_model_.capability,
                                    candidate->request.task == query.task,
                                    candidate->PromptTokens()),
                  label);
  }
  m_proxy_pretrain_->Add(static_cast<double>(num_samples));
}

std::vector<ExampleView> IcCacheService::BuildExampleViews(
    const Request& request, const std::vector<SelectedExample>& selected) {
  std::vector<ExampleView> views;
  views.reserve(selected.size());
  for (const SelectedExample& sel : selected) {
    const Example* example = cache_.Get(sel.example_id);
    if (example == nullptr) {
      continue;
    }
    views.push_back(MakeExampleView(request, *example, rng_));
  }
  return views;
}

ServeOutcome IcCacheService::ServeRequest(const Request& request, double now) {
  TraceSpan span(TraceCategory::kServiceRequest, request.id);
  ServeOutcome outcome;
  last_now_ = std::max(last_now_, now);
  m_requests_->Increment();

  // 0. Stage-0 response-cache probe: one embed, shared with stage-1
  // retrieval below on a miss. A confident hit serves the cached response
  // verbatim — no selection, no routing, no generation.
  std::vector<float> embedding;
  Stage0DedupeHint dedupe_hint;
  if (config_.stage0.enabled) {
    embedding = cache_.embedder()->Embed(request.text);
    outcome.overhead_latency_s += kStage0ProbeLatencyS;
    const std::optional<Stage0Probe> probe = stage0_.Probe(embedding, now);
    if (probe.has_value()) {
      dedupe_hint = {probe->entry.id, probe->similarity};
    }
    if (probe.has_value() && stage0_.Confident(*probe)) {
      const Stage0Entry& hit = probe->entry;
      outcome.stage0_hit = true;
      outcome.stage0_similarity = probe->similarity;
      const double relevance = StructuralRelevance(request, hit.request, rng_);
      outcome.generation.request_id = request.id;
      outcome.generation.model_name = "stage0-cache";
      outcome.generation.latent_quality =
          generator_->ReusedResponseQuality(hit.response_quality, relevance);
      outcome.generation.prompt_tokens = request.input_tokens;
      outcome.generation.output_tokens = 0;  // zero generation cost
      outcome.generation.e2e_latency_s = outcome.overhead_latency_s;
      outcome.generation.ttft_s = outcome.overhead_latency_s;
      outcome.observed_quality =
          Clamp(outcome.generation.latent_quality + rng_.Normal(0.0, kFeedbackNoise), 0.0, 1.0);

      stage0_.RecordHit(hit.id, now);
      int tokens_saved = hit.response_tokens;
      if (rng_.Bernoulli(config_.stage0.probe_rate)) {
        // Probe sampling: shadow-generate the fresh response so threshold
        // adaptation learns from a genuine (reused - fresh) counterfactual.
        const GenerationResult fresh = generator_->Generate(large_model_, request, {});
        tokens_saved = fresh.output_tokens;
        stage0_.OnHitFeedback(probe->similarity, outcome.generation.latent_quality,
                              fresh.latent_quality, tokens_saved);
        m_stage0_probes_->Increment();
      }
      if (stage0_.OnQualityFeedback(hit.id, outcome.generation.latent_quality)) {
        m_stage0_invalidations_->Increment();
      }
      stage0_.AdvanceWindow(1);
      m_stage0_hits_->Increment();
      m_stage0_tokens_saved_->Add(static_cast<double>(tokens_saved));
      m_latency_sum_->Add(outcome.generation.e2e_latency_s);
      m_quality_sum_->Add(outcome.generation.latent_quality);
      return outcome;
    }
  }

  // 1. RetrieveExamples (bypassed when the selector component is down). With
  // stage-0 enabled the probe's embedding is reused — no second embed.
  std::vector<SelectedExample> selected;
  if (!selector_failed_) {
    if (config_.stage0.enabled) {
      const std::vector<SelectorCandidate> candidates =
          selector_.PrepareCandidates(request, small_model_, &embedding);
      selected = ExampleSelector::ToSelected(
          candidates, selector_.CommitSelection(candidates, small_model_, now));
    } else {
      selected = selector_.Select(request, small_model_, now);
    }
    outcome.overhead_latency_s +=
        config_.selector_stage1_latency_s + config_.selector_stage2_latency_s;
  } else {
    m_selector_bypassed_->Increment();
  }

  // 2. RouteRequest (shared step; a failed router falls back to the default
  // backend, section 5).
  outcome.route = RouteOrBypass(&router_, request, selected, router_failed_, large_model_);
  if (!router_failed_) {
    outcome.overhead_latency_s += config_.router_latency_s;
  } else {
    m_router_bypassed_->Increment();
  }
  outcome.offloaded = outcome.route.uses_examples;

  // 3. GenerateResponse.
  const ModelProfile& serving_model =
      outcome.offloaded ? small_model_ : large_model_;
  if (outcome.offloaded) {
    outcome.examples_used = selected;
    const std::vector<ExampleView> views = BuildExampleViews(request, selected);
    outcome.generation = generator_->Generate(serving_model, request, views);
    m_offloaded_->Increment();
    m_examples_prepended_->Add(static_cast<double>(views.size()));
  } else {
    outcome.generation = generator_->Generate(serving_model, request, {});
  }
  outcome.generation.e2e_latency_s += outcome.overhead_latency_s;
  outcome.generation.ttft_s += outcome.overhead_latency_s;

  // 4. ManageExamples: feedback, usage accounting, admission.
  outcome.observed_quality = Clamp(
      outcome.generation.latent_quality + rng_.Normal(0.0, kFeedbackNoise), 0.0, 1.0);

  if (!router_failed_) {
    router_.UpdateReward(outcome.route, outcome.observed_quality);

    if (outcome.route.solicit_feedback) {
      // Shadow-generate on the runner-up arm and feed the preference back.
      const RouterArmSpec& second = router_.arm_spec(outcome.route.second_choice);
      const ModelProfile& second_model = catalog_->Get(second.model_name);
      GenerationResult shadow;
      if (second.uses_examples) {
        shadow = generator_->Generate(second_model, request,
                                      BuildExampleViews(request, selected));
      } else {
        shadow = generator_->Generate(second_model, request, {});
      }
      const bool top_won = outcome.generation.latent_quality + rng_.Normal(0.0, kFeedbackNoise) >=
                           shadow.latent_quality + rng_.Normal(0.0, kFeedbackNoise);
      router_.UpdatePreference(outcome.route, top_won);
      m_preference_->Increment();
    }
  }

  baseline_quality_.Add(outcome.observed_quality);
  if (!selector_failed_ && !outcome.examples_used.empty() &&
      rng_.Bernoulli(kSelectorProbeRate)) {
    // Probe sampling (section 4.1): on a small fraction of offloaded
    // requests, shadow-generate the plain small-model response so the
    // example gain is a genuine counterfactual contrast — the signal that
    // trains the proxy online and drives threshold adaptation.
    const GenerationResult shadow_plain = generator_->Generate(small_model_, request, {});
    const double plain_observed =
        Clamp(shadow_plain.latent_quality + rng_.Normal(0.0, kFeedbackNoise), 0.0, 1.0);
    const double gain = outcome.observed_quality - plain_observed;
    selector_.OnFeedback(request, outcome.examples_used, small_model_, gain);
    m_selector_probes_->Increment();
  }

  if (!outcome.examples_used.empty()) {
    std::vector<uint64_t> used_ids;
    used_ids.reserve(outcome.examples_used.size());
    for (const SelectedExample& sel : outcome.examples_used) {
      used_ids.push_back(sel.example_id);
      if (outcome.offloaded) {
        cache_.RecordOffload(sel.example_id);
      }
    }
    manager_.RecordUsage(used_ids, outcome.observed_quality,
                         outcome.offloaded
                             ? small_model_.cost_per_1k_tokens / large_model_.cost_per_1k_tokens
                             : 1.0);
  }

  outcome.admitted_example_id =
      manager_.MaybeAdmit(request, outcome.generation,
                          serving_model.capability, /*from_large_model=*/!outcome.offloaded, now);

  // Stage-0 insert: every freshly generated response is a candidate cached
  // answer for future duplicates (deduped and bounded inside Put).
  if (config_.stage0.enabled) {
    // The step-0 probe doubles as the dedupe hint: nothing has touched the
    // stage-0 cache since, so this is exactly the index search Put would run.
    stage0_.Put(request, std::move(embedding), "[cached-response]",
                outcome.generation.latent_quality, outcome.generation.output_tokens, now,
                &dedupe_hint);
    stage0_.AdvanceWindow(1);
  }

  m_latency_sum_->Add(outcome.generation.e2e_latency_s);
  m_quality_sum_->Add(outcome.generation.latent_quality);
  return outcome;
}

void IcCacheService::ObserveLoad(double load) { router_.ObserveLoad(load); }

void IcCacheService::RunMaintenance(double now) {
  last_now_ = std::max(last_now_, now);
  if (config_.stage0.enabled) {
    m_stage0_expired_->Add(static_cast<double>(stage0_.ExpireStale(now)));
  }
  manager_.MaybeRunMaintenance(now);
  // Asynchronous proxy refresh from freshly sampled feedback (section 4.1).
  PretrainProxy(64);
  const ReplayReport report = manager_.RunReplayPass();
  m_replay_examined_->Add(static_cast<double>(report.candidates));
  m_replayed_->Add(static_cast<double>(report.replayed));
  m_replay_improved_->Add(static_cast<double>(report.improved));
}

}  // namespace iccache
