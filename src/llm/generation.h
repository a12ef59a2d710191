// Generation simulator: the offline stand-in for querying a real LLM.
//
// A generation produces a *latent quality* in [0, 1] — the ground-truth signal
// the pairwise judge later scores — plus token counts and zero-load latency.
// The quality model implements the in-context-learning behaviour the paper
// builds on (sections 2.3 and 4.1):
//
//   effective_capability = capability
//                        + icl_aptitude * headroom * coverage     (imitation)
//                        - distraction * (1 - robustness)         (bad examples)
//   quality = sigmoid(slope * (effective_capability - difficulty)) + noise
//
// where `coverage` saturates with the summed utility of relevant examples
// (diminishing returns, section 4.1 "Selecting Example Combinations"),
// `headroom` lets a small model approach — and with high-quality same-intent
// examples slightly exceed — the example source's capability, and irrelevant
// examples actively hurt (Figure 4a's random-example regression).
//
// Sampling noise is re-drawn per call, so replaying a request several times
// and keeping the best response yields a genuinely better example
// (best-of-n variance harvesting, section 4.3 / Figure 11).
#ifndef SRC_LLM_GENERATION_H_
#define SRC_LLM_GENERATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/llm/model_profile.h"
#include "src/workload/request.h"

namespace iccache {

// What the generator is allowed to see about a prepended example.
struct ExampleView {
  double relevance = 0.0;          // structural relevance to the request, [0, 1]
  double quality = 0.0;            // stored response quality, [0, 1]
  double source_capability = 0.0;  // capability of the model that produced it
  int tokens = 0;                  // prompt-length contribution
};

struct GenerationResult {
  uint64_t request_id = 0;
  std::string model_name;
  double latent_quality = 0.0;  // [0, 1]
  bool correct = false;         // accuracy-style verdict for code/math tasks
  int prompt_tokens = 0;        // request + examples
  int output_tokens = 0;
  double ttft_s = 0.0;          // zero-load time-to-first-token
  double tbt_s = 0.0;           // zero-load time-between-tokens
  double e2e_latency_s = 0.0;   // zero-load end-to-end latency
};

class GenerationSimulator {
 public:
  explicit GenerationSimulator(uint64_t seed);

  // Generates a response for the request on the given model with the given
  // in-context examples ([] == plain generation). `extra_capability` is an
  // additive capability adjustment used by the RAG baseline (factual boost
  // from retrieved documents) and never by IC-Cache itself.
  GenerationResult Generate(const ModelProfile& model, const Request& request,
                            const std::vector<ExampleView>& examples,
                            double extra_capability = 0.0);

  // Same generation model driven by an EXTERNAL sampling stream, mutating
  // nothing. Concurrent callers (the serving driver's commit lanes, the
  // background maintenance planner) each bring a deterministically derived
  // per-request/per-tick Rng, so results are independent of thread and lane
  // scheduling.
  GenerationResult Generate(const ModelProfile& model, const Request& request,
                            const std::vector<ExampleView>& examples, Rng& rng,
                            double extra_capability = 0.0) const;

  // Latent quality a *reused* cached response achieves on a new request
  // (naive semantic caching, Figure 3b): full quality on an exact intent
  // match, severely degraded on topical-but-different matches.
  double ReusedResponseQuality(double cached_quality, double relevance);

  // Same reuse model driven by an EXTERNAL sampling stream (stage-0 hits
  // inside the driver's commit lanes), mutating nothing.
  double ReusedResponseQuality(double cached_quality, double relevance, Rng& rng) const;

  // Snapshot persistence: the sampling stream must resume exactly for a
  // restored driver to reproduce the uninterrupted run's generations.
  RngState rng_state() const { return rng_.SaveState(); }
  void restore_rng_state(const RngState& state) { rng_.RestoreState(state); }

 private:
  double EffectiveCapability(const ModelProfile& model, const std::vector<ExampleView>& examples,
                             Rng& rng) const;

  Rng rng_;
};

// Structural relevance between two requests using latent ground truth:
// same intent ~0.95, same topic ~0.62, same dataset ~0.08, else ~0.02
// (plus small jitter). This is what a perfect relevance oracle would say;
// embedding cosine approximates it.
double StructuralRelevance(const Request& a, const Request& b, Rng& rng);

}  // namespace iccache

#endif  // SRC_LLM_GENERATION_H_
