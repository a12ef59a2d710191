// Request records flowing through the system. A request carries the visible
// payload (text, token counts) plus latent ground-truth attributes (topic,
// intent, difficulty) that only the workload generator and the generation
// simulator may inspect — serving-side components must treat them as opaque,
// exactly as a production system cannot observe a query's true difficulty.
#ifndef SRC_WORKLOAD_REQUEST_H_
#define SRC_WORKLOAD_REQUEST_H_

#include <cstdint>
#include <string>

namespace iccache {

enum class TaskType {
  kConversation,
  kQuestionAnswering,
  kTranslation,
  kCodeGeneration,
  kMathReasoning,
};

enum class DatasetId {
  kAlpaca,
  kLmsysChat,
  kOpenOrca,
  kMsMarco,
  kNaturalQuestions,
  kWmt16,
  kNl2Bash,
  kMath500,
};

const char* DatasetName(DatasetId dataset);

struct Request {
  uint64_t id = 0;
  DatasetId dataset = DatasetId::kLmsysChat;
  TaskType task = TaskType::kConversation;
  std::string text;

  // Privacy-domain tag (src/core/privacy.h): cached data derived from this
  // request may only be shared within the same user domain. 0 is the shared
  // global domain; multi-tenant deployments assign one id per tenant. Carried
  // into the cached Example and through snapshots (per-domain byte usage is
  // reported by tools/snapshot_dump).
  uint32_t privacy_domain = 0;

  // Latent ground truth (generator/simulator only).
  uint32_t topic_id = 0;
  uint32_t intent_id = 0;    // sub-topic; equal intent == semantically equivalent
  double difficulty = 0.5;   // in [0, 1]; larger needs a more capable model

  // Token accounting.
  int input_tokens = 0;
  int target_output_tokens = 0;

  // Arrival time in seconds of simulated time (0 when not load-driven).
  double arrival_time = 0.0;
};

}  // namespace iccache

#endif  // SRC_WORKLOAD_REQUEST_H_
