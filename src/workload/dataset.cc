#include "src/workload/dataset.h"

namespace iccache {

const char* DatasetName(DatasetId dataset) {
  switch (dataset) {
    case DatasetId::kAlpaca:
      return "Alpaca";
    case DatasetId::kLmsysChat:
      return "LMSys-Chat";
    case DatasetId::kOpenOrca:
      return "OpenOrca";
    case DatasetId::kMsMarco:
      return "MS-MARCO";
    case DatasetId::kNaturalQuestions:
      return "NaturalQuestions";
    case DatasetId::kWmt16:
      return "WMT-16";
    case DatasetId::kNl2Bash:
      return "NL2Bash";
    case DatasetId::kMath500:
      return "Math500-Level5";
  }
  return "unknown";
}

DatasetProfile GetDatasetProfile(DatasetId id) {
  DatasetProfile p;
  p.id = id;
  switch (id) {
    case DatasetId::kAlpaca:
      // Instruction-following conversation; moderate topical diversity.
      p.task = TaskType::kConversation;
      p.num_topics = 1200;
      p.topic_zipf_exponent = 0.95;
      p.difficulty_alpha = 2.0;
      p.difficulty_beta = 3.2;
      p.input_tokens_log_mean = 3.6;
      p.output_tokens_log_mean = 5.0;
      p.example_pool_size = 32392;
      p.request_count = 1800;
      break;
    case DatasetId::kLmsysChat:
      // Free-form chat; very diverse, heavy head topics (Figure 3a's highest
      // similarity mass comes from repeated hot prompts).
      p.task = TaskType::kConversation;
      p.num_topics = 4000;
      p.topic_zipf_exponent = 1.10;
      p.difficulty_alpha = 2.2;
      p.difficulty_beta = 2.8;
      p.input_tokens_log_mean = 4.0;
      p.output_tokens_log_mean = 5.3;
      p.example_pool_size = 273043;
      p.request_count = 15170;
      break;
    case DatasetId::kOpenOrca:
      // GPT-augmented FLAN reasoning traces; harder on average.
      p.task = TaskType::kConversation;
      p.num_topics = 5000;
      p.topic_zipf_exponent = 1.00;
      p.difficulty_alpha = 2.6;
      p.difficulty_beta = 2.4;
      p.input_tokens_log_mean = 4.4;
      p.output_tokens_log_mean = 5.2;
      p.example_pool_size = 774285;
      p.request_count = 43016;
      break;
    case DatasetId::kMsMarco:
      // Bing search queries: short, redundant, comparatively easy.
      p.task = TaskType::kQuestionAnswering;
      p.num_topics = 2500;
      p.topic_zipf_exponent = 1.15;
      p.intents_per_topic = 3;
      p.tokens_per_query = 7;
      p.filler_tokens_per_query = 2;
      p.difficulty_alpha = 1.8;
      p.difficulty_beta = 3.8;
      p.input_tokens_log_mean = 2.9;
      p.input_tokens_log_std = 0.45;
      p.output_tokens_log_mean = 4.3;
      p.example_pool_size = 808731;
      p.request_count = 101092;
      break;
    case DatasetId::kNaturalQuestions:
      // Real Google questions; factual, mid difficulty.
      p.task = TaskType::kQuestionAnswering;
      p.num_topics = 1800;
      p.topic_zipf_exponent = 1.05;
      p.intents_per_topic = 3;
      p.tokens_per_query = 8;
      p.difficulty_alpha = 2.1;
      p.difficulty_beta = 3.0;
      p.input_tokens_log_mean = 3.0;
      p.input_tokens_log_std = 0.4;
      p.output_tokens_log_mean = 4.5;
      p.example_pool_size = 300000;
      p.request_count = 7830;
      break;
    case DatasetId::kWmt16:
      // Translation; templated, highly repetitive phrasing.
      p.task = TaskType::kTranslation;
      p.num_topics = 900;
      p.topic_zipf_exponent = 1.10;
      p.intents_per_topic = 5;
      p.difficulty_alpha = 2.0;
      p.difficulty_beta = 3.4;
      p.input_tokens_log_mean = 3.4;
      p.output_tokens_log_mean = 3.6;
      p.example_pool_size = 600000;
      p.request_count = 1000;
      break;
    case DatasetId::kNl2Bash:
      // Code generation: small domain, strong structure, hard for small models.
      p.task = TaskType::kCodeGeneration;
      p.num_topics = 350;
      p.topic_zipf_exponent = 0.90;
      p.intents_per_topic = 4;
      p.core_tokens_per_topic = 10;
      p.difficulty_alpha = 3.0;
      p.difficulty_beta = 2.2;
      p.input_tokens_log_mean = 3.2;
      p.output_tokens_log_mean = 3.4;
      p.output_tokens_log_std = 0.5;
      p.example_pool_size = 8090;
      p.request_count = 609;
      break;
    case DatasetId::kMath500:
      // Level-5 math reasoning: hardest tail, long outputs.
      p.task = TaskType::kMathReasoning;
      p.num_topics = 500;
      p.topic_zipf_exponent = 0.85;
      p.intents_per_topic = 4;
      p.difficulty_alpha = 3.6;
      p.difficulty_beta = 1.8;
      p.input_tokens_log_mean = 4.2;
      p.output_tokens_log_mean = 5.8;
      p.example_pool_size = 7500;
      p.request_count = 5000;
      break;
  }
  return p;
}

std::vector<DatasetProfile> AllDatasetProfiles() {
  return {
      GetDatasetProfile(DatasetId::kAlpaca),        GetDatasetProfile(DatasetId::kLmsysChat),
      GetDatasetProfile(DatasetId::kOpenOrca),      GetDatasetProfile(DatasetId::kMsMarco),
      GetDatasetProfile(DatasetId::kNaturalQuestions), GetDatasetProfile(DatasetId::kWmt16),
      GetDatasetProfile(DatasetId::kNl2Bash),       GetDatasetProfile(DatasetId::kMath500),
  };
}

}  // namespace iccache
