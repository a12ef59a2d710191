#include "src/core/retrieval_backend.h"

#include <utility>

namespace iccache {

PreparedAdmission PrepareAdmissionPayload(const PiiScrubber& scrubber, CacheAdmissionMode mode,
                                          const Embedder& embedder, const Request& request,
                                          const std::vector<float>* text_embedding) {
  PreparedAdmission prepared;
  AdmissionDecision decision = DecideAdmission(scrubber, mode, request.text);
  if (!decision.admit) {
    return prepared;
  }
  prepared.admit = true;
  if (text_embedding != nullptr && decision.sanitized_text == request.text) {
    prepared.embedding = *text_embedding;
  } else {
    prepared.embedding = embedder.Embed(decision.sanitized_text);
  }
  prepared.sanitized_text = std::move(decision.sanitized_text);
  return prepared;
}

std::vector<SearchResult> ExampleStore::FindSimilar(const Request& request, size_t k) const {
  return FindSimilar(embedder()->Embed(request.text), k);
}

std::vector<SearchResult> ExampleStore::FindSimilar(const std::vector<float>& embedding,
                                                    size_t k) const {
  static thread_local SearchScratch scratch;
  static thread_local std::vector<std::vector<SearchResult>> out;
  FindSimilarBatch(embedding.data(), 1, embedding.size(), k, &scratch, &out);
  return std::move(out[0]);
}

uint64_t ExampleStore::Put(const Request& request, std::string response_text,
                           double response_quality, double source_capability, int response_tokens,
                           double now) {
  return PutPrepared(request, PrepareAdmission(request), std::move(response_text),
                     response_quality, source_capability, response_tokens, now);
}

std::unique_ptr<VectorIndex> MakeRetrievalIndex(const RetrievalBackendConfig& config, size_t dim,
                                                uint64_t seed) {
  switch (config.kind) {
    case RetrievalBackendKind::kFlat:
      return std::make_unique<FlatIndex>(dim);
    case RetrievalBackendKind::kHnsw: {
      HnswIndexConfig hnsw = config.hnsw;
      hnsw.dim = dim;
      hnsw.seed = seed;
      return std::make_unique<HnswIndex>(hnsw);
    }
    case RetrievalBackendKind::kKMeans:
    default: {
      KMeansIndexConfig kmeans;
      kmeans.dim = dim;
      kmeans.nprobe = config.nprobe;
      kmeans.seed = seed;
      return std::make_unique<KMeansIndex>(kmeans);
    }
  }
}

const char* RetrievalBackendKindName(RetrievalBackendKind kind) {
  switch (kind) {
    case RetrievalBackendKind::kFlat:
      return "flat";
    case RetrievalBackendKind::kHnsw:
      return "hnsw";
    case RetrievalBackendKind::kKMeans:
    default:
      return "kmeans";
  }
}

bool ParseRetrievalBackendKind(const std::string& name, RetrievalBackendKind* out) {
  if (name == "flat") {
    *out = RetrievalBackendKind::kFlat;
  } else if (name == "kmeans") {
    *out = RetrievalBackendKind::kKMeans;
  } else if (name == "hnsw") {
    *out = RetrievalBackendKind::kHnsw;
  } else {
    return false;
  }
  return true;
}

}  // namespace iccache
