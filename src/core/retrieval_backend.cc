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

void ExampleStore::FindSimilarBatch(const float* queries, size_t num_queries, size_t query_dim,
                                    size_t k, SearchScratch* scratch,
                                    std::vector<std::vector<SearchResult>>* out) const {
  (void)scratch;
  out->resize(num_queries);
  static thread_local std::vector<float> query;
  for (size_t i = 0; i < num_queries; ++i) {
    query.assign(queries + i * query_dim, queries + (i + 1) * query_dim);
    (*out)[i] = FindSimilar(query, k);
  }
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
      hnsw.quantize_int8 = config.quantize == QuantizationKind::kInt8;
      hnsw.rerank_k = config.rerank_k;
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

bool StoresExactVectors(const RetrievalBackendConfig& config) {
  return config.kind != RetrievalBackendKind::kHnsw || config.quantize == QuantizationKind::kNone;
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

const char* QuantizationKindName(QuantizationKind kind) {
  switch (kind) {
    case QuantizationKind::kInt8:
      return "int8";
    case QuantizationKind::kNone:
    default:
      return "none";
  }
}

bool ParseQuantizationKind(const std::string& name, QuantizationKind* out) {
  if (name == "none") {
    *out = QuantizationKind::kNone;
  } else if (name == "int8") {
    *out = QuantizationKind::kInt8;
  } else {
    return false;
  }
  return true;
}

}  // namespace iccache
