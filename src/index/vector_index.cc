#include "src/index/vector_index.h"

#include <algorithm>
#include <cmath>

#include "src/common/simd.h"
#include "src/index/kmeans.h"

namespace iccache {

namespace {

// Arena slots scored per block in the blocked multi-query scans: 256 slots at
// dim=128 is 128 KB of float arena — sized so a block stays resident in L2
// while every query of the batch streams through it.
constexpr size_t kScanBlockSlots = 256;

// KMeansIndex re-clusters once it has grown by this factor since the last build.
constexpr double kRebuildGrowthFactor = 2.0;

}  // namespace

std::vector<SearchResult> VectorIndex::Search(const std::vector<float>& query, size_t k) const {
  // One scratch per thread, shared by every index on it: each kernel resets
  // the buffers it reads, and hnsw's visited epochs only ever advance, so no
  // earlier search's marks can alias a later query's.
  static thread_local SearchScratch scratch;
  SearchBatch(query.data(), 1, query.size(), k, &scratch);
  return std::vector<SearchResult>(scratch.ResultsOf(0),
                                   scratch.ResultsOf(0) + scratch.ResultCountOf(0));
}

FlatIndex::FlatIndex(size_t dim) : dim_(dim) {}

Status FlatIndex::Add(uint64_t id, std::vector<float> vec) {
  if (vec.size() != dim_) {
    return Status::InvalidArgument("vector dimension mismatch");
  }
  const auto it = slot_of_.find(id);
  if (it != slot_of_.end()) {
    std::copy(vec.begin(), vec.end(), arena_.begin() + it->second * dim_);
    return Status::Ok();
  }
  slot_of_[id] = ids_.size();
  ids_.push_back(id);
  arena_.insert(arena_.end(), vec.begin(), vec.end());
  return Status::Ok();
}

bool FlatIndex::Remove(uint64_t id) {
  const auto it = slot_of_.find(id);
  if (it == slot_of_.end()) {
    return false;
  }
  const size_t slot = it->second;
  const size_t last = ids_.size() - 1;
  if (slot != last) {
    ids_[slot] = ids_[last];
    std::copy(arena_.begin() + last * dim_, arena_.begin() + (last + 1) * dim_,
              arena_.begin() + slot * dim_);
    slot_of_[ids_[slot]] = slot;
  }
  ids_.pop_back();
  arena_.resize(arena_.size() - dim_);
  slot_of_.erase(it);
  return true;
}

void FlatIndex::SearchBatch(const float* queries, size_t num_queries, size_t query_dim,
                            size_t k, SearchScratch* scratch) const {
  SearchScratch& s = *scratch;
  s.BeginOutput(num_queries);
  if (num_queries == 0 || query_dim != dim_) {
    return;  // offsets are all zero: every query reports an empty result range
  }
  if (s.heaps.size() < num_queries) {
    ++s.grows;
    s.heaps.resize(num_queries);
  }
  for (size_t q = 0; q < num_queries; ++q) {
    s.heaps[q].clear();
  }
  // Blocked sweep: each arena block is scored against every query while it is
  // hot. Per query the push order is still ascending slot order, so the heap
  // state — equal-score tie-breaks included — does not depend on the batch.
  for (size_t base = 0; base < ids_.size(); base += kScanBlockSlots) {
    const size_t end = std::min(base + kScanBlockSlots, ids_.size());
    for (size_t q = 0; q < num_queries; ++q) {
      const float* qv = queries + q * dim_;
      auto& heap = s.heaps[q];
      for (size_t i = base; i < end; ++i) {
        ScratchTopK::Push(heap, k, simd::Dot(qv, VecOf(i), dim_), ids_[i], s);
      }
    }
  }
  for (size_t q = 0; q < num_queries; ++q) {
    ScratchTopK::DrainDescending(s.heaps[q], &s.results, s);
    s.EndQuery(q);
  }
}

bool FlatIndex::GetVector(uint64_t id, std::vector<float>* out) const {
  const float* vec = Find(id);
  if (vec == nullptr) {
    return false;
  }
  out->assign(vec, vec + dim_);
  return true;
}

const float* FlatIndex::Find(uint64_t id) const {
  const auto it = slot_of_.find(id);
  if (it == slot_of_.end()) {
    return nullptr;
  }
  return VecOf(it->second);
}

KMeansIndex::KMeansIndex(KMeansIndexConfig config) : config_(config), rng_(config.seed) {}

Status KMeansIndex::Add(uint64_t id, std::vector<float> vec) {
  if (vec.size() != config_.dim) {
    return Status::InvalidArgument("vector dimension mismatch");
  }
  if (slot_of_.count(id) > 0) {
    Remove(id);
  }
  if (clustered()) {
    const size_t cluster = NearestCluster(vec.data());
    cluster_of_[id] = cluster;
    cluster_members_[cluster].push_back(id);
  }
  slot_of_[id] = ids_.size();
  ids_.push_back(id);
  arena_.insert(arena_.end(), vec.begin(), vec.end());
  MaybeRebuild();
  return Status::Ok();
}

bool KMeansIndex::Remove(uint64_t id) {
  const auto it = slot_of_.find(id);
  if (it == slot_of_.end()) {
    return false;
  }
  const auto cit = cluster_of_.find(id);
  if (cit != cluster_of_.end()) {
    auto& members = cluster_members_[cit->second];
    members.erase(std::remove(members.begin(), members.end(), id), members.end());
    cluster_of_.erase(cit);
  }
  const size_t slot = it->second;
  const size_t last = ids_.size() - 1;
  if (slot != last) {
    ids_[slot] = ids_[last];
    std::copy(arena_.begin() + last * config_.dim, arena_.begin() + (last + 1) * config_.dim,
              arena_.begin() + slot * config_.dim);
    slot_of_[ids_[slot]] = slot;
  }
  ids_.pop_back();
  arena_.resize(arena_.size() - config_.dim);
  slot_of_.erase(it);
  return true;
}

bool KMeansIndex::GetVector(uint64_t id, std::vector<float>* out) const {
  const auto it = slot_of_.find(id);
  if (it == slot_of_.end()) {
    return false;
  }
  out->assign(VecOf(it->second), VecOf(it->second) + config_.dim);
  return true;
}

void KMeansIndex::MaybeRebuild() {
  if (ids_.size() < config_.min_points_to_cluster) {
    return;
  }
  if (clustered() &&
      static_cast<double>(ids_.size()) <
          kRebuildGrowthFactor * static_cast<double>(size_at_last_build_)) {
    return;
  }
  Rebuild();
}

void KMeansIndex::Rebuild() {
  if (ids_.empty()) {
    centroids_.clear();
    cluster_members_.clear();
    cluster_of_.clear();
    size_at_last_build_ = 0;
    return;
  }
  // Points are handed to the clusterer in slot (insertion) order, which is a
  // deterministic function of the Add/Remove history.
  std::vector<std::vector<float>> points;
  points.reserve(ids_.size());
  for (size_t slot = 0; slot < ids_.size(); ++slot) {
    points.emplace_back(VecOf(slot), VecOf(slot) + config_.dim);
  }
  const size_t k = OptimalClusterCount(points.size());
  const KMeansResult clustering = KMeansCluster(points, k, rng_);
  centroids_ = clustering.centroids;
  cluster_members_.assign(centroids_.size(), {});
  cluster_of_.clear();
  for (size_t slot = 0; slot < ids_.size(); ++slot) {
    const size_t c = clustering.assignments[slot];
    cluster_of_[ids_[slot]] = c;
    cluster_members_[c].push_back(ids_[slot]);
  }
  size_at_last_build_ = ids_.size();
}

size_t KMeansIndex::NearestCluster(const float* vec) const {
  size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < centroids_.size(); ++c) {
    const double d = simd::L2Sq(vec, centroids_[c].data(), config_.dim);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

void KMeansIndex::SearchBatch(const float* queries, size_t num_queries, size_t query_dim,
                              size_t k, SearchScratch* scratch) const {
  SearchScratch& s = *scratch;
  s.BeginOutput(num_queries);
  if (num_queries == 0 || query_dim != config_.dim) {
    return;  // offsets are all zero: every query reports an empty result range
  }
  if (s.heaps.empty()) {
    ++s.grows;
    s.heaps.resize(1);
  }
  const size_t dim = config_.dim;
  if (!clustered()) {
    // Blocked flat sweep below the clustering threshold (same discipline as
    // FlatIndex): per query the push order stays ascending slot order.
    if (s.heaps.size() < num_queries) {
      ++s.grows;
      s.heaps.resize(num_queries);
    }
    for (size_t q = 0; q < num_queries; ++q) {
      s.heaps[q].clear();
    }
    for (size_t base = 0; base < ids_.size(); base += kScanBlockSlots) {
      const size_t end = std::min(base + kScanBlockSlots, ids_.size());
      for (size_t q = 0; q < num_queries; ++q) {
        const float* qv = queries + q * dim;
        auto& h = s.heaps[q];
        for (size_t slot = base; slot < end; ++slot) {
          ScratchTopK::Push(h, k, simd::Dot(qv, VecOf(slot), dim), ids_[slot], s);
        }
      }
    }
    for (size_t q = 0; q < num_queries; ++q) {
      ScratchTopK::DrainDescending(s.heaps[q], &s.results, s);
      s.EndQuery(q);
    }
    return;
  }
  auto& heap = s.heaps[0];
  for (size_t q = 0; q < num_queries; ++q) {
    const float* qv = queries + q * dim;
    // Probe selection: the nprobe nearest centroids (ascending centroid
    // pushes on the negated distance, drained best-first) over reused scratch.
    heap.clear();
    s.cluster_heap.clear();
    s.cluster_order.clear();
    for (size_t c = 0; c < centroids_.size(); ++c) {
      ScratchTopK::Push(s.cluster_heap, config_.nprobe,
                        -simd::L2Sq(qv, centroids_[c].data(), dim), c, s);
    }
    ScratchTopK::DrainDescending(s.cluster_heap, &s.cluster_order, s);
    for (const SearchResult& probe : s.cluster_order) {
      for (uint64_t id : cluster_members_[probe.id]) {
        const auto it = slot_of_.find(id);
        if (it != slot_of_.end()) {
          ScratchTopK::Push(heap, k, simd::Dot(qv, VecOf(it->second), dim), id, s);
        }
      }
    }
    ScratchTopK::DrainDescending(heap, &s.results, s);
    s.EndQuery(q);
  }
}

}  // namespace iccache
