// Stage-1 retrieval scaling: build time, search latency, recall@k, and arena
// memory for flat vs kmeans vs hnsw at growing pool sizes. This is the bench
// behind the acceptance bar hnsw vs flat (>= 100k vectors): graph search
// >= 5x faster than brute force with recall@10 >= 0.9.
//
// At the largest size the graph image is also saved and restored to record
// snapshot size and restore time (the million-example operational story:
// restore is O(bytes), not an O(N * ef_construction) rebuild); with
// --acceptance the round trip must return identical searches.
//
// Flags:
//   --sizes=1000,10000,100000   pool sizes to sweep
//   --dim=64                    vector dimensionality
//   --queries=50                query count per measurement
//   --k=10                      neighbors per query (recall@k)
//   --kmeans-cap=10000          skip kmeans above this size (Lloyd rebuilds
//                               are O(N * sqrt(N) * dim) and dominate the
//                               runtime long before 100k)
//   --clusters=N                corpus cluster count; default n/100 (capped
//                               below), 0 = iid unit vectors. Cache pools
//                               index embeddings of real traffic, which is
//                               heavily clustered (paraphrase groups,
//                               templated prompts); iid points on the sphere
//                               are the known ANN worst case and measure the
//                               graph, not the workload.
//   --sigma=0.2                 per-coordinate noise around cluster centers
//   --batch                     also measure the multi-query SearchBatch path
//                               (adds a batch us/q column; with --acceptance,
//                               hnsw at >= 100k must return bit-identical
//                               results and grow its scratch zero times after
//                               the warm-up pass)
//   --batch-size=32             queries per SearchBatch call
//   --acceptance                exit 1 unless every acceptance bar holds
//   --json-out=<path>           write the sweep as a BENCH json record
//                               (schema "iccache-bench/1"): one
//                               <index>_<size>_* metric row per cell —
//                               recall and bytes/vec are seed-deterministic
//                               and gate everywhere, build/search wall time
//                               is machine-dependent and gates only under
//                               bench_compare --strict
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/mathutil.h"
#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/core/retrieval_backend.h"
#include "src/index/hnsw.h"
#include "src/obs/bench_json.h"

namespace iccache {
namespace {

struct Flags {
  std::vector<size_t> sizes = {1000, 10000, 100000};
  size_t dim = 64;
  size_t queries = 50;
  size_t k = 10;
  size_t kmeans_cap = 10000;
  // Corpus cluster count; SIZE_MAX = auto (n / 100), 0 = iid unit vectors.
  size_t clusters = SIZE_MAX;
  // Per-coordinate noise scale around each cluster center. 0.2 at dim=128
  // puts within-cluster cosine near 0.3 and cross-cluster near zero: the
  // neighbor structure is real but queries still have to discriminate, so
  // the beam spans memory instead of parking inside one cache-resident blob.
  double sigma = 0.2;
  // HNSW tuning overrides; 0 = library default.
  size_t hnsw_m = 0;
  size_t hnsw_efc = 0;
  size_t hnsw_efs = 0;
  bool batch = false;
  size_t batch_size = 32;
  bool acceptance = false;
  std::string json_out;
};

bool ParseSizeList(const char* text, std::vector<size_t>* out) {
  std::vector<size_t> sizes;
  const char* p = text;
  while (*p != '\0') {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(p, &end, 10);
    if (end == p || v == 0) {
      return false;
    }
    sizes.push_back(static_cast<size_t>(v));
    p = (*end == ',') ? end + 1 : end;
    if (*end != ',' && *end != '\0') {
      return false;
    }
  }
  if (sizes.empty()) {
    return false;
  }
  *out = sizes;
  return true;
}

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--sizes=", 0) == 0) {
      if (!ParseSizeList(arg.c_str() + 8, &flags.sizes)) {
        std::fprintf(stderr, "bad --sizes list: %s\n", arg.c_str());
        std::exit(2);
      }
    } else if (arg.rfind("--dim=", 0) == 0) {
      flags.dim = std::strtoull(arg.c_str() + 6, nullptr, 10);
    } else if (arg.rfind("--queries=", 0) == 0) {
      flags.queries = std::strtoull(arg.c_str() + 10, nullptr, 10);
    } else if (arg.rfind("--k=", 0) == 0) {
      flags.k = std::strtoull(arg.c_str() + 4, nullptr, 10);
    } else if (arg.rfind("--kmeans-cap=", 0) == 0) {
      flags.kmeans_cap = std::strtoull(arg.c_str() + 13, nullptr, 10);
    } else if (arg.rfind("--clusters=", 0) == 0) {
      flags.clusters = std::strtoull(arg.c_str() + 11, nullptr, 10);
    } else if (arg.rfind("--sigma=", 0) == 0) {
      flags.sigma = std::strtod(arg.c_str() + 8, nullptr);
    } else if (arg.rfind("--M=", 0) == 0) {
      flags.hnsw_m = std::strtoull(arg.c_str() + 4, nullptr, 10);
    } else if (arg.rfind("--efc=", 0) == 0) {
      flags.hnsw_efc = std::strtoull(arg.c_str() + 6, nullptr, 10);
    } else if (arg.rfind("--efs=", 0) == 0) {
      flags.hnsw_efs = std::strtoull(arg.c_str() + 6, nullptr, 10);
    } else if (arg == "--batch") {
      flags.batch = true;
    } else if (arg.rfind("--batch-size=", 0) == 0) {
      flags.batch_size = std::strtoull(arg.c_str() + 13, nullptr, 10);
      flags.batch = flags.batch_size > 0;
    } else if (arg.rfind("--json-out=", 0) == 0) {
      flags.json_out = arg.substr(11);
    } else if (arg == "--acceptance") {
      flags.acceptance = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return flags;
}

std::vector<float> RandomUnitVector(Rng& rng, size_t dim) {
  std::vector<float> v(dim);
  for (auto& x : v) {
    x = static_cast<float>(rng.Normal());
  }
  NormalizeL2(v);
  return v;
}

std::vector<float> ClusterPoint(Rng& rng, const std::vector<float>& center, double sigma) {
  std::vector<float> v(center);
  for (auto& x : v) {
    x += static_cast<float>(sigma * rng.Normal());
  }
  NormalizeL2(v);
  return v;
}

double SecondsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct Measurement {
  double build_s = 0.0;
  double search_us_per_query = 0.0;
  double recall = 0.0;
  double bytes_per_vec = 0.0;  // vector arena only; 0 when not reported
  // Multi-query SearchBatch pass (--batch): the fastest timed pass's wall
  // time, (id, score) bit-identity against the single-query results, and
  // whether the reusable scratch stopped growing after the warm-up pass
  // (zero steady-state heap allocations per query).
  bool batch_measured = false;
  double batch_us_per_query = 0.0;
  bool batch_identical = true;
  bool batch_zero_alloc = true;
};

Measurement Measure(VectorIndex& index, const std::vector<std::vector<float>>& vectors,
                    const std::vector<std::vector<float>>& queries,
                    const std::vector<std::set<uint64_t>>& truth, size_t k,
                    size_t batch_size) {
  Measurement m;
  const auto build_start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < vectors.size(); ++i) {
    index.Add(static_cast<uint64_t>(i), vectors[i]);
  }
  // HNSW Add only appends: link the graph inside the build timer, or the
  // first timed search would pay for the whole build.
  index.Flush();
  m.build_s = SecondsSince(build_start);

  size_t hits = 0;
  const auto search_start = std::chrono::steady_clock::now();
  std::vector<std::vector<SearchResult>> found(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    found[q] = index.Search(queries[q], k);
  }
  const double search_s = SecondsSince(search_start);
  for (size_t q = 0; q < queries.size(); ++q) {
    if (truth.empty()) {
      continue;
    }
    for (const auto& result : found[q]) {
      hits += truth[q].count(result.id);
    }
  }
  m.search_us_per_query = 1e6 * search_s / static_cast<double>(queries.size());
  m.recall = truth.empty()
                 ? 1.0
                 : static_cast<double>(hits) / static_cast<double>(queries.size() * k);

  if (batch_size > 0 && !queries.empty()) {
    m.batch_measured = true;
    const size_t dim = queries[0].size();
    std::vector<float> arena(queries.size() * dim);
    for (size_t q = 0; q < queries.size(); ++q) {
      std::memcpy(arena.data() + q * dim, queries[q].data(), dim * sizeof(float));
    }
    SearchScratch scratch;
    const auto run_batches = [&](bool check) {
      for (size_t qb = 0; qb < queries.size(); qb += batch_size) {
        const size_t count = std::min(batch_size, queries.size() - qb);
        index.SearchBatch(arena.data() + qb * dim, count, dim, k, &scratch);
        if (!check) {
          continue;
        }
        for (size_t i = 0; i < count; ++i) {
          const SearchResult* results = scratch.ResultsOf(i);
          const size_t result_count = scratch.ResultCountOf(i);
          const std::vector<SearchResult>& single = found[qb + i];
          if (result_count != single.size()) {
            m.batch_identical = false;
            continue;
          }
          for (size_t r = 0; r < result_count; ++r) {
            if (results[r].id != single[r].id || results[r].score != single[r].score) {
              m.batch_identical = false;
            }
          }
        }
      }
    };
    // Warm-up pass doubles as the bit-identity check; after it every scratch
    // buffer is at its high-watermark capacity, so the timed passes must
    // leave the grow counter untouched. The batch us/q column reports the
    // fastest of three timed passes.
    run_batches(/*check=*/true);
    const uint64_t grows_after_warm = scratch.grows;
    double best_batch_s = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      const auto batch_start = std::chrono::steady_clock::now();
      run_batches(/*check=*/false);
      best_batch_s = std::min(best_batch_s, SecondsSince(batch_start));
    }
    m.batch_us_per_query = 1e6 * best_batch_s / static_cast<double>(queries.size());
    m.batch_zero_alloc = scratch.grows == grows_after_warm;
  }
  if (const auto* hnsw = dynamic_cast<const HnswIndex*>(&index)) {
    m.bytes_per_vec = vectors.empty() ? 0.0
                                      : static_cast<double>(hnsw->arena_bytes()) /
                                            static_cast<double>(vectors.size());
  }
  return m;
}

void PrintRow(size_t n, const char* name, const Measurement& m, double speedup) {
  char bytes[32];
  if (m.bytes_per_vec > 0.0) {
    std::snprintf(bytes, sizeof(bytes), "%.0f", m.bytes_per_vec);
  } else {
    std::snprintf(bytes, sizeof(bytes), "-");
  }
  char batch[32];
  if (m.batch_measured) {
    std::snprintf(batch, sizeof(batch), "%.1f", m.batch_us_per_query);
  } else {
    std::snprintf(batch, sizeof(batch), "-");
  }
  std::printf("  %-9zu %-10s %12.3f %16.1f %14s %10.3f %9s %11.2fx\n", n, name, m.build_s,
              m.search_us_per_query, batch, m.recall, bytes, speedup);
}

}  // namespace
}  // namespace iccache

int main(int argc, char** argv) {
  using namespace iccache;
  const Flags flags = ParseFlags(argc, argv);

  benchutil::PrintTitle("Stage-1 retrieval scaling: flat vs kmeans vs hnsw");
  std::printf("  dim=%zu  queries=%zu  k=%zu  kernel=%s\n", flags.dim, flags.queries, flags.k,
              simd::KernelLevelName(simd::ActiveKernelLevel()));
  std::printf("  %-9s %-10s %12s %16s %14s %10s %9s %12s\n", "size", "index", "build (s)",
              "search (us/q)", "batch (us/q)", "recall@k", "B/vec", "vs flat");

  bool acceptance_ok = true;
  const size_t largest = *std::max_element(flags.sizes.begin(), flags.sizes.end());

  // One BENCH json row per (size, index) cell. Recall and bytes/vec are
  // seed-deterministic and gate everywhere; build/search wall time only
  // gates under bench_compare --strict.
  BenchRunRecord bench;
  bench.bench = "retrieval_scaling";
  bench.AddConfig("dim", std::to_string(flags.dim));
  bench.AddConfig("queries", std::to_string(flags.queries));
  bench.AddConfig("k", std::to_string(flags.k));
  bench.AddConfig("simd_kernel", simd::KernelLevelName(simd::ActiveKernelLevel()));
  const auto add_rows = [&bench](size_t n, const char* name, const Measurement& m,
                                 double speedup, bool measure_recall) {
    const std::string prefix = std::string(name) + "_" + std::to_string(n) + "_";
    bench.AddMetric(prefix + "build_s", m.build_s, 0.25, -1, true);
    bench.AddMetric(prefix + "search_us", m.search_us_per_query, 0.25, -1, true);
    if (measure_recall) {
      bench.AddMetric(prefix + "recall", m.recall, 0.03, +1);
      bench.AddMetric(prefix + "vs_flat", speedup, 0.0, 0, true);
    }
    if (m.bytes_per_vec > 0.0) {
      bench.AddMetric(prefix + "bytes_per_vec", m.bytes_per_vec, 0.05, -1);
    }
    if (m.batch_measured) {
      bench.AddMetric(prefix + "batch_us", m.batch_us_per_query, 0.25, -1, true);
      // Identity and zero-alloc are pass/fail invariants, recorded as exact
      // 0/1 metrics so a regression shows up in bench_compare too.
      bench.AddMetric(prefix + "batch_identical", m.batch_identical ? 1.0 : 0.0, 0.0, +1);
      bench.AddMetric(prefix + "batch_zero_alloc", m.batch_zero_alloc ? 1.0 : 0.0, 0.0, +1);
    }
  };

  Rng rng(0x5ca1e);
  for (size_t n : flags.sizes) {
    // Corpus: perturbations of shared cluster centers (see --clusters above);
    // queries perturb centers the same way, so ground truth lives in the
    // query's cluster. clusters=0 degrades to iid points on the sphere.
    const size_t n_clusters =
        flags.clusters == SIZE_MAX ? std::max<size_t>(n / 100, 1) : flags.clusters;
    std::vector<std::vector<float>> centers;
    centers.reserve(n_clusters);
    for (size_t c = 0; c < n_clusters; ++c) {
      centers.push_back(RandomUnitVector(rng, flags.dim));
    }
    std::vector<std::vector<float>> vectors;
    vectors.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      vectors.push_back(centers.empty()
                            ? RandomUnitVector(rng, flags.dim)
                            : ClusterPoint(rng, centers[i % centers.size()], flags.sigma));
    }
    std::vector<std::vector<float>> queries;
    for (size_t q = 0; q < flags.queries; ++q) {
      queries.push_back(centers.empty()
                            ? RandomUnitVector(rng, flags.dim)
                            : ClusterPoint(rng, centers[rng.UniformInt(centers.size())],
                                           flags.sigma));
    }

    // Flat is both a measured backend and the ground truth for recall.
    FlatIndex flat(flags.dim);
    const Measurement flat_m =
        Measure(flat, vectors, queries, {}, flags.k, flags.batch ? flags.batch_size : 0);
    std::vector<std::set<uint64_t>> truth(queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      for (const auto& result : flat.Search(queries[q], flags.k)) {
        truth[q].insert(result.id);
      }
    }
    PrintRow(n, "flat", flat_m, 1.0);
    add_rows(n, "flat", flat_m, 1.0, false);

    if (n <= flags.kmeans_cap) {
      RetrievalBackendConfig config;
      config.kind = RetrievalBackendKind::kKMeans;
      const auto index = MakeRetrievalIndex(config, flags.dim, 0x5eed ^ n);
      const Measurement m =
          Measure(*index, vectors, queries, truth, flags.k, flags.batch ? flags.batch_size : 0);
      const double kmeans_speedup =
          m.search_us_per_query > 0.0 ? flat_m.search_us_per_query / m.search_us_per_query : 0.0;
      PrintRow(n, "kmeans", m, kmeans_speedup);
      add_rows(n, "kmeans", m, kmeans_speedup, true);
    } else {
      std::printf("  %-9zu %-10s %12s %16s %10s %9s %12s\n", n, "kmeans", "-", "-", "-", "-",
                  "(skipped)");
    }

    RetrievalBackendConfig config;
    config.kind = RetrievalBackendKind::kHnsw;
    if (flags.hnsw_m != 0) {
      config.hnsw.max_neighbors = flags.hnsw_m;
    }
    if (flags.hnsw_efc != 0) {
      config.hnsw.ef_construction = flags.hnsw_efc;
    }
    if (flags.hnsw_efs != 0) {
      config.hnsw.ef_search = flags.hnsw_efs;
    }
    const auto index = MakeRetrievalIndex(config, flags.dim, 0x5eed ^ n);
    const Measurement m =
        Measure(*index, vectors, queries, truth, flags.k, flags.batch ? flags.batch_size : 0);
    const double speedup =
        m.search_us_per_query > 0.0 ? flat_m.search_us_per_query / m.search_us_per_query : 0.0;
    PrintRow(n, "hnsw", m, speedup);
    add_rows(n, "hnsw", m, speedup, true);

    if (n >= 100000) {
      acceptance_ok = acceptance_ok && speedup >= 5.0 && m.recall >= 0.9;
    }
    // Batched-search bars (hnsw at >= 100k): the multi-query path must return
    // bit-identical (id, score) lists and grow the reusable scratch zero
    // times after warm-up.
    if (flags.batch && flags.acceptance && n >= 100000 && m.batch_measured) {
      std::printf("  %-9zu %-10s batch: identical=%d  zero_alloc=%d\n", n, "hnsw",
                  m.batch_identical, m.batch_zero_alloc);
      if (!m.batch_identical || !m.batch_zero_alloc) {
        acceptance_ok = false;
      }
    }

    // Snapshot story at the largest size: image size, save and restore wall
    // time, and a search-identity spot check.
    if (n == largest) {
      auto* hnsw = dynamic_cast<HnswIndex*>(index.get());
      if (hnsw != nullptr) {
        ByteWriter blob;
        const auto save_start = std::chrono::steady_clock::now();
        hnsw->SaveGraph(&blob);
        const double save_s = SecondsSince(save_start);
        HnswIndex restored(hnsw->config());
        const auto load_start = std::chrono::steady_clock::now();
        ByteReader image(blob.bytes());
        const bool loaded = restored.LoadGraph(&image, blob.size());
        const double load_s = SecondsSince(load_start);
        bool identical = loaded;
        if (loaded) {
          for (size_t q = 0; q < std::min<size_t>(queries.size(), 10); ++q) {
            const auto a = hnsw->Search(queries[q], flags.k);
            const auto b = restored.Search(queries[q], flags.k);
            identical = identical && a.size() == b.size();
            for (size_t i = 0; identical && i < a.size(); ++i) {
              identical = a[i].id == b[i].id;
            }
          }
        }
        std::printf(
            "  %-9zu %-10s snapshot: %.1f MB  save %.3f s  restore %.3f s  round-trip %s\n", n,
            "", static_cast<double>(blob.size()) / (1024.0 * 1024.0), save_s, load_s,
            identical ? "ok" : "MISMATCH");
        if (flags.acceptance) {
          acceptance_ok = acceptance_ok && identical;
        }
      }
    }
  }

  benchutil::PrintNote(
      "acceptance bars (>= 100k vectors): hnsw >= 5x flat with recall@10 >= 0.9; with "
      "--acceptance, the graph image round-trips; with --batch, SearchBatch on hnsw returns "
      "bit-identical results with zero steady-state scratch growth");
  benchutil::PrintNote(
      "kmeans above --kmeans-cap is skipped: incremental Lloyd rebuilds dominate runtime");
  if (!flags.json_out.empty()) {
    const Status written = WriteBenchRun(flags.json_out, bench);
    if (!written.ok()) {
      std::fprintf(stderr, "bench json: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("\nbench json: wrote %s (%zu metrics)\n", flags.json_out.c_str(),
                bench.metrics.size());
  }
  if (!acceptance_ok) {
    benchutil::PrintNote("ACCEPTANCE FAILED");
    return 1;
  }
  return 0;
}
