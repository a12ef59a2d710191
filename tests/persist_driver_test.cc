// Driver-level persistence tests (concurrency label; runs under TSan):
//
//  * restore-then-serve determinism — a driver restored from a snapshot
//    produces BYTE-IDENTICAL decisions to the uninterrupted driver, at 1 and
//    8 threads, HNSW backend, with the full lifecycle (admission, gain
//    accounting, maintenance, eviction, off-peak replay) enabled;
//  * checkpoint-while-serving — snapshot encoding runs concurrently with
//    store churn (the TSan-verified surface);
//  * kill-between-checkpoints crash recovery through the driver's periodic
//    checkpointer;
//  * the link step at restore: a native graph load leaves nothing to link,
//    and a rebuilt pool answers the same whether RestoreSnapshot's parallel
//    pass or the first search links it;
//  * the exact bytes of two fixed states' snapshots, pinned;
//  * writes that fail mid-section (RLIMIT_FSIZE): the previous snapshot
//    survives, the store's locks are released, and a failed driver
//    checkpoint changes no decision.
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <ios>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/binio.h"
#include "src/common/simd.h"
#include "src/common/thread_pool.h"
#include "src/core/service.h"
#include "src/core/sharded_cache.h"
#include "src/persist/pool_codec.h"
#include "src/persist/snapshot.h"
#include "src/serving/driver.h"
#include "src/workload/dataset.h"

namespace iccache {
namespace {

constexpr uint64_t kSeed = 0x9e5157ull;

class PersistDriverTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& tag) {
    const std::string path = testing::TempDir() + "iccache_pdriver_" + tag + "_" +
                             std::to_string(::getpid()) + ".snap";
    paths_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const std::string& path : paths_) {
      std::remove(path.c_str());
      std::remove((path + ".tmp").c_str());
    }
  }

  std::vector<std::string> paths_;
};

DatasetProfile SmallProfile() {
  DatasetProfile profile = GetDatasetProfile(DatasetId::kLmsysChat);
  profile.example_pool_size = 300;
  profile.num_topics = 60;
  return profile;
}

std::vector<Request> Workload(size_t approx_requests) {
  TraceConfig trace;
  trace.kind = TraceKind::kPoisson;
  trace.mean_rps = 4.0;
  trace.duration_s = static_cast<double>(approx_requests) / trace.mean_rps;
  trace.seed = kSeed ^ 0x7ace;
  return ServingDriver::MakeWorkload(SmallProfile(), trace, kSeed ^ 0x9e4);
}

// Full-lifecycle configuration on the acceptance surface: HNSW stage-1,
// admission + maintenance + eviction + off-peak replay all active, cadences
// tightened so every lifecycle path fires within a short trace.
DriverConfig LifecycleConfig(size_t num_threads) {
  DriverConfig config;
  config.num_threads = num_threads;
  config.batch_window = 32;
  config.cache.num_shards = 4;
  config.cache.cache.retrieval.kind = RetrievalBackendKind::kHnsw;
  config.cache.cache.capacity_bytes = 96 * 1024;  // tight: forces eviction
  config.manager.decay_interval_s = 20.0;
  config.replay_min_interval_s = 30.0;
  config.replay_load_threshold = 1e9;  // saturated sim cluster: keep replay on
  config.seed = kSeed;
  return config;
}

std::unique_ptr<ServingDriver> MakeDriver(const ModelCatalog& catalog, DriverConfig config,
                                          size_t seed_pool = 200) {
  auto driver = std::make_unique<ServingDriver>(config, &catalog);
  QueryGenerator seeder(SmallProfile(), kSeed ^ 0x5eedb);
  for (size_t i = 0; i < seed_pool; ++i) {
    driver->SeedExample(seeder.Next(), 0.0);
  }
  return driver;
}

void ExpectSameDecisions(const std::vector<DriverDecision>& a,
                         const std::vector<DriverDecision>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].request_id, b[i].request_id) << "at " << i;
    EXPECT_EQ(a[i].model_name, b[i].model_name) << "at " << i;
    EXPECT_EQ(a[i].offloaded, b[i].offloaded) << "at " << i;
    EXPECT_EQ(a[i].num_examples, b[i].num_examples) << "at " << i;
    // Byte-identical: the generated latent quality is a bit-for-bit match,
    // which only holds if every RNG stream and adaptive weight resumed
    // exactly.
    EXPECT_EQ(a[i].latent_quality, b[i].latent_quality) << "at " << i;
  }
}

// The acceptance criterion: driver B snapshots after the prefix; a fresh
// driver C restores and serves the suffix; its decisions must be
// byte-identical to uninterrupted driver A serving the same suffix — at any
// thread count.
TEST_F(PersistDriverTest, RestoredPoolServesIdenticallyHnswFullLifecycle) {
  const std::vector<Request> requests = Workload(480);
  const size_t split = 256;  // batch-window multiple
  const std::vector<Request> prefix(requests.begin(), requests.begin() + split);
  const std::vector<Request> suffix(requests.begin() + split, requests.end());
  ModelCatalog catalog;

  for (size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string path = TempPath("determinism_t" + std::to_string(threads));

    // A: uninterrupted — keeps its pool in memory across the two segments.
    auto driver_a = MakeDriver(catalog, LifecycleConfig(threads));
    const DriverReport report_a1 = driver_a->Run(prefix);
    ASSERT_GT(report_a1.maintenance_runs, 0u);
    ASSERT_GT(report_a1.replay_passes, 0u);
    const DriverReport report_a2 = driver_a->Run(suffix);

    // B: identical up to the split, then snapshot + "process exit".
    auto driver_b = MakeDriver(catalog, LifecycleConfig(threads));
    const DriverReport report_b1 = driver_b->Run(prefix);
    ExpectSameDecisions(report_a1.decisions, report_b1.decisions);
    ASSERT_TRUE(driver_b->SaveSnapshot(path).ok());
    const int64_t bytes_at_snapshot = driver_b->cache().used_bytes();
    driver_b.reset();

    // C: restarted process, warm start from the snapshot.
    DriverConfig config_c = LifecycleConfig(threads);
    config_c.snapshot_path = path;
    config_c.restore_on_start = true;
    auto driver_c = std::make_unique<ServingDriver>(config_c, &catalog);  // NO re-seeding
    ASSERT_TRUE(driver_c->restore_status().ok()) << driver_c->restore_status().ToString();
    ASSERT_TRUE(driver_c->restored_from_snapshot());
    // HNSW happy path: native graph load, no rebuild; bytes replay exactly.
    EXPECT_TRUE(driver_c->restore_report().native_index_load);
    EXPECT_EQ(driver_c->cache().used_bytes(), bytes_at_snapshot);

    const DriverReport report_c = driver_c->Run(suffix);
    ExpectSameDecisions(report_a2.decisions, report_c.decisions);
    EXPECT_EQ(report_a2.offloaded_requests, report_c.offloaded_requests);
    EXPECT_EQ(report_a2.admitted_examples, report_c.admitted_examples);
    EXPECT_EQ(report_a2.evicted_examples, report_c.evicted_examples);
    EXPECT_EQ(report_a2.maintenance_runs, report_c.maintenance_runs);
    EXPECT_EQ(report_a2.replay_passes, report_c.replay_passes);
    EXPECT_EQ(driver_a->cache().used_bytes(), driver_c->cache().used_bytes());
    EXPECT_EQ(driver_a->cache().AllIds(), driver_c->cache().AllIds());
  }
}

// Thread-count invariance of the restored path: restoring the same snapshot
// and serving at 1 vs 8 threads yields identical decisions.
TEST_F(PersistDriverTest, RestoredDriverIsThreadCountInvariant) {
  const std::vector<Request> requests = Workload(320);
  const size_t split = 160;
  const std::vector<Request> prefix(requests.begin(), requests.begin() + split);
  const std::vector<Request> suffix(requests.begin() + split, requests.end());
  ModelCatalog catalog;
  const std::string path = TempPath("thread_invariance");

  auto writer = MakeDriver(catalog, LifecycleConfig(4));
  writer->Run(prefix);
  ASSERT_TRUE(writer->SaveSnapshot(path).ok());
  writer.reset();

  std::vector<DriverReport> reports;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    DriverConfig config = LifecycleConfig(threads);
    config.snapshot_path = path;
    config.restore_on_start = true;
    ServingDriver driver(config, &catalog);
    ASSERT_TRUE(driver.restored_from_snapshot());
    reports.push_back(driver.Run(suffix));
  }
  ExpectSameDecisions(reports[0].decisions, reports[1].decisions);
}

// Checkpoint-while-serving: one thread repeatedly encodes + atomically
// writes pool snapshots while a ThreadPool churns admissions, mutations,
// removals, and searches against the same sharded store. TSan must see no
// races (every example is copied out under its shard lock).
TEST_F(PersistDriverTest, ConcurrentCheckpointWhileServing) {
  const std::string path = TempPath("concurrent");
  auto embedder = std::make_shared<HashingEmbedder>();
  ShardedCacheConfig config;
  config.num_shards = 8;
  config.cache.retrieval.kind = RetrievalBackendKind::kHnsw;
  ShardedExampleCache cache(embedder, config);

  // Seed so early checkpoints see a populated pool.
  for (uint64_t i = 0; i < 64; ++i) {
    Request request;
    request.id = i;
    request.text = "seed example text " + std::to_string(i);
    request.input_tokens = 24;
    cache.Put(request, "resp", 0.7, 0.9, 40, 0.0);
  }

  std::atomic<bool> stop{false};
  std::atomic<size_t> checkpoints{0};
  std::thread checkpointer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      SnapshotWriter writer;
      EncodePoolSections(cache, {}, /*sim_time=*/0.0, &writer);
      ASSERT_TRUE(writer.WriteToFile(path).ok());
      checkpoints.fetch_add(1, std::memory_order_relaxed);
    }
  });

  {
    ThreadPool pool(4);
    for (int worker = 0; worker < 4; ++worker) {
      pool.Submit([&cache, worker] {
        Rng rng(kSeed + static_cast<uint64_t>(worker));
        for (int i = 0; i < 400; ++i) {
          Request request;
          request.id = 10000 + static_cast<uint64_t>(worker) * 1000 + i;
          request.text = "worker " + std::to_string(worker) + " churn " + std::to_string(i);
          request.input_tokens = 16 + i % 32;
          const uint64_t id = cache.Put(request, "resp", rng.Uniform(), 0.8, 30, 1.0 * i);
          if (id != 0 && i % 3 == 0) {
            cache.UpdateExample(id, [](Example& example) { example.replay_gain_ema += 0.1; });
          }
          if (id != 0 && i % 7 == 0) {
            cache.Remove(id);
          }
          cache.FindSimilar(request, 5);
        }
      });
    }
    pool.Wait();
  }
  stop.store(true, std::memory_order_release);
  checkpointer.join();
  ASSERT_GT(checkpoints.load(), 0u);

  // The LAST MID-CHURN snapshot must be internally consistent — the export
  // is one cut, so the meta byte/record counts agree with the records, and
  // every id the restored (natively loaded) index returns resolves to an
  // example. A torn cut would leave records the graph image lacks (silently
  // unretrievable) or ids the records lack.
  {
    SnapshotReader mid_reader;
    ASSERT_TRUE(mid_reader.Open(path).ok());
    PoolMeta meta;
    ASSERT_TRUE(DecodePoolMeta(mid_reader, &meta).ok());
    uint64_t walked = 0;
    int64_t walked_bytes = 0;
    ASSERT_TRUE(ForEachSnapshotExample(mid_reader, [&](const Example& example,
                                                       const std::vector<float>& embedding) {
      (void)embedding;
      ++walked;
      walked_bytes += example.SizeBytes();
    }).ok());
    EXPECT_EQ(walked, meta.example_count);
    EXPECT_EQ(walked_bytes, meta.used_bytes);

    ShardedExampleCache mid_restored(embedder, config);
    PoolRestoreReport mid_report;
    ASSERT_TRUE(DecodePoolSections(mid_reader, &mid_restored, {}, &mid_report).ok());
    ASSERT_TRUE(mid_report.native_index_load);
    EXPECT_EQ(mid_restored.size(), meta.example_count);
    EXPECT_EQ(mid_restored.used_bytes(), meta.used_bytes);
    for (uint64_t q = 0; q < 32; ++q) {
      Request probe;
      probe.id = 90000 + q;
      probe.text = "worker 2 churn " + std::to_string(q * 9);
      for (const SearchResult& result : mid_restored.FindSimilar(probe, 8)) {
        Example example;
        EXPECT_TRUE(mid_restored.Snapshot(result.id, &example))
            << "index returned id " << result.id << " with no example record";
      }
    }
  }

  // The final published snapshot is complete and restorable.
  SnapshotWriter final_writer;
  EncodePoolSections(cache, {}, 0.0, &final_writer);
  ASSERT_TRUE(final_writer.WriteToFile(path).ok());
  ShardedExampleCache restored(embedder, config);
  SnapshotReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  PoolRestoreReport report;
  ASSERT_TRUE(DecodePoolSections(reader, &restored, {}, &report).ok());
  EXPECT_EQ(restored.size(), cache.size());
  EXPECT_EQ(restored.used_bytes(), cache.used_bytes());
}

// Periodic checkpoints through the driver + kill-between-checkpoints: a torn
// staging file from the interrupted NEXT checkpoint must not prevent
// restoring the last published one.
TEST_F(PersistDriverTest, PeriodicCheckpointsSurviveTornNextWrite) {
  const std::string path = TempPath("periodic");
  ModelCatalog catalog;
  DriverConfig config = LifecycleConfig(2);
  config.snapshot_path = path;
  config.checkpoint_interval_s = 15.0;  // trace seconds; trace spans ~120 s

  auto driver = MakeDriver(catalog, config);
  const DriverReport report = driver->Run(Workload(480));
  ASSERT_GT(report.checkpoints_taken, 1u);
  ASSERT_GE(report.checkpoint_p99_ms, report.checkpoint_p50_ms);
  driver.reset();

  // What the last published checkpoint recorded (it was taken mid-trace, so
  // it need not match the end-of-run pool).
  SnapshotReader published;
  ASSERT_TRUE(published.Open(path).ok());
  PoolMeta meta;
  ASSERT_TRUE(DecodePoolMeta(published, &meta).ok());

  // Crash mid-way through the checkpoint AFTER the last published one.
  {
    std::FILE* f = std::fopen((path + ".tmp").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("torn half-written checkpoint", f);
    std::fclose(f);
  }

  DriverConfig recovered_config = LifecycleConfig(2);
  recovered_config.snapshot_path = path;
  recovered_config.restore_on_start = true;
  ServingDriver recovered(recovered_config, &catalog);
  ASSERT_TRUE(recovered.restore_status().ok()) << recovered.restore_status().ToString();
  ASSERT_TRUE(recovered.restored_from_snapshot());
  EXPECT_EQ(recovered.cache().size(), meta.example_count);
  EXPECT_EQ(recovered.cache().used_bytes(), meta.used_bytes);
  EXPECT_GT(recovered.restore_report().sim_time, 0.0);
}

// Seeding appends; SaveSnapshot links every shard. A native restore has
// nothing to link, so Run's first link pass submits no task. Restoring into
// fewer shards rejects the graph image and rebuilds by appending: the pool
// must answer FindSimilar the same whether RestoreSnapshot's parallel pass
// or the first search links it.
TEST_F(PersistDriverTest, LinkStepAtRestore) {
  ModelCatalog catalog;
  DriverConfig config;
  config.num_threads = 4;
  config.cache.num_shards = 8;
  config.cache.cache.retrieval.kind = RetrievalBackendKind::kHnsw;
  config.seed = kSeed;
  const std::string path = TempPath("link");
  {
    auto seeded = MakeDriver(catalog, config);
    EXPECT_GT(seeded->cache().pending(), 0u);
    ASSERT_TRUE(seeded->SaveSnapshot(path).ok());
    EXPECT_EQ(seeded->cache().pending(), 0u);
  }

  ServingDriver native(config, &catalog);
  ASSERT_TRUE(native.RestoreSnapshot(path).ok());
  EXPECT_TRUE(native.restore_report().native_index_load);
  EXPECT_EQ(native.cache().pending(), 0u);
  ThreadPool pool(2);
  EXPECT_EQ(native.cache().Flush(&pool), 0u);

  DriverConfig fewer = config;
  fewer.cache.num_shards = 4;
  ServingDriver linked(fewer, &catalog);
  ASSERT_TRUE(linked.RestoreSnapshot(path).ok());
  EXPECT_FALSE(linked.restore_report().native_index_load);
  EXPECT_EQ(linked.cache().pending(), 0u);

  ServingDriver lazy(fewer, &catalog);
  SnapshotReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  PoolRestoreReport report;
  ASSERT_TRUE(DecodePoolSections(reader, &lazy.cache(), {}, &report).ok());
  EXPECT_FALSE(report.native_index_load);
  EXPECT_GT(lazy.cache().pending(), 0u);

  QueryGenerator probes(SmallProfile(), kSeed ^ 0x9a0b);
  for (int q = 0; q < 24; ++q) {
    const Request query = probes.Next();
    const auto a = linked.cache().FindSimilar(query, 10);
    const auto b = lazy.cache().FindSimilar(query, 10);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << "probe " << q << " rank " << i;
      EXPECT_EQ(a[i].score, b[i].score) << "probe " << q << " rank " << i;
    }
  }
  EXPECT_EQ(lazy.cache().pending(), 0u);
}

// Size and CRC-32 of a whole file.
struct FileDigest {
  uint64_t size = 0;
  uint32_t crc = 0;
};

FileDigest DigestFile(const std::string& path) {
  FileDigest digest;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return digest;
  }
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    digest.crc = Crc32(buf, n, digest.crc);
    digest.size += n;
  }
  std::fclose(f);
  return digest;
}

// Pinned whole-file digests of two fixed states, one per kernel level (the
// AVX2 and scalar similarity kernels round differently, so the pools they
// learn differ). The constants were measured with a writer that built the
// whole image in memory before writing it, so a streaming writer that moves
// any byte of format v2 fails here.
struct PinnedDigest {
  FileDigest avx2;
  FileDigest scalar;
  const FileDigest& active() const {
    return simd::ActiveKernelLevel() == simd::KernelLevel::kAvx2 ? avx2 : scalar;
  }
};

void ExpectPinned(const std::string& path, const PinnedDigest& pinned) {
  const FileDigest digest = DigestFile(path);
  EXPECT_EQ(digest.size, pinned.active().size);
  EXPECT_EQ(digest.crc, pinned.active().crc) << std::hex << "crc 0x" << digest.crc;
}

// An 8-shard hnsw driver with the stage-0 tier on, after a short run: every
// section the driver writes (meta, examples, per-shard graph images, the
// component and stage-0 sections, the driver cursors).
TEST_F(PersistDriverTest, DriverSnapshotBytesMatchPinnedDigest) {
  const std::string path = TempPath("pinned_driver");
  ModelCatalog catalog;
  DriverConfig config;
  config.num_threads = 2;
  config.batch_window = 32;
  config.cache.num_shards = 8;
  config.cache.cache.retrieval.kind = RetrievalBackendKind::kHnsw;
  config.stage0.enabled = true;
  config.seed = kSeed;
  auto driver = MakeDriver(catalog, config);
  driver->Run(Workload(240));
  ASSERT_GT(driver->stage0().size(), 0u);
  ASSERT_TRUE(driver->SaveSnapshot(path).ok());
  ExpectPinned(path, PinnedDigest{{663765, 0xc2af1c52u}, {663765, 0xb5a03f52u}});
}

// IcCacheService on the flat backend: one shard, no native index section,
// and the service's own section.
TEST_F(PersistDriverTest, ServiceSnapshotBytesMatchPinnedDigest) {
  const std::string path = TempPath("pinned_service");
  ModelCatalog catalog;
  GenerationSimulator generator(kSeed);
  ServiceConfig config;
  config.cache.retrieval.kind = RetrievalBackendKind::kFlat;
  IcCacheService service(config, &catalog, &generator, std::make_shared<HashingEmbedder>());
  QueryGenerator history(SmallProfile(), kSeed ^ 0x5e7);
  for (int i = 0; i < 120; ++i) {
    service.SeedExample(history.Next(), 0.0);
  }
  for (int i = 0; i < 80; ++i) {
    service.ServeRequest(history.Next(), static_cast<double>(i));
  }
  ASSERT_TRUE(service.SaveSnapshot(path).ok());
  ExpectPinned(path, PinnedDigest{{148482, 0x9723030eu}, {148482, 0x08be33bdu}});
}

// Caps the size of every file this process writes (RLIMIT_FSIZE) with
// SIGXFSZ ignored, so a write past the cap fails with EFBIG instead of
// killing the process — a disk-full stand-in that needs no injection seam.
// Restores both on destruction.
class FileSizeCap {
 public:
  explicit FileSizeCap(rlim_t bytes) {
    previous_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    getrlimit(RLIMIT_FSIZE, &previous_);
    rlimit capped = previous_;
    capped.rlim_cur = bytes;
    ok_ = setrlimit(RLIMIT_FSIZE, &capped) == 0;
  }
  ~FileSizeCap() {
    setrlimit(RLIMIT_FSIZE, &previous_);
    std::signal(SIGXFSZ, previous_handler_);
  }
  FileSizeCap(const FileSizeCap&) = delete;
  FileSizeCap& operator=(const FileSizeCap&) = delete;
  bool ok() const { return ok_; }

 private:
  rlimit previous_{};
  void (*previous_handler_)(int) = SIG_DFL;
  bool ok_ = false;
};

bool FileExists(const std::string& path) { return ::access(path.c_str(), F_OK) == 0; }

// A write that fails mid-section reports a Status, removes its temp file,
// leaves the previous snapshot restorable, and releases every shard lock.
TEST_F(PersistDriverTest, FailedWriteKeepsPreviousSnapshotAndReleasesLocks) {
  const std::string path = TempPath("failed_write");
  auto embedder = std::make_shared<HashingEmbedder>();
  ShardedCacheConfig config;
  config.num_shards = 8;
  config.cache.retrieval.kind = RetrievalBackendKind::kHnsw;
  ShardedExampleCache cache(embedder, config);
  const auto put = [&cache](uint64_t i) {
    Request request;
    request.id = i;
    request.text = "capped write example " + std::to_string(i);
    request.input_tokens = 24;
    return cache.Put(request, "resp", 0.7, 0.9, 40, 0.0);
  };
  for (uint64_t i = 0; i < 400; ++i) {
    put(i);
  }
  SnapshotWriter first;
  EncodePoolSections(cache, {}, /*sim_time=*/1.0, &first);
  ASSERT_TRUE(first.WriteToFile(path).ok());
  const FileDigest published = DigestFile(path);
  for (uint64_t i = 400; i < 500; ++i) {
    put(i);
  }

  Status status;
  {
    // Half the published size: the next image fails inside its sections.
    FileSizeCap cap(published.size / 2);
    ASSERT_TRUE(cap.ok());
    SnapshotWriter second;
    EncodePoolSections(cache, {}, /*sim_time=*/2.0, &second);
    status = second.WriteToFile(path);
  }
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find(".tmp"), std::string::npos) << status.ToString();
  EXPECT_FALSE(FileExists(path + ".tmp"));
  const FileDigest after = DigestFile(path);
  EXPECT_EQ(after.size, published.size);
  EXPECT_EQ(after.crc, published.crc);
  SnapshotReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  ShardedExampleCache restored(embedder, config);
  PoolRestoreReport report;
  ASSERT_TRUE(DecodePoolSections(reader, &restored, {}, &report).ok());
  EXPECT_EQ(report.examples, 400u);
  EXPECT_DOUBLE_EQ(report.sim_time, 1.0);

  // A shard lock left held by the failed cut would block this writer.
  std::thread writer([&put] { EXPECT_NE(put(10000), 0u); });
  writer.join();
  EXPECT_EQ(cache.size(), 501u);
}

// A driver checkpoint that cannot be written counts as failed and changes
// nothing the run decides: the decisions match a run whose checkpoints (at
// the same points, which flush pending maintenance first) all succeed.
TEST_F(PersistDriverTest, FailedCheckpointsLeaveDecisionsUnchanged) {
  ModelCatalog catalog;
  DriverConfig config = LifecycleConfig(2);
  config.checkpoint_interval_s = 15.0;  // trace seconds; trace spans ~120 s
  config.snapshot_path = TempPath("written_checkpoint");
  auto written = MakeDriver(catalog, config);
  const DriverReport reference = written->Run(Workload(480));
  ASSERT_GT(reference.checkpoints_taken, 1u);
  ASSERT_EQ(written->checkpointer().failed(), 0u);

  const std::string path = TempPath("failed_checkpoint");
  config.snapshot_path = path;
  auto driver = MakeDriver(catalog, config);
  DriverReport report;
  {
    FileSizeCap cap(4096);  // far below any checkpoint of this pool
    ASSERT_TRUE(cap.ok());
    report = driver->Run(Workload(480));
  }
  EXPECT_EQ(driver->checkpointer().failed(), written->checkpointer().taken());
  EXPECT_EQ(driver->checkpointer().taken(), 0u);
  EXPECT_EQ(report.checkpoints_taken, 0u);
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));
  ExpectSameDecisions(reference.decisions, report.decisions);
}

// restore_on_start with no file is a cold start, not an error; with a
// corrupted file it surfaces the failure and serves cold.
TEST_F(PersistDriverTest, RestoreOnStartColdAndCorrupt) {
  ModelCatalog catalog;
  {
    DriverConfig config = LifecycleConfig(1);
    config.snapshot_path = TempPath("nonexistent");
    config.restore_on_start = true;
    ServingDriver driver(config, &catalog);
    EXPECT_TRUE(driver.restore_status().ok());
    EXPECT_FALSE(driver.restored_from_snapshot());
    EXPECT_EQ(driver.cache().size(), 0u);
  }
  {
    const std::string path = TempPath("garbage");
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a snapshot", f);
    std::fclose(f);
    DriverConfig config = LifecycleConfig(1);
    config.snapshot_path = path;
    config.restore_on_start = true;
    ServingDriver driver(config, &catalog);
    EXPECT_FALSE(driver.restore_status().ok());
    EXPECT_FALSE(driver.restored_from_snapshot());
  }
}

}  // namespace
}  // namespace iccache
