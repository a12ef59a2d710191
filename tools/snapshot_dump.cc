// snapshot_dump: inspect an IC-Cache pool snapshot without loading it into a
// serving process — the on-call tool for "what is in this checkpoint, and is
// it intact?". Doubles as the format smoke-check in ci.sh (any integrity
// failure exits non-zero before a single byte is interpreted).
//
//   $ ./snapshot_dump pool.snap
//   snapshot: pool.snap (13412 bytes, format v1)
//   sections:
//     meta          37 B   crc 0x1f2e3d4c
//     examples   11984 B   crc 0x...
//     ...
//   pool: 105 examples, 58 KB, 4 shards, dim 128, native hnsw image, t=93.1s
//   domains:
//     domain 0    71 examples      41203 B
//     domain 2    34 examples      17455 B
#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/persist/pool_codec.h"
#include "src/persist/snapshot.h"

int main(int argc, char** argv) {
  using namespace iccache;
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <snapshot-file>\n", argv[0]);
    return 2;
  }
  const std::string path = argv[1];

  SnapshotReader reader;
  const Status open = reader.Open(path);
  if (!open.ok()) {
    std::fprintf(stderr, "snapshot_dump: %s\n", open.ToString().c_str());
    return 1;
  }
  std::printf("snapshot: %s (%" PRIu64 " bytes, format v%u, %zu sections)\n", path.c_str(),
              reader.file_size(), reader.format_version(), reader.sections().size());
  std::printf("sections:\n");
  for (const SnapshotSectionInfo& info : reader.sections()) {
    std::printf("  %-10s %10" PRIu64 " B   crc 0x%08x\n", SnapshotSectionName(info.id),
                info.size, info.crc32);
  }

  PoolMeta meta;
  const Status meta_status = DecodePoolMeta(reader, &meta);
  if (!meta_status.ok()) {
    std::fprintf(stderr, "snapshot_dump: %s\n", meta_status.ToString().c_str());
    return 1;
  }
  std::printf("pool: %" PRIu64 " examples, %.1f KB, %" PRIu64 " shard%s, dim %u, %s, t=%.1fs\n",
              meta.example_count, static_cast<double>(meta.used_bytes) / 1024.0,
              meta.shard_count, meta.shard_count == 1 ? "" : "s", meta.embed_dim,
              meta.has_native_index != 0 ? "native hnsw index image"
                                         : "no native index (rebuild on restore)",
              meta.sim_time);

  // Walk every example record (this re-validates the full encoding) and
  // aggregate per-privacy-domain usage.
  struct DomainUsage {
    uint64_t examples = 0;
    int64_t bytes = 0;
  };
  std::map<uint32_t, DomainUsage> domains;
  uint64_t walked = 0;
  int64_t walked_bytes = 0;
  const Status walk = ForEachSnapshotExample(
      reader, [&domains, &walked, &walked_bytes](const Example& example,
                                                 const std::vector<float>& embedding) {
        (void)embedding;
        ++walked;
        walked_bytes += example.SizeBytes();
        DomainUsage& usage = domains[example.request.privacy_domain];
        ++usage.examples;
        usage.bytes += example.SizeBytes();
      });
  if (!walk.ok()) {
    std::fprintf(stderr, "snapshot_dump: %s\n", walk.ToString().c_str());
    return 1;
  }
  if (walked != meta.example_count || walked_bytes != meta.used_bytes) {
    std::fprintf(stderr,
                 "snapshot_dump: meta/examples disagree (meta %" PRIu64 " examples / %lld B, "
                 "walked %" PRIu64 " / %lld B)\n",
                 meta.example_count, static_cast<long long>(meta.used_bytes), walked,
                 static_cast<long long>(walked_bytes));
    return 1;
  }
  std::printf("domains:\n");
  for (const auto& [domain, usage] : domains) {
    std::printf("  domain %-4u %8" PRIu64 " examples %10lld B\n", domain, usage.examples,
                static_cast<long long>(usage.bytes));
  }

  // Stage-0 response-cache section (present only when the writer served with
  // the stage-0 tier enabled).
  if (reader.Section(SnapshotSection::kStage0) != nullptr) {
    Stage0Summary stage0;
    const Status stage0_status = DecodeStage0Summary(reader, &stage0);
    if (!stage0_status.ok()) {
      std::fprintf(stderr, "snapshot_dump: %s\n", stage0_status.ToString().c_str());
      return 1;
    }
    std::printf("stage0: %" PRIu64 " cached responses, %.1f KB, hit threshold %.3f "
                "(%" PRIu64 " requests seen), %s\n",
                stage0.entry_count, static_cast<double>(stage0.used_bytes) / 1024.0,
                stage0.hit_threshold, stage0.requests_seen,
                stage0.has_native_index != 0
                    ? "older writer's hnsw graph image (skipped: exact index rebuilt on restore)"
                    : "exact index rebuilt on restore");
  }
  std::printf("integrity: OK (all section CRCs verified, %" PRIu64 " records walked)\n", walked);
  return 0;
}
