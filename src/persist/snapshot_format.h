// On-disk snapshot container format (versioned, checksummed, sectioned).
//
// Layout (all integers little-endian):
//
//   [0]  header:  magic u64 ("ICCSNAP1"), format_version u32,
//                 section_count u32, toc_crc32 u32 (CRC-32 of the TOC bytes)
//   [24] TOC:     section_count x { id u32, offset u64, size u64, crc32 u32 }
//   [..] payload: section bytes at the TOC offsets (offsets are absolute)
//
// Every section carries its own CRC-32, so truncation or bit corruption
// anywhere in the file is detected before a single byte is interpreted; the
// TOC itself is covered by toc_crc32. A reader rejects unknown
// format_versions outright (the version covers the section encodings, not
// just the container); unknown *section ids* inside a known version are
// skipped, which is how older readers tolerate newer writers within a
// version's lifetime.
//
// Crash safety is the writer's job: SnapshotWriter::WriteToFile streams the
// image into `path + ".tmp"` (header and TOC reserved first, patched once
// every section's size and CRC is known), fsyncs it, and renames it over
// `path` (then fsyncs the directory), so `path` always holds either the
// previous complete snapshot or the new one — never a torn write.
#ifndef SRC_PERSIST_SNAPSHOT_FORMAT_H_
#define SRC_PERSIST_SNAPSHOT_FORMAT_H_

#include <cstdint>

namespace iccache {

// "ICCSNAP1" as a little-endian u64.
inline constexpr uint64_t kSnapshotMagic = 0x3150414e53434349ull;

// Bump when any section encoding changes incompatibly.
// v2: kDriver section gained the maintenance epoch counter.
inline constexpr uint32_t kSnapshotFormatVersion = 2;

// Section ids. A snapshot holds any subset; readers restore what they
// recognize and have a consumer for.
enum class SnapshotSection : uint32_t {
  kMeta = 1,      // pool summary: counts, bytes, store geometry, sim time
  kExamples = 2,  // every example's full lifecycle record + embedding
  kIndex = 3,     // native retrieval-index image (HNSW graph per shard)
  kSelector = 4,  // dynamic threshold + adaptation grid accounting
  kManager = 5,   // maintenance cursor (last decay time)
  kProxy = 6,     // stage-2 proxy model weights
  kRouter = 7,    // bandit posteriors, load EMA, exploration RNG
  kDriver = 8,    // ServingDriver cursors: replay/checkpoint time, generator RNG
  kService = 9,   // IcCacheService: feedback RNG, baseline-quality EMA
  // Added within v2 — readers that predate it skip unknown section ids.
  kStage0 = 10,   // stage-0 response cache: entries + embeddings, learned threshold
};

const char* SnapshotSectionName(SnapshotSection section);

}  // namespace iccache

#endif  // SRC_PERSIST_SNAPSHOT_FORMAT_H_
