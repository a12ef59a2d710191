// SnapshotWriter / SnapshotReader: the container half of the persistence
// subsystem (see snapshot_format.h for the byte layout and pool_codec.h for
// the section encodings).
//
//   SnapshotWriter writer;
//   writer.AddSection(SnapshotSection::kManager, bytes);           // encoded
//   writer.AddStreamedSections({SnapshotSection::kExamples},       // encoded
//                              [&](SnapshotSectionStream* out) {  // while
//                                ByteWriter* w = out->Begin(SnapshotSection::kExamples);
//                                ...                               // writing
//                                return Status::Ok();
//                              });
//   Status s = writer.WriteToFile("/var/lib/iccache/pool.snap");  // atomic
//
//   SnapshotReader reader;
//   Status s = reader.Open("/var/lib/iccache/pool.snap");  // validates CRCs
//   SectionBuffer examples;
//   s = reader.Section(SnapshotSection::kExamples, &examples);  // re-validates
//
// WriteToFile streams: it reserves the header and TOC at `path + ".tmp"`,
// runs each section's encoder straight into the file through one buffer of
// kSnapshotFlushBytes (tracking each section's size and CRC-32 as it goes),
// patches the TOC, then fsyncs, renames over `path`, and fsyncs the parent
// directory, so a kill at any instant leaves `path` holding either the
// previous complete snapshot or the new one. Open verifies the magic,
// format version, TOC checksum, and every section checksum in one buffered
// pass, and keeps the file open; Section loads one section at a time and
// checks its CRC again, so a file that changes after Open yields an error,
// never unverified bytes.
#ifndef SRC_PERSIST_SNAPSHOT_H_
#define SRC_PERSIST_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/binio.h"
#include "src/common/status.h"
#include "src/persist/snapshot_format.h"

namespace iccache {

// Payload bytes a save buffers before handing them to the file.
inline constexpr size_t kSnapshotFlushBytes = size_t{256} << 10;

struct SnapshotSectionInfo {
  SnapshotSection id;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint32_t crc32 = 0;
};

// Handed to a streamed-section encoder while the image is written.
class SnapshotSectionStream {
 public:
  // Ends the previous section and starts `id`, which must be the image's
  // next section (a misordered id fails the write); returns the writer for
  // its payload, valid until the next Begin or the encoder's return.
  virtual ByteWriter* Begin(SnapshotSection id) = 0;

 protected:
  ~SnapshotSectionStream() = default;
};

class SnapshotWriter {
 public:
  using StreamFn = std::function<Status(SnapshotSectionStream*)>;

  // Adds a section whose payload is already encoded.
  void AddSection(SnapshotSection id, std::string bytes);

  // Adds sections `ids` (ascending) whose payloads `write` encodes during
  // the write, calling Begin for each id in turn. The ids must be adjacent
  // in the image, so one call can write them all — under one lock, say.
  // Whatever `write` reads must outlive the WriteToFile / Encode call.
  void AddStreamedSections(std::vector<SnapshotSection> ids, StreamFn write);

  // Runs every encoder into one contiguous image (tests, byte comparisons).
  StatusOr<std::string> Encode();

  // Streams the image to `path` atomically (temp file + fsync + rename +
  // dir fsync). Streamed encoders have returned, and released whatever they
  // locked, before the fsync. On failure the temp file is removed and
  // `path` is untouched.
  Status WriteToFile(const std::string& path);

  // The most payload bytes buffered at once during the last Encode or
  // WriteToFile: at most kSnapshotFlushBytes plus one fixed-width field.
  size_t max_buffered_bytes() const { return max_buffered_bytes_; }

 private:
  struct Group {
    std::vector<SnapshotSection> ids;
    StreamFn write;
  };

  // Writes the image's sections to `out` after a reserved header and TOC,
  // then returns the header and TOC bytes to patch in at offset 0.
  Status WriteImage(ByteSink* out, std::string* header);

  std::vector<Group> groups_;
  size_t max_buffered_bytes_ = 0;
};

// One loaded section payload (SnapshotReader::Section). Its bytes live in
// their own anonymous memory mapping, so dropping a large section hands its
// memory back to the system at once: a multi-megabyte buffer freed through
// the allocator can stay resident in the heap for the rest of the process.
class SectionBuffer {
 public:
  SectionBuffer() = default;
  ~SectionBuffer() { Release(); }
  SectionBuffer(const SectionBuffer&) = delete;
  SectionBuffer& operator=(const SectionBuffer&) = delete;

  std::string_view bytes() const { return {data_, size_}; }

 private:
  friend class SnapshotReader;
  // Maps `size` zeroed bytes; false when the mapping fails.
  bool Allocate(size_t size);
  void Release();

  char* data_ = nullptr;
  size_t size_ = 0;
};

class SnapshotReader {
 public:
  SnapshotReader() = default;
  ~SnapshotReader();
  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  // Opens the file and validates it in one buffered pass; any integrity
  // failure (truncation, flipped bit, bad magic, unknown format version, a
  // section outside the file) is an error and no section is exposed.
  Status Open(const std::string& path);

  bool HasSection(SnapshotSection id) const;

  // Loads section `id` into *out from the open file and re-checks its CRC.
  // A section the snapshot does not carry, a short read, or a CRC mismatch
  // (the file changed since Open) is InvalidArgument, and *out is left
  // empty.
  Status Section(SnapshotSection id, SectionBuffer* out) const;

  uint32_t format_version() const { return format_version_; }
  uint64_t file_size() const { return file_size_; }
  const std::vector<SnapshotSectionInfo>& sections() const { return toc_; }

 private:
  void Close();
  // Reads [offset, offset + size) into dst; a short read is an error.
  Status ReadAt(uint64_t offset, void* dst, size_t size) const;

  int fd_ = -1;
  std::string path_;
  uint32_t format_version_ = 0;
  uint64_t file_size_ = 0;
  std::vector<SnapshotSectionInfo> toc_;
};

}  // namespace iccache

#endif  // SRC_PERSIST_SNAPSHOT_H_
