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
//   s = reader.StreamSection(SnapshotSection::kExamples,    // streamed,
//                            [&](ByteReader* r) {           // re-validated
//                              ...                          // at its end
//                              return Status::Ok();
//                            });
//
// WriteToFile streams: it reserves the header and TOC at `path + ".tmp"`,
// runs each section's encoder straight into the file through one buffer of
// kSnapshotFlushBytes (tracking each section's size and CRC-32 as it goes),
// patches the TOC, then fsyncs, renames over `path`, and fsyncs the parent
// directory, so a kill at any instant leaves `path` holding either the
// previous complete snapshot or the new one.
//
// Open verifies the magic, format version, TOC checksum, and every section
// checksum in one buffered pass, and keeps the file open. StreamSection is
// the one way to read a section back: it hands the section to its decoder
// through one buffer of at most kSnapshotFlushBytes (a section smaller than
// that arrives in one read, checked before the decoder sees a byte),
// recomputing the CRC as the bytes arrive, and reads the section to its end
// whatever the decoder consumed: the read that reaches the end fails on a
// CRC mismatch, and a file that no longer holds the section's bytes fails
// the read that misses them. So a file changed after Open never restores.
// The guarantee is exactly that: a byte changed in place after Open can
// reach the decoder of a section larger than the buffer before the check at
// the section's end fails the load. Decoders must therefore reject
// arbitrary bytes with a Status, never a crash — which they must anyway,
// since a hostile file can carry valid CRCs.
#ifndef SRC_PERSIST_SNAPSHOT_H_
#define SRC_PERSIST_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/binio.h"
#include "src/common/status.h"
#include "src/persist/snapshot_format.h"

namespace iccache {

// Payload bytes a save buffers before handing them to the file, and the
// buffer a streamed section load reads the file through.
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

  // Runs `decode` over section `id` read from the open file through one
  // buffer of min(section size, kSnapshotFlushBytes) (a streaming
  // ByteReader), recomputing the section's CRC as its bytes arrive, then
  // reads whatever `decode` left so the whole section is checked. A section
  // the snapshot does not carry, a short read, or a CRC mismatch (the file
  // changed since Open) is InvalidArgument (an I/O error Internal), and a
  // failed read takes precedence over the Status `decode` returns.
  Status StreamSection(SnapshotSection id,
                       const std::function<Status(ByteReader*)>& decode) const;

  uint32_t format_version() const { return format_version_; }
  uint64_t file_size() const { return file_size_; }
  const std::vector<SnapshotSectionInfo>& sections() const { return toc_; }
  // The most payload bytes a StreamSection has buffered at once since Open:
  // at most kSnapshotFlushBytes, however large the section.
  size_t max_buffered_bytes() const { return max_buffered_bytes_; }

 private:
  class SectionSource;

  void Close();
  // The TOC entry of section `id`; null when the snapshot lacks it.
  const SnapshotSectionInfo* Find(SnapshotSection id) const;
  // Reads [offset, offset + size) into dst; a short read is an error.
  Status ReadAt(uint64_t offset, void* dst, size_t size) const;

  int fd_ = -1;
  std::string path_;
  uint32_t format_version_ = 0;
  uint64_t file_size_ = 0;
  std::vector<SnapshotSectionInfo> toc_;
  mutable size_t max_buffered_bytes_ = 0;
};

}  // namespace iccache

#endif  // SRC_PERSIST_SNAPSHOT_H_
