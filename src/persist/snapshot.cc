#include "src/persist/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

namespace iccache {

namespace {

constexpr size_t kHeaderSize = 8 + 4 + 4 + 4;  // magic, version, count, toc crc
constexpr size_t kTocEntrySize = 4 + 8 + 8 + 4;
// Read size of Open's verification pass.
constexpr size_t kReadChunk = size_t{1} << 20;

std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) {
    return ".";
  }
  return slash == 0 ? "/" : path.substr(0, slash);
}

Status SyncFd(int fd, const std::string& what) {
  if (::fsync(fd) != 0) {
    return Status::Internal("fsync failed for " + what + ": " + std::strerror(errno));
  }
  return Status::Ok();
}

// Writes all of [data, data + size) at `offset`, or appends it when offset
// is negative, retrying short writes.
Status WriteFully(int fd, const void* data, size_t size, off_t offset, const std::string& what) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = offset < 0 ? ::write(fd, p, size) : ::pwrite(fd, p, size, offset);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::Internal("write to " + what + " failed: " + std::strerror(errno));
    }
    if (n == 0) {
      return Status::Internal("write to " + what + " made no progress");
    }
    p += n;
    size -= static_cast<size_t>(n);
    if (offset >= 0) {
      offset += n;
    }
  }
  return Status::Ok();
}

class StringSink final : public ByteSink {
 public:
  explicit StringSink(std::string* out) : out_(out) {}
  void Write(const void* data, size_t size) override {
    out_->append(static_cast<const char*>(data), size);
  }

 private:
  std::string* out_;
};

// Appends to a file; the first error is kept and later writes are dropped.
class FileSink final : public ByteSink {
 public:
  FileSink(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  void Write(const void* data, size_t size) override {
    if (status_.ok()) {
      status_ = WriteFully(fd_, data, size, -1, path_);
    }
  }
  const Status& status() const { return status_; }

 private:
  int fd_;
  std::string path_;
  Status status_;
};

// Streams sections into `out` in TOC order through one bounded buffer,
// filling in each TOC entry's offset, size and CRC-32 as its bytes pass.
class ImageStream final : public SnapshotSectionStream, public ByteSink {
 public:
  ImageStream(ByteSink* out, std::vector<SnapshotSectionInfo>* toc, uint64_t first_offset)
      : out_(out), toc_(toc), offset_(first_offset), buffer_(this, kSnapshotFlushBytes) {}
  // buffer_ holds this object's address.
  ImageStream(const ImageStream&) = delete;
  ImageStream& operator=(const ImageStream&) = delete;

  ByteWriter* Begin(SnapshotSection id) override {
    End();
    if (next_ < toc_->size() && (*toc_)[next_].id == id) {
      current_ = &(*toc_)[next_++];
      current_->offset = offset_;
    } else if (status_.ok()) {
      status_ = Status::Internal(std::string("snapshot section '") + SnapshotSectionName(id) +
                                 "' begun out of order");
    }
    return &buffer_;
  }

  // Flushes the open section's last bytes and closes it.
  void End() {
    buffer_.Flush();
    current_ = nullptr;
  }

  void Write(const void* data, size_t size) override {
    if (current_ == nullptr) {
      return;  // after a misordered Begin, which has already failed the write
    }
    current_->crc32 = Crc32(data, size, current_->crc32);
    current_->size += size;
    offset_ += size;
    out_->Write(data, size);
  }

  size_t sections_begun() const { return next_; }
  const Status& status() const { return status_; }
  size_t max_buffered() const { return buffer_.max_buffered(); }

 private:
  ByteSink* out_;
  std::vector<SnapshotSectionInfo>* toc_;
  uint64_t offset_;
  ByteWriter buffer_;
  size_t next_ = 0;
  SnapshotSectionInfo* current_ = nullptr;
  Status status_;
};

}  // namespace

const char* SnapshotSectionName(SnapshotSection section) {
  switch (section) {
    case SnapshotSection::kMeta:
      return "meta";
    case SnapshotSection::kExamples:
      return "examples";
    case SnapshotSection::kIndex:
      return "index";
    case SnapshotSection::kSelector:
      return "selector";
    case SnapshotSection::kManager:
      return "manager";
    case SnapshotSection::kProxy:
      return "proxy";
    case SnapshotSection::kRouter:
      return "router";
    case SnapshotSection::kDriver:
      return "driver";
    case SnapshotSection::kService:
      return "service";
    case SnapshotSection::kStage0:
      return "stage0";
  }
  return "unknown";
}

void SnapshotWriter::AddSection(SnapshotSection id, std::string bytes) {
  auto payload = std::make_shared<const std::string>(std::move(bytes));
  AddStreamedSections({id}, [id, payload](SnapshotSectionStream* stream) {
    stream->Begin(id)->PutBytes(payload->data(), payload->size());
    return Status::Ok();
  });
}

void SnapshotWriter::AddStreamedSections(std::vector<SnapshotSection> ids, StreamFn write) {
  groups_.push_back(Group{std::move(ids), std::move(write)});
}

Status SnapshotWriter::WriteImage(ByteSink* out, std::string* header) {
  // Section ids ascend through the image, and each group writes its
  // sections in one go, in the order of its first id.
  std::vector<SnapshotSectionInfo> toc;
  std::vector<const Group*> order;
  for (const Group& group : groups_) {
    for (SnapshotSection id : group.ids) {
      SnapshotSectionInfo info;
      info.id = id;
      toc.push_back(info);
    }
    if (!group.ids.empty()) {
      order.push_back(&group);
    }
  }
  std::sort(toc.begin(), toc.end(), [](const SnapshotSectionInfo& a, const SnapshotSectionInfo& b) {
    return a.id < b.id;
  });
  for (size_t i = 1; i < toc.size(); ++i) {
    if (toc[i].id == toc[i - 1].id) {
      return Status::Internal(std::string("snapshot section '") + SnapshotSectionName(toc[i].id) +
                              "' added twice");
    }
  }
  std::sort(order.begin(), order.end(),
            [](const Group* a, const Group* b) { return a->ids.front() < b->ids.front(); });

  // Reserve the header and TOC; they are patched in once the sizes and
  // CRCs are known.
  const uint64_t payload_start = kHeaderSize + kTocEntrySize * toc.size();
  out->Write(std::string(payload_start, '\0').data(), payload_start);
  ImageStream stream(out, &toc, payload_start);
  for (const Group* group : order) {
    const size_t first = stream.sections_begun();
    const Status status = group->write(&stream);
    stream.End();
    if (!status.ok()) {
      return status;
    }
    if (!stream.status().ok()) {
      return stream.status();
    }
    if (stream.sections_begun() - first != group->ids.size()) {
      return Status::Internal(std::string("snapshot section '") +
                              SnapshotSectionName(group->ids.front()) + "' group wrote " +
                              std::to_string(stream.sections_begun() - first) + " of " +
                              std::to_string(group->ids.size()) + " sections");
    }
  }
  max_buffered_bytes_ = stream.max_buffered();

  ByteWriter toc_bytes;
  for (const SnapshotSectionInfo& info : toc) {
    toc_bytes.PutU32(static_cast<uint32_t>(info.id));
    toc_bytes.PutU64(info.offset);
    toc_bytes.PutU64(info.size);
    toc_bytes.PutU32(info.crc32);
  }
  ByteWriter head;
  head.PutU64(kSnapshotMagic);
  head.PutU32(kSnapshotFormatVersion);
  head.PutU32(static_cast<uint32_t>(toc.size()));
  head.PutU32(Crc32(toc_bytes.bytes().data(), toc_bytes.bytes().size()));
  head.PutBytes(toc_bytes.bytes().data(), toc_bytes.bytes().size());
  *header = head.TakeBytes();
  return Status::Ok();
}

StatusOr<std::string> SnapshotWriter::Encode() {
  std::string image;
  StringSink sink(&image);
  std::string header;
  const Status status = WriteImage(&sink, &header);
  if (!status.ok()) {
    return status;
  }
  image.replace(0, header.size(), header);
  return image;
}

Status SnapshotWriter::WriteToFile(const std::string& path) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) {
    return Status::Internal("cannot open " + tmp + ": " + std::strerror(errno));
  }
  FileSink file(fd, tmp);
  std::string header;
  Status status = WriteImage(&file, &header);
  if (status.ok()) {
    status = file.status();
  }
  if (status.ok()) {
    status = WriteFully(fd, header.data(), header.size(), 0, tmp);
  }
  // The data must be durable BEFORE the rename publishes it: rename-then-sync
  // could expose a complete-looking file with unwritten pages after a crash.
  if (status.ok()) {
    status = SyncFd(fd, tmp);
  }
  if (::close(fd) != 0 && status.ok()) {
    status = Status::Internal("close failed for " + tmp + ": " + std::strerror(errno));
  }
  if (!status.ok()) {
    std::remove(tmp.c_str());
    return status;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("rename " + tmp + " -> " + path + ": " + std::strerror(errno));
  }
  // Make the rename itself durable (directory entry update).
  const int dir_fd = ::open(ParentDir(path).c_str(), O_RDONLY);
  if (dir_fd >= 0) {
    const Status dir_sync = SyncFd(dir_fd, "directory of " + path);
    ::close(dir_fd);
    if (!dir_sync.ok()) {
      return dir_sync;
    }
  }
  return Status::Ok();
}

SnapshotReader::~SnapshotReader() { Close(); }

void SnapshotReader::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  format_version_ = 0;
  file_size_ = 0;
  toc_.clear();
  max_buffered_bytes_ = 0;
}

Status SnapshotReader::ReadAt(uint64_t offset, void* dst, size_t size) const {
  char* p = static_cast<char*>(dst);
  while (size > 0) {
    const ssize_t n = ::pread(fd_, p, size, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::Internal("read error on " + path_ + ": " + std::strerror(errno));
    }
    if (n == 0) {
      return Status::InvalidArgument("truncated snapshot (file ends before byte " +
                                     std::to_string(offset + size) + ")");
    }
    p += n;
    offset += static_cast<uint64_t>(n);
    size -= static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status SnapshotReader::Open(const std::string& path) {
  Close();
  path_ = path;
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) {
    return Status::NotFound("cannot open " + path + ": " + std::strerror(errno));
  }
  const auto fail = [this, &path](const Status& status) {
    Close();
    return Status(status.code(), path + ": " + status.message());
  };
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    return fail(Status::Internal(std::string("stat failed: ") + std::strerror(errno)));
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);

  uint8_t header_bytes[kHeaderSize];
  if (file_size < kHeaderSize || !ReadAt(0, header_bytes, kHeaderSize).ok()) {
    return fail(Status::InvalidArgument("not a snapshot (bad magic)"));
  }
  ByteReader header(header_bytes, kHeaderSize);
  const uint64_t magic = header.GetU64();
  const uint32_t version = header.GetU32();
  const uint32_t count = header.GetU32();
  const uint32_t toc_crc = header.GetU32();
  if (magic != kSnapshotMagic) {
    return fail(Status::InvalidArgument("not a snapshot (bad magic)"));
  }
  if (version != kSnapshotFormatVersion) {
    return fail(Status::InvalidArgument("unsupported snapshot format version " +
                                        std::to_string(version) + " (reader supports " +
                                        std::to_string(kSnapshotFormatVersion) + ")"));
  }
  const uint64_t toc_size = kTocEntrySize * static_cast<uint64_t>(count);
  if (file_size < kHeaderSize + toc_size) {
    return fail(Status::InvalidArgument("truncated snapshot (TOC)"));
  }
  std::string toc_bytes(static_cast<size_t>(toc_size), '\0');
  Status status = ReadAt(kHeaderSize, toc_bytes.data(), toc_bytes.size());
  if (!status.ok()) {
    return fail(status);
  }
  if (Crc32(toc_bytes.data(), toc_bytes.size()) != toc_crc) {
    return fail(Status::InvalidArgument("snapshot TOC checksum mismatch"));
  }

  // Every section's bounds, then every section's CRC in one pass through
  // the file (the writer lays sections out in TOC order).
  std::vector<SnapshotSectionInfo> toc;
  ByteReader entries(toc_bytes);
  for (uint32_t i = 0; i < count; ++i) {
    SnapshotSectionInfo info;
    info.id = static_cast<SnapshotSection>(entries.GetU32());
    info.offset = entries.GetU64();
    info.size = entries.GetU64();
    info.crc32 = entries.GetU32();
    if (!entries.ok() || info.offset > file_size || info.size > file_size - info.offset) {
      return fail(Status::InvalidArgument("truncated snapshot (section " +
                                          std::string(SnapshotSectionName(info.id)) +
                                          " out of bounds)"));
    }
    toc.push_back(info);
  }
  std::vector<char> chunk;
  for (const SnapshotSectionInfo& info : toc) {
    uint32_t crc = 0;
    for (uint64_t pos = 0; pos < info.size;) {
      const size_t n = static_cast<size_t>(std::min<uint64_t>(kReadChunk, info.size - pos));
      chunk.resize(std::max(chunk.size(), n));
      status = ReadAt(info.offset + pos, chunk.data(), n);
      if (!status.ok()) {
        return fail(status);
      }
      crc = Crc32(chunk.data(), n, crc);
      pos += n;
    }
    if (crc != info.crc32) {
      return fail(Status::InvalidArgument(std::string("snapshot section '") +
                                          SnapshotSectionName(info.id) + "' checksum mismatch"));
    }
  }
  format_version_ = version;
  file_size_ = file_size;
  toc_ = std::move(toc);
  return Status::Ok();
}

const SnapshotSectionInfo* SnapshotReader::Find(SnapshotSection id) const {
  const auto it = std::find_if(toc_.begin(), toc_.end(),
                               [id](const SnapshotSectionInfo& info) { return info.id == id; });
  return it == toc_.end() ? nullptr : &*it;
}

bool SnapshotReader::HasSection(SnapshotSection id) const { return Find(id) != nullptr; }

namespace {

Status MissingSection(SnapshotSection id) {
  return Status::InvalidArgument(std::string("snapshot has no ") + SnapshotSectionName(id) +
                                 " section");
}

Status ChangedSinceOpen(SnapshotSection id) {
  return Status::InvalidArgument(std::string("snapshot section '") + SnapshotSectionName(id) +
                                 "' checksum mismatch (file changed since open)");
}

}  // namespace

// Serves one section of the open file to a streaming ByteReader, in order,
// folding every byte into the section's CRC-32: the read that reaches the
// section's end fails when the CRC disagrees with the TOC's.
class SnapshotReader::SectionSource final : public ByteSource {
 public:
  SectionSource(const SnapshotReader& reader, const SnapshotSectionInfo& info)
      : reader_(reader), info_(info) {}

  bool Read(void* dst, size_t size) override {
    if (!status_.ok()) {
      return false;
    }
    if (size > info_.size - pos_) {
      status_ = Status::Internal(std::string("read past the end of snapshot section '") +
                                 SnapshotSectionName(info_.id) + "'");
      return false;
    }
    status_ = reader_.ReadAt(info_.offset + pos_, dst, size);
    if (!status_.ok()) {
      return false;
    }
    crc_ = Crc32(dst, size, crc_);
    pos_ += size;
    if (pos_ == info_.size && crc_ != info_.crc32) {
      status_ = ChangedSinceOpen(info_.id);
    }
    return status_.ok();
  }

  const Status& status() const { return status_; }

 private:
  const SnapshotReader& reader_;
  const SnapshotSectionInfo info_;
  uint64_t pos_ = 0;
  uint32_t crc_ = 0;
  Status status_;
};

Status SnapshotReader::StreamSection(SnapshotSection id,
                                     const std::function<Status(ByteReader*)>& decode) const {
  const SnapshotSectionInfo* info = Find(id);
  if (info == nullptr) {
    return MissingSection(id);
  }
  SectionSource source(*this, *info);
  Status status;
  {
    ByteReader reader(&source, info->size,
                      static_cast<size_t>(std::min<uint64_t>(info->size, kSnapshotFlushBytes)));
    status = decode(&reader);
    reader.DrainSource();
    max_buffered_bytes_ = std::max(max_buffered_bytes_, reader.max_buffered());
  }
  if (!source.status().ok()) {
    return Status(source.status().code(), path_ + ": " + source.status().message());
  }
  return status;
}

}  // namespace iccache
