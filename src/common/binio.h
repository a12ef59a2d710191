// Little-endian binary encoding primitives shared by everything that
// serializes state to bytes (the src/persist snapshot subsystem, the HNSW
// native graph format). Deliberately tiny: fixed-width integers, IEEE
// doubles/floats, length-prefixed strings and arrays — no varints, no
// reflection — so a format stays readable from a hex dump and stable across
// builds.
//
// A ByteWriter either accumulates its bytes in memory or streams them to a
// ByteSink through a bounded buffer, so an encoder can write a snapshot
// section many times larger than the memory it holds. A ByteReader likewise
// reads either a buffer in memory or a known number of bytes pulled from a
// ByteSource through one bounded buffer, so a decoder can read such a
// section back in the same bounded memory.
//
// ByteReader is bounds-checked everywhere and latches a failure flag instead
// of throwing: a truncated or corrupted buffer makes every subsequent read
// return zero values and ok() == false, so callers validate once at the end.
// A length field larger than what remains of the input fails before anything
// is allocated for it.
#ifndef SRC_COMMON_BINIO_H_
#define SRC_COMMON_BINIO_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace iccache {

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over the buffer;
// `seed` allows incremental computation by passing the previous result.
// Slicing-by-8: eight table lookups per 8-byte step.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

// Destination of a streaming ByteWriter's bytes.
class ByteSink {
 public:
  virtual ~ByteSink() = default;
  virtual void Write(const void* data, size_t size) = 0;
};

class ByteWriter {
 public:
  // Accumulates every byte in memory (bytes() / TakeBytes()).
  ByteWriter() = default;
  // Streams to `sink` (non-null): the buffer is handed over once a put
  // brings it to `flush_bytes`, a PutBytes block that would overflow it is
  // preceded by a flush, and a block of `flush_bytes` or more bypasses it,
  // so the writer never holds more than `flush_bytes` plus one fixed-width
  // field.
  ByteWriter(ByteSink* sink, size_t flush_bytes) : sink_(sink), flush_bytes_(flush_bytes) {}

  void PutU8(uint8_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v);
  void PutFloat(float v);
  // Length-prefixed (u64) string / float array.
  void PutString(std::string_view s);
  void PutFloats(const std::vector<float>& v);
  void PutBytes(const void* data, size_t size);

  // Streaming mode: hands the buffered bytes to the sink.
  void Flush();

  // The buffered bytes: everything put, unless streaming.
  const std::string& bytes() const { return bytes_; }
  std::string TakeBytes() { return std::move(bytes_); }
  // Bytes put so far, flushed or buffered.
  size_t size() const { return flushed_ + bytes_.size(); }
  // The most bytes buffered at once while streaming.
  size_t max_buffered() const { return max_buffered_; }

 private:
  void Append(const void* data, size_t size);

  std::string bytes_;
  ByteSink* sink_ = nullptr;
  size_t flush_bytes_ = std::numeric_limits<size_t>::max();
  size_t flushed_ = 0;
  size_t max_buffered_ = 0;
};

// Origin of a streaming ByteReader's bytes.
class ByteSource {
 public:
  virtual ~ByteSource() = default;
  // Reads exactly the next `size` bytes into dst; false when they cannot be
  // had (the reader then latches a failure).
  virtual bool Read(void* dst, size_t size) = 0;
};

class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size), end_(size) {}
  explicit ByteReader(std::string_view bytes) : ByteReader(bytes.data(), bytes.size()) {}
  // Streams exactly `size` bytes from `source` (non-null) through one buffer
  // of `buffer_bytes` (at least 8): fields and blocks are read into the
  // buffer, refilled as they are consumed, and a GetBytes block of
  // `buffer_bytes` or more goes from the source straight into its
  // destination, so the reader never holds more than `buffer_bytes`.
  ByteReader(ByteSource* source, uint64_t size, size_t buffer_bytes);
  // data_ may point into buffer_.
  ByteReader(const ByteReader&) = delete;
  ByteReader& operator=(const ByteReader&) = delete;

  uint8_t GetU8();
  uint32_t GetU32();
  uint64_t GetU64();
  int32_t GetI32() { return static_cast<int32_t>(GetU32()); }
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  double GetDouble();
  float GetFloat();
  std::string GetString();
  std::vector<float> GetFloats();
  // Skips a length-prefixed float array: GetFloats without the array.
  void SkipFloats();
  // Bulk copy of `size` raw bytes into dst; false (latching failure) when out
  // of bounds. Used for arena-sized blocks where per-element reads would cost.
  bool GetBytes(void* dst, size_t size);

  // Streaming mode: pulls every byte not yet pulled from the source and
  // drops it, even after a failed read, so a source that checks what it
  // serves (a snapshot section's CRC) sees the whole input; everything
  // counts as read afterwards. False when the source fails. A no-op
  // returning true in memory mode.
  bool DrainSource();

  // True iff every read so far was in bounds. Check after the final read.
  bool ok() const { return ok_; }
  // True when the whole input has been consumed (format-exactness check).
  bool AtEnd() const { return pos_ == size_; }
  uint64_t remaining() const { return size_ - pos_; }
  // The most bytes buffered at once while streaming.
  size_t max_buffered() const { return max_buffered_; }

 private:
  // Returns a pointer to `n` readable bytes or nullptr (latching failure).
  const uint8_t* Take(size_t n);
  // Streaming mode: moves the unread buffered bytes to the buffer's front
  // and tops the buffer up from the source, so at least `n` (<= the buffer
  // size, <= remaining()) are buffered; false (latching failure) when the
  // source fails.
  bool Refill(size_t n);

  // The input's bytes [begin_, end_) are buffered at data_; in memory mode
  // that is the whole input. pos_ is the read position, begin_ <= pos_ <=
  // end_ <= size_.
  const uint8_t* data_ = nullptr;
  uint64_t size_ = 0;
  uint64_t pos_ = 0;
  uint64_t begin_ = 0;
  uint64_t end_ = 0;
  bool ok_ = true;
  ByteSource* source_ = nullptr;
  std::vector<uint8_t> buffer_;
  size_t max_buffered_ = 0;
};

}  // namespace iccache

#endif  // SRC_COMMON_BINIO_H_
