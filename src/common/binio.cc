#include "src/common/binio.h"

#include <algorithm>
#include <cstring>

namespace iccache {

namespace {

// Float blocks are copied whole where the host layout already is the
// format's little-endian IEEE-754 layout.
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
constexpr bool kLittleEndianHost = true;
#else
constexpr bool kLittleEndianHost = false;
#endif

// Slicing-by-8 tables: entries[0] is the classic bytewise table, and
// entries[k][b] advances entries[k - 1][b] by one more zero byte, so one
// step folds 8 input bytes with 8 independent lookups.
struct Crc32Tables {
  uint32_t entries[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
      }
      entries[0][i] = crc;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        const uint32_t prev = entries[k - 1][i];
        entries[k][i] = (prev >> 8) ^ entries[0][prev & 0xFFu];
      }
    }
  }
};

const Crc32Tables& Tables() {
  static const Crc32Tables tables;
  return tables;
}

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  const auto& t = Tables().entries;
  uint32_t crc = ~seed;
  for (; size >= 8; bytes += 8, size -= 8) {
    const uint32_t lo = LoadLe32(bytes) ^ crc;
    const uint32_t hi = LoadLe32(bytes + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
          t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = (crc >> 8) ^ t[0][(crc ^ *bytes) & 0xFFu];
  }
  return ~crc;
}

void ByteWriter::Append(const void* data, size_t size) {
  bytes_.append(static_cast<const char*>(data), size);
  if (bytes_.size() >= flush_bytes_) {
    Flush();
  }
}

void ByteWriter::Flush() {
  if (sink_ == nullptr) {
    return;
  }
  max_buffered_ = std::max(max_buffered_, bytes_.size());
  sink_->Write(bytes_.data(), bytes_.size());
  flushed_ += bytes_.size();
  bytes_.clear();  // keeps the capacity: the one buffer a stream holds
}

void ByteWriter::PutU8(uint8_t v) { Append(&v, 1); }

void ByteWriter::PutU32(uint32_t v) {
  uint8_t le[4];
  for (int i = 0; i < 4; ++i) {
    le[i] = static_cast<uint8_t>((v >> (8 * i)) & 0xFFu);
  }
  Append(le, sizeof(le));
}

void ByteWriter::PutU64(uint64_t v) {
  uint8_t le[8];
  for (int i = 0; i < 8; ++i) {
    le[i] = static_cast<uint8_t>((v >> (8 * i)) & 0xFFull);
  }
  Append(le, sizeof(le));
}

void ByteWriter::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "IEEE-754 double expected");
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void ByteWriter::PutFloat(float v) {
  uint32_t bits;
  static_assert(sizeof(bits) == sizeof(v), "IEEE-754 float expected");
  std::memcpy(&bits, &v, sizeof(bits));
  PutU32(bits);
}

void ByteWriter::PutString(std::string_view s) {
  PutU64(s.size());
  PutBytes(s.data(), s.size());
}

void ByteWriter::PutFloats(const std::vector<float>& v) {
  PutU64(v.size());
  if (kLittleEndianHost) {
    PutBytes(v.data(), v.size() * sizeof(float));
    return;
  }
  for (float f : v) {
    PutFloat(f);
  }
}

void ByteWriter::PutBytes(const void* data, size_t size) {
  // A block that would reach the threshold goes out after a flush: straight
  // through when it is itself that large, else into the emptied buffer.
  if (bytes_.size() + size >= flush_bytes_) {
    Flush();
    if (size >= flush_bytes_) {
      sink_->Write(data, size);
      flushed_ += size;
      return;
    }
  }
  Append(data, size);
}

const uint8_t* ByteReader::Take(size_t n) {
  if (!ok_ || n > size_ - pos_) {
    ok_ = false;
    return nullptr;
  }
  const uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

uint8_t ByteReader::GetU8() {
  const uint8_t* p = Take(1);
  return p == nullptr ? 0 : *p;
}

uint32_t ByteReader::GetU32() {
  const uint8_t* p = Take(4);
  return p == nullptr ? 0 : LoadLe32(p);
}

uint64_t ByteReader::GetU64() {
  const uint8_t* p = Take(8);
  if (p == nullptr) {
    return 0;
  }
  return static_cast<uint64_t>(LoadLe32(p)) | static_cast<uint64_t>(LoadLe32(p + 4)) << 32;
}

double ByteReader::GetDouble() {
  const uint64_t bits = GetU64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return ok_ ? v : 0.0;
}

float ByteReader::GetFloat() {
  const uint32_t bits = GetU32();
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return ok_ ? v : 0.0f;
}

std::string_view ByteReader::GetStringView() {
  const uint64_t n = GetU64();
  if (!ok_ || n > size_ - pos_) {
    ok_ = false;
    return {};
  }
  const uint8_t* p = Take(static_cast<size_t>(n));
  return {reinterpret_cast<const char*>(p), static_cast<size_t>(n)};
}

std::string ByteReader::GetString() { return std::string(GetStringView()); }

bool ByteReader::GetBytes(void* dst, size_t size) {
  const uint8_t* p = Take(size);
  if (p == nullptr) {
    return false;
  }
  std::memcpy(dst, p, size);
  return true;
}

std::vector<float> ByteReader::GetFloats() {
  const uint64_t n = GetU64();
  if (!ok_ || n > (size_ - pos_) / 4) {
    ok_ = false;
    return {};
  }
  std::vector<float> v(static_cast<size_t>(n));
  if (kLittleEndianHost) {
    GetBytes(v.data(), v.size() * sizeof(float));
    return v;
  }
  for (auto& f : v) {
    f = GetFloat();
  }
  return v;
}

}  // namespace iccache
