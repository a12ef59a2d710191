#include "src/embedding/embedder.h"

#include <cctype>
#include <cmath>
#include <cstring>

#include "src/common/mathutil.h"
#include "src/common/rng.h"

namespace iccache {

namespace {

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

inline uint64_t FnvByte(uint64_t hash, unsigned char byte) {
  hash ^= static_cast<uint64_t>(byte);
  hash *= kFnvPrime;
  return hash;
}

// Folds the lowercased bytes of `span` into an in-progress FNV-1a state —
// the same byte sequence HashToken sees for a pre-lowercased token.
inline uint64_t FnvLowerSpan(uint64_t hash, std::string_view span) {
  for (char raw : span) {
    hash = FnvByte(hash, static_cast<unsigned char>(
                             std::tolower(static_cast<unsigned char>(raw))));
  }
  return hash;
}

}  // namespace

void TokenizeWordSpans(std::string_view text, std::vector<std::string_view>* spans) {
  spans->clear();  // reused caller scratch: capacity survives, contents don't
  size_t start = 0;
  bool in_word = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const bool alnum = std::isalnum(static_cast<unsigned char>(text[i])) != 0;
    if (alnum && !in_word) {
      start = i;
      in_word = true;
    } else if (!alnum && in_word) {
      spans->push_back(text.substr(start, i - start));
      in_word = false;
    }
  }
  if (in_word) {
    spans->push_back(text.substr(start));
  }
}

std::vector<std::string> TokenizeWords(const std::string& text) {
  std::vector<std::string_view> spans;
  TokenizeWordSpans(text, &spans);
  std::vector<std::string> tokens;
  tokens.reserve(spans.size());
  for (std::string_view span : spans) {
    std::string token(span);
    for (char& c : token) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    tokens.push_back(std::move(token));
  }
  return tokens;
}

uint64_t HashToken(const std::string& token, uint64_t seed) {
  uint64_t hash = kFnvBasis ^ seed;
  for (char c : token) {
    hash = FnvByte(hash, static_cast<unsigned char>(c));
  }
  return Mix64(hash);
}

uint64_t HashTokenSpan(std::string_view token, uint64_t seed) {
  return Mix64(FnvLowerSpan(kFnvBasis ^ seed, token));
}

uint64_t HashBigramSpan(std::string_view a, std::string_view b, uint64_t seed) {
  uint64_t hash = FnvLowerSpan(kFnvBasis ^ seed, a);
  hash = FnvByte(hash, static_cast<unsigned char>('_'));
  hash = FnvLowerSpan(hash, b);
  return Mix64(hash);
}

void Embedder::EmbedInto(const std::string& text, float* out) const {
  const std::vector<float> vec = Embed(text);
  std::memcpy(out, vec.data(), vec.size() * sizeof(float));
}

HashingEmbedder::HashingEmbedder(HashingEmbedderConfig config) : config_(config) {
  // Deterministic common direction drawn from the seed.
  Rng rng(config_.seed ^ 0xdecafbadull);
  common_direction_.resize(config_.dim);
  for (auto& x : common_direction_) {
    x = static_cast<float>(rng.Normal());
  }
  NormalizeL2(common_direction_);
}

void HashingEmbedder::AddFeature(uint64_t feature_hash, double weight, float* acc) const {
  const size_t slot = feature_hash % config_.dim;
  const double sign = (feature_hash >> 63) ? -1.0 : 1.0;
  acc[slot] += static_cast<float>(sign * weight);
}

std::vector<float> HashingEmbedder::Embed(const std::string& text) const {
  std::vector<float> out(config_.dim, 0.0f);
  EmbedInto(text, out.data());
  return out;
}

void HashingEmbedder::EmbedInto(const std::string& text, float* out) const {
  // Reused across calls on a thread: the span list and the content
  // accumulator retain capacity, so steady-state embedding allocates nothing.
  static thread_local std::vector<std::string_view> spans;
  static thread_local std::vector<float> content;
  spans.clear();
  TokenizeWordSpans(text, &spans);
  content.assign(config_.dim, 0.0f);

  for (std::string_view word : spans) {
    AddFeature(HashTokenSpan(word, config_.seed), 1.0, content.data());
  }
  for (size_t i = 0; i + 1 < spans.size(); ++i) {
    AddFeature(HashBigramSpan(spans[i], spans[i + 1], config_.seed ^ 0xb16b00b5ull), 0.3,
               content.data());
  }
  for (std::string_view word : spans) {
    if (word.size() < 3) {
      continue;
    }
    for (size_t i = 0; i + 3 <= word.size(); ++i) {
      AddFeature(HashTokenSpan(word.substr(i, 3), config_.seed ^ 0x751f0011ull), 0.25,
                 content.data());
    }
  }

  NormalizeL2(content.data(), config_.dim);

  const double gamma = config_.anisotropy;
  for (size_t i = 0; i < config_.dim; ++i) {
    out[i] = content[i] + static_cast<float>(gamma) * common_direction_[i];
  }
  NormalizeL2(out, config_.dim);
  if (L2Norm(out, config_.dim) == 0.0) {
    // Empty text: return the pure common direction so similarity is defined.
    std::memcpy(out, common_direction_.data(), config_.dim * sizeof(float));
  }
}

EmbedMemo::EmbedMemo(size_t slots) {
  if (slots == 0) {
    return;
  }
  size_t rounded = 1;
  while (rounded < slots) {
    rounded <<= 1;
  }
  slots_.resize(rounded);
  mask_ = rounded - 1;
}

bool EmbedMemo::EmbedInto(const Embedder& embedder, const std::string& text, float* out) {
  if (slots_.empty()) {
    embedder.EmbedInto(text, out);
    return false;
  }
  const uint64_t hash = HashToken(text, 0x3e3d0u);
  Slot& slot = slots_[hash & mask_];
  if (slot.valid && slot.hash == hash && slot.text == text &&
      slot.vec.size() == embedder.dim()) {
    std::memcpy(out, slot.vec.data(), slot.vec.size() * sizeof(float));
    ++hits_;
    return true;
  }
  embedder.EmbedInto(text, out);
  slot.valid = true;
  slot.hash = hash;
  slot.text = text;
  slot.vec.assign(out, out + embedder.dim());
  ++misses_;
  return false;
}

}  // namespace iccache
