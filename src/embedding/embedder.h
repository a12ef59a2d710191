// Text embedding substrate.
//
// The paper extracts dense T5 embeddings for every request and measures cosine
// similarity (section 2.3, Figure 3a). Offline we substitute a deterministic
// hashed-feature embedder: word unigrams/bigrams and character trigrams are
// hashed onto a signed d-dimensional vector which is then L2-normalized.
//
// Real sentence embeddings are anisotropic: two unrelated sentences still show
// ~0.5 cosine similarity because all embeddings share a dominant common
// direction (the paper's "0.5 similarity of random request pairs"). We model
// that explicitly with a fixed common component mixed into every embedding, so
// downstream similarity statistics have the same geometry the paper measured.
//
// Two hot-path facilities keep embedding off the allocator in the serving
// driver's prepare loop:
//
//  * EmbedInto writes into a caller-provided arena slot, tokenizing with
//    zero-copy word spans and incremental feature hashing — no per-token or
//    per-call heap allocations, bit-identical output to Embed (which is now a
//    thin wrapper around it).
//  * EmbedMemo is a bounded, deterministic, direct-mapped memo keyed by the
//    text's hash: a hit replays the stored embedder output byte-for-byte
//    (exact text comparison guards against hash collisions), so memoization
//    can never change a decision downstream.
#ifndef SRC_EMBEDDING_EMBEDDER_H_
#define SRC_EMBEDDING_EMBEDDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace iccache {

class Embedder {
 public:
  virtual ~Embedder() = default;

  // Maps text to a unit-norm embedding of dimension dim().
  virtual std::vector<float> Embed(const std::string& text) const = 0;

  // Writes the embedding of `text` into out[0, dim()) — bit-identical to
  // Embed, but into a caller-provided arena slot so batch loops reuse one
  // allocation. The base implementation copies Embed's result; concrete
  // embedders override with an allocation-free path.
  virtual void EmbedInto(const std::string& text, float* out) const;

  virtual size_t dim() const = 0;
};

struct HashingEmbedderConfig {
  size_t dim = 128;
  // Weight of the shared anisotropy direction relative to the (unit-norm)
  // content features. gamma = 1.0 puts unrelated pairs near cosine 0.5.
  double anisotropy = 1.0;
  uint64_t seed = 0x1c0ffee;
};

class HashingEmbedder : public Embedder {
 public:
  explicit HashingEmbedder(HashingEmbedderConfig config = {});

  std::vector<float> Embed(const std::string& text) const override;

  // Allocation-free in steady state: tokenizes into a reusable thread-local
  // span scratch and hashes features incrementally (unigrams, bigrams,
  // trigrams) straight off the input bytes — no token strings, no
  // concatenation, no temporary vectors. Output is bit-identical to the
  // historical string-based pipeline (same byte sequences reach the same FNV
  // hash states).
  void EmbedInto(const std::string& text, float* out) const override;

  size_t dim() const override { return config_.dim; }

  const HashingEmbedderConfig& config() const { return config_; }

 private:
  // Adds a hashed feature with the given weight into the accumulator.
  void AddFeature(uint64_t feature_hash, double weight, float* acc) const;

  HashingEmbedderConfig config_;
  std::vector<float> common_direction_;  // unit-norm anisotropy component
};

// Appends each word of `text` (maximal alphanumeric run) to *spans as a view
// into `text` — zero allocations beyond the span vector's capacity. Words are
// NOT lowercased (a view cannot be); the span-hashing helpers below fold
// tolower in as they hash, reproducing the lowercased-token hashes exactly.
void TokenizeWordSpans(std::string_view text, std::vector<std::string_view>* spans);

// Lowercases and splits on non-alphanumeric characters. Thin wrapper over
// TokenizeWordSpans kept for callers that want owned tokens.
std::vector<std::string> TokenizeWords(const std::string& text);

// FNV-1a 64-bit hash of a byte string, mixed with the given seed.
uint64_t HashToken(const std::string& token, uint64_t seed);

// HashToken of the lowercased span, without materializing the lowercase
// string: HashTokenSpan(w, s) == HashToken(lower(w), s).
uint64_t HashTokenSpan(std::string_view token, uint64_t seed);

// HashToken of lower(a) + "_" + lower(b), hashed incrementally over the three
// parts (FNV-1a is sequential, so this equals hashing the concatenation).
uint64_t HashBigramSpan(std::string_view a, std::string_view b, uint64_t seed);

// Bounded deterministic embedding memo: direct-mapped by text hash, one entry
// per slot, newest-wins replacement. A hit copies the STORED embedder output
// (exact text equality required, so collisions can never serve a wrong
// vector), making memoized and unmemoized runs byte-identical. Not
// thread-safe: intended as a per-worker (thread_local) cache.
class EmbedMemo {
 public:
  // `slots` is rounded up to a power of two; 0 disables memoization
  // (every call goes straight to the embedder).
  explicit EmbedMemo(size_t slots);

  // Embeds `text` into out[0, embedder.dim()), serving exact repeats from the
  // memo. Returns true on a memo hit.
  bool EmbedInto(const Embedder& embedder, const std::string& text, float* out);

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  struct Slot {
    bool valid = false;
    uint64_t hash = 0;
    std::string text;
    std::vector<float> vec;
  };

  std::vector<Slot> slots_;
  uint64_t mask_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace iccache

#endif  // SRC_EMBEDDING_EMBEDDER_H_
