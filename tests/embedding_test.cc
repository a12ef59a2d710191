#include "src/embedding/embedder.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/mathutil.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/workload/query_generator.h"

namespace iccache {
namespace {

TEST(TokenizeWordsTest, LowercasesAndSplits) {
  const auto tokens = TokenizeWords("Hello, World! 42 foo_bar");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0], "hello");
  EXPECT_EQ(tokens[1], "world");
  EXPECT_EQ(tokens[2], "42");
  EXPECT_EQ(tokens[3], "foo");
  EXPECT_EQ(tokens[4], "bar");
}

TEST(TokenizeWordsTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(TokenizeWords("").empty());
  EXPECT_TRUE(TokenizeWords("!!! ,,, ...").empty());
}

TEST(HashTokenTest, DeterministicAndSeedSensitive) {
  EXPECT_EQ(HashToken("abc", 1), HashToken("abc", 1));
  EXPECT_NE(HashToken("abc", 1), HashToken("abc", 2));
  EXPECT_NE(HashToken("abc", 1), HashToken("abd", 1));
}

TEST(HashingEmbedderTest, OutputIsUnitNorm) {
  HashingEmbedder embedder;
  const auto v = embedder.Embed("what is the capital of france");
  EXPECT_EQ(v.size(), embedder.dim());
  EXPECT_NEAR(L2Norm(v), 1.0, 1e-5);
}

TEST(HashingEmbedderTest, Deterministic) {
  HashingEmbedder embedder;
  const auto a = embedder.Embed("hello world");
  const auto b = embedder.Embed("hello world");
  EXPECT_EQ(a, b);
}

TEST(HashingEmbedderTest, IdenticalTextsHaveCosineOne) {
  HashingEmbedder embedder;
  const auto a = embedder.Embed("translate this sentence to german");
  EXPECT_NEAR(CosineSimilarity(a, a), 1.0, 1e-9);
}

TEST(HashingEmbedderTest, EmptyTextFallsBackToCommonDirection) {
  HashingEmbedder embedder;
  const auto v = embedder.Embed("");
  EXPECT_NEAR(L2Norm(v), 1.0, 1e-5);
}

TEST(HashingEmbedderTest, UnrelatedTextsSitNearAnisotropyBaseline) {
  // With anisotropy gamma = 1, two texts with no shared content should land
  // near cosine 0.5 — the paper's "0.5 similarity of random request pairs".
  HashingEmbedder embedder;
  Rng rng(77);
  RunningStat sims;
  for (int i = 0; i < 200; ++i) {
    const std::string a = "qq" + std::to_string(rng.NextU64());
    const std::string b = "zz" + std::to_string(rng.NextU64());
    sims.Add(CosineSimilarity(embedder.Embed(a), embedder.Embed(b)));
  }
  EXPECT_NEAR(sims.mean(), 0.5, 0.07);
}

TEST(HashingEmbedderTest, SharedTokensRaiseSimilarity) {
  HashingEmbedder embedder;
  const auto base = embedder.Embed("alpha beta gamma delta epsilon");
  const auto close = embedder.Embed("alpha beta gamma delta zeta");
  const auto far = embedder.Embed("one two three four five");
  EXPECT_GT(CosineSimilarity(base, close), CosineSimilarity(base, far));
  EXPECT_GT(CosineSimilarity(base, close), 0.8);
}

TEST(HashingEmbedderTest, AnisotropyZeroRemovesBaseline) {
  HashingEmbedderConfig config;
  config.anisotropy = 0.0;
  HashingEmbedder embedder(config);
  Rng rng(78);
  RunningStat sims;
  for (int i = 0; i < 100; ++i) {
    const std::string a = "qq" + std::to_string(rng.NextU64());
    const std::string b = "zz" + std::to_string(rng.NextU64());
    sims.Add(CosineSimilarity(embedder.Embed(a), embedder.Embed(b)));
  }
  EXPECT_NEAR(sims.mean(), 0.0, 0.1);
}

TEST(HashingEmbedderTest, DifferentSeedsProduceDifferentSpaces) {
  HashingEmbedderConfig c1;
  c1.seed = 1;
  HashingEmbedderConfig c2;
  c2.seed = 2;
  HashingEmbedder e1(c1);
  HashingEmbedder e2(c2);
  EXPECT_NE(e1.Embed("hello"), e2.Embed("hello"));
}

TEST(HashingEmbedderTest, SameIntentParaphrasesScoreHigherThanCrossTopic) {
  // Queries generated from the same intent must embed closer than queries
  // from different topics — the geometry stage-1 retrieval relies on.
  const DatasetProfile profile = GetDatasetProfile(DatasetId::kMsMarco);
  QueryGenerator gen(profile, 42);
  HashingEmbedder embedder;

  std::vector<Request> requests = gen.Generate(400);
  RunningStat same_intent;
  RunningStat cross_topic;
  for (size_t i = 0; i < requests.size(); ++i) {
    for (size_t j = i + 1; j < std::min(requests.size(), i + 20); ++j) {
      const double sim = CosineSimilarity(embedder.Embed(requests[i].text),
                                          embedder.Embed(requests[j].text));
      if (requests[i].topic_id == requests[j].topic_id &&
          requests[i].intent_id == requests[j].intent_id) {
        same_intent.Add(sim);
      } else if (requests[i].topic_id != requests[j].topic_id) {
        cross_topic.Add(sim);
      }
    }
  }
  ASSERT_GT(same_intent.count(), 10u);
  ASSERT_GT(cross_topic.count(), 10u);
  EXPECT_GT(same_intent.mean(), cross_topic.mean() + 0.2);
  EXPECT_GT(same_intent.mean(), 0.8);
}

// The span tokenizer must produce exactly the owned-token output without
// materializing strings, including the unicode/punctuation edge cases.
TEST(TokenizeWordSpansTest, MatchesOwnedTokenizer) {
  const std::string inputs[] = {"Hello, World! 42 foo_bar", "", "  ...  ", "a",
                                "MiXeD CaSe TEXT with-dashes and_underscores 007",
                                "trailing token", "!leading punctuation"};
  std::vector<std::string_view> spans;
  for (const std::string& text : inputs) {
    const std::vector<std::string> owned = TokenizeWords(text);
    TokenizeWordSpans(text, &spans);
    ASSERT_EQ(spans.size(), owned.size()) << "input: " << text;
    for (size_t i = 0; i < owned.size(); ++i) {
      // Spans preserve original case; the owned tokenizer lowercases. The
      // hashing contract below covers case folding.
      std::string lowered(spans[i]);
      for (char& c : lowered) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      EXPECT_EQ(lowered, owned[i]) << "input: " << text;
    }
  }
}

// HashTokenSpan folds the lowercase at hash time; HashBigramSpan hashes the
// "a_b" join incrementally. Both must equal HashToken over the materialized
// lowercase strings for any seed.
TEST(HashTokenSpanTest, MatchesMaterializedHashing) {
  for (const uint64_t seed : {uint64_t{0}, uint64_t{0x3e3d0}, uint64_t{0xdeadbeef}}) {
    EXPECT_EQ(HashTokenSpan("Hello", seed), HashToken("hello", seed));
    EXPECT_EQ(HashTokenSpan("42", seed), HashToken("42", seed));
    EXPECT_EQ(HashTokenSpan("", seed), HashToken("", seed));
    EXPECT_EQ(HashBigramSpan("Foo", "BAR", seed), HashToken("foo_bar", seed));
    EXPECT_EQ(HashBigramSpan("a", "b", seed), HashToken("a_b", seed));
  }
}

// EmbedInto writes into a caller arena and must be bit-identical to Embed
// (which wraps it) — including the empty-text fallback direction.
TEST(HashingEmbedderTest, EmbedIntoMatchesEmbedExactly) {
  HashingEmbedder embedder;
  std::vector<float> arena(embedder.dim(), -1.0f);
  for (const std::string& text :
       {std::string("what is the capital of France?"), std::string(""),
        std::string("repeat Repeat REPEAT tokens tokens"), std::string("x")}) {
    const std::vector<float> reference = embedder.Embed(text);
    embedder.EmbedInto(text, arena.data());
    ASSERT_EQ(reference.size(), arena.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(arena[i], reference[i]) << "text: '" << text << "' dim " << i;
    }
  }
}

class EmbedderDimSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(EmbedderDimSweep, RespectsConfiguredDimension) {
  HashingEmbedderConfig config;
  config.dim = GetParam();
  HashingEmbedder embedder(config);
  const auto v = embedder.Embed("dimension check text");
  EXPECT_EQ(v.size(), GetParam());
  EXPECT_NEAR(L2Norm(v), 1.0, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Dims, EmbedderDimSweep, ::testing::Values(16u, 32u, 64u, 128u, 256u));

}  // namespace
}  // namespace iccache
