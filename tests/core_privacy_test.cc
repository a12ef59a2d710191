#include "src/core/privacy.h"

#include <cctype>
#include <chrono>
#include <string>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace iccache {
namespace {

// --- Reference scrubber: the quadratic original, kept as the oracle --------
//
// MatchEmail searched for the next '@' and re-scanned the local part from
// every alphanumeric start position; PiiScrubber::Scrub must return exactly
// what this returns.

bool ReferenceIsWordChar(char c) {
  const unsigned char u = static_cast<unsigned char>(c);
  return std::isalnum(u) || c == '.' || c == '_' || c == '-' || c == '+';
}

size_t ReferenceMatchEmail(const std::string& text, size_t i) {
  size_t at = text.find('@', i);
  if (at == std::string::npos || at == i) {
    return std::string::npos;
  }
  for (size_t j = i; j < at; ++j) {
    if (!ReferenceIsWordChar(text[j])) {
      return std::string::npos;
    }
  }
  size_t end = at + 1;
  bool saw_dot = false;
  while (end < text.size() && (ReferenceIsWordChar(text[end]))) {
    if (text[end] == '.') {
      saw_dot = true;
    }
    ++end;
  }
  if (!saw_dot || end == at + 1) {
    return std::string::npos;
  }
  return end;
}

struct ReferenceDigitRun {
  size_t end = 0;
  int digits = 0;
  bool ssn_shape = false;
};

ReferenceDigitRun ReferenceScanDigitRun(const std::string& text, size_t i) {
  ReferenceDigitRun run;
  size_t j = i;
  int group = 0;
  int groups_seen = 0;
  bool grouping_ssn = true;
  static const int kSsnGroups[3] = {3, 2, 4};
  while (j < text.size()) {
    const char c = text[j];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      ++run.digits;
      ++group;
      ++j;
    } else if ((c == '-' || c == ' ' || c == '.') && run.digits > 0 &&
               j + 1 < text.size() && std::isdigit(static_cast<unsigned char>(text[j + 1]))) {
      if (groups_seen < 3 && group != kSsnGroups[groups_seen]) {
        grouping_ssn = false;
      }
      ++groups_seen;
      group = 0;
      ++j;
    } else {
      break;
    }
  }
  if (groups_seen < 3 && group > 0) {
    if (group != kSsnGroups[groups_seen]) {
      grouping_ssn = false;
    }
    ++groups_seen;
  }
  run.ssn_shape = grouping_ssn && groups_seen == 3 && run.digits == 9;
  run.end = j;
  return run;
}

ScrubResult ReferenceScrub(const std::string& text) {
  ScrubResult result;
  std::string out;
  size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (ReferenceIsWordChar(c) && std::isalnum(static_cast<unsigned char>(c))) {
      const size_t email_end = ReferenceMatchEmail(text, i);
      if (email_end != std::string::npos) {
        out += "[EMAIL]";
        ++result.emails_removed;
        i = email_end;
        continue;
      }
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      const ReferenceDigitRun run = ReferenceScanDigitRun(text, i);
      if (run.ssn_shape) {
        out += "[ID]";
        ++result.ids_removed;
        i = run.end;
        continue;
      }
      if (run.digits >= 10 && run.digits <= 13) {
        out += "[PHONE]";
        ++result.phones_removed;
        i = run.end;
        continue;
      }
      out.append(text, i, run.end - i);
      i = run.end;
      continue;
    }
    out.push_back(c);
    ++i;
  }
  result.text = std::move(out);
  return result;
}

// Seeded texts built from digit groups, short words and single characters
// from the scrubber's shapes ('@', '.', '-', '_', '+', separators), so
// e-mails, phone numbers and SSN-shaped ids all occur, with near misses of
// each.
std::string RandomScrubberText(Rng* rng) {
  static const char kSingles[] = "@@@...---__++  ,;!\n";
  std::string text;
  const uint64_t pieces = rng->NextU64() % 40;
  for (uint64_t p = 0; p < pieces; ++p) {
    const uint64_t kind = rng->NextU64() % 20;
    if (kind < 7) {
      // A digit group; every seventh a near-SSN 3-2-4 grouping.
      const uint64_t groups = kind == 0 ? 3 : 1;
      for (uint64_t g = 0; g < groups; ++g) {
        if (g > 0) {
          text.push_back("- ."[rng->NextU64() % 3]);
        }
        const uint64_t length = kind == 0 ? "324"[g] - '0' + rng->NextU64() % 3 - 1
                                          : 1 + rng->NextU64() % 5;
        for (uint64_t i = 0; i < length; ++i) {
          text.push_back(static_cast<char>('0' + rng->NextU64() % 10));
        }
      }
    } else if (kind < 11) {
      const uint64_t length = 1 + rng->NextU64() % 6;
      for (uint64_t i = 0; i < length; ++i) {
        text.push_back(static_cast<char>('a' + rng->NextU64() % 4));
      }
    } else {
      text.push_back(kSingles[rng->NextU64() % (sizeof(kSingles) - 1)]);
    }
  }
  return text;
}

TEST(PiiScrubberTest, MatchesTheReferenceScrubberOnRandomTexts) {
  Rng rng(0x5c2b);
  PiiScrubber scrubber;
  size_t emails = 0;
  size_t phones = 0;
  size_t ids = 0;
  for (int t = 0; t < 20000; ++t) {
    const std::string text = RandomScrubberText(&rng);
    const ScrubResult expected = ReferenceScrub(text);
    const ScrubResult actual = scrubber.Scrub(text);
    ASSERT_EQ(actual.text, expected.text) << "input: " << text;
    ASSERT_EQ(actual.emails_removed, expected.emails_removed) << "input: " << text;
    ASSERT_EQ(actual.phones_removed, expected.phones_removed) << "input: " << text;
    ASSERT_EQ(actual.ids_removed, expected.ids_removed) << "input: " << text;
    emails += static_cast<size_t>(expected.emails_removed);
    phones += static_cast<size_t>(expected.phones_removed);
    ids += static_cast<size_t>(expected.ids_removed);
  }
  // The texts exercise every shape.
  EXPECT_GT(emails, 1000u);
  EXPECT_GT(phones, 100u);
  EXPECT_GT(ids, 100u);
}

// Each text used to take seconds: every alphanumeric position searched the
// rest of the text for an '@', or re-scanned a long local part.
TEST(PiiScrubberTest, ScrubsHostileTextsInLinearTime) {
  std::string words;
  while (words.size() < (size_t{1} << 20)) {
    words += "the quick brown fox jumps over 42 lazy dogs. ";
  }
  std::string long_word = std::string(size_t{64} << 10, 'a') + "@";
  std::string no_dots;
  while (no_dots.size() < (size_t{1} << 20)) {
    no_dots += "x@y ";
  }
  PiiScrubber scrubber;
  for (const std::string* text : {&words, &long_word, &no_dots}) {
    const auto start = std::chrono::steady_clock::now();
    const ScrubResult result = scrubber.Scrub(*text);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    EXPECT_EQ(result.text, *text);
    EXPECT_FALSE(result.AnyPiiFound());
    EXPECT_LT(seconds, 1.0) << text->size() << "-byte text";
  }
}

TEST(PiiScrubberTest, RedactsEmailAddresses) {
  PiiScrubber scrubber;
  const ScrubResult result = scrubber.Scrub("contact me at john.doe+test@example.com thanks");
  EXPECT_EQ(result.emails_removed, 1);
  EXPECT_EQ(result.text, "contact me at [EMAIL] thanks");
  EXPECT_TRUE(result.AnyPiiFound());
}

TEST(PiiScrubberTest, RedactsMultipleEmails) {
  PiiScrubber scrubber;
  const ScrubResult result = scrubber.Scrub("a@b.com and c@d.org");
  EXPECT_EQ(result.emails_removed, 2);
  EXPECT_EQ(result.text, "[EMAIL] and [EMAIL]");
}

TEST(PiiScrubberTest, RedactsPhoneNumbers) {
  PiiScrubber scrubber;
  const ScrubResult result = scrubber.Scrub("call 415-555-0199-22 now");
  EXPECT_EQ(result.phones_removed, 1);
  EXPECT_EQ(result.text, "call [PHONE] now");
}

TEST(PiiScrubberTest, RedactsSsnShapedIds) {
  PiiScrubber scrubber;
  const ScrubResult result = scrubber.Scrub("my ssn is 123-45-6789 ok");
  EXPECT_EQ(result.ids_removed, 1);
  EXPECT_EQ(result.text, "my ssn is [ID] ok");
}

TEST(PiiScrubberTest, LeavesShortNumbersAlone) {
  PiiScrubber scrubber;
  const ScrubResult result = scrubber.Scrub("the answer is 42 and pi is 3.14159");
  EXPECT_FALSE(result.AnyPiiFound());
  EXPECT_EQ(result.text, "the answer is 42 and pi is 3.14159");
}

TEST(PiiScrubberTest, LeavesPlainTextUntouched) {
  PiiScrubber scrubber;
  const std::string text = "what is the capital of france";
  EXPECT_EQ(scrubber.Scrub(text).text, text);
}

TEST(PiiScrubberTest, EmptyString) {
  PiiScrubber scrubber;
  const ScrubResult result = scrubber.Scrub("");
  EXPECT_EQ(result.text, "");
  EXPECT_FALSE(result.AnyPiiFound());
}

TEST(PiiScrubberTest, AtWithoutDomainDotNotEmail) {
  PiiScrubber scrubber;
  const ScrubResult result = scrubber.Scrub("meet @ noon");
  EXPECT_EQ(result.emails_removed, 0);
}

TEST(DecideAdmissionTest, AllowAllKeepsText) {
  PiiScrubber scrubber;
  const AdmissionDecision d =
      DecideAdmission(scrubber, CacheAdmissionMode::kAllowAll, "mail a@b.com");
  EXPECT_TRUE(d.admit);
  EXPECT_EQ(d.sanitized_text, "mail a@b.com");
}

TEST(DecideAdmissionTest, ScrubModeAdmitsSanitized) {
  PiiScrubber scrubber;
  const AdmissionDecision d = DecideAdmission(scrubber, CacheAdmissionMode::kScrub, "mail a@b.com");
  EXPECT_TRUE(d.admit);
  EXPECT_EQ(d.sanitized_text, "mail [EMAIL]");
}

TEST(DecideAdmissionTest, RejectPiiDropsOffenders) {
  PiiScrubber scrubber;
  EXPECT_FALSE(DecideAdmission(scrubber, CacheAdmissionMode::kRejectPii, "mail a@b.com").admit);
  EXPECT_TRUE(DecideAdmission(scrubber, CacheAdmissionMode::kRejectPii, "clean text").admit);
}

TEST(DecideAdmissionTest, DenyAllRejectsEverything) {
  PiiScrubber scrubber;
  EXPECT_FALSE(DecideAdmission(scrubber, CacheAdmissionMode::kDenyAll, "clean text").admit);
}

class ScrubberCaseSweep
    : public ::testing::TestWithParam<std::pair<const char*, const char*>> {};

TEST_P(ScrubberCaseSweep, ScrubsToExpected) {
  PiiScrubber scrubber;
  EXPECT_EQ(scrubber.Scrub(GetParam().first).text, GetParam().second);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ScrubberCaseSweep,
    ::testing::Values(
        std::make_pair("email me: user_1@mail.co", "email me: [EMAIL]"),
        std::make_pair("digits 1234567890 embedded", "digits [PHONE] embedded"),
        std::make_pair("id 987-65-4321 here", "id [ID] here"),
        std::make_pair("year 2024 is fine", "year 2024 is fine"),
        std::make_pair("code 12-34 not ssn", "code 12-34 not ssn")));

}  // namespace
}  // namespace iccache
