#include "src/core/privacy.h"

#include <cctype>
#include <string_view>

namespace iccache {

namespace {

bool IsWordChar(char c) {
  const unsigned char u = static_cast<unsigned char>(c);
  return std::isalnum(u) || c == '.' || c == '_' || c == '-' || c == '+';
}

// End of the run of word characters starting at i (i itself when text[i]
// is not one).
size_t WordRunEnd(const std::string& text, size_t i) {
  while (i < text.size() && IsWordChar(text[i])) {
    ++i;
  }
  return i;
}

// An e-mail (token@token.tld) starting anywhere inside a word run that ends
// at `run_end` must have its '@' right there, since '@' is not a word
// character: the local part is the rest of the run, and the domain is the
// word run after the '@', which must hold a '.'. Returns the end of the
// matched span or std::string::npos; the answer is the same for every start
// position in the run.
size_t MatchEmailAt(const std::string& text, size_t run_end) {
  if (run_end >= text.size() || text[run_end] != '@') {
    return std::string::npos;
  }
  const size_t end = WordRunEnd(text, run_end + 1);
  const std::string_view domain(text.data() + run_end + 1, end - run_end - 1);
  if (domain.find('.') == std::string_view::npos) {
    return std::string::npos;  // empty domain, or no dot in it
  }
  return end;
}

// Counts digits in a span allowing separators; used for phone/SSN shapes.
struct DigitRun {
  size_t end = 0;
  int digits = 0;
  int separators = 0;
  bool ssn_shape = false;  // 3-2-4 grouping
};

DigitRun ScanDigitRun(const std::string& text, size_t i) {
  DigitRun run;
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
      ++run.separators;
      ++j;
    } else {
      break;
    }
  }
  if (groups_seen < 3 && group > 0) {
    if (groups_seen < 3 && group != kSsnGroups[groups_seen]) {
      grouping_ssn = false;
    }
    ++groups_seen;
  }
  run.ssn_shape = grouping_ssn && groups_seen == 3 && run.digits == 9;
  run.end = j;
  return run;
}

}  // namespace

ScrubResult PiiScrubber::Scrub(const std::string& text) const {
  ScrubResult result;
  std::string out;
  out.reserve(text.size());
  // The word run holding i and the e-mail match it gives every start
  // position inside it: each run is scanned once, so Scrub is linear.
  size_t run_end = 0;
  size_t email_end = std::string::npos;
  size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (std::isalnum(static_cast<unsigned char>(c))) {
      if (i >= run_end) {
        run_end = WordRunEnd(text, i);
        email_end = MatchEmailAt(text, run_end);
      }
      if (email_end != std::string::npos) {
        out += "[EMAIL]";
        ++result.emails_removed;
        i = email_end;
        continue;
      }
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      const DigitRun run = ScanDigitRun(text, i);
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
      // Plain number: copy the run through.
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

AdmissionDecision DecideAdmission(const PiiScrubber& scrubber, CacheAdmissionMode mode,
                                  const std::string& text) {
  AdmissionDecision decision;
  switch (mode) {
    case CacheAdmissionMode::kDenyAll:
      decision.admit = false;
      return decision;
    case CacheAdmissionMode::kAllowAll:
      decision.admit = true;
      decision.sanitized_text = text;
      return decision;
    case CacheAdmissionMode::kScrub: {
      ScrubResult scrubbed = scrubber.Scrub(text);
      decision.admit = true;
      decision.sanitized_text = std::move(scrubbed.text);
      return decision;
    }
    case CacheAdmissionMode::kRejectPii: {
      ScrubResult scrubbed = scrubber.Scrub(text);
      decision.admit = !scrubbed.AnyPiiFound();
      decision.sanitized_text = decision.admit ? text : std::string();
      return decision;
    }
  }
  return decision;
}

}  // namespace iccache
