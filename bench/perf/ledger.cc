#include "bench/perf/ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "src/common/rng.h"
#include "src/obs/trace.h"

namespace iccache {
namespace perf {

namespace {

// Span indices per thread, each list sorted by (begin asc, end desc): a span
// precedes every span nested inside it.
std::map<uint32_t, std::vector<size_t>> ByThread(const std::vector<TimelineSpan>& spans) {
  std::map<uint32_t, std::vector<size_t>> by_thread;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_thread[spans[i].tid].push_back(i);
  }
  for (auto& [tid, order] : by_thread) {
    std::sort(order.begin(), order.end(), [&spans](size_t a, size_t b) {
      if (spans[a].begin_ns != spans[b].begin_ns) {
        return spans[a].begin_ns < spans[b].begin_ns;
      }
      if (spans[a].end_ns != spans[b].end_ns) {
        return spans[a].end_ns > spans[b].end_ns;
      }
      return a < b;
    });
  }
  return by_thread;
}

enum class Mode {
  kTotal,               // summed span durations
  kSelf,                // summed self times
  kOutsideStage1Batch,  // durations of spans not nested in a stage1_batch span
};

struct LedgerRule {
  const char* name;
  TraceCategory category;
  Mode mode;
  bool driver_thread;
};

// Ledger order follows a request through the pipeline: prepare (pool), commit
// lane (pool), then the driver thread's merge, publish and window boundary.
constexpr LedgerRule kLedgerRules[] = {
    {"embedding.embed.ns_per_req", TraceCategory::kEmbed, Mode::kTotal, false},
    {"core.stage0.probe.ns_per_req", TraceCategory::kStage0Probe, Mode::kTotal, false},
    {"index.stage1_sweep.ns_per_req", TraceCategory::kStage1Batch, Mode::kTotal, false},
    {"index.other_search.ns_per_req", TraceCategory::kHnswSearch, Mode::kOutsideStage1Batch,
     false},
    {"core.selector.stage1_assemble.ns_per_req", TraceCategory::kStage1Retrieval, Mode::kTotal,
     false},
    {"core.selector.stage2.ns_per_req", TraceCategory::kStage2Scoring, Mode::kTotal, false},
    {"serving.lane_commit.self_ns_per_req", TraceCategory::kLaneCommit, Mode::kSelf, false},
    {"core.router.route.ns_per_req", TraceCategory::kRoute, Mode::kTotal, false},
    {"llm.generate.ns_per_req", TraceCategory::kGenerate, Mode::kTotal, false},
    {"serving.merge.ns_per_req", TraceCategory::kMerge, Mode::kTotal, true},
    {"serving.publish.ns_per_req", TraceCategory::kPublish, Mode::kTotal, true},
    {"serving.window.self_ns_per_req", TraceCategory::kWindow, Mode::kSelf, true},
    {"serving.maintenance.apply.ns_per_req", TraceCategory::kMaintenanceApply, Mode::kTotal, true},
    {"persist.checkpoint.ns_per_req", TraceCategory::kCheckpointWrite, Mode::kTotal, true},
};

}  // namespace

std::vector<uint64_t> SelfTimes(const std::vector<TimelineSpan>& spans) {
  std::vector<uint64_t> self(spans.size(), 0);
  for (const auto& [tid, order] : ByThread(spans)) {
    for (size_t pos = 0; pos < order.size(); ++pos) {
      const TimelineSpan& outer = spans[order[pos]];
      uint64_t covered = 0;
      uint64_t cover_end = outer.begin_ns;
      for (size_t next = pos + 1; next < order.size(); ++next) {
        const TimelineSpan& inner = spans[order[next]];
        if (inner.begin_ns >= outer.end_ns) {
          break;
        }
        if (inner.end_ns > outer.end_ns) {
          continue;  // overlaps the outer span without nesting in it
        }
        const uint64_t from = std::max(inner.begin_ns, cover_end);
        if (inner.end_ns > from) {
          covered += inner.end_ns - from;
          cover_end = inner.end_ns;
        }
      }
      self[order[pos]] = outer.duration_ns() - std::min(covered, outer.duration_ns());
    }
  }
  return self;
}

std::vector<LedgerEntry> ComputeLedger(const std::vector<TimelineSpan>& spans,
                                       size_t requests) {
  const std::vector<uint64_t> self = SelfTimes(spans);

  // stage1_batch intervals per thread, sorted by begin (batches on one
  // thread never overlap), for the nested-in-a-sweep test.
  const std::string batch_name = TraceCategoryName(TraceCategory::kStage1Batch);
  std::map<uint32_t, std::vector<std::pair<uint64_t, uint64_t>>> batches;
  for (const TimelineSpan& span : spans) {
    if (span.name == batch_name) {
      batches[span.tid].emplace_back(span.begin_ns, span.end_ns);
    }
  }
  for (auto& [tid, intervals] : batches) {
    std::sort(intervals.begin(), intervals.end());
  }
  const auto in_batch = [&batches](const TimelineSpan& span) {
    const auto it = batches.find(span.tid);
    if (it == batches.end()) {
      return false;
    }
    const auto& intervals = it->second;
    auto after = std::upper_bound(intervals.begin(), intervals.end(),
                                  std::make_pair(span.begin_ns, UINT64_MAX));
    if (after == intervals.begin()) {
      return false;
    }
    --after;
    return span.end_ns <= after->second;
  };

  std::vector<LedgerEntry> ledger;
  const double per_req = requests > 0 ? 1.0 / static_cast<double>(requests) : 0.0;
  for (const LedgerRule& rule : kLedgerRules) {
    const std::string name = TraceCategoryName(rule.category);
    double total_ns = 0.0;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name != name) {
        continue;
      }
      switch (rule.mode) {
        case Mode::kTotal:
          total_ns += static_cast<double>(spans[i].duration_ns());
          break;
        case Mode::kSelf:
          total_ns += static_cast<double>(self[i]);
          break;
        case Mode::kOutsideStage1Batch:
          if (!in_batch(spans[i])) {
            total_ns += static_cast<double>(spans[i].duration_ns());
          }
          break;
      }
    }
    ledger.push_back({rule.name, total_ns * per_req, rule.driver_thread});
  }
  return ledger;
}

uint64_t ThreadCoverageNs(const std::vector<TimelineSpan>& spans, uint32_t tid,
                          uint64_t begin_ns, uint64_t end_ns) {
  std::vector<std::pair<uint64_t, uint64_t>> intervals;
  for (const TimelineSpan& span : spans) {
    const uint64_t from = std::max(span.begin_ns, begin_ns);
    const uint64_t to = std::min(span.end_ns, end_ns);
    if (span.tid == tid && to > from) {
      intervals.emplace_back(from, to);
    }
  }
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0;
  uint64_t cover_end = begin_ns;
  for (const auto& [from, to] : intervals) {
    const uint64_t start = std::max(from, cover_end);
    if (to > start) {
      covered += to - start;
      cover_end = to;
    }
  }
  return covered;
}

std::vector<std::string> MovedEntries(const std::vector<LedgerEntry>& base,
                                      const std::vector<LedgerEntry>& run, double threshold) {
  std::vector<std::string> moved;
  for (const LedgerEntry& entry : run) {
    const auto it = std::find_if(base.begin(), base.end(),
                                 [&entry](const LedgerEntry& b) { return b.name == entry.name; });
    const double before = it == base.end() ? 0.0 : it->ns_per_req;
    if (before == 0.0 && entry.ns_per_req == 0.0) {
      continue;
    }
    if (before == 0.0 || std::fabs(entry.ns_per_req - before) / before > threshold) {
      moved.push_back(entry.name);
    }
  }
  return moved;
}

// --- Self-test ---------------------------------------------------------------

namespace {

// Per-request cost (ns) of each ledger entry in the synthetic trace; the
// doctored-slowdown check scales exactly one of them.
using SyntheticCosts = std::map<std::string, double>;

SyntheticCosts BaseCosts() {
  return {{"embedding.embed.ns_per_req", 900},
          {"core.stage0.probe.ns_per_req", 300},
          {"index.stage1_sweep.ns_per_req", 6000},
          {"index.other_search.ns_per_req", 2500},
          {"core.selector.stage1_assemble.ns_per_req", 1500},
          {"core.selector.stage2.ns_per_req", 400},
          {"serving.lane_commit.self_ns_per_req", 700},
          {"core.router.route.ns_per_req", 1200},
          {"llm.generate.ns_per_req", 2000},
          {"serving.merge.ns_per_req", 3000},
          {"serving.publish.ns_per_req", 800},
          {"serving.window.self_ns_per_req", 5000},
          {"serving.maintenance.apply.ns_per_req", 600},
          {"persist.checkpoint.ns_per_req", 400}};
}

// A driver-shaped synthetic trace: a driver thread (tid 0) running windows
// that nest a merge of per-request merge steps, a publish, a maintenance
// apply and a checkpoint; pool threads (tids 1-4) running prepare chunks
// (embeds, a stage-0 index search, per-query stage-0 probes, a stage-1 sweep
// nesting its searches, per-request assembly/scoring/dedupe search, and the
// manually bracketed, mutually overlapping per-request prepare spans) and
// commit lanes nesting lane_commit > {route, generate}. Every duration gets
// an independent +-1% jitter from `seed`.
std::vector<TimelineSpan> SyntheticTrace(const SyntheticCosts& cost, uint64_t seed,
                                         size_t windows, size_t window_size) {
  constexpr size_t kChunk = 16;
  constexpr uint32_t kPoolThreads = 4;
  Rng rng(seed);
  std::vector<TimelineSpan> spans;
  const auto jitter = [&rng](double ns) {
    return static_cast<uint64_t>(std::llround(ns * (1.0 + 0.02 * (rng.Uniform() - 0.5))));
  };
  const auto emit = [&spans](TraceCategory category, uint32_t tid, uint64_t request_id,
                             uint64_t begin, uint64_t end) {
    TimelineSpan span;
    span.name = TraceCategoryName(category);
    span.tid = tid;
    span.request_id = request_id;
    span.begin_ns = begin;
    span.end_ns = end;
    spans.push_back(std::move(span));
  };
  const auto c = [&cost](const char* name) { return cost.at(name); };

  uint64_t driver_t = 0;
  std::vector<uint64_t> pool_t(kPoolThreads + 1, 0);
  uint64_t next_id = 1;
  for (size_t w = 0; w < windows; ++w) {
    const uint64_t first_id = next_id;
    next_id += window_size;

    // Prepare chunks, round-robin over the pool threads.
    for (size_t chunk_begin = 0; chunk_begin < window_size; chunk_begin += kChunk) {
      const uint32_t tid = 1 + static_cast<uint32_t>((chunk_begin / kChunk) % kPoolThreads);
      uint64_t& t = pool_t[tid];
      const size_t count = std::min(kChunk, window_size - chunk_begin);
      std::vector<uint64_t> prepare_begin(count);
      for (size_t i = 0; i < count; ++i) {
        prepare_begin[i] = t;
        const uint64_t end = t + jitter(c("embedding.embed.ns_per_req"));
        emit(TraceCategory::kEmbed, tid, first_id + chunk_begin + i, t, end);
        t = end;
      }
      const double half_other = 0.5 * c("index.other_search.ns_per_req");
      uint64_t end = t + jitter(half_other * static_cast<double>(count));
      emit(TraceCategory::kHnswSearch, tid, 0, t, end);  // stage-0 probe search
      t = end;
      for (size_t i = 0; i < count; ++i) {
        end = t + jitter(c("core.stage0.probe.ns_per_req"));
        emit(TraceCategory::kStage0Probe, tid, 0, t, end);
        t = end;
      }
      const double sweep = c("index.stage1_sweep.ns_per_req") * static_cast<double>(count);
      const uint64_t batch_begin = t;
      const uint64_t search_begin = t + jitter(0.2 * sweep);
      const uint64_t search_end = search_begin + jitter(0.7 * sweep);
      emit(TraceCategory::kHnswSearch, tid, 0, search_begin, search_end);
      t = search_end + jitter(0.1 * sweep);
      emit(TraceCategory::kStage1Batch, tid, 0, batch_begin, t);
      for (size_t i = 0; i < count; ++i) {
        const uint64_t id = first_id + chunk_begin + i;
        end = t + jitter(c("core.selector.stage1_assemble.ns_per_req"));
        emit(TraceCategory::kStage1Retrieval, tid, id, t, end);
        t = end;
        end = t + jitter(c("core.selector.stage2.ns_per_req"));
        emit(TraceCategory::kStage2Scoring, tid, id, t, end);
        t = end;
        end = t + jitter(half_other);
        emit(TraceCategory::kHnswSearch, tid, 0, t, end);  // admission dedupe search
        t = end;
        emit(TraceCategory::kPrepare, tid, id, prepare_begin[i], t);
      }
    }

    // Commit lanes: one per pool thread, each nesting its requests.
    const size_t per_lane = window_size / kPoolThreads;
    for (uint32_t lane = 0; lane < kPoolThreads; ++lane) {
      const uint32_t tid = 1 + lane;
      uint64_t& t = pool_t[tid];
      const uint64_t lane_begin = t;
      for (size_t i = 0; i < per_lane; ++i) {
        const uint64_t id = first_id + lane * per_lane + i;
        const uint64_t commit_begin = t;
        uint64_t end = t + jitter(c("core.router.route.ns_per_req"));
        emit(TraceCategory::kRoute, tid, id, t, end);
        t = end;
        end = t + jitter(c("llm.generate.ns_per_req"));
        emit(TraceCategory::kGenerate, tid, id, t, end);
        t = end + jitter(c("serving.lane_commit.self_ns_per_req"));
        emit(TraceCategory::kLaneCommit, tid, id, commit_begin, t);
      }
      emit(TraceCategory::kCommitLane, tid, 0, lane_begin, t);
    }

    // Driver thread: the window nests merge (with its steps), publish,
    // maintenance apply and checkpoint; the rest of it is self time.
    const double n = static_cast<double>(window_size);
    const uint64_t window_begin = driver_t;
    uint64_t t = driver_t + jitter(c("serving.window.self_ns_per_req") * n);
    const uint64_t merge_begin = t;
    for (size_t i = 0; i < window_size; ++i) {
      const uint64_t end = t + jitter(c("serving.merge.ns_per_req"));
      emit(TraceCategory::kMergeStep, 0, first_id + i, t, end);
      t = end;
    }
    emit(TraceCategory::kMerge, 0, 0, merge_begin, t);
    for (const auto& [category, name] :
         {std::make_pair(TraceCategory::kPublish, "serving.publish.ns_per_req"),
          std::make_pair(TraceCategory::kMaintenanceApply, "serving.maintenance.apply.ns_per_req"),
          std::make_pair(TraceCategory::kCheckpointWrite, "persist.checkpoint.ns_per_req")}) {
      const uint64_t end = t + jitter(c(name) * n);
      emit(category, 0, 0, t, end);
      t = end;
    }
    emit(TraceCategory::kWindow, 0, 0, window_begin, t);
    driver_t = t;
  }
  return spans;
}

bool Check(bool ok, const std::string& what) {
  std::printf("  %-66s %s\n", what.c_str(), ok ? "ok" : "FAIL");
  return ok;
}

}  // namespace

bool RunSelfTest() {
  bool ok = true;

  // Nested self time: A [0,100] holds B [10,30] (which holds C [15,20]), D
  // [50,70] and E [60,80]; E overlaps D without nesting in it. F on another
  // thread overlaps A and must not count.
  std::vector<TimelineSpan> nested(6);
  const uint64_t bounds[6][3] = {{0, 0, 100}, {0, 10, 30}, {0, 15, 20},
                                 {0, 50, 70}, {0, 60, 80}, {1, 20, 90}};
  for (size_t i = 0; i < nested.size(); ++i) {
    nested[i].tid = static_cast<uint32_t>(bounds[i][0]);
    nested[i].begin_ns = bounds[i][1];
    nested[i].end_ns = bounds[i][2];
  }
  const std::vector<uint64_t> self = SelfTimes(nested);
  ok &= Check(self[0] == 50 && self[1] == 15 && self[2] == 5 && self[3] == 20 && self[4] == 20 &&
                  self[5] == 70,
              "nested self time (union of nested same-thread spans)");
  ok &= Check(ThreadCoverageNs(nested, 0, 5, 95) == 90 && ThreadCoverageNs(nested, 1, 0, 50) == 30,
              "thread coverage clipped to a window");

  // The ledger recovers every synthetic per-request cost within the jitter.
  constexpr size_t kWindows = 40;
  constexpr size_t kWindowSize = 64;
  const SyntheticCosts base_costs = BaseCosts();
  const std::vector<LedgerEntry> base =
      ComputeLedger(SyntheticTrace(base_costs, 1, kWindows, kWindowSize), kWindows * kWindowSize);
  bool recovered = base.size() == base_costs.size();
  for (const LedgerEntry& entry : base) {
    const double expected = base_costs.at(entry.name);
    recovered = recovered && std::fabs(entry.ns_per_req - expected) <= 0.01 * expected;
  }
  ok &= Check(recovered, "ledger recovers each synthetic per-request cost within 1%");

  // Same costs, fresh jitter: nothing may be flagged.
  const std::vector<LedgerEntry> rerun =
      ComputeLedger(SyntheticTrace(base_costs, 2, kWindows, kWindowSize), kWindows * kWindowSize);
  ok &= Check(MovedEntries(base, rerun, 0.05).empty(), "unchanged costs flag no entry");

  // Doctored slowdown: +10% on one entry must be flagged there and nowhere
  // else, for every entry in turn.
  bool localized = true;
  for (const auto& [name, value] : base_costs) {
    SyntheticCosts doctored = base_costs;
    doctored[name] = value * 1.10;
    const std::vector<std::string> moved = MovedEntries(
        base,
        ComputeLedger(SyntheticTrace(doctored, 3, kWindows, kWindowSize), kWindows * kWindowSize),
        0.05);
    if (moved.size() != 1 || moved[0] != name) {
      std::printf("    doctored %s flagged %zu entries\n", name.c_str(), moved.size());
      localized = false;
    }
  }
  ok &= Check(localized, "+10% on any one entry is flagged at that entry only (14 cases)");
  return ok;
}

}  // namespace perf
}  // namespace iccache
