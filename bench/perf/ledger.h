// Arithmetic of the repository benchmark (bench_perf): the per-layer cost
// ledger derived from flight-recorder spans.
#ifndef BENCH_PERF_LEDGER_H_
#define BENCH_PERF_LEDGER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/timeline.h"

namespace iccache {
namespace perf {

// Self time of each span (same order as `spans`): its duration minus the
// part of its interval covered by other spans of the same thread that lie
// entirely inside it. Overlapping siblings are counted once (interval union).
std::vector<uint64_t> SelfTimes(const std::vector<TimelineSpan>& spans);

// Per-layer host cost, nanoseconds per request, from one traced run.
// Driver-thread entries are wall time that adds up, with the driver thread's
// uncovered time, to Run's wall time; the others are pool-thread work summed
// over threads.
struct LedgerEntry {
  std::string name;
  double ns_per_req = 0.0;
  bool driver_thread = false;
};

// Span gaps the ledger works around (until the program's own spans cover
// them): stage0_probe spans exclude the stage-0 index search and
// stage1_retrieval spans exclude the ANN sweep, so both searches are read
// from hnsw_search spans instead — under stage1_batch for the sweep, outside
// it for the stage-0 probe plus the admission dedupe search (which has no
// span of its own).
std::vector<LedgerEntry> ComputeLedger(const std::vector<TimelineSpan>& spans,
                                       size_t requests);

// Wall time in [begin_ns, end_ns) covered by the union of the spans of
// thread `tid`.
uint64_t ThreadCoverageNs(const std::vector<TimelineSpan>& spans, uint32_t tid,
                          uint64_t begin_ns, uint64_t end_ns);

// Names of the entries of `run` whose relative change from the same-named
// entry of `base` exceeds `threshold` (entries at zero in both never move).
std::vector<std::string> MovedEntries(const std::vector<LedgerEntry>& base,
                                      const std::vector<LedgerEntry>& run, double threshold);

// Checks the arithmetic above on synthetic inputs; prints one line per check
// and returns true when all pass.
bool RunSelfTest();

}  // namespace perf
}  // namespace iccache

#endif  // BENCH_PERF_LEDGER_H_
