// Flight-recorder tracing for the serving pipeline. Each thread that emits
// spans owns a fixed-capacity ring buffer inside the process-wide
// TraceRecorder; emission is a single unsynchronized slot write plus a
// release store of the ring head, so instrumented hot paths pay one relaxed
// atomic load when tracing is disabled and a few dozen nanoseconds when it is
// enabled. Rings overwrite their oldest entries when full and account every
// overwritten span as dropped, which keeps memory bounded on arbitrarily long
// runs (a flight recorder, not a log).
//
// Tracing is strictly passive: spans record wall-clock ticks and pre-existing
// values, never consume randomness, and never change control flow, so driver
// decisions are byte-identical with tracing on or off by construction.
// TakeSnapshot()/Reset() are quiescent-only operations — call them when no
// thread is emitting (e.g. between driver runs).
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace iccache {

// One enumerator per instrumented pipeline stage. Keep TraceCategoryName()
// and the README span taxonomy table in sync when adding stages.
enum class TraceCategory : uint8_t {
  kWindow = 0,         // one driver batch window, end to end
  kPrepare,            // per-request prepare (embed + retrieval + scoring)
  kEmbed,              // embedding lookup inside prepare
  kStage0Probe,        // stage-0 semantic response-cache probe
  kStage1Retrieval,    // selector stage-1 ANN retrieval
  kStage2Scoring,      // selector stage-2 proxy scoring
  kHnswSearch,         // HNSW graph search (args: visited nodes, hops)
  kCommitLane,         // one commit lane's batch for a window (arg0: slots)
  kLaneCommit,         // one request's decision inside a commit lane
  kMerge,              // deterministic arrival-order merge on driver thread
  kPublish,            // per-shard publish fan-out
  kMaintenancePlan,    // planning one maintenance tick on the driver thread
  kMaintenanceApply,   // applying a collected maintenance plan
  kCheckpointWrite,    // checkpointer snapshot write
  kServiceRequest,     // IcCacheService::ServeRequest end to end
  kRoute,              // bandit routing inside a commit lane
  kGenerate,           // generation (incl. shadow probes) inside a commit lane
  kMergeStep,          // one request's slice of the serial merge
  kAnomaly,            // SLO-watchdog anomaly (instant; arg0: rule, arg1: window)
  kStage1Batch,        // one chunk's batched stage-1 sweep (arg0: batch size)
  kNumCategories,
};

const char* TraceCategoryName(TraceCategory category);

struct TraceEvent {
  uint64_t begin_ns = 0;  // monotonic, relative to the recorder epoch
  uint64_t end_ns = 0;
  uint64_t request_id = 0;  // 0 when the span is not per-request
  uint64_t arg0 = 0;        // category-specific payload (see taxonomy)
  uint64_t arg1 = 0;
  uint32_t lane = 0;
  TraceCategory category = TraceCategory::kWindow;
};

class TraceRecorder {
 public:
  static constexpr size_t kDefaultRingCapacity = 1 << 14;  // per thread

  explicit TraceRecorder(size_t ring_capacity = kDefaultRingCapacity);
  ~TraceRecorder();  // out of line: Ring is incomplete here

  // Process-wide recorder used by TraceSpan; separate instances are only for
  // unit-testing ring semantics.
  static TraceRecorder& Global();

  // The only cost instrumentation pays when tracing is off.
  static bool tracing_enabled() {
    return Global().enabled_.load(std::memory_order_relaxed);
  }

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Applies to rings created after the call; existing rings keep their size.
  void set_ring_capacity(size_t capacity);
  size_t ring_capacity() const;

  // Appends to the calling thread's ring (registered on first use; ring
  // storage is never freed, so cached per-thread pointers stay valid across
  // Reset()). Safe to call concurrently from any number of threads.
  void Emit(const TraceEvent& event);

  // Monotonic nanoseconds since this recorder was constructed.
  uint64_t NowNs() const;

  struct ThreadEvents {
    uint32_t tid = 0;               // registration order, stable per ring
    uint64_t emitted = 0;           // total spans emitted on this ring
    uint64_t dropped = 0;           // overwritten before being snapshotted
    std::vector<TraceEvent> events;  // surviving spans, oldest first
  };
  struct Snapshot {
    std::vector<ThreadEvents> threads;
    uint64_t emitted = 0;
    uint64_t dropped = 0;
  };

  // Copies out every ring. Quiescent-only: no concurrent Emit().
  Snapshot TakeSnapshot() const;

  // Clears ring contents and counters but keeps ring registrations (and thus
  // any thread-cached ring pointers) intact. Quiescent-only.
  void Reset();

  uint64_t total_emitted() const;
  uint64_t total_dropped() const;

 private:
  class Ring;

  Ring* RingForThisThread();

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  uint64_t id_;  // process-unique, never reused: keys the thread-local ring cache
  mutable std::mutex mu_;  // guards rings_ registration and capacity
  size_t ring_capacity_;
  std::vector<std::unique_ptr<Ring>> rings_;
};

// RAII span: samples the clock at construction and emits one TraceEvent at
// destruction. When tracing is disabled the constructor is a single relaxed
// atomic load and the destructor a branch.
class TraceSpan {
 public:
  explicit TraceSpan(TraceCategory category, uint64_t request_id = 0,
                     uint32_t lane = 0) {
    if (!TraceRecorder::tracing_enabled()) {
      return;
    }
    active_ = true;
    event_.category = category;
    event_.request_id = request_id;
    event_.lane = lane;
    event_.begin_ns = TraceRecorder::Global().NowNs();
  }

  ~TraceSpan() {
    if (!active_) {
      return;
    }
    TraceRecorder& recorder = TraceRecorder::Global();
    event_.end_ns = recorder.NowNs();
    recorder.Emit(event_);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  // Category-specific payload, e.g. visited-node/hop counts for HNSW spans.
  void SetArgs(uint64_t arg0, uint64_t arg1 = 0) {
    event_.arg0 = arg0;
    event_.arg1 = arg1;
  }

  // Lets callers skip computing args when the span will never be emitted.
  bool active() const { return active_; }

 private:
  TraceEvent event_;
  bool active_ = false;
};

// Scoped enable/disable of the global recorder; restores the previous state
// on destruction (tests and benches).
class ScopedTracing {
 public:
  explicit ScopedTracing(bool enabled)
      : previous_(TraceRecorder::Global().enabled()) {
    TraceRecorder::Global().set_enabled(enabled);
  }
  ~ScopedTracing() { TraceRecorder::Global().set_enabled(previous_); }

  ScopedTracing(const ScopedTracing&) = delete;
  ScopedTracing& operator=(const ScopedTracing&) = delete;

 private:
  bool previous_;
};

}  // namespace iccache

#endif  // SRC_OBS_TRACE_H_
