#ifndef GPUDB_COMMON_TRACE_H_
#define GPUDB_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace gpudb {

/// \brief One key/value annotation on a span. Numeric tags keep their value
/// so exporters can emit unquoted JSON numbers and analyzers (EXPLAIN
/// ANALYZE) can read them back without parsing strings.
struct TraceTag {
  std::string key;
  std::string text;      ///< String form (always set).
  double number = 0.0;   ///< Numeric value when is_number.
  bool is_number = false;
};

/// \brief A closed span as recorded by the Tracer sink.
///
/// Spans form a forest: `parent_id` is the id of the span that was active on
/// the same thread when this one opened (0 = no parent). `start_us`/`end_us`
/// are microseconds on a process-local monotonic clock, so durations and
/// ordering are meaningful but absolute values are not wall-clock.
struct FinishedSpan {
  uint64_t id = 0;
  uint64_t parent_id = 0;
  uint64_t thread_id = 0;  ///< Small per-process ordinal, not an OS tid.
  std::string name;
  int64_t start_us = 0;
  int64_t end_us = 0;
  std::vector<TraceTag> tags;

  int64_t duration_us() const { return end_us - start_us; }

  /// Numeric tag lookup; returns `fallback` when absent or non-numeric.
  double NumberTag(std::string_view key, double fallback = 0.0) const;
  /// String tag lookup; returns "" when absent.
  std::string_view TextTag(std::string_view key) const;
};

/// \brief One point on a named counter track (Chrome trace_event "C" phase):
/// per-band wall times, engine busy time, queue depths. Samples share the
/// spans' monotonic microsecond clock so tracks line up under the spans in
/// the trace viewer.
struct CounterSample {
  std::string name;
  double value = 0.0;
  int64_t ts_us = 0;
  uint64_t thread_id = 0;
};

/// \brief Thread-safe sink of finished spans.
///
/// Tracing is off by default: an inactive TraceSpan costs one relaxed atomic
/// load, so instrumentation can stay in hot simulator paths (Device passes)
/// unconditionally. A process-wide instance is available via Global(); a
/// TraceCapture gives one thread a private one for a while (Current()), and
/// tests may construct private tracers to stay isolated.
///
/// Span nesting is tracked with one thread-local stack of open span ids
/// shared by every tracer, and span ids are unique across the process, so a
/// span opened on one tracer inside a span of another names it as parent
/// without ever colliding with an id of its own tracer.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  static Tracer& Global();

  /// The tracer this thread records to by default: the innermost open
  /// TraceCapture's, else Global(). TraceSpan defaults to it, and
  /// instrumented code checks its enabled() before building tags.
  static Tracer& Current();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// All finished spans, in completion order (children close before their
  /// parents).
  std::vector<FinishedSpan> Finished() const;

  /// Records one sample on a counter track. No-op while disabled. Counter
  /// names are metric names and must be registered in metric_names.h
  /// (gpulint R5 checks Counter() literals like counter()/histogram() ones).
  void Counter(std::string_view name, double value);

  /// All recorded counter samples, in record order.
  std::vector<CounterSample> CounterSamples() const;

  /// Drops all finished spans and counter samples (open spans are unaffected
  /// and will still be recorded when they close).
  void Clear();

  /// Serializes spans in the Chrome trace_event JSON format ("traceEvents"
  /// array of complete "X" events) loadable by chrome://tracing / Perfetto.
  static std::string ToChromeTrace(const std::vector<FinishedSpan>& spans);

  /// As above, with counter tracks: each CounterSample becomes a "C"-phase
  /// event whose args carry the value, rendered by the viewer as a stacked
  /// track per counter name.
  static std::string ToChromeTrace(const std::vector<FinishedSpan>& spans,
                                   const std::vector<CounterSample>& counters);

 private:
  friend class TraceSpan;
  friend class TraceCapture;

  /// Opens a span; returns its id (0 when tracing is disabled).
  uint64_t Begin(std::string_view name);
  void End(uint64_t id, std::vector<TraceTag> tags);

  /// Appends copies of `from`'s finished spans and counter samples.
  void Append(const Tracer& from);

  struct OpenSpan {
    uint64_t id = 0;
    uint64_t parent_id = 0;
    uint64_t thread_id = 0;
    std::string name;
    int64_t start_us = 0;
  };

  std::atomic<bool> enabled_{false};   // lint: lock-free (relaxed atomic)
  /// Lock-order level: `trace` (innermost leaf) -- span bookkeeping only,
  /// nothing is called out while mu_ is held.
  mutable Mutex mu_;
  std::vector<OpenSpan> open_ GUARDED_BY(mu_);
  std::vector<FinishedSpan> finished_ GUARDED_BY(mu_);
  std::vector<CounterSample> counters_ GUARDED_BY(mu_);
};

/// \brief RAII span handle: opens on construction, closes on destruction.
///
///   {
///     TraceSpan span("Count");
///     span.AddTag("rows", rows);
///     ... work ...
///   }  // span closes here
///
/// When the tracer is disabled at construction the span is inert (tags are
/// dropped, nothing is recorded).
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name,
                     Tracer* tracer = &Tracer::Current());
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool active() const { return id_ != 0; }
  uint64_t id() const { return id_; }

  void AddTag(std::string_view key, std::string_view value);
  void AddTag(std::string_view key, const char* value) {
    AddTag(key, std::string_view(value));
  }
  void AddTag(std::string_view key, double value);
  void AddTag(std::string_view key, uint64_t value) {
    AddTag(key, static_cast<double>(value));
  }
  void AddTag(std::string_view key, int value) {
    AddTag(key, static_cast<double>(value));
  }

 private:
  Tracer* tracer_;
  uint64_t id_;
  std::vector<TraceTag> tags_;
};

/// \brief Where a thread's spans go: its Tracer::Current() and its innermost
/// open span. Both live in thread-local state, so a helper thread that runs
/// part of another thread's work captures the caller's context there and
/// adopts it (TraceAdoption) for the work's duration.
struct TraceContext {
  Tracer* tracer = nullptr;
  uint64_t parent_id = 0;  ///< 0 = no open span.

  /// The calling thread's context.
  static TraceContext Current();
};

/// \brief Lends this thread another thread's TraceContext for the scope's
/// lifetime: Tracer::Current() is the context's tracer, and spans opened
/// here name the context's span as their parent. Restores this thread's
/// own context on close. The lending thread's span must stay open until
/// the adoption closes.
class TraceAdoption {
 public:
  explicit TraceAdoption(const TraceContext& context);
  ~TraceAdoption();

  TraceAdoption(const TraceAdoption&) = delete;
  TraceAdoption& operator=(const TraceAdoption&) = delete;

 private:
  Tracer* saved_;       ///< This thread's capture tracer before (null = none).
  uint64_t parent_id_;  ///< The span pushed onto this thread's stack, or 0.
};

/// \brief Statement-scoped trace capture (EXPLAIN ANALYZE).
///
/// While open, Tracer::Current() on the opening thread is the capture's own
/// enabled tracer: what that thread records lands here, other threads'
/// spans never mix in, and everything is freed with the capture. On close,
/// the capture is appended to the tracer that was current before if that
/// one is enabled (sql_shell --trace, an enclosing capture), so its trace
/// stays complete. A capture belongs to the thread that opened it; a
/// helper thread records into it only while it adopts that thread's
/// TraceContext (TraceAdoption), which must end before the capture closes.
class TraceCapture {
 public:
  TraceCapture();
  ~TraceCapture();

  TraceCapture(const TraceCapture&) = delete;
  TraceCapture& operator=(const TraceCapture&) = delete;

  /// The spans finished on this thread since the capture opened.
  std::vector<FinishedSpan> Finished() const { return tracer_.Finished(); }

 private:
  Tracer tracer_;
  Tracer* outer_;  ///< Current() when the capture opened.
};

}  // namespace gpudb

#endif  // GPUDB_COMMON_TRACE_H_
