#include "src/common/trace.h"

#include <algorithm>
#include <chrono>

#include "src/common/json.h"

namespace gpudb {

namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t ThisThreadOrdinal() {
  static std::atomic<uint64_t> next{1};
  thread_local uint64_t ordinal = next.fetch_add(1);
  return ordinal;
}

/// Stack of open span ids on this thread, innermost last.
std::vector<uint64_t>& ThreadSpanStack() {
  thread_local std::vector<uint64_t> stack;
  return stack;
}

/// Span ids come from one process-wide sequence (see Tracer).
std::atomic<uint64_t> next_span_id{1};

/// This thread's innermost open TraceCapture tracer; null = Global().
thread_local Tracer* current_tracer = nullptr;

}  // namespace

double FinishedSpan::NumberTag(std::string_view key, double fallback) const {
  for (const TraceTag& tag : tags) {
    if (tag.key == key) return tag.is_number ? tag.number : fallback;
  }
  return fallback;
}

std::string_view FinishedSpan::TextTag(std::string_view key) const {
  for (const TraceTag& tag : tags) {
    if (tag.key == key) return tag.text;
  }
  return {};
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer& Tracer::Current() {
  return current_tracer != nullptr ? *current_tracer : Global();
}

std::vector<FinishedSpan> Tracer::Finished() const {
  MutexLock lock(&mu_);
  return finished_;
}

void Tracer::Counter(std::string_view name, double value) {
  if (!enabled()) return;
  CounterSample sample;
  sample.name = std::string(name);
  sample.value = value;
  sample.ts_us = NowMicros();
  sample.thread_id = ThisThreadOrdinal();
  MutexLock lock(&mu_);
  counters_.push_back(std::move(sample));
}

std::vector<CounterSample> Tracer::CounterSamples() const {
  MutexLock lock(&mu_);
  return counters_;
}

void Tracer::Clear() {
  MutexLock lock(&mu_);
  finished_.clear();
  counters_.clear();
}

void Tracer::Append(const Tracer& from) {
  const std::vector<FinishedSpan> spans = from.Finished();
  const std::vector<CounterSample> samples = from.CounterSamples();
  MutexLock lock(&mu_);
  finished_.insert(finished_.end(), spans.begin(), spans.end());
  counters_.insert(counters_.end(), samples.begin(), samples.end());
}

uint64_t Tracer::Begin(std::string_view name) {
  if (!enabled()) return 0;
  OpenSpan span;
  const uint64_t id = next_span_id.fetch_add(1, std::memory_order_relaxed);
  span.id = id;
  span.thread_id = ThisThreadOrdinal();
  span.name = std::string(name);
  span.start_us = NowMicros();
  std::vector<uint64_t>& stack = ThreadSpanStack();
  span.parent_id = stack.empty() ? 0 : stack.back();
  stack.push_back(id);
  {
    MutexLock lock(&mu_);
    open_.push_back(std::move(span));
  }
  return id;
}

void Tracer::End(uint64_t id, std::vector<TraceTag> tags) {
  if (id == 0) return;
  std::vector<uint64_t>& stack = ThreadSpanStack();
  // Spans are RAII so they close innermost-first; tolerate (and repair)
  // out-of-order closes from moved-about handles by searching the stack.
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (*it == id) {
      stack.erase(std::next(it).base());
      break;
    }
  }
  const int64_t now = NowMicros();
  MutexLock lock(&mu_);
  for (auto it = open_.begin(); it != open_.end(); ++it) {
    if (it->id != id) continue;
    FinishedSpan done;
    done.id = it->id;
    done.parent_id = it->parent_id;
    done.thread_id = it->thread_id;
    done.name = std::move(it->name);
    done.start_us = it->start_us;
    done.end_us = now;
    done.tags = std::move(tags);
    open_.erase(it);
    finished_.push_back(std::move(done));
    return;
  }
}

std::string Tracer::ToChromeTrace(const std::vector<FinishedSpan>& spans) {
  return ToChromeTrace(spans, {});
}

std::string Tracer::ToChromeTrace(const std::vector<FinishedSpan>& spans,
                                  const std::vector<CounterSample>& counters) {
  // Chrome's trace_event format: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
  // Complete ("X") events carry ts + dur; parent/child structure is implied
  // by nesting on the same pid/tid timeline. Span ids and parent ids are
  // also exported under args for tools that want the exact forest. Counter
  // samples become "C" events the viewer draws as value tracks.
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const FinishedSpan& span : spans) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":" + json::Quote(span.name) +
           ",\"cat\":\"gpudb\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
           std::to_string(span.thread_id) +
           ",\"ts\":" + std::to_string(span.start_us) +
           ",\"dur\":" + std::to_string(span.duration_us()) + ",\"args\":{";
    out += "\"span_id\":" + std::to_string(span.id) +
           ",\"parent_id\":" + std::to_string(span.parent_id);
    for (const TraceTag& tag : span.tags) {
      out += "," + json::Quote(tag.key) + ":";
      out += tag.is_number ? json::Number(tag.number) : json::Quote(tag.text);
    }
    out += "}}";
  }
  for (const CounterSample& sample : counters) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":" + json::Quote(sample.name) +
           ",\"cat\":\"gpudb\",\"ph\":\"C\",\"pid\":1,\"tid\":" +
           std::to_string(sample.thread_id) +
           ",\"ts\":" + std::to_string(sample.ts_us) +
           ",\"args\":{\"value\":" + json::Number(sample.value) + "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

TraceSpan::TraceSpan(std::string_view name, Tracer* tracer)
    : tracer_(tracer), id_(tracer->Begin(name)) {}

TraceSpan::~TraceSpan() { tracer_->End(id_, std::move(tags_)); }

TraceCapture::TraceCapture() : outer_(&Tracer::Current()) {
  tracer_.set_enabled(true);
  current_tracer = &tracer_;
}

TraceCapture::~TraceCapture() {
  current_tracer = outer_ == &Tracer::Global() ? nullptr : outer_;
  if (outer_->enabled()) outer_->Append(tracer_);
}

TraceContext TraceContext::Current() {
  const std::vector<uint64_t>& stack = ThreadSpanStack();
  return {&Tracer::Current(), stack.empty() ? 0 : stack.back()};
}

TraceAdoption::TraceAdoption(const TraceContext& context)
    : saved_(current_tracer), parent_id_(context.parent_id) {
  current_tracer =
      context.tracer == &Tracer::Global() ? nullptr : context.tracer;
  if (parent_id_ != 0) ThreadSpanStack().push_back(parent_id_);
}

TraceAdoption::~TraceAdoption() {
  if (parent_id_ != 0) {
    std::vector<uint64_t>& stack = ThreadSpanStack();
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (*it == parent_id_) {
        stack.erase(std::next(it).base());
        break;
      }
    }
  }
  current_tracer = saved_;
}

void TraceSpan::AddTag(std::string_view key, std::string_view value) {
  if (!active()) return;
  TraceTag tag;
  tag.key = std::string(key);
  tag.text = std::string(value);
  tags_.push_back(std::move(tag));
}

void TraceSpan::AddTag(std::string_view key, double value) {
  if (!active()) return;
  TraceTag tag;
  tag.key = std::string(key);
  tag.text = json::Number(value);
  tag.number = value;
  tag.is_number = true;
  tags_.push_back(std::move(tag));
}

}  // namespace gpudb
