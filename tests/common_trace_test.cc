#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/json.h"
#include "src/common/trace.h"

namespace gpudb {
namespace {

TEST(TracerTest, DisabledSpansAreInert) {
  Tracer tracer;
  ASSERT_FALSE(tracer.enabled());
  {
    TraceSpan span("noop", &tracer);
    EXPECT_FALSE(span.active());
    span.AddTag("dropped", 1.0);
  }
  EXPECT_TRUE(tracer.Finished().empty());
}

TEST(TracerTest, RecordsNestingAndCompletionOrder) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    TraceSpan outer("outer", &tracer);
    {
      TraceSpan inner("inner", &tracer);
      {
        TraceSpan leaf("leaf", &tracer);
      }
    }
    TraceSpan sibling("sibling", &tracer);
  }
  const std::vector<FinishedSpan> spans = tracer.Finished();
  ASSERT_EQ(spans.size(), 4u);
  // Children close before their parents.
  EXPECT_EQ(spans[0].name, "leaf");
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[2].name, "sibling");
  EXPECT_EQ(spans[3].name, "outer");
  // Parent links reconstruct the tree.
  EXPECT_EQ(spans[0].parent_id, spans[1].id);  // leaf under inner
  EXPECT_EQ(spans[1].parent_id, spans[3].id);  // inner under outer
  EXPECT_EQ(spans[2].parent_id, spans[3].id);  // sibling under outer
  EXPECT_EQ(spans[3].parent_id, 0u);           // outer is a root
  for (const FinishedSpan& s : spans) {
    EXPECT_GE(s.duration_us(), 0);
    EXPECT_LE(s.start_us, s.end_us);
  }
}

TEST(TracerTest, TagsKeepNumericValues) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    TraceSpan span("tagged", &tracer);
    span.AddTag("text", "hello");
    span.AddTag("number", 42.5);
    span.AddTag("count", uint64_t{7});
  }
  const FinishedSpan span = tracer.Finished().front();
  EXPECT_EQ(span.TextTag("text"), "hello");
  EXPECT_DOUBLE_EQ(span.NumberTag("number"), 42.5);
  EXPECT_DOUBLE_EQ(span.NumberTag("count"), 7.0);
  EXPECT_DOUBLE_EQ(span.NumberTag("absent", -1.0), -1.0);
  EXPECT_EQ(span.TextTag("absent"), "");
}

TEST(TracerTest, ClearDropsFinishedSpans) {
  Tracer tracer;
  tracer.set_enabled(true);
  { TraceSpan span("before", &tracer); }
  tracer.Clear();
  { TraceSpan span("after", &tracer); }
  const std::vector<FinishedSpan> spans = tracer.Finished();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "after");
}

TEST(TraceCaptureTest, RoutesThisThreadsDefaultSpansToTheCapture) {
  ASSERT_FALSE(Tracer::Global().enabled());
  ASSERT_EQ(&Tracer::Current(), &Tracer::Global());
  std::vector<FinishedSpan> spans;
  {
    TraceCapture capture;
    EXPECT_NE(&Tracer::Current(), &Tracer::Global());
    EXPECT_TRUE(Tracer::Current().enabled());
    {
      TraceSpan outer("query");
      TraceSpan inner("Where");
    }
    // Another thread's spans keep going to its own current tracer.
    std::thread([] {
      TraceSpan elsewhere("elsewhere");
      EXPECT_FALSE(elsewhere.active());
    }).join();
    spans = capture.Finished();
  }
  EXPECT_EQ(&Tracer::Current(), &Tracer::Global());
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "Where");
  EXPECT_EQ(spans[0].parent_id, spans[1].id);
  // With the process tracer off, nothing outlives the capture.
  EXPECT_TRUE(Tracer::Global().Finished().empty());
}

TEST(TraceCaptureTest, HandsSpansToAnEnabledOuterTracer) {
  Tracer& global = Tracer::Global();
  global.set_enabled(true);
  uint64_t outer_id = 0;
  std::vector<FinishedSpan> captured;
  {
    TraceSpan outer("statement");
    outer_id = outer.id();
    TraceCapture capture;
    {
      TraceSpan inner("query");
      Tracer::Current().Counter("gpu.band_ms", 1.0);
    }
    captured = capture.Finished();
  }
  global.set_enabled(false);
  const std::vector<FinishedSpan> spans = global.Finished();
  const std::vector<CounterSample> samples = global.CounterSamples();
  global.Clear();
  ASSERT_EQ(captured.size(), 1u);
  // Span ids are unique across tracers, so the captured span keeps its
  // parent link into the outer trace.
  EXPECT_EQ(captured[0].parent_id, outer_id);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].id, captured[0].id);
  EXPECT_EQ(spans[1].id, outer_id);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].name, "gpu.band_ms");
}

TEST(TracerTest, ChromeTraceJsonRoundTrips) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    TraceSpan outer("query", &tracer);
    outer.AddTag("sql", "SELECT \"quoted\"\n");
    outer.AddTag("rows", 1024.0);
    TraceSpan inner("Where", &tracer);
  }
  const std::string text = Tracer::ToChromeTrace(tracer.Finished());

  auto parsed = json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value& doc = parsed.ValueOrDie();
  ASSERT_TRUE(doc.is_object());
  const json::Value* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->as_array().size(), 2u);

  for (const json::Value& event : events->as_array()) {
    ASSERT_TRUE(event.is_object());
    // Required Chrome trace_event fields for a complete ("X") event.
    for (const char* key : {"name", "cat", "ph", "pid", "tid", "ts", "dur"}) {
      EXPECT_NE(event.Find(key), nullptr) << "missing " << key;
    }
    EXPECT_EQ(event.Find("ph")->as_string(), "X");
    const json::Value* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_NE(args->Find("span_id"), nullptr);
    EXPECT_NE(args->Find("parent_id"), nullptr);
  }

  // The nested span points at its parent through args, and the tag values
  // survive the export (numbers as numbers, strings escaped and restored).
  const json::Value& inner = events->as_array()[0];
  const json::Value& outer = events->as_array()[1];
  EXPECT_EQ(inner.Find("name")->as_string(), "Where");
  EXPECT_EQ(outer.Find("name")->as_string(), "query");
  EXPECT_DOUBLE_EQ(inner.Find("args")->Find("parent_id")->as_number(),
                   outer.Find("args")->Find("span_id")->as_number());
  EXPECT_EQ(outer.Find("args")->Find("sql")->as_string(),
            "SELECT \"quoted\"\n");
  EXPECT_DOUBLE_EQ(outer.Find("args")->Find("rows")->as_number(), 1024.0);
}

TEST(TracerTest, GlobalTracerIsOffByDefault) {
  EXPECT_FALSE(Tracer::Global().enabled());
}

TEST(TracerTest, DisabledCounterSamplesAreInert) {
  Tracer tracer;
  tracer.Counter("dropped.track", 1.0);
  EXPECT_TRUE(tracer.CounterSamples().empty());
}

TEST(TracerTest, CounterSamplesRecordInOrderAndClear) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.Counter("band.ms", 1.5);
  tracer.Counter("band.ms", 2.5);
  tracer.Counter("busy.ms", 9.0);

  const std::vector<CounterSample> all = tracer.CounterSamples();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].name, "band.ms");
  EXPECT_DOUBLE_EQ(all[0].value, 1.5);
  EXPECT_DOUBLE_EQ(all[1].value, 2.5);
  EXPECT_LE(all[0].ts_us, all[1].ts_us);
  EXPECT_EQ(all[2].name, "busy.ms");
  EXPECT_DOUBLE_EQ(all[2].value, 9.0);

  tracer.Clear();
  EXPECT_TRUE(tracer.CounterSamples().empty());
}

TEST(TracerTest, ChromeTraceCounterEventsEscapeAndParse) {
  Tracer tracer;
  tracer.set_enabled(true);
  { TraceSpan span("query", &tracer); }
  // A hostile track name: quote, backslash, newline must all survive the
  // JSON round trip.
  tracer.Counter("track \"q\"\\\n", 3.25);
  tracer.Counter("plain", 4.0);

  const std::string text =
      Tracer::ToChromeTrace(tracer.Finished(), tracer.CounterSamples());
  auto parsed = json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* events = parsed.ValueOrDie().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->as_array().size(), 3u);  // 1 span + 2 counter samples

  // Counter events follow the span events.
  const json::Value& hostile = events->as_array()[1];
  const json::Value& plain = events->as_array()[2];
  EXPECT_EQ(hostile.Find("ph")->as_string(), "C");
  EXPECT_EQ(hostile.Find("name")->as_string(), "track \"q\"\\\n");
  ASSERT_NE(hostile.Find("args"), nullptr);
  EXPECT_DOUBLE_EQ(hostile.Find("args")->Find("value")->as_number(), 3.25);
  EXPECT_EQ(plain.Find("name")->as_string(), "plain");
  EXPECT_DOUBLE_EQ(plain.Find("args")->Find("value")->as_number(), 4.0);
  for (const json::Value* event : {&hostile, &plain}) {
    for (const char* key : {"name", "cat", "ph", "pid", "tid", "ts"}) {
      EXPECT_NE(event->Find(key), nullptr) << "missing " << key;
    }
  }
}

TEST(TracerTest, SpanOnlyOverloadStillOmitsCounters) {
  Tracer tracer;
  tracer.set_enabled(true);
  { TraceSpan span("query", &tracer); }
  tracer.Counter("ignored.track", 1.0);
  const std::string text = Tracer::ToChromeTrace(tracer.Finished());
  auto parsed = json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* events = parsed.ValueOrDie().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->as_array().size(), 1u);
}

}  // namespace
}  // namespace gpudb
