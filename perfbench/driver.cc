// Session-level wall-clock benchmark driver. Runs one workload's closed loop
// through the public sql::Session API, checks every answer against the cpu/
// baselines, and prints the raw measurements as one JSON document on stdout.
// perfbench/run.py builds this program and turns its output into metrics.
//
//   perfbench_driver --workload scan_1m --seed 1 --seconds 10 --trace 0
//                    [--size full|small] [--trace-file FILE]
//
// With --trace 1 the same untraced loop runs first (its counters feed the
// per-layer table), then a traced phase repeats the workload's statements
// with spans around each layer call, recorded in a private Tracer and
// written as a Chrome trace to FILE. Tracer::Global() stays off throughout.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "perfbench/shapes.h"
#include "src/common/json.h"
#include "src/common/metrics.h"
#include "src/common/query_log.h"
#include "src/common/trace.h"
#include "src/core/executor.h"
#include "src/core/pool_executor.h"
#include "src/db/catalog.h"
#include "src/db/datagen.h"
#include "src/db/sharding.h"
#include "src/gpu/device.h"
#include "src/gpu/device_pool.h"
#include "src/gpu/perf_model.h"
#include "src/sql/admission.h"
#include "src/sql/parser.h"
#include "src/sql/session.h"

namespace perfbench {
namespace {

namespace core = gpudb::core;
namespace db = gpudb::db;
namespace gpu = gpudb::gpu;
namespace sql = gpudb::sql;
using gpudb::Result;
using gpudb::Status;
using gpudb::TraceSpan;
using gpudb::Tracer;
using Clock = std::chrono::steady_clock;

constexpr const char* kTable = "flows";
/// Setups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Statements every timed loop completes at least, so that p95 has >= 10
/// samples beyond it.
constexpr int kMinStatements = 200;

int64_t NsSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
      .count();
}

double SecondsSince(Clock::time_point t0) { return NsSince(t0) * 1e-9; }

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_driver: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T OrDie(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).ValueOrDie();
}

void OrDie(const Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

// --- Workloads ---------------------------------------------------------------

struct Spec {
  std::string name;
  size_t rows = 0;
  uint32_t width = 0, height = 0;  ///< Each session's own device.
  int clients = 1;
  int pool_devices = 0;  ///< 0 = classic single-device route.
  uint32_t pool_width = 0, pool_height = 0;
  std::vector<std::string> cycle;  ///< Round-robin shapes.
  /// > 0: the loop is a fixed-length episode, repeated on a fresh set-up
  /// until the time is up. 0: one loop of whole rounds over `cycle`.
  int episode_statements = 0;
  int system_every = 0;  ///< Every n-th statement reads gpudb_queries.
  int analyze_every = 0;  ///< Every n-th statement is ANALYZE flows.
  int drift_rounds = 0;   ///< Rounds of the aged-versus-fresh comparison.
};

bool MakeSpec(const std::string& name, bool small, Spec* spec) {
  spec->name = name;
  if (name == "scan_1m") {
    spec->rows = small ? 16384 : 1000000;
    spec->width = spec->height = small ? 128 : 1000;
    spec->cycle.assign(std::begin(kScanShapes), std::end(kScanShapes));
    spec->drift_rounds = 3;
  } else if (name == "long_session") {
    spec->rows = 4096;
    spec->width = spec->height = 64;
    spec->cycle = {"count_1pred", "count_cnf2", "between", "max_between",
                   "median"};
    spec->episode_statements = small ? 1024 : 4096;
    spec->system_every = 64;
    spec->analyze_every = 256;
    spec->drift_rounds = 20;
  } else if (name == "pool_contended") {
    spec->rows = small ? 16384 : 262144;
    spec->width = spec->height = small ? 128 : 1024;
    spec->clients = 2;
    spec->pool_devices = 2;
    spec->pool_width = spec->pool_height = small ? 128 : 1000;
    spec->cycle = {"count_1pred", "count_cnf2", "between", "max_between",
                   "select_ids"};
    spec->drift_rounds = 10;
  } else {
    return false;
  }
  return true;
}

/// Everything one set-up builds. Members are destroyed in reverse order:
/// sessions before the devices, pool and catalog they point to, and the
/// catalog before the table it registers.
struct Rig {
  std::unique_ptr<db::Table> table;
  std::unique_ptr<db::Catalog> catalog;
  std::unique_ptr<gpu::DevicePool> pool;
  std::unique_ptr<sql::AdmissionController> admission;
  std::vector<std::unique_ptr<gpu::Device>> devices;
  std::vector<std::unique_ptr<sql::Session>> sessions;
};

int IndexOf(const std::vector<Statement>& statements, const std::string& shape) {
  for (size_t i = 0; i < statements.size(); ++i) {
    if (statements[i].shape == shape) return static_cast<int>(i);
  }
  Die("unknown shape " + shape);
}

std::vector<int> CycleIndices(const Spec& spec,
                              const std::vector<Statement>& statements) {
  std::vector<int> cycle;
  for (const std::string& shape : spec.cycle) {
    cycle.push_back(IndexOf(statements, shape));
  }
  return cycle;
}

/// Statement indices of one round (time-bounded loops) or of one whole
/// episode (fixed-length loops), periodic statements mixed in.
std::vector<int> Schedule(const Spec& spec,
                          const std::vector<Statement>& statements) {
  const std::vector<int> cycle = CycleIndices(spec, statements);
  if (spec.episode_statements == 0) return cycle;
  std::vector<int> out;
  size_t next = 0;
  for (int i = 1; i <= spec.episode_statements; ++i) {
    if (spec.analyze_every > 0 && i % spec.analyze_every == 0) {
      out.push_back(IndexOf(statements, kAnalyze));
    } else if (spec.system_every > 0 && i % spec.system_every == 0) {
      out.push_back(IndexOf(statements, kSystemTable));
    } else {
      out.push_back(cycle[next++ % cycle.size()]);
    }
  }
  return out;
}

/// The shapes the warm-up runs: the cycle plus the periodic statements.
std::vector<int> WarmupSet(const Spec& spec,
                           const std::vector<Statement>& statements) {
  std::vector<int> out = CycleIndices(spec, statements);
  if (spec.system_every > 0) out.push_back(IndexOf(statements, kSystemTable));
  if (spec.analyze_every > 0) out.push_back(IndexOf(statements, kAnalyze));
  return out;
}

// --- Statements --------------------------------------------------------------

struct Sample {
  int shape = 0;
  bool ok = false;
  bool wrong = false;
  int64_t start_ns = 0;  ///< From the start of the timed loop.
  int64_t latency_ns = 0;
  int episode = 0;
};

struct ClientOut {
  std::vector<Sample> samples;
  std::vector<std::string> errors;  ///< The first few failure messages.
};

void NoteError(ClientOut* out, const std::string& message) {
  if (out->errors.size() < 8) out->errors.push_back(message);
}

/// Result of one Session::Execute call, checked against the oracle.
struct Checked {
  bool ok = false;
  bool wrong = false;
};

Checked Check(const Statement& st, const Expected& expected,
              const Result<sql::QueryResult>& r, ClientOut* out) {
  if (!r.ok()) {
    NoteError(out, st.shape + ": " + r.status().ToString());
    return {};
  }
  if (!Matches(expected, r.ValueOrDie())) {
    NoteError(out, st.shape + ": wrong answer for " + st.sql);
    return {false, true};
  }
  return {true, false};
}

Expected ExpectedFor(const Statement& st, const db::Catalog& catalog) {
  if (!st.live) return st.expected;
  return OrDie(SystemTableAnswer(catalog), "system-table oracle");
}

Sample RunStatement(sql::Session& session, const db::Catalog& catalog,
                    const std::vector<Statement>& statements, int index,
                    Clock::time_point loop_start, ClientOut* out) {
  const Statement& st = statements[static_cast<size_t>(index)];
  const Expected expected = ExpectedFor(st, catalog);
  Sample s;
  s.shape = index;
  const Clock::time_point t0 = Clock::now();
  const Result<sql::QueryResult> r = session.Execute(st.sql);
  s.latency_ns = NsSince(t0);
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t0 - loop_start).count();
  const Checked c = Check(st, expected, r, out);
  s.ok = c.ok;
  s.wrong = c.wrong;
  return s;
}

// --- Set-up ------------------------------------------------------------------

/// Builds one complete rig and warms every shape up. Returns the set-up
/// seconds, which exclude the oracle (computed once, on the first call, into
/// `statements`) and the measurements made only while `tracer` is enabled.
double BuildRig(const Spec& spec, uint64_t seed, Tracer* tracer,
                std::vector<Statement>* statements, double* oracle_ms,
                Rig* rig) {
  TraceSpan setup_span("setup", tracer);
  const Clock::time_point t0 = Clock::now();
  int64_t excluded_ns = 0;
  {
    TraceSpan span("db.datagen", tracer);
    rig->table = std::make_unique<db::Table>(
        OrDie(db::MakeTcpIpTable(spec.rows, seed), "MakeTcpIpTable"));
  }
  if (statements->empty()) {
    const Clock::time_point t = Clock::now();
    *statements = OrDie(MakeStatements(*rig->table), "oracle");
    excluded_ns += NsSince(t);
    *oracle_ms = NsSince(t) * 1e-6;
  }
  rig->catalog = std::make_unique<db::Catalog>();
  OrDie(rig->catalog->Register(kTable, rig->table.get()), "Register");
  if (spec.pool_devices > 0) {
    gpu::DevicePoolOptions options;
    options.devices = spec.pool_devices;
    options.width = spec.pool_width;
    options.height = spec.pool_height;
    options.worker_threads = 1;
    rig->pool = OrDie(gpu::DevicePool::Make(options), "DevicePool::Make");
    // Every client holds a slot: with fewer slots than closed-loop clients
    // the controller's wake-up order starves one client for seconds at a
    // time, and the run-to-run spread of p50 exceeds any useful bound.
    sql::AdmissionOptions admission;
    admission.max_concurrent = spec.clients;
    admission.queue_capacity = 64;
    admission.max_queue_wait_ms = 600000.0;
    rig->admission = std::make_unique<sql::AdmissionController>(admission);
  }
  if (tracer->enabled()) {
    // What Session does lazily on the first pooled statement, timed alone.
    const Clock::time_point t = Clock::now();
    {
      TraceSpan span("db.shard", tracer);
      OrDie(db::ShardedTable::Make(*rig->table, 4, 2), "ShardedTable::Make");
    }
    excluded_ns += NsSince(t);
  }
  for (int c = 0; c < spec.clients; ++c) {
    auto device = std::make_unique<gpu::Device>(spec.width, spec.height);
    OrDie(device->SetWorkerThreads(1), "SetWorkerThreads");
    auto session =
        std::make_unique<sql::Session>(device.get(), rig->catalog.get());
    session->set_plan_options(core::PlanOptions{});
    if (rig->pool != nullptr) {
      session->SetDevicePool(rig->pool.get());
      session->set_admission(rig->admission.get());
    }
    session->set_tenant("warmup");
    rig->devices.push_back(std::move(device));
    rig->sessions.push_back(std::move(session));
  }
  if (tracer->enabled()) {
    // Column uploads, ahead of the warm-up that would otherwise trigger
    // them.
    core::Executor* exec =
        OrDie(rig->sessions[0]->ExecutorFor(kTable), "ExecutorFor");
    TraceSpan span("gpu.upload", tracer);
    const uint64_t bytes0 = exec->device().counters().bytes_uploaded;
    for (size_t i = 0; i < rig->table->num_columns(); ++i) {
      OrDie(exec->BindingFor(i), "BindingFor");
    }
    span.AddTag("bytes", exec->device().counters().bytes_uploaded - bytes0);
  }
  {
    TraceSpan span("warmup", tracer);
    const std::vector<int> warm = WarmupSet(spec, *statements);
    for (int c = 0; c < spec.clients; ++c) {
      ClientOut out;
      for (int index : warm) {
        const Sample s = RunStatement(*rig->sessions[static_cast<size_t>(c)],
                                      *rig->catalog, *statements, index,
                                      Clock::now(), &out);
        if (!s.ok) Die("warm-up failed: " + out.errors.front());
      }
      rig->sessions[static_cast<size_t>(c)]->set_tenant("client" +
                                                       std::to_string(c));
    }
  }
  return (NsSince(t0) - excluded_ns) * 1e-9;
}

// --- Layer counters (trace mode) -----------------------------------------------

std::vector<gpu::Device*> AllDevices(Rig& rig) {
  std::vector<gpu::Device*> out;
  for (auto& d : rig.devices) out.push_back(d.get());
  if (rig.pool != nullptr) {
    for (int i = 0; i < rig.pool->size(); ++i) {
      out.push_back(&rig.pool->device(i));
    }
  }
  return out;
}

/// Length of a device's pass log, or 0 if the counters keep none.
template <typename Counters>
uint64_t PassLogLength(const Counters& c) {
  if constexpr (requires { c.pass_log.size(); }) {
    return c.pass_log.size();
  } else {
    return 0;
  }
}

uint64_t RegistryCounter(const char* name) {
  return gpudb::MetricsRegistry::Global().counter(name).value();
}

constexpr const char* kRegistryCounters[][2] = {
    {"admission.rejected", "admission.rejected"},
    {"pool.failovers", "pool.failovers"},
    {"resilience.retries", "queries.retry_attempts"},
    {"resilience.fell_back", "queries.fell_back"},
};
constexpr size_t kNumRegistry = std::size(kRegistryCounters);

/// Counter state at one edge of a timed loop. Taken outside the clock.
struct Snapshot {
  std::vector<gpu::DeviceCounters> copies;
  double copy_us = 0;
  uint64_t pass_log_len = 0;
  uint64_t registry[kNumRegistry] = {};
};

Snapshot TakeSnapshot(Rig& rig) {
  Snapshot s;
  const Clock::time_point t = Clock::now();
  for (gpu::Device* d : AllDevices(rig)) s.copies.push_back(d->counters());
  s.copy_us = NsSince(t) * 1e-3;
  for (const gpu::DeviceCounters& c : s.copies) s.pass_log_len += PassLogLength(c);
  for (size_t i = 0; i < kNumRegistry; ++i) {
    s.registry[i] = RegistryCounter(kRegistryCounters[i][1]);
  }
  return s;
}

/// Per-layer totals over every timed loop of the run, and the pass log at
/// the edges of the first loop.
struct LayerTotals {
  int loops = 0;
  double pass_log_start = 0, pass_log_end = 0;
  double copy_us_start = 0, copy_us_end = 0;
  double passes = 0, fragments = 0, fp = 0, readback = 0, fused = 0,
         swapped = 0, sim_ms = 0;
  double registry[kNumRegistry] = {};
};

void Accumulate(const Snapshot& before, const Snapshot& after,
                LayerTotals* t) {
  const gpu::PerfModel model;
  for (size_t i = 0; i < before.copies.size(); ++i) {
    const gpu::DeviceCounters d =
        gpu::DeltaSince(before.copies[i], after.copies[i]);
    t->passes += static_cast<double>(d.passes);
    t->fragments += static_cast<double>(d.fragments_generated);
    t->fp += static_cast<double>(d.fp_instructions_executed);
    t->readback += static_cast<double>(d.bytes_read_back);
    t->fused += static_cast<double>(d.fused_passes);
    t->swapped += static_cast<double>(d.bytes_swapped);
    t->sim_ms += model.Estimate(d).TotalMs();
  }
  for (size_t i = 0; i < kNumRegistry; ++i) {
    t->registry[i] += static_cast<double>(after.registry[i] - before.registry[i]);
  }
  if (t->loops++ == 0) {
    t->pass_log_start = static_cast<double>(before.pass_log_len);
    t->pass_log_end = static_cast<double>(after.pass_log_len);
    t->copy_us_start = before.copy_us;
    t->copy_us_end = after.copy_us;
  }
}

// --- Timed loops ----------------------------------------------------------------

/// One client's closed loop: whole rounds of `round` until `seconds` have
/// passed and the run holds kMinStatements, or `round` once when `repeat`
/// is false (a fixed-length episode). Repeated rounds are shuffled per
/// client from `seed`, so that concurrent clients do not lock into one
/// fixed pairing of shapes for the whole run.
void RunClient(Rig& rig, int client, const std::vector<Statement>& statements,
               std::vector<int> round, bool repeat, int min_rounds,
               uint64_t seed, Clock::time_point start, double seconds,
               int episode, ClientOut* out) {
  sql::Session& session = *rig.sessions[static_cast<size_t>(client)];
  std::mt19937_64 rng(seed * 1000003 + static_cast<uint64_t>(client));
  for (int r = 0;; ++r) {
    if (!repeat && r == 1) break;
    if (repeat && r >= min_rounds && SecondsSince(start) >= seconds) break;
    if (repeat) std::shuffle(round.begin(), round.end(), rng);
    for (int index : round) {
      Sample s =
          RunStatement(session, *rig.catalog, statements, index, start, out);
      s.episode = episode;
      out->samples.push_back(s);
    }
  }
}

/// Runs every client's loop concurrently; returns the loop's wall seconds.
double RunLoop(Rig& rig, const Spec& spec,
               const std::vector<Statement>& statements,
               const std::vector<int>& round, uint64_t seed, double seconds,
               int episode, std::vector<ClientOut>* outs) {
  const bool repeat = spec.episode_statements == 0;
  const int per_round = static_cast<int>(round.size()) * spec.clients;
  const int min_rounds = (kMinStatements + per_round - 1) / per_round;
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < spec.clients; ++c) {
    threads.emplace_back(RunClient, std::ref(rig), c, std::cref(statements),
                         round, repeat, min_rounds, seed, start, seconds,
                         episode, &(*outs)[static_cast<size_t>(c)]);
  }
  for (std::thread& t : threads) t.join();
  return SecondsSince(start);
}

// --- Traced phase (trace mode) --------------------------------------------------

struct Tally {
  uint64_t attempted = 0, failed = 0, wrong = 0;
};

void AddTimedTag(TraceSpan& span, Clock::time_point t0) {
  span.AddTag("dur_ns", static_cast<double>(NsSince(t0)));
}

/// Runs the pool executor's operator for a parsed poolable statement.
Status RunPooled(core::PoolExecutor& pool, const sql::Query& q) {
  switch (q.kind) {
    case sql::Query::Kind::kCount:
      return pool.Count(q.where).status();
    case sql::Query::Kind::kAggregate:
      return pool.Aggregate(q.aggregate, q.column, q.where).status();
    case sql::Query::Kind::kSelectRows:
      return pool.SelectRowIds(q.where).status();
    default:
      return Status::InvalidArgument("statement is not poolable");
  }
}

/// One statement of the traced phase: Session::Execute (checked), then the
/// same statement again as separate parse and execute calls, each timed in
/// its own span. Periodic statements get the Execute span only.
void TracedStatement(Rig& rig, int client, const Statement& st,
                     const char* phase, Tracer* tracer, ClientOut* out,
                     Tally* tally) {
  sql::Session& session = *rig.sessions[static_cast<size_t>(client)];
  TraceSpan stmt("statement", tracer);
  stmt.AddTag("shape", st.shape);
  stmt.AddTag("phase", phase);
  {
    const Expected expected = ExpectedFor(st, *rig.catalog);
    TraceSpan span("sql.session_execute", tracer);
    const Clock::time_point t0 = Clock::now();
    const Result<sql::QueryResult> r = session.Execute(st.sql);
    AddTimedTag(span, t0);
    const Checked c = Check(st, expected, r, out);
    ++tally->attempted;
    tally->failed += c.ok ? 0 : 1;
    tally->wrong += c.wrong ? 1 : 0;
  }
  if (st.live || st.shape == kAnalyze) return;
  core::Executor* exec = OrDie(session.ExecutorFor(kTable), "ExecutorFor");
  sql::Query query;
  {
    TraceSpan span("sql.parse", tracer);
    const Clock::time_point t0 = Clock::now();
    query = OrDie(sql::ParseQuery(st.sql, exec->table()), "ParseQuery");
    AddTimedTag(span, t0);
  }
  if (rig.pool != nullptr) {
    core::PoolExecutor* pool =
        OrDie(session.PoolExecutorFor(kTable), "PoolExecutorFor");
    TraceSpan span("pool.dispatch", tracer);
    const Clock::time_point t0 = Clock::now();
    const Status s = RunPooled(*pool, query);
    AddTimedTag(span, t0);
    OrDie(s, "PoolExecutor");
  } else {
    TraceSpan span("core.execute_parsed", tracer);
    const uint64_t frags0 = exec->device().counters().fragments_generated;
    sql::QueryResult result;
    const Clock::time_point t0 = Clock::now();
    const Status s = sql::ExecuteParsed(exec, query, &result);
    AddTimedTag(span, t0);
    span.AddTag("fragments",
                exec->device().counters().fragments_generated - frags0);
    OrDie(s, "ExecuteParsed");
  }
}

void TracedClient(Rig& rig, int client, const std::vector<Statement>& statements,
                  const std::vector<int>& schedule, int rounds,
                  const char* phase, Tracer* tracer, ClientOut* out,
                  Tally* tally) {
  TraceSpan loop("traced_loop", tracer);
  loop.AddTag("phase", phase);
  const Clock::time_point t0 = Clock::now();
  uint64_t n = 0;
  for (int r = 0; r < rounds; ++r) {
    for (int index : schedule) {
      TracedStatement(rig, client, statements[static_cast<size_t>(index)],
                      phase, tracer, out, tally);
      ++n;
    }
  }
  loop.AddTag("statements", n);
  AddTimedTag(loop, t0);
}

/// Per-shape single-device cost: every scan_1m shape through ExecuteParsed
/// on the first session's executor, `reps` times each.
void ProbeShapes(Rig& rig, const std::vector<Statement>& statements, int reps,
                 Tracer* tracer, ClientOut* out, Tally* tally) {
  core::Executor* exec =
      OrDie(rig.sessions[0]->ExecutorFor(kTable), "ExecutorFor");
  TraceSpan probe("probe", tracer);
  for (int r = 0; r < reps; ++r) {
    for (const char* shape : kScanShapes) {
      const Statement& st = statements[static_cast<size_t>(IndexOf(statements, shape))];
      const sql::Query query =
          OrDie(sql::ParseQuery(st.sql, exec->table()), "ParseQuery");
      TraceSpan span("core.execute_parsed", tracer);
      span.AddTag("shape", st.shape);
      span.AddTag("phase", "probe");
      const uint64_t frags0 = exec->device().counters().fragments_generated;
      sql::QueryResult result;
      const Clock::time_point t0 = Clock::now();
      const Status s = sql::ExecuteParsed(exec, query, &result);
      AddTimedTag(span, t0);
      span.AddTag("fragments",
                  exec->device().counters().fragments_generated - frags0);
      ++tally->attempted;
      if (!s.ok()) {
        ++tally->failed;
        NoteError(out, st.shape + ": " + s.ToString());
      } else if (!Matches(st.expected, result)) {
        ++tally->failed;
        ++tally->wrong;
        NoteError(out, st.shape + ": wrong answer (probe) for " + st.sql);
      }
    }
  }
}

// --- Output ------------------------------------------------------------------

/// Peak resident set so far (VmHWM), in MB.
double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

class JsonWriter {
 public:
  void Key(const std::string& k) {
    Comma();
    out_ += gpudb::json::Quote(k) + ":";
    fresh_ = true;
  }
  void Number(double v) {
    Comma();
    out_ += gpudb::json::Number(v);
  }
  void String(const std::string& s) {
    Comma();
    out_ += gpudb::json::Quote(s);
  }
  void Open(char c) {
    Comma();
    out_ += c;
    fresh_ = true;
  }
  void Close(char c) {
    out_ += c;
    fresh_ = false;
  }
  template <typename T, typename F>
  void Array(const std::string& key, const std::vector<T>& items, F f) {
    Key(key);
    Open('[');
    for (const T& item : items) Number(f(item));
    Close(']');
  }
  const std::string& str() const { return out_; }

 private:
  void Comma() {
    if (!fresh_ && !out_.empty()) out_ += ",";
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  std::string trace_file = "perfbench.trace.json";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--size") {
      a.small = value == "small";
    } else if (flag == "--trace-file") {
      a.trace_file = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1) Die("flags take one value each");
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Spec spec;
  if (!MakeSpec(args.workload, args.small, &spec)) {
    Die("unknown workload '" + args.workload + "'");
  }
  // Spans go to this private tracer, enabled only for the last set-up and
  // the traced phase; Tracer::Global() stays off.
  Tracer tracer;

  std::vector<Statement> statements;
  double oracle_ms = 0;
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    rig = std::make_unique<Rig>();
    tracer.set_enabled(args.trace && i == kSetups - 1);
    setup_s.push_back(
        BuildRig(spec, args.seed, &tracer, &statements, &oracle_ms, rig.get()));
  }
  tracer.set_enabled(false);

  std::vector<ClientOut> outs(static_cast<size_t>(spec.clients));
  const std::vector<int> schedule = Schedule(spec, statements);
  LayerTotals layers;
  double loop_s = 0;
  int episodes = 0;
  while (episodes == 0 ||
         (spec.episode_statements > 0 && loop_s < args.seconds)) {
    if (episodes > 0) {
      // A fresh episode: new device, session and pass log.
      rig.reset();
      rig = std::make_unique<Rig>();
      setup_s.push_back(
          BuildRig(spec, args.seed, &tracer, &statements, &oracle_ms, rig.get()));
    }
    Snapshot before;
    if (args.trace) before = TakeSnapshot(*rig);
    loop_s += RunLoop(*rig, spec, statements, schedule, args.seed,
                      args.seconds, episodes, &outs);
    if (args.trace) Accumulate(before, TakeSnapshot(*rig), &layers);
    ++episodes;
  }
  // Peak memory of the set-ups and the timed loop, read before the drift
  // phase adds a second rig.
  const double rss_mb = PeakRssMb();
  // The query log keeps the last 256 statements, all from the loop.
  std::vector<double> queue_ms;
  for (const gpudb::QueryLogEntry& e : gpudb::QueryLog::Global().Entries()) {
    if (e.tenant.rfind("client", 0) == 0) queue_ms.push_back(e.queue_ms);
  }

  // Latency drift: the aged rig and a fresh one run the cycle alternately,
  // so that load from outside the benchmark reaches both alike.
  ClientOut drift;
  std::vector<int> drift_rig;
  {
    Rig fresh;
    setup_s.push_back(
        BuildRig(spec, args.seed, &tracer, &statements, &oracle_ms, &fresh));
    std::vector<int> cycle = CycleIndices(spec, statements);
    std::mt19937_64 rng(args.seed);
    for (int r = 0; r < spec.drift_rounds; ++r) {
      std::shuffle(cycle.begin(), cycle.end(), rng);
      for (size_t i = 0; i < cycle.size(); ++i) {
        for (int k = 0; k < 2; ++k) {
          const int which = (k + static_cast<int>(i) + r) % 2;  // 0 = aged
          Rig& target = which == 0 ? *rig : fresh;
          drift.samples.push_back(RunStatement(*target.sessions[0],
                                               *target.catalog, statements,
                                               cycle[i], Clock::now(), &drift));
          drift_rig.push_back(which);
        }
      }
    }
  }

  Tally traced;
  std::vector<ClientOut> traced_outs(static_cast<size_t>(spec.clients));
  if (args.trace) {
    // The traced phase repeats the untraced schedule: a whole fresh episode
    // for episode workloads, a few rounds otherwise; the pool workload runs
    // it contended (every client) and then solo (one client).
    if (spec.episode_statements > 0) {
      rig.reset();
      rig = std::make_unique<Rig>();
      BuildRig(spec, args.seed, &tracer, &statements, &oracle_ms, rig.get());
    }
    tracer.set_enabled(true);
    const int rounds = spec.episode_statements > 0 ? 1
                       : spec.clients > 1          ? 12
                                                   : 3;
    const char* phase = spec.clients > 1 ? "contended" : "traced";
    std::vector<std::thread> threads;
    std::vector<Tally> tallies(static_cast<size_t>(spec.clients));
    for (int c = 0; c < spec.clients; ++c) {
      threads.emplace_back(TracedClient, std::ref(*rig), c,
                           std::cref(statements), std::cref(schedule), rounds,
                           phase, &tracer, &traced_outs[static_cast<size_t>(c)],
                           &tallies[static_cast<size_t>(c)]);
    }
    for (std::thread& t : threads) t.join();
    if (spec.clients > 1) {
      TracedClient(*rig, 0, statements, schedule, rounds, "solo", &tracer,
                   &traced_outs[0], &tallies[0]);
    }
    ProbeShapes(*rig, statements, 3, &tracer, &traced_outs[0], &tallies[0]);
    // ANALYZE and the system-table read on every workload, for their layer
    // times; five of each.
    for (int i = 0; i < 5; ++i) {
      for (const char* shape : {kSystemTable, kAnalyze}) {
        TracedStatement(*rig, 0,
                        statements[static_cast<size_t>(IndexOf(statements, shape))],
                        "periodic", &tracer, &traced_outs[0], &tallies[0]);
      }
    }
    for (const Tally& t : tallies) {
      traced.attempted += t.attempted;
      traced.failed += t.failed;
      traced.wrong += t.wrong;
    }
    std::ofstream file(args.trace_file);
    file << Tracer::ToChromeTrace(tracer.Finished());
    if (!file) Die("cannot write " + args.trace_file);
  }
  JsonWriter w;
  w.Open('{');
  w.Key("workload");
  w.String(spec.name);
  w.Key("seed");
  w.Number(static_cast<double>(args.seed));
  w.Key("shapes");
  w.Open('[');
  for (const Statement& st : statements) w.String(st.shape);
  w.Close(']');
  w.Key("cycle");
  w.Open('[');
  for (const std::string& shape : spec.cycle) w.String(shape);
  w.Close(']');
  w.Array("setup_s", setup_s, [](double v) { return v; });
  w.Key("loop_s");
  w.Number(loop_s);
  w.Key("episodes");
  w.Number(episodes);
  // Throughput is taken per block of this many consecutive completions.
  w.Key("block");
  w.Number(spec.episode_statements > 0 ? spec.analyze_every
                                       : static_cast<double>(spec.cycle.size()) *
                                             spec.clients);
  w.Key("rss_peak_mb");
  w.Number(rss_mb);
  w.Key("clients");
  w.Open('[');
  for (const ClientOut& out : outs) {
    w.Open('{');
    w.Array("shape", out.samples, [](const Sample& s) { return s.shape; });
    w.Array("episode", out.samples, [](const Sample& s) { return s.episode; });
    w.Array("start_us", out.samples,
            [](const Sample& s) { return s.start_ns * 1e-3; });
    w.Array("latency_us", out.samples,
            [](const Sample& s) { return s.latency_ns * 1e-3; });
    w.Array("ok", out.samples, [](const Sample& s) { return s.ok ? 1 : 0; });
    w.Array("wrong", out.samples,
            [](const Sample& s) { return s.wrong ? 1 : 0; });
    w.Close('}');
  }
  w.Close(']');
  w.Key("drift");
  w.Open('{');
  w.Array("shape", drift.samples, [](const Sample& s) { return s.shape; });
  w.Array("rig", drift_rig, [](int r) { return r; });
  w.Array("latency_us", drift.samples,
          [](const Sample& s) { return s.latency_ns * 1e-3; });
  w.Array("ok", drift.samples, [](const Sample& s) { return s.ok ? 1 : 0; });
  w.Array("wrong", drift.samples,
          [](const Sample& s) { return s.wrong ? 1 : 0; });
  w.Close('}');
  w.Key("errors");
  w.Open('[');
  for (const ClientOut& out : outs) {
    for (const std::string& e : out.errors) w.String(e);
  }
  for (const std::string& e : drift.errors) w.String(e);
  for (const ClientOut& out : traced_outs) {
    for (const std::string& e : out.errors) w.String(e);
  }
  w.Close(']');
  if (args.trace) {
    const double stmts = [&] {
      double n = 0;
      for (const ClientOut& out : outs) n += static_cast<double>(out.samples.size());
      return n;
    }();
    w.Key("traced");
    w.Open('{');
    w.Key("attempted");
    w.Number(static_cast<double>(traced.attempted));
    w.Key("failed");
    w.Number(static_cast<double>(traced.failed));
    w.Key("wrong");
    w.Number(static_cast<double>(traced.wrong));
    w.Close('}');
    w.Array("queue_ms", queue_ms, [](double v) { return v; });
    w.Key("trace_file");
    w.String(args.trace_file);
    w.Key("layers");
    w.Open('{');
    const auto metric = [&](const std::string& name, double v) {
      w.Key(name);
      w.Number(v);
    };
    metric("gpu.passes_per_stmt", layers.passes / stmts);
    metric("gpu.fragments_per_stmt", layers.fragments / stmts);
    metric("gpu.fp_instr_per_stmt", layers.fp / stmts);
    metric("gpu.readback_bytes_per_stmt", layers.readback / stmts);
    metric("planner.fused_passes_per_stmt", layers.fused / stmts);
    metric("perf_model.sim_ms_per_stmt", layers.sim_ms / stmts);
    metric("gpu.bytes_swapped", layers.swapped);
    for (size_t i = 0; i < kNumRegistry; ++i) {
      metric(kRegistryCounters[i][0], layers.registry[i]);
    }
    metric("gpu.pass_log_len.start", layers.pass_log_start);
    metric("gpu.pass_log_len.end", layers.pass_log_end);
    metric("gpu.counters_copy_us.start", layers.copy_us_start);
    metric("gpu.counters_copy_us.end", layers.copy_us_end);
    metric("cpu.oracle_ms", oracle_ms);
    w.Close('}');
  }
  w.Close('}');
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
