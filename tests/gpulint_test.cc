// Fixture tests for gpulint (tools/gpulint): small positive/negative source
// snippets per rule R1-R9, inline gpulint-allow markers, and end-to-end
// RunLint passes over a temporary tree.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/metric_names.h"
#include "tools/gpulint/gpulint.h"
#include "tools/gpulint/rules.h"
#include "tools/gpulint/source_model.h"

namespace gpulint {
namespace {

/// Owns the SourceModels a Program references and finalizes the call-graph
/// closures once every fixture file is added.
class Corpus {
 public:
  void Add(std::string path, std::string_view source) {
    models_.push_back(
        std::make_unique<SourceModel>(std::move(path), source));
    program_.AddFile(models_.back().get());
  }
  Program& Finalize() {
    program_.Finalize();
    return program_;
  }
  Program& program() { return program_; }

 private:
  std::vector<std::unique_ptr<SourceModel>> models_;
  Program program_;
};

std::vector<std::string> Rules(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> out;
  for (const Diagnostic& d : diags) out.push_back(d.rule);
  return out;
}

// ---------------------------------------------------------------------------
// R1: [[nodiscard]] coverage and discarded fallible calls.

TEST(GpulintR1, FlagsUnannotatedFallibleDeclInApiHeader) {
  Corpus c;
  c.Add("src/core/api.h",
        "Status DoThing();\n"
        "[[nodiscard]] Status Annotated();\n"
        "[[nodiscard]] Result<int> Count();\n");
  const auto diags = RunR1(c.Finalize());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "R1");
  EXPECT_EQ(diags[0].line, 1);
  EXPECT_NE(diags[0].message.find("DoThing"), std::string::npos);
}

TEST(GpulintR1, IgnoresHeadersOutsideTheAnnotatedLayers) {
  Corpus c;
  c.Add("src/db/catalog.h", "Status SetStats();\n");  // db/ is not in scope
  EXPECT_TRUE(RunR1(c.Finalize()).empty());
}

TEST(GpulintR1, FlagsDiscardedAndVoidCastCalls) {
  Corpus c;
  c.Add("src/core/api.h", "[[nodiscard]] Status DoThing();\n");
  c.Add("src/core/use.cc",
        "void Caller() {\n"
        "  DoThing();\n"          // bare drop
        "  (void)DoThing();\n"    // cast drop: must go through DropStatus
        "  Status s = DoThing();\n"  // consumed: fine
        "}\n");
  const auto diags = RunR1(c.Finalize());
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_EQ(diags[1].line, 3);
  EXPECT_NE(diags[1].message.find("DropStatus"), std::string::npos);
}

TEST(GpulintR1, InfallibleCallsAreNotFlagged) {
  Corpus c;
  c.Add("src/core/use.cc",
        "void Caller() {\n"
        "  Log();\n"
        "}\n");
  EXPECT_TRUE(RunR1(c.Finalize()).empty());
}

// ---------------------------------------------------------------------------
// R2: pass-issuing loops must check interrupts.

constexpr std::string_view kLoopNoCheck =
    "Status Run(gpu::Device* device) {\n"
    "  for (int i = 0; i < 4; ++i) {\n"
    "    GPUDB_RETURN_NOT_OK(device->RenderQuad(0.0f));\n"
    "  }\n"
    "  return Status::OK();\n"
    "}\n";

TEST(GpulintR2, FlagsPassLoopWithoutInterruptCheck) {
  Corpus c;
  c.Add("src/core/op.cc", kLoopNoCheck);
  const auto diags = RunR2(c.Finalize());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "R2");
  EXPECT_EQ(diags[0].line, 2);
}

TEST(GpulintR2, InterruptCheckInLoopBodySatisfiesTheRule) {
  Corpus c;
  c.Add("src/core/op.cc",
        "Status Run(gpu::Device* device) {\n"
        "  for (int i = 0; i < 4; ++i) {\n"
        "    GPUDB_RETURN_NOT_OK(device->CheckInterrupt());\n"
        "    GPUDB_RETURN_NOT_OK(device->RenderQuad(0.0f));\n"
        "  }\n"
        "  return Status::OK();\n"
        "}\n");
  EXPECT_TRUE(RunR2(c.Finalize()).empty());
}

TEST(GpulintR2, PassIssuingHelperIsCaughtTransitively) {
  Corpus c;
  c.Add("src/core/op.cc",
        "Status Step(gpu::Device* device) {\n"
        "  return device->RenderTexturedQuad();\n"
        "}\n"
        "Status Run(gpu::Device* device) {\n"
        "  for (int i = 0; i < 4; ++i) {\n"
        "    GPUDB_RETURN_NOT_OK(Step(device));\n"
        "  }\n"
        "  return Status::OK();\n"
        "}\n");
  const auto diags = RunR2(c.Finalize());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 5);
}

TEST(GpulintR2, DeviceInternalChecksDoNotAbsolveOperatorLoops) {
  // Pump() lives under src/gpu and calls CheckInterrupt, but gpu-defined
  // functions are barred from carrying "checks interrupts" to callers: the
  // operator loop still needs its own check (EXTENDING.md).
  Corpus c;
  c.Add("src/gpu/pump.cc",
        "Status Pump() {\n"
        "  return CheckInterrupt();\n"
        "}\n");
  c.Add("src/core/op.cc",
        "Status Run(gpu::Device* device) {\n"
        "  for (int i = 0; i < 4; ++i) {\n"
        "    GPUDB_RETURN_NOT_OK(Pump());\n"
        "    GPUDB_RETURN_NOT_OK(device->RenderQuad(0.0f));\n"
        "  }\n"
        "  return Status::OK();\n"
        "}\n");
  EXPECT_EQ(Rules(RunR2(c.Finalize())), std::vector<std::string>{"R2"});
}

TEST(GpulintR2, NonGpuHelperThatChecksInterruptsAbsolvesTheLoop) {
  Corpus c;
  c.Add("src/core/op.cc",
        "Status Poll(gpu::Device* device) {\n"
        "  return device->CheckInterrupt();\n"
        "}\n"
        "Status Run(gpu::Device* device) {\n"
        "  for (int i = 0; i < 4; ++i) {\n"
        "    GPUDB_RETURN_NOT_OK(Poll(device));\n"
        "    GPUDB_RETURN_NOT_OK(device->RenderQuad(0.0f));\n"
        "  }\n"
        "  return Status::OK();\n"
        "}\n");
  EXPECT_TRUE(RunR2(c.Finalize()).empty());
}

TEST(GpulintR2, PathsOutsideDeviceLayersAreOutOfScope) {
  Corpus c;
  c.Add("src/sql/driver.cc", std::string(kLoopNoCheck));
  EXPECT_TRUE(RunR2(c.Finalize()).empty());
}

// ---------------------------------------------------------------------------
// R3: no assert()/abort() on device paths.

TEST(GpulintR3, FlagsAssertAndAbortUnderGpuAndCore) {
  Corpus c;
  c.Add("src/gpu/dev.cc",
        "void F(int x) {\n"
        "  assert(x > 0);\n"
        "}\n");
  c.Add("src/core/op.cc",
        "void G() {\n"
        "  abort();\n"
        "}\n");
  const auto diags = RunR3(c.Finalize());
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_EQ(diags[1].line, 2);
}

TEST(GpulintR3, HostOnlyLayersMayAssert) {
  Corpus c;
  c.Add("src/common/result.h",
        "void F(int x) {\n"
        "  assert(x > 0);\n"
        "}\n");
  EXPECT_TRUE(RunR3(c.Finalize()).empty());
}

// ---------------------------------------------------------------------------
// R4: ParallelFor bodies must not re-enter the pool or the render path.

TEST(GpulintR4, FlagsPoolReentryAndRenderCallsInWorkerBodies) {
  Corpus c;
  c.Add("src/gpu/kernel.cc",
        "void F(ThreadPool* pool, gpu::Device* device) {\n"
        "  pool->ParallelFor(0, 8, [&](size_t i) {\n"
        "    pool->ParallelFor(0, 2, [&](size_t j) {});\n"
        "  });\n"
        "  pool->ParallelFor(0, 8, [&](size_t i) {\n"
        "    device->RenderQuad(0.0f);\n"
        "  });\n"
        "}\n");
  const auto diags = RunR4(c.Finalize());
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].rule, "R4");
}

TEST(GpulintR4, PureComputeBodiesAreFine) {
  Corpus c;
  c.Add("src/gpu/kernel.cc",
        "void F(ThreadPool* pool) {\n"
        "  pool->ParallelFor(0, 8, [&](size_t i) {\n"
        "    Accumulate(i);\n"
        "  });\n"
        "}\n");
  EXPECT_TRUE(RunR4(c.Finalize()).empty());
}

// ---------------------------------------------------------------------------
// R5: metric names must be registered.

constexpr std::string_view kRegistry =
    "inline constexpr std::string_view kAll[] = {\n"
    "    \"executor.*\",\n"
    "    \"queries.total\",\n"
    "};\n";

TEST(GpulintR5, FlagsUnregisteredLiteralNames) {
  Corpus c;
  c.Add("src/core/op.cc",
        "void F(MetricsRegistry& registry) {\n"
        "  registry.counter(\"queries.total\").Increment();\n"
        "  registry.counter(\"queries.bogus\").Increment();\n"
        "  registry.histogram(\"executor.scan_ms\").Record(1.0);\n"
        "}\n");
  Program& p = c.program();
  p.LoadMetricRegistry(kRegistry);
  p.Finalize();
  const auto diags = RunR5(p);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 3);
  EXPECT_NE(diags[0].message.find("queries.bogus"), std::string::npos);
}

TEST(GpulintR5, DynamicSuffixesRequireAWildcardEntry) {
  Corpus c;
  c.Add("src/core/op.cc",
        "void F(MetricsRegistry& registry, const std::string& op) {\n"
        "  registry.counter(\"executor.\" + op).Increment();\n"
        "  registry.counter(\"queries.\" + op).Increment();\n"
        "}\n");
  Program& p = c.program();
  p.LoadMetricRegistry(kRegistry);
  p.Finalize();
  const auto diags = RunR5(p);
  ASSERT_EQ(diags.size(), 1u);  // "queries." has no wildcard
  EXPECT_EQ(diags[0].line, 3);
}

TEST(GpulintR5, TracerCounterTracksFaceTheSameRegistry) {
  Corpus c;
  c.Add("src/gpu/profiler.cc",
        "void F(Tracer& tracer) {\n"
        "  tracer.Counter(\"queries.total\", 1.0);\n"
        "  tracer.Counter(\"band.unregistered\", 2.0);\n"
        "}\n");
  Program& p = c.program();
  p.LoadMetricRegistry(kRegistry);
  p.Finalize();
  const auto diags = RunR5(p);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 3);
  EXPECT_NE(diags[0].message.find("band.unregistered"), std::string::npos);
}

TEST(GpulintR5, FailureDomainMetricsAreCoveredByTheRealRegistry) {
  // The device pool and admission controller emit these names; every one
  // must stay in the real metric_names.h table (ISSUE: shard pool PR) or
  // the lint gate on src/ would flag their call sites.
  for (std::string_view name :
       {"pool.device_state", "pool.failovers", "admission.rejected",
        "admission.queue_depth", "tenant.throttled"}) {
    EXPECT_NE(std::find(std::begin(gpudb::metric_names::kAll),
                        std::end(gpudb::metric_names::kAll), name),
              std::end(gpudb::metric_names::kAll))
        << name;
  }
  // And the fixture path agrees: a source file emitting them lints clean
  // against a registry that carries the entries, and is flagged without.
  constexpr std::string_view kPoolSource =
      "void F(MetricsRegistry& registry) {\n"
      "  registry.gauge(\"pool.device_state\").Set(1.0);\n"
      "  registry.counter(\"pool.failovers\").Increment();\n"
      "  registry.counter(\"admission.rejected\").Increment();\n"
      "  registry.gauge(\"admission.queue_depth\").Set(0.0);\n"
      "  registry.counter(\"tenant.throttled\").Increment();\n"
      "}\n";
  Corpus with;
  with.Add("src/gpu/device_pool.cc", std::string(kPoolSource));
  Program& registered = with.program();
  registered.LoadMetricRegistry(
      "inline constexpr std::string_view kAll[] = {\n"
      "    \"admission.queue_depth\",\n"
      "    \"admission.rejected\",\n"
      "    \"pool.device_state\",\n"
      "    \"pool.failovers\",\n"
      "    \"tenant.throttled\",\n"
      "};\n");
  registered.Finalize();
  EXPECT_TRUE(RunR5(registered).empty());

  Corpus without;
  without.Add("src/gpu/device_pool.cc", std::string(kPoolSource));
  Program& missing = without.program();
  missing.LoadMetricRegistry(kRegistry);
  missing.Finalize();
  EXPECT_EQ(RunR5(missing).size(), 5u);
}

TEST(GpulintR5, DisabledWithoutARegistry) {
  Corpus c;
  c.Add("src/core/op.cc",
        "void F(MetricsRegistry& registry) {\n"
        "  registry.counter(\"anything.goes\").Increment();\n"
        "}\n");
  EXPECT_TRUE(RunR5(c.Finalize()).empty());
}

// ---------------------------------------------------------------------------
// R7: guard coverage in mutex-owning classes, no naked lock()/unlock().

TEST(GpulintR7, FlagsUnguardedFieldOfMutexOwningClass) {
  Corpus c;
  c.Add("src/gpu/pool.h",
        "class Pool {\n"
        " private:\n"
        "  Mutex mu_;\n"
        "  int hits_;\n"
        "  int safe_ GUARDED_BY(mu_);\n"
        "};\n");
  const auto diags = RunR7(c.Finalize());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "R7");
  EXPECT_EQ(diags[0].line, 4);
  EXPECT_NE(diags[0].message.find("hits_"), std::string::npos);
}

TEST(GpulintR7, GuardedMarkedConstAndSyncFieldsAreClean) {
  Corpus c;
  c.Add("src/gpu/pool.h",
        "class Pool {\n"
        " private:\n"
        "  mutable Mutex mu_;\n"
        "  CondVar cv_;\n"
        "  std::map<std::string, int> index_ GUARDED_BY(mu_);\n"
        "  std::atomic<int> fast_{0};  // lint: lock-free (relaxed atomic)\n"
        "  // lint: lock-free (written once in the constructor, const\n"
        "  // thereafter)\n"
        "  std::vector<int> shape_;\n"
        "  static constexpr int kMax = 4;\n"
        "  const int width_ = 0;\n"
        "};\n");
  EXPECT_TRUE(RunR7(c.Finalize()).empty());
}

TEST(GpulintR7, ClassWithoutAMutexIsOutOfScope) {
  Corpus c;
  // unique_ptr<std::mutex> does not make the class a capability owner
  // (DevicePool::Slot: the lock identity lives with the Lease).
  c.Add("src/gpu/slot.h",
        "struct Slot {\n"
        "  std::unique_ptr<std::mutex> exec_mu;\n"
        "  int generation;\n"
        "};\n");
  EXPECT_TRUE(RunR7(c.Finalize()).empty());
}

TEST(GpulintR7, FlagsNakedLockAndAllowsScopedHolderRelease) {
  Corpus c;
  c.Add("src/gpu/pool.cc",
        "void Pool::Poke() {\n"
        "  mu_.lock();\n"
        "  mu_.unlock();\n"
        "  execute_lock.unlock();\n"  // a scoped holder released early
        "}\n");
  const auto diags = RunR7(c.Finalize());
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_EQ(diags[1].line, 3);
}

TEST(GpulintR7, TheMutexWrapperItselfIsExempt) {
  Corpus c;
  c.Add("src/common/mutex.h",
        "class Mutex {\n"
        " public:\n"
        "  void Lock() { mu_.lock(); }\n"
        "  void Unlock() { mu_.unlock(); }\n"
        " private:\n"
        "  std::mutex mu_;\n"
        "};\n");
  EXPECT_TRUE(RunR7(c.Finalize()).empty());
}

// ---------------------------------------------------------------------------
// R8: declared lock order, same-subsystem nesting, listeners under a lock.

TEST(GpulintR8, FlagsOutOfOrderAcquisitionThroughAHelper) {
  Corpus c;
  // catalog (level 2) is acquired by LookupEntry; the pool (level 4) must
  // not call it while holding its own lock -- 4 -> 2 inverts the order.
  c.Add("src/db/catalog.cc",
        "int Catalog::LookupEntry() {\n"
        "  MutexLock lock(&mu_);\n"
        "  return 1;\n"
        "}\n");
  c.Add("src/gpu/device_pool.cc",
        "void DevicePool::Probe() {\n"
        "  MutexLock lock(&mu_);\n"
        "  LookupEntry();\n"
        "}\n");
  const auto diags = RunR8(c.Finalize());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "R8");
  EXPECT_EQ(diags[0].file, "src/gpu/device_pool.cc");
  EXPECT_NE(diags[0].message.find("LookupEntry"), std::string::npos);
}

TEST(GpulintR8, ForwardOrderAcquisitionIsClean) {
  Corpus c;
  // session (1) calling into the catalog (2) walks the order forwards.
  c.Add("src/db/catalog.cc",
        "int Catalog::LookupEntry() {\n"
        "  MutexLock lock(&mu_);\n"
        "  return 1;\n"
        "}\n");
  c.Add("src/sql/session.cc",
        "void Session::Run() {\n"
        "  MutexLock lock(&execute_mu_);\n"
        "  LookupEntry();\n"
        "}\n");
  EXPECT_TRUE(RunR8(c.Finalize()).empty());
}

TEST(GpulintR8, FlagsLexicallyNestedScopedLocks) {
  Corpus c;
  c.Add("src/db/catalog.cc",
        "void Catalog::Swap() {\n"
        "  MutexLock a(&mu_);\n"
        "  MutexLock b(&other_mu_);\n"
        "}\n");
  const auto diags = RunR8(c.Finalize());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 3);
  EXPECT_NE(diags[0].message.find("still held"), std::string::npos);
}

TEST(GpulintR8, SequentialScopedBlocksDoNotNest) {
  Corpus c;
  // thread_pool's claim/complete shape: two scoped blocks, never held
  // together.
  c.Add("src/gpu/thread_pool.cc",
        "void ThreadPool::Pump() {\n"
        "  {\n"
        "    MutexLock lock(&mu_);\n"
        "  }\n"
        "  {\n"
        "    MutexLock lock(&mu_);\n"
        "  }\n"
        "}\n");
  EXPECT_TRUE(RunR8(c.Finalize()).empty());
}

TEST(GpulintR8, FlagsListenerInvocationUnderALock) {
  Corpus c;
  c.Add("src/db/catalog.cc",
        "void Catalog::Bump() {\n"
        "  MutexLock lock(&mu_);\n"
        "  FireListener(name);\n"
        "}\n");
  const auto diags = RunR8(c.Finalize());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("after release"), std::string::npos);
}

TEST(GpulintR8, ListenerRegistrationAndSnapshotAfterReleaseAreClean) {
  Corpus c;
  // The canonical shape: copy under the lock, fire outside.
  c.Add("src/db/catalog.cc",
        "void Catalog::Notify() {\n"
        "  std::vector<Listener> snapshot;\n"
        "  {\n"
        "    MutexLock lock(&mu_);\n"
        "    snapshot = listeners_;\n"
        "  }\n"
        "  for (const auto& fire : snapshot) fire(name);\n"
        "}\n"
        "void Catalog::AddListener(Listener fn) {\n"
        "  MutexLock lock(&mu_);\n"
        "  listeners_.push_back(std::move(fn));\n"
        "}\n");
  EXPECT_TRUE(RunR8(c.Finalize()).empty());
}

TEST(GpulintR8, AdoptLockSitesAreNotAcquisitions) {
  Corpus c;
  c.Add("src/db/catalog.cc",
        "void Catalog::Resume() {\n"
        "  std::unique_lock<std::mutex> held(mu_.native(), "
        "std::adopt_lock);\n"
        "  std::unique_lock<std::mutex> fresh(other_);\n"
        "}\n");
  // The adopt site wraps an existing hold: only the fresh acquisition
  // exists, and nothing nests inside it.
  EXPECT_TRUE(RunR8(c.Finalize()).empty());
}

TEST(GpulintR8, AmbiguousNamesNeverPoisonTheOrder) {
  Corpus c;
  // Two unrelated Execute definitions: the session one locks admission
  // (level 0); the shader one is pure compute. A catalog region calling
  // the *shader* Execute must not inherit the session's acquisitions.
  c.Add("src/sql/admission.cc",
        "Ticket AdmissionController::Admit() {\n"
        "  MutexLock lock(&mu_);\n"
        "  return Ticket(this);\n"
        "}\n");
  c.Add("src/sql/session.cc",
        "Result<QueryResult> Session::Execute() {\n"
        "  return admission_->Admit();\n"
        "}\n");
  c.Add("src/gpu/device.cc",
        "FragmentOutput FragmentProgram::Execute(const Fragment& f) {\n"
        "  return Shade(f);\n"
        "}\n");
  c.Add("src/db/catalog.cc",
        "void Catalog::Materialize() {\n"
        "  MutexLock lock(&mu_);\n"
        "  program.Execute(fragment);\n"
        "}\n");
  EXPECT_TRUE(RunR8(c.Finalize()).empty());
}

TEST(GpulintR8, LockOrderRegistryRoundTrip) {
  // Every tier of the declared order (DESIGN.md §12), in one corpus: each
  // level acquires its own lock and calls one level forward — clean — and
  // a single backward edge at the end is the only diagnostic.
  Corpus c;
  c.Add("src/sql/admission.cc",
        "void AdmissionController::Enter() {\n"
        "  MutexLock lock(&mu_);\n"
        "  SessionStep();\n"
        "}\n");
  c.Add("src/sql/session.cc",
        "void Session::SessionStep() {\n"
        "  MutexLock lock(&execute_mu_);\n"
        "  CatalogStep();\n"
        "}\n");
  c.Add("src/db/catalog.cc",
        "void Catalog::CatalogStep() {\n"
        "  MutexLock lock(&mu_);\n"
        "  DeviceStep();\n"
        "}\n");
  c.Add("src/gpu/thread_pool.cc",
        "void ThreadPool::DeviceStep() {\n"
        "  MutexLock lock(&mu_);\n"
        "  PoolStep();\n"
        "}\n");
  c.Add("src/gpu/device_pool.cc",
        "void DevicePool::PoolStep() {\n"
        "  MutexLock lock(&mu_);\n"
        "  TelemetryStep();\n"
        "}\n");
  c.Add("src/common/metrics.cc",
        "void MetricsRegistry::TelemetryStep() {\n"
        "  MutexLock lock(&mu_);\n"
        "  counters_.clear();\n"
        "}\n"
        "void MetricsRegistry::Backwards() {\n"
        "  MutexLock lock(&mu_);\n"
        "  Enter();\n"  // telemetry (5) back into admission (0)
        "}\n");
  const auto diags = RunR8(c.Finalize());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].file, "src/common/metrics.cc");
  EXPECT_NE(diags[0].message.find("level-0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// R9: band-parallel kernels never touch GUARDED_BY fields.

TEST(GpulintR9, FlagsGuardedFieldInInlineParallelForBody) {
  Corpus c;
  c.Add("src/gpu/thread_pool.h",
        "class ThreadPool {\n"
        "  Mutex mu_;\n"
        "  int remaining_ GUARDED_BY(mu_);\n"
        "};\n");
  c.Add("src/gpu/op.cc",
        "void Op::Run() {\n"
        "  pool->ParallelFor(bands, [&](int b) { remaining_ -= b; });\n"
        "}\n");
  const auto diags = RunR9(c.Finalize());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "R9");
  EXPECT_NE(diags[0].message.find("remaining_"), std::string::npos);
}

TEST(GpulintR9, ResolvesWorkerLambdasPassedByName) {
  Corpus c;
  c.Add("src/db/catalog.h",
        "class Catalog {\n"
        "  Mutex mu_;\n"
        "  std::map<std::string, Table> tables_ GUARDED_BY(mu_);\n"
        "};\n");
  c.Add("src/gpu/op.cc",
        "void Op::Run() {\n"
        "  auto run_band = [&](int b) { Touch(tables_); };\n"
        "  pool->ParallelFor(bands, run_band);\n"
        "}\n");
  const auto diags = RunR9(c.Finalize());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("run_band"), std::string::npos);
}

TEST(GpulintR9, QuadRowKernelBodiesAreScanned) {
  Corpus c;
  c.Add("src/gpu/thread_pool.h",
        "class ThreadPool {\n"
        "  Mutex mu_;\n"
        "  int job_size_ GUARDED_BY(mu_);\n"
        "};\n");
  c.Add("src/gpu/device.cc",
        "void QuadRowKernel(FrameBuffer* fb) {\n"
        "  fb->Write(job_size_);\n"
        "}\n");
  const auto diags = RunR9(c.Finalize());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("QuadRowKernel"), std::string::npos);
}

TEST(GpulintR9, EveryRowKernelAndRowsFunctionIsScanned) {
  Corpus c;
  c.Add("src/gpu/thread_pool.h",
        "class ThreadPool {\n"
        "  Mutex mu_;\n"
        "  int job_size_ GUARDED_BY(mu_);\n"
        "};\n");
  c.Add("src/gpu/device.cc",
        "void TestCountRowKernel(FrameBuffer* fb) {\n"
        "  fb->Write(job_size_);\n"
        "}\n"
        "void RunFixedRows(FrameBuffer* fb) {\n"
        "  fb->Write(job_size_);\n"
        "}\n"
        "void RowHelper(FrameBuffer* fb) {\n"
        "  fb->Write(job_size_);\n"
        "}\n");
  // Outside the pixel engine a *Rows name is no band kernel.
  c.Add("src/db/table.cc",
        "void GatherRows(Table* t) {\n"
        "  t->Write(job_size_);\n"
        "}\n");
  const auto diags = RunR9(c.Finalize());
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].line, 1);
  EXPECT_NE(diags[0].message.find("TestCountRowKernel"), std::string::npos);
  EXPECT_EQ(diags[1].line, 4);
  EXPECT_NE(diags[1].message.find("RunFixedRows"), std::string::npos);
}

TEST(GpulintR9, SameNameUnguardedFieldInTheFilePairShadows) {
  Corpus c;
  // Tracer::counters_ is guarded; Device::counters_ is the device's own
  // unguarded ledger. A kernel in device.cc touching counters_ means the
  // device one — no diagnostic.
  c.Add("src/common/trace.h",
        "class Tracer {\n"
        "  Mutex mu_;\n"
        "  std::map<std::string, double> counters_ GUARDED_BY(mu_);\n"
        "};\n");
  c.Add("src/gpu/device.h",
        "class Device {\n"
        "  DeviceCounters counters_;\n"
        "};\n");
  c.Add("src/gpu/device.cc",
        "void QuadRowKernel(Device* d) {\n"
        "  d->counters_.fragments += 1;\n"
        "}\n");
  EXPECT_TRUE(RunR9(c.Finalize()).empty());
}

TEST(GpulintR9, PureComputeKernelsAreClean) {
  Corpus c;
  c.Add("src/db/catalog.h",
        "class Catalog {\n"
        "  Mutex mu_;\n"
        "  std::map<std::string, Table> tables_ GUARDED_BY(mu_);\n"
        "};\n");
  c.Add("src/gpu/op.cc",
        "void Op::Run() {\n"
        "  pool->ParallelFor(bands, [&](int b) { out[b] = in[b] * 2; });\n"
        "}\n");
  EXPECT_TRUE(RunR9(c.Finalize()).empty());
}

// ---------------------------------------------------------------------------
// Suppressions: inline gpulint-allow markers.

TEST(GpulintSuppressions, InlineAllowCoversSameLineAndLineAbove) {
  SourceModel model("src/core/op.cc",
                    "void F() {\n"
                    "  // gpulint-allow(R3) fixture reason\n"
                    "  assert(1);\n"
                    "  assert(2);  // gpulint-allow(R3,R1) fixture reason\n"
                    "\n"
                    "  assert(3);\n"
                    "}\n");
  ASSERT_NE(model.FindInlineAllow("R3", 3), nullptr);  // line above
  EXPECT_EQ(model.FindInlineAllow("R3", 3)->line, 2);
  EXPECT_NE(model.FindInlineAllow("R3", 4), nullptr);  // same line, list
  EXPECT_NE(model.FindInlineAllow("R1", 4), nullptr);
  EXPECT_EQ(model.FindInlineAllow("R3", 6), nullptr);
  EXPECT_EQ(model.FindInlineAllow("R2", 3), nullptr);  // other rule
}

TEST(GpulintSuppressions, BareMarkerLeavesTheDiagnosticActive) {
  // Every suppression needs a reason: a marker with nothing after the ')'
  // (a comment closer does not count) suppresses nothing.
  SourceModel model("src/gpu/dev.cc",
                    "void F(int x) {\n"
                    "  assert(x);  // gpulint-allow(R3)\n"
                    "  assert(x);  /* gpulint-allow(R3) */\n"
                    "}\n");
  Program program;
  program.AddFile(&model);
  program.Finalize();
  const auto diags = RunR3(program);
  ASSERT_EQ(diags.size(), 2u);
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(model.FindInlineAllow(d.rule, d.line), nullptr) << d.line;
  }
  ASSERT_EQ(model.inline_allows().size(), 2u);
  EXPECT_FALSE(model.inline_allows()[0].has_reason);
}

// ---------------------------------------------------------------------------
// End to end: RunLint over a real tree.

class GpulintRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::path(::testing::TempDir()) / "gpulint_fixture";
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_ / "src/gpu");
  }
  void WriteFile(const std::string& rel, std::string_view text) {
    std::ofstream out(root_ / rel, std::ios::binary);
    out << text;
  }
  std::filesystem::path root_;
};

TEST_F(GpulintRunTest, ActiveDiagnosticsSurviveWithoutSuppression) {
  WriteFile("src/gpu/dev.cc",
            "void F(int x) {\n"
            "  assert(x);\n"
            "}\n");
  LintOptions options;
  options.root = root_.string();
  const LintResult result = RunLint(options);
  ASSERT_EQ(result.active.size(), 1u);
  EXPECT_EQ(result.active[0].rule, "R3");
  EXPECT_EQ(result.active[0].file, "src/gpu/dev.cc");  // root-relative
  EXPECT_EQ(FormatText(result.active[0]).rfind("src/gpu/dev.cc:2: [R3]", 0),
            0u);
  const std::string json = ReportJson(result);
  EXPECT_NE(json.find("\"diagnostics\""), std::string::npos);
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
}

TEST_F(GpulintRunTest, InlineAllowSilencesThroughRunLint) {
  WriteFile("src/gpu/dev.cc",
            "void F(int x) {\n"
            "  assert(x);  // gpulint-allow(R3) vetted fixture violation\n"
            "  // gpulint-allow(R1) stale marker\n"
            "  // gpulint-allow(R2)\n"
            "}\n");
  LintOptions options;
  options.root = root_.string();
  const LintResult result = RunLint(options);
  EXPECT_TRUE(result.active.empty());
  ASSERT_EQ(result.suppressed.size(), 1u);
  EXPECT_EQ(result.suppressed[0].rule, "R3");
  // Markers that matched nothing, stale or reasonless, are reported for
  // pruning.
  ASSERT_EQ(result.unused_suppressions.size(), 2u);
  EXPECT_EQ(result.unused_suppressions[0].rule, "R1");
  EXPECT_EQ(result.unused_suppressions[0].line, 3);
  EXPECT_EQ(result.unused_suppressions[1].rule, "R2");
  EXPECT_NE(result.unused_suppressions[1].message.find("no reason"),
            std::string::npos);
  EXPECT_EQ(result.files_scanned, 1);
}

}  // namespace
}  // namespace gpulint
