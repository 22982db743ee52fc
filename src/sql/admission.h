#ifndef GPUDB_SQL_ADMISSION_H_
#define GPUDB_SQL_ADMISSION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>

#include "src/common/mutex.h"
#include "src/common/result.h"
#include "src/common/thread_annotations.h"

namespace gpudb {
namespace sql {

/// \brief Construction parameters for an AdmissionController.
struct AdmissionOptions {
  /// Statements allowed to execute concurrently across all sessions
  /// sharing the controller (typically the device-pool size).
  int max_concurrent = 4;
  /// Statements allowed to wait for an execution slot; one more is
  /// rejected with kResourceExhausted immediately -- never queued, never
  /// blocked.
  int queue_capacity = 16;
  /// Upper bound on time spent waiting in the queue (the overflow valve
  /// that guarantees Admit can never hang); a statement with a deadline
  /// waits at most min(deadline, this).
  double max_queue_wait_ms = 1000.0;
  /// Per-tenant token bucket: sustained statements/second (0 = no quota)
  /// and burst capacity.
  double tenant_qps = 0.0;
  double tenant_burst = 8.0;
  /// Injectable monotonic clock in milliseconds (tests); default is
  /// std::chrono::steady_clock.
  std::function<double()> now_ms;
};

/// \brief Load shedding in front of the multi-session tier (DESIGN.md §15).
///
/// Admit() applies, in order:
///   1. the tenant's token bucket  -> kResourceExhausted ("over quota"),
///      counted in `tenant.throttled`;
///   2. deadline-aware rejection   -> kResourceExhausted when the
///      statement's remaining deadline cannot cover the observed p95
///      execution time (better to shed now than to burn a device slot on a
///      statement that will miss its deadline anyway);
///   3. the bounded admission queue -> an execution slot immediately, a
///      bounded wait when the queue has room, kResourceExhausted when it is
///      full.
/// Every rejection path is synchronous and deterministic -- overflow never
/// blocks -- and counted in `admission.rejected`; the queue depth is the
/// `admission.queue_depth` gauge.
///
/// The returned Ticket releases the execution slot on destruction.
/// Thread-safe; one controller is shared by all sessions of a server.
class AdmissionController {
 public:
  /// Deadline-aware rejection consults the p95 of "sql.exec_ms" only once
  /// it has this many samples -- a cold histogram says nothing yet.
  static constexpr uint64_t kMinP95Samples = 32;

  explicit AdmissionController(AdmissionOptions options = {});
  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// \brief RAII execution slot; releasing it wakes one queued statement.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept : controller_(other.controller_) {
      other.controller_ = nullptr;
    }
    Ticket& operator=(Ticket&& other) noexcept {
      if (this != &other) {
        Release();
        controller_ = other.controller_;
        other.controller_ = nullptr;
      }
      return *this;
    }
    ~Ticket() { Release(); }

    bool admitted() const { return controller_ != nullptr; }

    /// Releases the slot before destruction (idempotent).
    void Release();

   private:
    friend class AdmissionController;
    explicit Ticket(AdmissionController* controller)
        : controller_(controller) {}

    AdmissionController* controller_ = nullptr;
  };

  /// Requests admission for one statement. `tenant` may be empty (no
  /// quota); `deadline_ms` is the statement's total budget, 0 = none.
  [[nodiscard]] Result<Ticket> Admit(const std::string& tenant,
                                     double deadline_ms);

  int running() const;
  int queue_depth() const;
  const AdmissionOptions& options() const { return options_; }

 private:
  struct TokenBucket {
    double tokens = 0.0;
    double refilled_at_ms = 0.0;
    bool initialized = false;
  };

  void ReleaseSlot() EXCLUDES(mu_);
  /// Takes one token from `tenant`'s bucket; false = over quota.
  bool TakeToken(const std::string& tenant, double now) REQUIRES(mu_);

  // lint: lock-free (clamped once in the constructor, const thereafter)
  AdmissionOptions options_;
  /// Lock-order level: `admission` (outermost). The p95 shed decision reads
  /// the "sql.exec_ms" histogram *before* taking mu_ -- the registry lookup
  /// takes the telemetry-leaf metrics lock, and holding the outermost lock
  /// into another subsystem is exactly what rule R8 bans.
  mutable Mutex mu_;
  CondVar slot_free_;
  int running_ GUARDED_BY(mu_) = 0;
  int waiting_ GUARDED_BY(mu_) = 0;
  std::map<std::string, TokenBucket> buckets_ GUARDED_BY(mu_);
};

}  // namespace sql
}  // namespace gpudb

#endif  // GPUDB_SQL_ADMISSION_H_
