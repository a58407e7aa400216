// Multi-tenant host driver for the multi-queue I/O frontend.
//
// N independent application streams (plus, optionally, one ransomware
// stream) multiplex over the engine's queue pairs (tenant i drives pair
// i % QueueCount(), so any tenant count is legal on any engine). The driver
// submits across all streams in global (request time, tenant index) order,
// taken from a min-heap of the tenants' next requests, and tops up the
// rings until they are full — queue-full is the backpressure signal: the
// refused tenant counts a stall and its pair parks, together with every
// tenant that reaches it while parked. A parked pair is not polled again
// until the host reaps a completion from it (nothing else frees a slot);
// then its tenants go back into the heap. The engine's arbitration
// interleaves the tenants the way a real multi-queue drive would, so the
// in-SSD detector sees headers from many "users" mixed at the device, not a
// pre-merged trace.
//
// Every command carries its tenant's namespace id (TenantSpec::nsid), which
// is both the completion-attribution key when pairs are shared and the
// isolation key the device's per-namespace detector pool routes by.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/time.h"
#include "io/io_engine.h"
#include "obs/metrics.h"

namespace insider::wl {

struct TenantSpec {
  std::string name;
  std::vector<IoRequest> requests;  ///< time-sorted, the tenant's stream
  /// Base for write-payload stamps; each written block gets a distinct
  /// stamp `stamp_base + blocks written so far`, so tests can attribute
  /// device contents to tenants.
  std::uint64_t stamp_base = 0;
  bool is_ransomware = false;  ///< ground truth for detection experiments
  /// Namespace id stamped on every request header. 0 = auto-assign (tenant
  /// i gets nsid i+1). Resolved ids must be unique across tenants —
  /// completions are attributed by nsid, since many tenants can legally
  /// multiplex over fewer queue pairs.
  std::uint32_t nsid = 0;
};

struct TenantResult {
  std::string name;
  bool is_ransomware = false;
  std::uint32_t nsid = 0;        ///< namespace the tenant's commands carried
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;      ///< completions with ok == false
  /// Times the tenant was refused by a full pair and the pair parked: one
  /// per episode, however many engine events the pair then stays full.
  /// Across tenants the sum equals the engine's sq_rejections.
  std::uint64_t stall_events = 0;
  /// Submit-to-complete latency (µs) of every completion in the run: 1 µs
  /// resolution and 64 sub-buckets per octave bound any quantile's error
  /// by 1/64 in ~14 KiB, however long the run.
  obs::LogHistogram latency_us{1.0, 64};
  SimTime last_complete_time = 0;
};

enum class MultiTenantStatus : std::uint8_t {
  kOk,
  /// Two tenants resolved to the same namespace id: completion attribution
  /// would be ambiguous, so the run refuses before submitting anything.
  kDuplicateNamespace,
};

const char* MultiTenantStatusName(MultiTenantStatus status);

struct MultiTenantReport {
  MultiTenantStatus status = MultiTenantStatus::kOk;
  std::vector<TenantResult> tenants;
  std::uint64_t total_dispatched = 0;
  SimTime first_submit_time = 0;
  /// Device clock when the last command finished. Pinned to at least
  /// first_submit_time, so a run with zero completions yields a zero span —
  /// never an unsigned-underflow span feeding TotalIops garbage.
  SimTime end_time = 0;

  double TotalIops() const {
    double span = ToSeconds(end_time - first_submit_time);
    return span > 0 ? static_cast<double>(total_dispatched) / span : 0.0;
  }
};

class MultiTenantDriver {
 public:
  /// Tenant i drives queue pair `i % engine.QueueCount()`; any tenant count
  /// works on any engine (tenants beyond the pair count share rings and are
  /// told apart by nsid).
  explicit MultiTenantDriver(std::vector<TenantSpec> tenants);

  /// Play every stream to exhaustion through `engine`, reaping completions
  /// as they post. Returns per-tenant latency/backpressure accounting;
  /// check `report.status` — a kDuplicateNamespace run submits nothing.
  MultiTenantReport Run(io::IoEngine& engine);

  const std::vector<TenantSpec>& Tenants() const { return tenants_; }

 private:
  std::vector<TenantSpec> tenants_;
};

}  // namespace insider::wl
