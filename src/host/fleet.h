// Fleet-scale multi-tenant serving harness.
//
// One device, many namespaces: N tenant streams (benign backgrounds, noisy
// neighbors at elevated intensity, and victims running real ransomware
// families) multiplex over a weighted-round-robin multi-queue frontend into
// a single Ssd whose detection runs per namespace under a budgeted DRAM
// pool (core::DetectorPool). The harness reports the per-tenant detection /
// false-positive matrix, WRR fairness (per-tenant p99 vs queue weight), and
// the pool's DRAM accounting — the numbers bench/fleet_matrix sweeps into
// BENCH_fleet.json.
#pragma once

#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/decision_tree.h"
#include "core/detector.h"
#include "core/detector_pool.h"
#include "ftl/page_ftl.h"
#include "io/arbiter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/multi_tenant.h"

namespace insider::host {

struct FleetConfig {
  /// Total tenant count. Victims are spread evenly through the index space
  /// (so they land on every queue class), the rest run benign backgrounds.
  std::size_t tenants = 64;
  /// Ransomware families assigned to victims round-robin.
  std::vector<std::string> families = {"WannaCry", "Mole", "Jaff"};
  /// Fraction of tenants that are victims (at least one per family when
  /// nonzero).
  double victim_fraction = 0.25;
  /// Fraction of *benign* tenants that are noisy neighbors: the same
  /// background app driven at `noisy_intensity` instead of
  /// `base_intensity`.
  double noisy_fraction = 0.25;
  double base_intensity = 0.25;
  /// High enough to saturate the shared device: with the {1,2,4,8} weight
  /// rotation this is what makes the WRR fairness signal visible (low-weight
  /// classes queue behind noisy neighbors, weight-8 p99 stays ~10x lower).
  /// Pushing much past this starves the victims themselves and detection
  /// collapses — the noisy neighbor becomes a denial of service instead.
  double noisy_intensity = 80.0;
  SimTime duration = Seconds(24);
  SimTime attack_start = Seconds(8);

  /// Queue pairs the tenants multiplex over (tenant i drives pair
  /// i % queue_count) and the WRR weight rotation applied across pairs.
  std::size_t queue_count = 8;
  std::size_t queue_depth = 32;
  std::vector<std::uint32_t> queue_weights = {1, 2, 4, 8};
  io::ArbiterConfig arbiter;
  /// Channel-sharded engine lanes (0 = serial reference execution).
  std::size_t shard_threads = 0;

  core::DetectorConfig detector;
  /// Per-namespace pool; defaults to isolated instances (that is the point
  /// of the fleet) with an unbounded budget — set dram_budget_bytes to
  /// exercise degradation.
  core::DetectorPoolConfig pool;
  ftl::FtlConfig ftl;  ///< defaults to an 8-GB simulated device
  std::size_t fileset_files = 600;
  std::uint64_t seed = 1;

  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;

  FleetConfig() {
    arbiter.policy = io::ArbiterPolicy::kWeightedRoundRobin;
    pool.per_namespace = true;
    ftl.geometry.channels = 16;
    ftl.geometry.ways = 8;
    ftl.geometry.blocks_per_chip = 256;
    ftl.geometry.pages_per_block = 64;
  }
};

struct FleetTenantResult {
  std::string name;
  std::string profile;  ///< app kind or ransomware family
  bool is_ransomware = false;
  bool noisy = false;
  std::uint32_t nsid = 0;
  std::size_t queue = 0;
  std::uint32_t weight = 1;

  // Detection (this tenant's namespace instance) -----------------------
  bool detected = false;  ///< its instance's score crossed the threshold
  bool evicted = false;   ///< instance reclaimed by pool pressure
  int max_score = 0;
  std::optional<SimTime> alarm_time;
  SimTime detection_latency = 0;  ///< alarm - first attack request (victims)

  // I/O accounting -----------------------------------------------------
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  /// Times the tenant found its queue pair full and the pair parked until
  /// a completion freed it (wl::TenantResult::stall_events).
  std::uint64_t stalls = 0;
  /// Submit-to-complete latency (µs) from the tenant's whole-run histogram
  /// (p99 is its upper bucket edge); NaN when nothing completed.
  double mean_latency_us = std::numeric_limits<double>::quiet_NaN();
  double p99_latency_us = std::numeric_limits<double>::quiet_NaN();
};

struct FleetResult {
  wl::MultiTenantStatus status = wl::MultiTenantStatus::kOk;
  std::vector<FleetTenantResult> tenants;
  std::uint64_t total_dispatched = 0;
  SimTime end_time = 0;
  double total_iops = 0.0;

  // Detection matrix aggregates ----------------------------------------
  std::size_t victims = 0;
  std::size_t detected_victims = 0;
  std::size_t benign = 0;
  std::size_t false_positives = 0;
  double DetectionRate() const {
    return victims == 0
               ? 0.0
               : static_cast<double>(detected_victims) /
                     static_cast<double>(victims);
  }
  double FalsePositiveRate() const {
    return benign == 0 ? 0.0
                       : static_cast<double>(false_positives) /
                             static_cast<double>(benign);
  }

  // Detector-pool DRAM accounting (post-run) ---------------------------
  std::size_t pool_instances = 0;
  std::size_t pool_bytes = 0;
  std::size_t pool_budget = 0;
  std::uint64_t pool_evictions = 0;
  std::uint64_t pool_over_budget = 0;
  std::size_t pool_pressure_events = 0;
  /// bytes <= budget (or unbudgeted); false only after a kOverBudget
  /// admission, which the pool reports rather than hides.
  bool pool_within_budget = true;
};

/// Build the N tenant streams, run them through a fresh Ssd via the WRR
/// multi-queue frontend with a per-namespace detector pool, settle the
/// trailing detector slice, and collect the matrices above.
FleetResult RunFleet(const core::DecisionTree& tree, const FleetConfig& config);

}  // namespace insider::host
