// One pass of a workload: generate its inputs, build the device, run the
// streams through the public stack, and collect what the run produced.
//
// Host time is split into set-up (input generation, device construction,
// the detect pre-fill) and run (the simulation proper). The simulated
// outputs must come out identical on every pass of the same seed, traced or
// not; SameSimulation() is that check.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ftl/ftl_types.h"
#include "host/ssd.h"
#include "obs/metrics.h"
#include "probe.h"
#include "workloads.h"

namespace insider::perfbench {

struct BenchSpec {
  Workload workload = Workload::kFleet;
  std::uint64_t seed = 42;
  FleetShape fleet;
  MqueueShape mqueue;
  DetectShape detect;
};

/// One detector instance's end state: one per fleet namespace; for detect
/// one per scenario run, in order (each run has its own device, namespace 0).
struct DetectorOutcome {
  std::uint32_t ns = 0;
  std::optional<SimTime> alarm;
  int score = 0;
  friend bool operator==(const DetectorOutcome&,
                         const DetectorOutcome&) = default;
};

/// Everything the simulation produced. Deterministic in the seed.
struct SimOutputs {
  std::uint64_t requests = 0;   ///< generated (offered) requests
  std::uint64_t submitted = 0;  ///< accepted by the engine / submitted
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;     ///< completed with an error status
  std::uint64_t dispatched = 0; ///< device dispatches (engine stats)
  std::uint64_t sq_rejections = 0;
  std::uint64_t cq_stalls = 0;
  std::uint64_t max_in_flight = 0;
  std::vector<ftl::FtlStats> ftl;  ///< one per device
  std::vector<DetectorOutcome> detectors;
  /// Per device: the time every detector was last advanced to.
  std::vector<SimTime> settle;
  SimTime sim_span = 0;     ///< simulated run time, summed over devices
  SimTime offered_span = 0; ///< simulated span the requests were due over
  /// Simulated dispatch-to-complete µs of every completion that reached the
  /// media; completions with no media operation are counted apart.
  obs::LogHistogram device_latency{1.0, 1024};
  std::uint64_t instant_completions = 0;

  // Detection, judged against the generator's ground truth.
  std::size_t victims = 0;
  std::size_t victims_detected = 0;
  std::size_t benign = 0;
  std::size_t false_alarms = 0;
  std::vector<double> detect_latency_s;  ///< alarm - attack start, sim

  // Read-back after the run (see DataCheck in passes.cc).
  std::uint64_t blocks_checked = 0;
  std::uint64_t blocks_intact = 0;
  std::uint64_t readback_devices = 0;  ///< devices whose read-back ran
  std::uint64_t devices = 0;
};

/// Empty when equal, else a description of the first difference.
std::string SimulationDiff(const SimOutputs& a, const SimOutputs& b);

/// What the traced pass saw at the layer boundaries.
struct LayerTrace {
  host::SsdConfig device;
  /// Per device: every header the device observed, time clamped, in order
  /// (detect: pre-fill first, then the scenario).
  std::vector<std::vector<IoRequest>> streams;
  /// Per device: index of the first header of the run; the ones before it
  /// belong to set-up (the detect pre-fill).
  std::vector<std::size_t> run_from;
  /// The submission loop: MultiTenantDriver::Run (fleet, mqueue), or the
  /// benchmark's own direct loop (detect, which has no engine or driver).
  double loop_ns = 0.0;
  double device_ns = 0.0;  ///< inside device calls during the loop
  /// One command into the device: SsdTarget::Dispatch -> Ssd::SubmitAsync
  /// (fleet, mqueue) or Ssd::Submit (detect).
  CallTimer submit;
  /// RunBackgroundUntil -> Ssd::DrainFirmware (detect: the loop's own drain
  /// before each request).
  CallTimer firmware;
  /// Ssd::RollBackNow: detect's recovery; on fleet and mqueue one rollback
  /// of the end state, after everything else was recorded.
  CallTimer rollback;
  std::uint64_t rollback_entries = 0;
};

struct PassResult {
  SimOutputs sim;
  double setup_s = 0.0;
  double run_s = 0.0;
  std::optional<LayerTrace> trace;
  /// Non-empty when a check inside the pass failed.
  std::string error;
};

PassResult RunPass(const BenchSpec& spec, bool trace);

/// Set-up only (the same work RunPass times as set-up), in seconds.
double SetupOnly(const BenchSpec& spec);

}  // namespace insider::perfbench
