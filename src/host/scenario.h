// The paper's Table I: the catalog of (background application, ransomware)
// combinations used for training and testing, plus the machinery that turns
// a catalog row into a concrete merged request stream.
//
// The catalog keeps the paper's train/test split property: no ransomware
// family used for training appears in testing, so the accuracy experiments
// measure detection of *unknown* ransomware.
#pragma once

#include <cstddef>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "workload/apps.h"
#include "workload/file_set.h"
#include "workload/mixer.h"
#include "workload/ransomware.h"

namespace insider::host {

struct ScenarioSpec {
  wl::AppKind app = wl::AppKind::kNone;
  /// Empty = benign scenario (no ransomware).
  std::string ransomware;
  /// Free-form label matching Table I's application column.
  std::string label;
  /// Intensity multiplier distinguishing concrete tools that share a model
  /// (IOMeter hammers the device, hdtunepro mostly probes it).
  double app_intensity = 1.0;
};

/// Table I, "For training" rows.
std::vector<ScenarioSpec> TrainingScenarios();
/// Table I, "For testing" rows.
std::vector<ScenarioSpec> TestingScenarios();

/// Fixed rotation of Table-I backgrounds covering every Fig. 7 category:
/// the fleet and the interleaved experiment give their n-th benign tenant
/// kTenantApps[n % kTenantAppCount].
inline constexpr wl::AppKind kTenantApps[] = {
    wl::AppKind::kWebSurfing,  wl::AppKind::kP2pDownload,
    wl::AppKind::kOutlookSync, wl::AppKind::kSqliteMessenger,
    wl::AppKind::kInstall,     wl::AppKind::kOsUpdate,
    wl::AppKind::kVideoDecode, wl::AppKind::kCompression,
};
inline constexpr std::size_t kTenantAppCount = std::size(kTenantApps);

struct ScenarioConfig {
  SimTime duration = Seconds(60);
  /// When the ransomware process launches.
  SimTime ransom_start = Seconds(12);
  /// Logical block space available to the scenario (detection-only runs
  /// don't need a device; FTL runs remap into exported capacity).
  Lba lba_space = Lba{1} << 22;  ///< 16 GB
  std::size_t fileset_files = 1200;
  double app_intensity = 1.0;
  /// Cap on how long the ransomware trace runs (0 = until the file set is
  /// exhausted).
  SimTime ransom_max_duration = 0;
};

struct BuiltScenario {
  ScenarioSpec spec;
  wl::AppTrace app;
  wl::RansomwareTrace ransom;  ///< empty requests if benign
  /// Time-sorted merge; source 0 = app, source 1 = ransomware.
  std::vector<wl::TaggedRequest> merged;
  bool HasRansomware() const { return !ransom.requests.empty(); }
};

/// Deterministically instantiate one scenario from a seed. The background
/// app's category stretches the ransomware's pacing via
/// RansomwareSlowdownUnder (CPU/IO contention, paper §V-B).
BuiltScenario BuildScenario(const ScenarioSpec& spec,
                            const ScenarioConfig& config, std::uint64_t seed);

}  // namespace insider::host
