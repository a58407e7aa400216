// Input generation for the benchmark's workloads. Everything here is a pure
// function of the seed and the shape: the same seed gives the same streams,
// and the simulator under test only ever sees the generated streams.
//
//   fleet  - the fleet_matrix headline: 64 namespaces (16 ransomware
//            victims, 48 Table-I backgrounds, 12 of them noisy at 80x) over
//            8 weighted-round-robin queue pairs into one 8-GiB device with a
//            detector per namespace. Open loop: each tenant replays its
//            stream on its own schedule and only its full ring holds it back.
//   mqueue - 8 hosts, one per queue pair at depth 32, random 4-KB reads and
//            writes over a whole Seed-geometry device, detector off. The
//            arrivals outrun the device, so it is a closed loop of 8 x 32
//            outstanding commands that drives the FTL into steady-state GC.
//   detect - the Table I testing scenarios plus the benign training
//            backgrounds, several seeds each, each on a fresh Seed device
//            whose user-file half was written first; replay until the alarm
//            latches, then roll back and read every file block back.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/io.h"
#include "common/time.h"
#include "host/ssd.h"
#include "io/io_engine.h"
#include "workload/multi_tenant.h"

namespace insider::perfbench {

enum class Workload : std::uint8_t { kFleet, kMqueue, kDetect };

std::optional<Workload> WorkloadByName(std::string_view name);
const char* WorkloadName(Workload workload);

// fleet / mqueue: many tenant streams through the multi-queue engine ------

/// One tenant's stream plus what the checks need to know about it.
struct TenantInput {
  wl::TenantSpec spec;
  /// First request of the attack (victims only), in simulated time.
  SimTime attack_begin = 0;
  /// LBA of each block the tenant writes, in stream order: the device stamps
  /// block k with spec.stamp_base + k, so a read-back stamp names the write.
  std::vector<Lba> written;
  /// LBAs the tenant trims at some point (they may legitimately read back
  /// unmapped).
  std::vector<Lba> trimmed;
};

struct MultiQueueInput {
  host::SsdConfig device;
  io::EngineConfig engine;
  std::vector<TenantInput> tenants;
  /// Simulated span over which the streams are due; requests / span is the
  /// offered load.
  SimTime offered_span = 0;
  std::uint64_t Requests() const;
};

/// The fleet's shape. The defaults are the fleet_matrix headline run; tests
/// shrink it.
struct FleetShape {
  std::size_t tenants = 64;
  std::vector<std::string> families = {"WannaCry", "Mole", "Jaff"};
  double victim_fraction = 0.25;
  double noisy_fraction = 0.25;
  double base_intensity = 0.25;
  double noisy_intensity = 80.0;
  SimTime duration = Seconds(24);
  SimTime attack_start = Seconds(8);
  std::size_t queue_count = 8;
  std::size_t queue_depth = 32;
  std::vector<std::uint32_t> queue_weights = {1, 2, 4, 8};
  std::size_t fileset_files = 600;
  /// 16 x 8 chips x 256 blocks x 64 pages: 32,768 blocks, 8 GiB.
  std::uint32_t channels = 16;
  std::uint32_t ways = 8;
  std::uint32_t blocks_per_chip = 256;
  std::uint32_t pages_per_block = 64;
};

MultiQueueInput GenerateFleet(const FleetShape& shape, std::uint64_t seed);

struct MqueueShape {
  std::size_t hosts = 8;
  std::size_t queue_depth = 32;
  std::size_t commands_per_host = 160'000;
  /// Arrival spacing per host; far below the media's service time.
  SimTime interarrival = Microseconds(10);
  double write_share = 0.5;
};

MultiQueueInput GenerateMqueue(const MqueueShape& shape, std::uint64_t seed);

// detect: direct submission, one fresh device per scenario ----------------

struct DetectCase {
  std::string label;
  bool ransomware = false;
  /// Merged background + attack stream, times relative to the scenario
  /// start (the pass shifts them past the pre-fill).
  std::vector<IoRequest> requests;
  SimTime attack_begin = 0;  ///< relative, victims only
};

struct DetectShape {
  std::size_t seeds_per_scenario = 2;
  SimTime duration = Seconds(60);
  SimTime ransom_start = Seconds(12);
  std::size_t fileset_files = 1200;
  /// Idle time between the pre-fill and the scenario start, so the user
  /// files age past the recovery window before the attack.
  SimTime idle_after_prefill = Seconds(20);
};

struct DetectInput {
  host::SsdConfig device;
  /// The pre-filled user-file half of the exported LBA space: [0, files).
  Lba file_blocks = 0;
  SimTime idle_after_prefill = 0;
  std::vector<DetectCase> cases;
  std::uint64_t Requests() const;
};

DetectInput GenerateDetect(const DetectShape& shape, std::uint64_t seed);

}  // namespace insider::perfbench
