#include "workloads.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/rng.h"
#include "ftl/page_ftl.h"
#include "host/scenario.h"
#include "workload/apps.h"
#include "workload/file_set.h"
#include "workload/mixer.h"
#include "workload/ransomware.h"

namespace insider::perfbench {

namespace {

Lba ExportedLbasOf(const ftl::FtlConfig& config) {
  return ftl::PageFtl(config).ExportedLbas();
}

/// Fill in the read-back bookkeeping of a tenant whose stream is final.
void IndexWrites(TenantInput& tenant) {
  for (const IoRequest& r : tenant.spec.requests) {
    for (std::uint32_t i = 0; i < r.length; ++i) {
      if (r.mode == IoMode::kWrite) tenant.written.push_back(r.lba + i);
      if (r.mode == IoMode::kTrim) tenant.trimmed.push_back(r.lba + i);
    }
  }
}

SimTime LastDue(const std::vector<TenantInput>& tenants) {
  SimTime last = 0;
  for (const TenantInput& t : tenants) {
    if (!t.spec.requests.empty()) {
      last = std::max(last, t.spec.requests.back().time);
    }
  }
  return last;
}

/// `k` marks over `n` slots with a golden-fraction hop coprime to `n`, so
/// victims and noisy neighbours land on every queue class (slot i drives
/// pair i % queue_count).
std::vector<char> ScatterMarks(std::size_t k, std::size_t n) {
  std::vector<char> marks(n, 0);
  if (n == 0) return marks;
  k = std::min(k, n);
  std::size_t step = static_cast<std::size_t>(0.618 * static_cast<double>(n));
  if (step == 0) step = 1;
  while (std::gcd(step, n) != 1) ++step;
  std::size_t idx = 0;
  for (std::size_t i = 0; i < k; ++i) {
    idx = (idx + step) % n;
    while (marks[idx] != 0) idx = (idx + 1) % n;
    marks[idx] = 1;
  }
  return marks;
}

// The Table-I backgrounds a fleet rotates through, one per Fig. 7 category.
constexpr wl::AppKind kTenantApps[] = {
    wl::AppKind::kWebSurfing,      wl::AppKind::kP2pDownload,
    wl::AppKind::kOutlookSync,     wl::AppKind::kSqliteMessenger,
    wl::AppKind::kInstall,         wl::AppKind::kOsUpdate,
    wl::AppKind::kVideoDecode,     wl::AppKind::kCompression,
};
constexpr std::size_t kTenantAppCount = std::size(kTenantApps);

}  // namespace

std::optional<Workload> WorkloadByName(std::string_view name) {
  if (name == "fleet") return Workload::kFleet;
  if (name == "mqueue") return Workload::kMqueue;
  if (name == "detect") return Workload::kDetect;
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kFleet:
      return "fleet";
    case Workload::kMqueue:
      return "mqueue";
    case Workload::kDetect:
      return "detect";
  }
  return "?";
}

std::uint64_t MultiQueueInput::Requests() const {
  std::uint64_t n = 0;
  for (const TenantInput& t : tenants) n += t.spec.requests.size();
  return n;
}

std::uint64_t DetectInput::Requests() const {
  std::uint64_t n = 0;
  for (const DetectCase& c : cases) n += c.requests.size();
  return n;
}

MultiQueueInput GenerateFleet(const FleetShape& shape, std::uint64_t seed) {
  MultiQueueInput in;
  host::SsdConfig& dev = in.device;
  dev.ftl.geometry.channels = shape.channels;
  dev.ftl.geometry.ways = shape.ways;
  dev.ftl.geometry.blocks_per_chip = shape.blocks_per_chip;
  dev.ftl.geometry.pages_per_block = shape.pages_per_block;
  dev.detector_pool.per_namespace = true;
  // One tenant's alarm must not latch the shared device read-only and
  // truncate every other tenant's stream: detection is judged per namespace.
  dev.auto_read_only = false;

  io::EngineConfig& eng = in.engine;
  eng.queue_count = std::max<std::size_t>(shape.queue_count, 1);
  eng.arbiter.policy = io::ArbiterPolicy::kWeightedRoundRobin;
  eng.shard_threads = 0;
  eng.per_queue.resize(eng.queue_count);
  for (std::size_t q = 0; q < eng.queue_count; ++q) {
    eng.per_queue[q].sq_depth = shape.queue_depth;
    eng.per_queue[q].weight =
        shape.queue_weights.empty()
            ? 1
            : shape.queue_weights[q % shape.queue_weights.size()];
  }

  const std::size_t n = shape.tenants;
  if (n == 0) return in;
  Rng rng(seed ^ 0xF1EE7000F1EE7000ull);
  const Lba region = ExportedLbasOf(dev.ftl) / static_cast<Lba>(n);

  std::size_t victims = static_cast<std::size_t>(
      shape.victim_fraction * static_cast<double>(n) + 0.5);
  if (shape.victim_fraction > 0.0 && !shape.families.empty()) {
    victims = std::max(victims, std::min(shape.families.size(), n));
  }
  if (shape.families.empty()) victims = 0;
  victims = std::min(victims, n);
  const std::size_t benign_total = n - victims;
  const std::size_t noisy_total = static_cast<std::size_t>(
      shape.noisy_fraction * static_cast<double>(benign_total) + 0.5);
  const std::vector<char> victim_mark = ScatterMarks(victims, n);
  const std::vector<char> noisy_mark = ScatterMarks(noisy_total, benign_total);

  std::size_t victim_seen = 0;
  std::size_t benign_seen = 0;
  in.tenants.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    TenantInput& t = in.tenants[i];
    const Lba region_start = region * static_cast<Lba>(i);
    if (victim_mark[i] != 0) {
      // Victim: files in the front half of its region, the attack's
      // out-of-place copies in the back half.
      const std::string& family =
          shape.families[victim_seen++ % shape.families.size()];
      wl::FileSet::Params fsp;
      fsp.file_count = shape.fileset_files;
      fsp.region_start = region_start;
      fsp.region_blocks = region / 2;
      Rng fs_rng = rng.Fork();
      wl::FileSet files = wl::FileSet::Generate(fsp, fs_rng);

      wl::RansomwareRunParams rp;
      rp.start_time = shape.attack_start;
      rp.scratch_start = region_start + region / 2;
      rp.max_duration = shape.duration > shape.attack_start
                            ? shape.duration - shape.attack_start
                            : 0;
      Rng r_rng = rng.Fork();
      wl::RansomwareTrace trace = wl::GenerateRansomware(
          wl::RansomwareProfileByName(family), files, rp, r_rng);
      t.attack_begin = trace.active_begin;
      t.spec.name = trace.name + "#" + std::to_string(i);
      t.spec.requests = std::move(trace.requests);
      t.spec.stamp_base = 0xEEEE000000000000ull + i * 100'000'000ull;
      t.spec.is_ransomware = true;
    } else {
      const bool noisy = noisy_mark[benign_seen] != 0;
      const wl::AppKind kind = kTenantApps[benign_seen++ % kTenantAppCount];
      wl::AppParams params;
      params.start_time = 0;
      params.duration = shape.duration;
      params.region_start = region_start;
      params.region_blocks = region;
      params.intensity = noisy ? shape.noisy_intensity : shape.base_intensity;
      Rng app_rng = rng.Fork();
      wl::AppTrace trace = wl::GenerateApp(kind, params, app_rng);
      t.spec.name = trace.name + "#" + std::to_string(i);
      t.spec.requests = std::move(trace.requests);
      t.spec.stamp_base = (i + 1) * 100'000'000ull;
    }
    IndexWrites(t);
  }
  in.offered_span = std::max(shape.duration, LastDue(in.tenants));
  return in;
}

MultiQueueInput GenerateMqueue(const MqueueShape& shape, std::uint64_t seed) {
  MultiQueueInput in;
  in.device.detector_enabled = false;  // the Seed geometry is the default
  in.engine.queue_count = std::max<std::size_t>(shape.hosts, 1);
  in.engine.queue.sq_depth = shape.queue_depth;
  in.engine.shard_threads = 0;

  const Lba exported = ExportedLbasOf(in.device.ftl);
  Rng rng(seed ^ 0x3A0E0E5EED000000ull);
  in.tenants.resize(shape.hosts);
  for (std::size_t h = 0; h < shape.hosts; ++h) {
    TenantInput& t = in.tenants[h];
    Rng host_rng = rng.Fork();
    t.spec.name = "host" + std::to_string(h);
    t.spec.stamp_base = (h + 1) * 1'000'000'000ull;
    t.spec.requests.reserve(shape.commands_per_host);
    for (std::size_t i = 0; i < shape.commands_per_host; ++i) {
      IoRequest req;
      req.time = CostOf(i, shape.interarrival);
      req.lba = host_rng.Below(exported);
      req.length = 1;
      req.mode = host_rng.Chance(shape.write_share) ? IoMode::kWrite
                                                    : IoMode::kRead;
      t.spec.requests.push_back(req);
    }
    IndexWrites(t);
  }
  in.offered_span = LastDue(in.tenants) + shape.interarrival;
  return in;
}

DetectInput GenerateDetect(const DetectShape& shape, std::uint64_t seed) {
  DetectInput in;
  in.device.auto_read_only = true;  // the paper's latch; Seed geometry
  in.idle_after_prefill = shape.idle_after_prefill;

  // LBA carve-up of the exported space (as the Table I experiments lay it
  // out): first half user files, the next 3/8 the background app's
  // territory, the last 1/8 scratch for out-of-place encrypted copies.
  const Lba space = ExportedLbasOf(in.device.ftl);
  in.file_blocks = space / 2;
  const Lba app_start = in.file_blocks;
  const Lba app_blocks = space * 3 / 8;
  const Lba scratch_start = app_start + app_blocks;

  std::vector<host::ScenarioSpec> specs = host::TestingScenarios();
  for (const host::ScenarioSpec& s : host::TrainingScenarios()) {
    if (s.ransomware.empty()) specs.push_back(s);  // the benign backgrounds
  }

  Rng root(seed ^ 0xDE7EC7000000D00Dull);
  for (std::size_t k = 0; k < shape.seeds_per_scenario; ++k) {
    for (const host::ScenarioSpec& spec : specs) {
      Rng rng = root.Fork();
      DetectCase c;
      c.label = spec.label + (spec.ransomware.empty() ? "" : " + ") +
                spec.ransomware + " #" + std::to_string(k);

      wl::AppParams app;
      app.start_time = 0;
      app.duration = shape.duration;
      app.region_start = app_start;
      app.region_blocks = app_blocks;
      app.intensity = spec.app_intensity;
      Rng app_rng = rng.Fork();
      wl::AppTrace background = wl::GenerateApp(spec.app, app, app_rng);

      wl::RansomwareTrace attack;
      if (!spec.ransomware.empty()) {
        wl::FileSet::Params fsp;
        fsp.file_count = shape.fileset_files;
        fsp.region_start = 0;
        fsp.region_blocks = in.file_blocks;
        Rng fs_rng = rng.Fork();
        wl::FileSet files = wl::FileSet::Generate(fsp, fs_rng);
        wl::RansomwareProfile profile =
            wl::RansomwareProfileByName(spec.ransomware);
        profile.slowdown *= wl::RansomwareSlowdownUnder(spec.app);
        wl::RansomwareRunParams rp;
        rp.start_time = shape.ransom_start;
        rp.scratch_start = scratch_start;
        rp.max_duration = shape.duration - shape.ransom_start;
        Rng r_rng = rng.Fork();
        attack = wl::GenerateRansomware(profile, files, rp, r_rng);
        c.ransomware = true;
        c.attack_begin = attack.active_begin;
      }
      c.requests = wl::Untag(wl::Merge2(background.requests, attack.requests));
      in.cases.push_back(std::move(c));
    }
  }
  return in;
}

}  // namespace insider::perfbench
