// Differential suite for wl::MultiTenantDriver: the driver's (time, tenant)
// heap and per-pair parking must submit exactly what the plain rescan loop
// submits. The rescan — every host phase re-picks the min (next time,
// index) over all tenants and retries every full pair — is kept here as the
// reference. Both drivers run the same seeded streams into identical
// engines over a recording device; the device call sequences (command id,
// header, stamp base) and the per-tenant results must match exactly. Only
// the stall count may differ: the rescan re-polls a full pair once per
// engine event, the driver once per park.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/pretrained.h"
#include "dispatch_recorder.h"
#include "host/ssd.h"
#include "host/ssd_target.h"
#include "io/io_engine.h"
#include "obs/trace.h"
#include "workload/multi_tenant.h"

namespace insider::wl {
namespace {

/// The rescan driver: MultiTenantDriver::Run before pair parking. Every
/// host phase forgets which pairs were full, then repeatedly scans all
/// tenants for the min (next request time, index) whose pair has not
/// refused a submission in this phase.
MultiTenantReport RescanRun(const std::vector<TenantSpec>& tenants,
                            io::IoEngine& engine) {
  const std::size_t n = tenants.size();
  const std::size_t queues = engine.QueueCount();

  MultiTenantReport report;
  report.tenants.resize(n);
  report.first_submit_time = std::numeric_limits<SimTime>::max();
  std::vector<std::size_t> cursor(n, 0);
  std::vector<std::uint64_t> blocks_written(n, 0);
  std::vector<std::uint32_t> ns_of(n, 0);
  std::unordered_map<std::uint32_t, std::size_t> tenant_of_ns;
  for (std::size_t i = 0; i < n; ++i) {
    TenantResult& r = report.tenants[i];
    r.name = tenants[i].name;
    r.is_ransomware = tenants[i].is_ransomware;
    ns_of[i] = tenants[i].nsid != 0 ? tenants[i].nsid
                                    : static_cast<std::uint32_t>(i) + 1;
    r.nsid = ns_of[i];
    for (const IoRequest& req : tenants[i].requests) {
      report.first_submit_time = std::min(report.first_submit_time, req.time);
    }
  }
  if (report.first_submit_time == std::numeric_limits<SimTime>::max()) {
    report.first_submit_time = 0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!tenant_of_ns.emplace(ns_of[i], i).second) {
      report.status = MultiTenantStatus::kDuplicateNamespace;
      report.end_time = report.first_submit_time;
      return report;
    }
  }

  const std::uint64_t dispatched_before = engine.Stats().dispatched;
  auto reap_all = [&] {
    for (std::size_t q = 0; q < queues; ++q) {
      while (std::optional<io::Completion> c =
                 engine.PopCompletion(static_cast<io::QueueId>(q))) {
        report.end_time = std::max(report.end_time, c->complete_time);
        auto it = tenant_of_ns.find(c->request.nsid);
        if (it == tenant_of_ns.end()) continue;
        TenantResult& r = report.tenants[it->second];
        ++r.completed;
        if (!c->ok) ++r.errors;
        r.latency_us.Add(static_cast<double>(c->Latency()));
        r.last_complete_time = std::max(r.last_complete_time, c->complete_time);
      }
    }
  };

  std::vector<char> pair_blocked(queues, 0);
  for (;;) {
    std::fill(pair_blocked.begin(), pair_blocked.end(), 0);
    for (;;) {
      std::size_t best = n;
      SimTime best_time = std::numeric_limits<SimTime>::max();
      for (std::size_t i = 0; i < n; ++i) {
        if (cursor[i] >= tenants[i].requests.size()) continue;
        if (pair_blocked[i % queues]) continue;
        SimTime t = tenants[i].requests[cursor[i]].time;
        if (t < best_time) {
          best_time = t;
          best = i;
        }
      }
      if (best == n) break;
      TenantResult& r = report.tenants[best];
      const io::QueueId q = static_cast<io::QueueId>(best % queues);
      IoRequest req = tenants[best].requests[cursor[best]];
      req.nsid = ns_of[best];
      if (!engine.TrySubmit(q, req,
                            tenants[best].stamp_base + blocks_written[best])) {
        ++r.stall_events;
        pair_blocked[q] = 1;
        continue;
      }
      ++r.submitted;
      if (req.mode == IoMode::kWrite) blocks_written[best] += req.length;
      ++cursor[best];
    }

    if (!engine.Step()) {
      bool all_drained = true;
      for (std::size_t i = 0; i < n; ++i) {
        if (cursor[i] < tenants[i].requests.size()) all_drained = false;
      }
      if (all_drained && engine.InFlight() == 0) break;
      reap_all();
      continue;
    }
    reap_all();
  }

  reap_all();
  report.total_dispatched = engine.Stats().dispatched - dispatched_before;
  report.end_time = std::max(report.end_time, report.first_submit_time);
  return report;
}

struct DeviceCall {
  obs::TraceId command = 0;  ///< the engine's command id (its trace id)
  IoRequest request;         ///< as dispatched: `time` is the dispatch instant
  std::uint64_t stamp_base = 0;
  bool redrive = false;

  friend bool operator==(const DeviceCall&, const DeviceCall&) = default;
};

/// A small pipelined device that records every call. LBAs map onto four
/// units that serialize their own work, so completions post out of
/// dispatch order; every 11th call fails (a read with a retryable media
/// error the engine re-drives, a write with a final one). The engine runs
/// each dispatch under the command's trace scope, which is how the record
/// gets the command id.
class RecordingDevice final : public io::DeviceTarget {
 public:
  explicit RecordingDevice(const obs::Tracer& tracer) : tracer_(tracer) {}

  SimTime Now() const override { return now_; }
  io::DispatchResult Dispatch(const IoRequest& request,
                              std::uint64_t stamp_base) override {
    return Execute(request, stamp_base, false);
  }
  io::DispatchResult Redrive(const IoRequest& request,
                             std::uint64_t stamp_base) override {
    return Execute(request, stamp_base, true);
  }

  const std::vector<DeviceCall>& Calls() const { return calls_; }

 private:
  io::DispatchResult Execute(const IoRequest& request,
                             std::uint64_t stamp_base, bool redrive) {
    calls_.push_back({tracer_.Current(), request, stamp_base, redrive});
    now_ = std::max(now_, request.time);
    SimTime& busy = busy_[request.lba % busy_.size()];
    const SimTime cost = request.mode == IoMode::kRead    ? Microseconds(7)
                         : request.mode == IoMode::kWrite
                             ? CostOf(request.length, Microseconds(23))
                             : Microseconds(2);
    busy = std::max(busy, now_) + cost;
    if (calls_.size() % 11 != 0 || request.mode == IoMode::kTrim) {
      return {true, io::DeviceStatus::kOk, busy};
    }
    return {false,
            request.mode == IoMode::kRead ? io::DeviceStatus::kReadError
                                          : io::DeviceStatus::kWriteError,
            busy};
  }

  const obs::Tracer& tracer_;
  SimTime now_ = 0;
  std::vector<SimTime> busy_ = std::vector<SimTime>(4, 0);
  std::vector<DeviceCall> calls_;
};

struct Case {
  io::EngineConfig engine;
  std::vector<TenantSpec> tenants;
  std::string label;
};

/// One seeded point of the matrix: 1–4 pairs shared by 1–9 tenants each,
/// sq_depth 1–32 with a smaller cq_depth half the time, RR or WRR, and
/// streams of reads, writes and trims on a coarse time grid (so tenants tie
/// on submit time), some empty, some with explicit namespace ids.
Case MakeCase(std::uint64_t seed) {
  Rng rng(seed);
  Case c;
  const std::size_t queues = 1 + rng.Below(4);
  const std::size_t per_pair = 1 + rng.Below(9);
  const std::size_t n = queues * per_pair - rng.Below(per_pair);
  const std::size_t sq_depth = 1 + rng.Below(32);
  c.engine.queue_count = queues;
  const bool wrr = rng.Below(2) == 1;
  if (wrr) {
    c.engine.arbiter.policy = io::ArbiterPolicy::kWeightedRoundRobin;
    c.engine.arbiter.burst = static_cast<std::uint32_t>(1 + rng.Below(4));
  }
  for (std::size_t q = 0; q < queues; ++q) {
    io::QueueConfig qc;
    qc.sq_depth = sq_depth;
    if (sq_depth > 1 && rng.Below(2) == 1) {
      qc.cq_depth = 1 + rng.Below(sq_depth - 1);
    }
    qc.weight = static_cast<std::uint32_t>(1 + rng.Below(4));
    c.engine.per_queue.push_back(qc);
  }
  for (std::size_t i = 0; i < n; ++i) {
    TenantSpec t;
    t.name = "t" + std::to_string(i);
    t.stamp_base = 10'000 * (i + 1);
    if (rng.Below(3) == 0) t.nsid = static_cast<std::uint32_t>(1000 + i);
    const std::size_t count = rng.Below(8) == 0 ? 0 : rng.Below(48);
    SimTime time = CostOf(rng.Below(4), Microseconds(10));
    for (std::size_t k = 0; k < count; ++k) {
      constexpr SimTime kGaps[] = {0, 0, 5, 10, 40};
      time += kGaps[rng.Below(5)];
      const std::uint64_t mode = rng.Below(10);
      t.requests.push_back(
          {time, rng.Below(256), static_cast<std::uint32_t>(1 + rng.Below(4)),
           mode < 5 ? IoMode::kWrite
                    : (mode < 9 ? IoMode::kRead : IoMode::kTrim)});
    }
    c.tenants.push_back(std::move(t));
  }
  c.label = "seed " + std::to_string(seed) + ": " + std::to_string(n) +
            " tenants on " + std::to_string(queues) + " pairs, sq_depth " +
            std::to_string(sq_depth) + (wrr ? ", WRR" : ", RR");
  return c;
}

void ExpectHistogramsEqual(const obs::LogHistogram& a,
                           const obs::LogHistogram& b,
                           const std::string& where) {
  ASSERT_EQ(a.Count(), b.Count()) << where;
  EXPECT_EQ(a.Sum(), b.Sum()) << where;
  EXPECT_EQ(a.Underflow(), b.Underflow()) << where;
  EXPECT_EQ(a.Overflow(), b.Overflow()) << where;
  if (a.Count() == 0) return;
  EXPECT_EQ(a.Min(), b.Min()) << where;
  EXPECT_EQ(a.Max(), b.Max()) << where;
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(a.QuantileBounds(q).lower, b.QuantileBounds(q).lower) << where;
    EXPECT_EQ(a.QuantileBounds(q).upper, b.QuantileBounds(q).upper) << where;
  }
}

/// Everything but the stall counts must match; the driver stalls at most
/// as often as the rescan, and each run's stalls are its engine's
/// rejections.
void ExpectSameRun(const MultiTenantReport& ref, const io::EngineStats& ref_e,
                   const MultiTenantReport& got, const io::EngineStats& got_e,
                   const std::string& label) {
  EXPECT_EQ(got.status, ref.status) << label;
  EXPECT_EQ(got.total_dispatched, ref.total_dispatched) << label;
  EXPECT_EQ(got.first_submit_time, ref.first_submit_time) << label;
  EXPECT_EQ(got.end_time, ref.end_time) << label;
  ASSERT_EQ(got.tenants.size(), ref.tenants.size()) << label;
  std::uint64_t ref_stalls = 0;
  std::uint64_t got_stalls = 0;
  for (std::size_t i = 0; i < ref.tenants.size(); ++i) {
    const TenantResult& a = ref.tenants[i];
    const TenantResult& b = got.tenants[i];
    const std::string where = label + ", tenant " + a.name;
    EXPECT_EQ(b.name, a.name) << where;
    EXPECT_EQ(b.nsid, a.nsid) << where;
    EXPECT_EQ(b.submitted, a.submitted) << where;
    EXPECT_EQ(b.completed, a.completed) << where;
    EXPECT_EQ(b.errors, a.errors) << where;
    EXPECT_EQ(b.last_complete_time, a.last_complete_time) << where;
    EXPECT_LE(b.stall_events, a.stall_events) << where;
    ExpectHistogramsEqual(a.latency_us, b.latency_us, where);
    ref_stalls += a.stall_events;
    got_stalls += b.stall_events;
  }
  EXPECT_EQ(ref_e.sq_rejections, ref_stalls) << label;
  EXPECT_EQ(got_e.sq_rejections, got_stalls) << label;
  EXPECT_EQ(got_e.dispatched, ref_e.dispatched) << label;
  EXPECT_EQ(got_e.completed_ok, ref_e.completed_ok) << label;
  EXPECT_EQ(got_e.completed_error, ref_e.completed_error) << label;
  EXPECT_EQ(got_e.read_retries, ref_e.read_retries) << label;
  EXPECT_EQ(got_e.cq_stalls, ref_e.cq_stalls) << label;
  EXPECT_EQ(got_e.max_in_flight, ref_e.max_in_flight) << label;
}

TEST(MultiTenantDifferentialTest, SeededMatrixMatchesRescanDriver) {
  constexpr std::uint64_t kCases = 300;
  std::uint64_t commands = 0;
  std::uint64_t parks = 0;
  std::uint64_t shared_cq = 0;
  for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
    const Case c = MakeCase(seed);

    obs::Tracer ref_tracer(16);
    RecordingDevice ref_device(ref_tracer);
    io::IoEngine ref_engine(ref_device, c.engine);
    ref_engine.AttachObs(&ref_tracer, nullptr);
    const MultiTenantReport ref = RescanRun(c.tenants, ref_engine);

    obs::Tracer tracer(16);
    RecordingDevice device(tracer);
    io::IoEngine engine(device, c.engine);
    engine.AttachObs(&tracer, nullptr);
    const MultiTenantReport got = MultiTenantDriver(c.tenants).Run(engine);

    const std::vector<DeviceCall>& calls = device.Calls();
    const std::vector<DeviceCall>& ref_calls = ref_device.Calls();
    for (std::size_t k = 0; k < std::min(calls.size(), ref_calls.size());
         ++k) {
      ASSERT_EQ(calls[k], ref_calls[k]) << c.label << ", device call " << k;
    }
    ASSERT_EQ(calls.size(), ref_calls.size()) << c.label;
    ExpectSameRun(ref, ref_engine.Stats(), got, engine.Stats(), c.label);
    if (HasFatalFailure()) return;

    commands += got.total_dispatched;
    parks += engine.Stats().sq_rejections;
    if (c.engine.per_queue.front().cq_depth != 0) ++shared_cq;
  }
  // The matrix exercised what it claims to: real traffic, pairs that
  // parked, and completion rings shallower than their submission rings.
  EXPECT_GT(commands, 10'000u);
  EXPECT_GT(parks, 1'000u);
  EXPECT_GT(shared_cq, kCases / 4);
}

// The same comparison on the real stack: 16 tenants on 4 WRR pairs into one
// small Ssd, where background GC and the detector pool run between engine
// events.
TEST(MultiTenantDifferentialTest, SsdStackMatchesRescanDriver) {
  host::SsdConfig cfg;
  cfg.ftl.geometry = nand::TestGeometry();
  io::EngineConfig ecfg;
  ecfg.queue_count = 4;
  ecfg.queue.sq_depth = 4;
  ecfg.arbiter.policy = io::ArbiterPolicy::kWeightedRoundRobin;
  ecfg.per_queue.assign(4, ecfg.queue);
  for (std::size_t q = 0; q < 4; ++q) {
    ecfg.per_queue[q].weight = static_cast<std::uint32_t>(q + 1);
  }
  std::vector<TenantSpec> tenants;
  for (std::size_t i = 0; i < 16; ++i) {
    TenantSpec t;
    t.name = "t" + std::to_string(i);
    t.stamp_base = 1'000 * (i + 1);
    for (std::size_t k = 0; k < 64; ++k) {
      t.requests.push_back({CostOf(k, Microseconds(20)),
                            static_cast<Lba>(32 * i + k % 32), 1,
                            k % 3 == 2 ? IoMode::kRead : IoMode::kWrite});
    }
    tenants.push_back(std::move(t));
  }

  host::Ssd ref_ssd(cfg, core::PretrainedTree());
  host::SsdTarget ref_inner(ref_ssd);
  DispatchRecorder ref_device(ref_inner);
  io::IoEngine ref_engine(ref_device, ecfg);
  const MultiTenantReport ref = RescanRun(tenants, ref_engine);

  host::Ssd ssd(cfg, core::PretrainedTree());
  host::SsdTarget inner(ssd);
  DispatchRecorder device(inner);
  io::IoEngine engine(device, ecfg);
  const MultiTenantReport got = MultiTenantDriver(tenants).Run(engine);

  EXPECT_EQ(got.total_dispatched, 16u * 64u);
  EXPECT_TRUE(device.Records() == ref_device.Records());
  ExpectSameRun(ref, ref_engine.Stats(), got, engine.Stats(), "ssd stack");
  EXPECT_LT(engine.Stats().sq_rejections, ref_engine.Stats().sq_rejections);
}

}  // namespace
}  // namespace insider::wl
