#include "passes.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "core/pretrained.h"
#include "host/ssd_target.h"
#include "io/io_engine.h"

namespace insider::perfbench {

namespace {

enum class Mode : std::uint8_t { kSetupOnly, kUntraced, kTraced };

double SecondsSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/// Judge one stream's alarm against the generator's ground truth.
void Judge(bool ransomware, std::optional<SimTime> alarm,
           SimTime attack_begin, SimOutputs& out) {
  if (ransomware) {
    ++out.victims;
    if (alarm) {
      ++out.victims_detected;
      out.detect_latency_s.push_back(
          ToSeconds(std::max<SimTime>(*alarm - attack_begin, 0)));
    }
  } else {
    ++out.benign;
    if (alarm) ++out.false_alarms;
  }
}

/// Read back every block the tenants wrote. A block is intact when it holds
/// a stamp some tenant wrote to that very LBA, or reads unmapped and some
/// tenant trimmed it. (Tenants may share LBAs, so which write came last is
/// not checked; a stamp from another LBA or a lost block is.)
void DataCheck(host::Ssd& ssd, const std::vector<TenantInput>& tenants,
               SimOutputs& out) {
  const Lba exported = ssd.Ftl().ExportedLbas();
  constexpr std::uint8_t kWritten = 1;
  constexpr std::uint8_t kTrimmed = 2;
  std::vector<std::uint8_t> state(exported, 0);
  std::vector<std::pair<std::uint64_t, std::size_t>> bases;  // stamp base
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    for (Lba lba : tenants[i].written) {
      if (lba < exported) state[lba] |= kWritten;
    }
    for (Lba lba : tenants[i].trimmed) {
      if (lba < exported) state[lba] |= kTrimmed;
    }
    bases.emplace_back(tenants[i].spec.stamp_base, i);
  }
  std::sort(bases.begin(), bases.end());

  const SimTime now = ssd.Clock().Now();
  for (Lba lba = 0; lba < exported; ++lba) {
    if ((state[lba] & kWritten) == 0) continue;
    ++out.blocks_checked;
    ftl::FtlResult r = ssd.Ftl().ReadPage(lba, now);
    bool intact = false;
    if (r.ok()) {
      const std::uint64_t stamp = r.data.stamp;
      auto it = std::upper_bound(
          bases.begin(), bases.end(),
          std::make_pair(stamp, std::numeric_limits<std::size_t>::max()));
      if (it != bases.begin()) {
        --it;
        const std::vector<Lba>& written = tenants[it->second].written;
        const std::uint64_t k = stamp - it->first;
        intact = k < written.size() && written[k] == lba;
      }
    } else if (r.status == ftl::FtlStatus::kUnmapped) {
      intact = (state[lba] & kTrimmed) != 0;
    }
    if (intact) ++out.blocks_intact;
  }
  ++out.readback_devices;
}

PassResult RunMultiQueue(const BenchSpec& spec, Mode mode) {
  PassResult res;
  SimOutputs& out = res.sim;
  const SteadyClock::time_point t0 = SteadyClock::now();
  MultiQueueInput in = spec.workload == Workload::kFleet
                           ? GenerateFleet(spec.fleet, spec.seed)
                           : GenerateMqueue(spec.mqueue, spec.seed);
  out.requests = in.Requests();
  out.offered_span = in.offered_span;
  host::Ssd ssd(in.device, core::PretrainedTree());
  host::SsdTarget target(ssd);
  DeviceProbe probe(target, mode == Mode::kTraced);
  io::IoEngine engine(probe, in.engine);
  std::vector<wl::TenantSpec> specs;
  specs.reserve(in.tenants.size());
  for (TenantInput& t : in.tenants) {
    wl::TenantSpec& s = t.spec;
    specs.push_back({s.name, std::move(s.requests), s.stamp_base,
                     s.is_ransomware, s.nsid});
  }
  wl::MultiTenantDriver driver(std::move(specs));
  res.setup_s = SecondsSince(t0);
  if (mode == Mode::kSetupOnly) return res;

  const SteadyClock::time_point t1 = SteadyClock::now();
  wl::MultiTenantReport report = driver.Run(engine);
  const double loop_ns = NsBetween(t1, SteadyClock::now());
  // Settle the trailing detector slice so its votes reach every score.
  const SimTime settle = std::max(report.end_time, ssd.Clock().Now()) +
                         in.device.detector.slice_length;
  ssd.IdleUntil(settle);
  res.run_s = SecondsSince(t1);

  if (report.status != wl::MultiTenantStatus::kOk) {
    res.error = std::string("driver status ") +
                wl::MultiTenantStatusName(report.status);
    return res;
  }
  for (const wl::TenantResult& t : report.tenants) {
    out.submitted += t.submitted;
    out.completed += t.completed;
    out.failed += t.errors;
  }
  const io::EngineStats& es = engine.Stats();
  out.dispatched = report.total_dispatched;
  out.sq_rejections = es.sq_rejections;
  out.cq_stalls = es.cq_stalls;
  out.max_in_flight = es.max_in_flight;
  out.ftl.push_back(ssd.Ftl().Stats());
  out.settle.push_back(settle);
  out.sim_span = report.end_time - report.first_submit_time;
  out.device_latency = probe.DeviceLatency();
  out.instant_completions = probe.Instant();
  out.devices = 1;

  const bool detecting = in.device.detector_enabled;
  if (detecting) {
    ssd.Detectors().ForEach(
        [&](core::NamespaceId ns, const core::Detector& d) {
          out.detectors.push_back({ns, d.FirstAlarmTime(), d.Score()});
        });
  }
  for (std::size_t i = 0; i < in.tenants.size(); ++i) {
    const core::Detector* d =
        detecting ? ssd.Detectors().Peek(report.tenants[i].nsid) : nullptr;
    Judge(in.tenants[i].spec.is_ransomware,
          d != nullptr ? d->FirstAlarmTime() : std::nullopt,
          in.tenants[i].attack_begin, out);
  }

  DataCheck(ssd, in.tenants, out);
  if (out.submitted != out.requests || out.completed != out.submitted) {
    res.error = "not every command completed: " +
                std::to_string(out.requests) + " generated, " +
                std::to_string(out.submitted) + " submitted, " +
                std::to_string(out.completed) + " completed";
  }

  if (mode == Mode::kTraced) {
    LayerTrace& lt = res.trace.emplace();
    lt.device = in.device;
    lt.streams.push_back(probe.Headers());
    lt.run_from.push_back(0);
    lt.loop_ns = loop_ns;
    lt.device_ns = probe.DeviceNs();
    lt.submit = probe.DispatchTimer();
    lt.firmware = probe.FirmwareTimer();
    // What recovery would cost from this end state (to the first alarm, or
    // the last retention window when nothing alarmed). It runs after every
    // output above was taken, so it cannot change them.
    const SteadyClock::time_point r0 = SteadyClock::now();
    lt.rollback_entries = ssd.RollBackNow().entries_reverted;
    lt.rollback.ns.Add(NsBetween(r0, SteadyClock::now()));
  }
  return res;
}

// User files are written in chunks of this many blocks.
constexpr std::uint32_t kPrefillChunk = 64;

PassResult RunDetect(const BenchSpec& spec, Mode mode) {
  PassResult res;
  SimOutputs& out = res.sim;
  const bool traced = mode == Mode::kTraced;
  const SteadyClock::time_point t0 = SteadyClock::now();
  DetectInput in = GenerateDetect(spec.detect, spec.seed);
  const core::DecisionTree tree = core::PretrainedTree();
  out.requests = in.Requests();
  res.setup_s = SecondsSince(t0);
  if (traced) res.trace.emplace().device = in.device;

  for (std::size_t i = 0; i < in.cases.size(); ++i) {
    const DetectCase& c = in.cases[i];
    std::vector<IoRequest>* headers =
        traced ? &res.trace->streams.emplace_back() : nullptr;
    const SteadyClock::time_point ts = SteadyClock::now();
    host::Ssd ssd(in.device, tree);
    auto record = [&](IoRequest header) {
      header.time = std::max(header.time, ssd.Clock().Now());
      if (headers != nullptr) headers->push_back(header);
      return header.time;
    };
    // The user's files, stamped with their LBA; they age past the
    // recovery window before the scenario starts.
    for (Lba lba = 0; lba < in.file_blocks; lba += kPrefillChunk) {
      const IoRequest w{Seconds(1), lba,
                        static_cast<std::uint32_t>(std::min<Lba>(
                            kPrefillChunk, in.file_blocks - lba)),
                        IoMode::kWrite};
      record(w);
      if (ssd.Submit(w, lba) != ftl::FtlStatus::kOk) {
        res.error = "pre-fill write failed in " + c.label;
        return res;
      }
    }
    const SimTime start = ssd.Clock().Now() + in.idle_after_prefill;
    ssd.IdleUntil(start);
    if (traced) res.trace->run_from.push_back(headers->size());
    res.setup_s += SecondsSince(ts);
    if (mode == Mode::kSetupOnly) continue;

    const SteadyClock::time_point tr = SteadyClock::now();
    std::uint64_t stamp = 0xDEAD000000000000ull;
    for (const IoRequest& r : c.requests) {
      IoRequest req = r;
      req.time += start;
      // The firmware runs in the gap before the request, as it does behind
      // the engine: a slice that closed in the gap raises the alarm here,
      // and the host submits nothing once the drive has shut the door.
      const SimTime gap_end = std::max(req.time, ssd.Clock().Now());
      if (traced) {
        const SteadyClock::time_point s0 = SteadyClock::now();
        ssd.DrainFirmware(gap_end);
        res.trace->firmware.ns.Add(NsBetween(s0, SteadyClock::now()));
      } else {
        ssd.DrainFirmware(gap_end);
      }
      if (ssd.AlarmActive()) break;
      const SimTime at = record(req);
      ftl::FtlStatus status;
      if (traced) {
        const SteadyClock::time_point s0 = SteadyClock::now();
        status = ssd.Submit(req, stamp);
        res.trace->submit.ns.Add(NsBetween(s0, SteadyClock::now()));
      } else {
        status = ssd.Submit(req, stamp);
      }
      if (req.mode == IoMode::kWrite) stamp += req.length;
      ++out.submitted;
      ++out.completed;
      if (status != ftl::FtlStatus::kOk) ++out.failed;
      const SimTime latency = ssd.Clock().Now() - at;
      if (latency > 0) {
        out.device_latency.Add(static_cast<double>(latency));
      } else {
        ++out.instant_completions;
      }
    }
    if (traced) res.trace->loop_ns += NsBetween(tr, SteadyClock::now());
    const SimTime last = ssd.Clock().Now();
    const SimTime settle = last + Seconds(1);
    ssd.IdleUntil(settle);
    const std::optional<SimTime> alarm = ssd.FirstAlarmTime();
    const int score = ssd.Detector().Score();
    // The paper's recovery path, alarm or not: roll the mapping back.
    const SteadyClock::time_point r0 = SteadyClock::now();
    const ftl::RollbackReport rollback = ssd.RollBackNow();
    if (traced) {
      res.trace->rollback.ns.Add(NsBetween(r0, SteadyClock::now()));
      res.trace->rollback_entries += rollback.entries_reverted;
    }
    res.run_s += SecondsSince(tr);

    out.sim_span += last - start;
    if (!c.requests.empty()) out.offered_span += c.requests.back().time;
    out.ftl.push_back(ssd.Ftl().Stats());
    out.settle.push_back(settle);
    out.detectors.push_back({0, alarm, score});
    Judge(c.ransomware, alarm, c.attack_begin + start, out);

    // Every user-file block must read back its pre-attack stamp.
    for (Lba lba = 0; lba < in.file_blocks; ++lba) {
      ftl::FtlResult r = ssd.Ftl().ReadPage(lba, settle);
      if (r.ok() && r.data.stamp == lba) ++out.blocks_intact;
    }
    out.blocks_checked += in.file_blocks;
    ++out.readback_devices;
    ++out.devices;
  }
  out.dispatched = out.submitted;
  if (traced) {
    res.trace->device_ns =
        res.trace->submit.TotalNs() + res.trace->firmware.TotalNs();
  }
  return res;
}

PassResult Run(const BenchSpec& spec, Mode mode) {
  PassResult res = spec.workload == Workload::kDetect
                       ? RunDetect(spec, mode)
                       : RunMultiQueue(spec, mode);
  if (res.error.empty() && mode != Mode::kSetupOnly &&
      res.sim.readback_devices != res.sim.devices) {
    res.error = "read-back skipped on " +
                std::to_string(res.sim.devices - res.sim.readback_devices) +
                " device(s)";
  }
  return res;
}

}  // namespace

std::string SimulationDiff(const SimOutputs& a, const SimOutputs& b) {
  auto field = [](const char* name, auto x, auto y) -> std::string {
    if (x == y) return "";
    return std::string(name) + " differs: " + std::to_string(x) + " vs " +
           std::to_string(y);
  };
  for (const std::string& d : {
           field("requests", a.requests, b.requests),
           field("submitted", a.submitted, b.submitted),
           field("completed", a.completed, b.completed),
           field("failed", a.failed, b.failed),
           field("dispatched", a.dispatched, b.dispatched),
           field("sq_rejections", a.sq_rejections, b.sq_rejections),
           field("cq_stalls", a.cq_stalls, b.cq_stalls),
           field("max_in_flight", a.max_in_flight, b.max_in_flight),
           field("sim_span", a.sim_span, b.sim_span),
           field("latency count", a.device_latency.Count(),
                 b.device_latency.Count()),
           field("latency sum", a.device_latency.Sum(),
                 b.device_latency.Sum()),
           field("instant completions", a.instant_completions,
                 b.instant_completions),
           field("victims_detected", a.victims_detected, b.victims_detected),
           field("false_alarms", a.false_alarms, b.false_alarms),
           field("blocks_intact", a.blocks_intact, b.blocks_intact),
           field("blocks_checked", a.blocks_checked, b.blocks_checked),
       }) {
    if (!d.empty()) return d;
  }
  if (a.ftl != b.ftl) return "FtlStats differ";
  if (a.detectors != b.detectors) return "detector alarm times or scores differ";
  if (a.settle != b.settle) return "settle times differ";
  return "";
}

PassResult RunPass(const BenchSpec& spec, bool trace) {
  return Run(spec, trace ? Mode::kTraced : Mode::kUntraced);
}

double SetupOnly(const BenchSpec& spec) {
  return Run(spec, Mode::kSetupOnly).setup_s;
}

}  // namespace insider::perfbench
