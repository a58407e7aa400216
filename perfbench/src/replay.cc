#include "replay.h"

#include <algorithm>

#include "core/detector_pool.h"
#include "core/pretrained.h"
#include "ftl/page_ftl.h"
#include "probe.h"

namespace insider::perfbench {

namespace {

/// Slices the pool has closed so far, summed over instances.
std::uint64_t SlicesClosed(const core::DetectorPool& pool,
                           SimTime slice_length) {
  std::uint64_t n = 0;
  pool.ForEach([&](core::NamespaceId, const core::Detector& d) {
    n += static_cast<std::uint64_t>(d.NextSliceEnd() / slice_length - 1);
  });
  return n;
}

}  // namespace

CoreReplay ReplayDetectors(const std::vector<IoRequest>& headers,
                           std::size_t timed_from, SimTime settle,
                           const host::SsdConfig& device) {
  CoreReplay out;
  core::DetectorPool pool(device.detector, device.detector_pool,
                          core::PretrainedTree());
  const std::size_t first = std::min(timed_from, headers.size());
  for (std::size_t i = 0; i < first; ++i) {
    pool.OnRequest(headers[i].nsid, headers[i]);
  }
  const std::uint64_t slices_before =
      SlicesClosed(pool, device.detector.slice_length);
  // A header that crosses a slice boundary closes slices first (the same
  // thing Detector::OnRequest does internally); closing them in a separate,
  // timed AdvanceTo splits the two costs without changing any result.
  const SteadyClock::time_point t0 = SteadyClock::now();
  for (std::size_t i = first; i < headers.size(); ++i) {
    const IoRequest& h = headers[i];
    core::Detector& d = pool.ForNamespace(h.nsid);
    if (h.time >= d.NextSliceEnd()) {
      const SteadyClock::time_point c0 = SteadyClock::now();
      d.AdvanceTo(h.time);
      out.slice_close_ns += NsBetween(c0, SteadyClock::now());
    }
    d.OnRequest(h);
  }
  out.observe_ns = NsBetween(t0, SteadyClock::now()) - out.slice_close_ns;
  const SteadyClock::time_point c0 = SteadyClock::now();
  pool.AdvanceAllTo(settle);
  out.slice_close_ns += NsBetween(c0, SteadyClock::now());

  out.headers = headers.size() - first;
  out.slices_closed =
      SlicesClosed(pool, device.detector.slice_length) - slices_before;
  out.instances = pool.InstanceCount();
  out.pool_bytes = pool.EstimatedBytes();
  pool.ForEach([&](core::NamespaceId ns, const core::Detector& d) {
    out.outcomes.push_back({ns, d.FirstAlarmTime(), d.Score()});
  });
  return out;
}

FtlReplay ReplayFtl(const std::vector<IoRequest>& headers,
                    std::size_t timed_from, const ftl::FtlConfig& config) {
  constexpr std::size_t kFirmwareGcBudget = 4;
  FtlReplay out;
  FtlReplay untimed;  // the set-up part of the stream
  ftl::PageFtl ftl(config);
  std::uint64_t stamp = 0;
  for (std::size_t i = 0; i < headers.size(); ++i) {
    const IoRequest& h = headers[i];
    FtlReplay& acc = i < timed_from ? untimed : out;
    const SteadyClock::time_point t0 = SteadyClock::now();
    for (std::uint32_t b = 0; b < h.length; ++b) {
      switch (h.mode) {
        case IoMode::kWrite:
          (void)ftl.WritePage(h.lba + b, nand::PageData(++stamp, {}), h.time);
          break;
        case IoMode::kRead:
          (void)ftl.ReadPage(h.lba + b, h.time);
          break;
        case IoMode::kTrim:
          (void)ftl.TrimPage(h.lba + b, h.time);
          break;
        case IoMode::kRangeLock:
        case IoMode::kRangeUnlock:
          break;
      }
    }
    const double ns = NsBetween(t0, SteadyClock::now());
    if (h.mode == IoMode::kWrite) {
      acc.write_ns += ns;
      acc.write_pages += h.length;
    } else if (h.mode == IoMode::kRead) {
      acc.read_ns += ns;
      acc.read_pages += h.length;
    }
    if (ftl.BackgroundGcNeeded()) {
      const SteadyClock::time_point g0 = SteadyClock::now();
      acc.bg_blocks += ftl.BackgroundCollect(h.time, kFirmwareGcBudget);
      acc.bg_ns += NsBetween(g0, SteadyClock::now());
    }
  }
  return out;
}

}  // namespace insider::perfbench
