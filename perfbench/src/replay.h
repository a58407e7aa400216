// Standalone layer replays: the header stream a traced pass recorded at the
// device boundary, fed into a fresh core::DetectorPool or ftl::PageFtl with
// nothing else around it, so each layer's host cost is measured alone.
#pragma once

#include <cstdint>
#include <vector>

#include "common/io.h"
#include "host/ssd.h"
#include "passes.h"

namespace insider::perfbench {

struct CoreReplay {
  std::uint64_t headers = 0;
  std::uint64_t slices_closed = 0;
  double observe_ns = 0.0;      ///< header ingestion, slice closes excluded
  double slice_close_ns = 0.0;  ///< closing slices (features + tree vote)
  std::size_t instances = 0;
  std::size_t pool_bytes = 0;   ///< Table III modelled DRAM
  /// End state per instance, comparable with the device's.
  std::vector<DetectorOutcome> outcomes;
};

/// Replay one device's headers into a pool configured like the device's,
/// then advance every instance to `settle` as the device's idle time did.
/// Only headers from index `timed_from` on are timed and counted (the ones
/// before it were the device's set-up); all of them are replayed.
CoreReplay ReplayDetectors(const std::vector<IoRequest>& headers,
                           std::size_t timed_from, SimTime settle,
                           const host::SsdConfig& device);

struct FtlReplay {
  std::uint64_t write_pages = 0;
  std::uint64_t read_pages = 0;
  std::uint64_t bg_blocks = 0;  ///< blocks BackgroundCollect reclaimed
  double write_ns = 0.0;
  double read_ns = 0.0;
  double bg_ns = 0.0;
};

/// Replay one device's headers page by page into a fresh FTL configured like
/// the device's. Whenever the FTL asks for background GC it gets one
/// BackgroundCollect(now, 4) call, the firmware task's budget. As above,
/// only headers from `timed_from` on are timed and counted.
FtlReplay ReplayFtl(const std::vector<IoRequest>& headers,
                    std::size_t timed_from, const ftl::FtlConfig& config);

}  // namespace insider::perfbench
