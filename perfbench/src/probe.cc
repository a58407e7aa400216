#include "probe.h"

#include <algorithm>

namespace insider::perfbench {

io::DispatchResult DeviceProbe::Dispatch(const IoRequest& request,
                                         std::uint64_t stamp_base) {
  // The device executes at max(request.time, its clock) (the frontend's
  // time-ordering contract); that is the dispatch instant.
  IoRequest effective = request;
  effective.time = std::max(request.time, inner_.Now());
  io::DispatchResult result;
  if (trace_) {
    headers_.push_back(effective);
    const SteadyClock::time_point t0 = SteadyClock::now();
    result = inner_.Dispatch(request, stamp_base);
    dispatch_.ns.Add(NsBetween(t0, SteadyClock::now()));
  } else {
    result = inner_.Dispatch(request, stamp_base);
  }
  const SimTime latency = result.complete_time - effective.time;
  if (latency > 0) {
    device_latency_.Add(static_cast<double>(latency));
  } else {
    ++instant_;
  }
  return result;
}

io::DispatchResult DeviceProbe::Redrive(const IoRequest& request,
                                        std::uint64_t stamp_base) {
  if (!trace_) return inner_.Redrive(request, stamp_base);
  const SteadyClock::time_point t0 = SteadyClock::now();
  io::DispatchResult result = inner_.Redrive(request, stamp_base);
  redrive_.ns.Add(NsBetween(t0, SteadyClock::now()));
  return result;
}

void DeviceProbe::RunBackgroundUntil(SimTime until) {
  if (!trace_) {
    inner_.RunBackgroundUntil(until);
    return;
  }
  const SteadyClock::time_point t0 = SteadyClock::now();
  inner_.RunBackgroundUntil(until);
  firmware_.ns.Add(NsBetween(t0, SteadyClock::now()));
}

}  // namespace insider::perfbench
