// The benchmark's view into the device boundary: an io::DeviceTarget
// decorator placed between io::IoEngine and host::SsdTarget.
//
// Untraced, it only forwards and adds each command's simulated
// dispatch-to-complete latency to a histogram; it reads no host clock.
// Commands that finish without a media operation (trims, reads of
// never-written blocks) take no simulated time and are counted apart. With
// tracing on it also times every call into the device with a steady clock
// and records each dispatched header (clamped time, namespace) so the
// standalone layer replays can run the exact stream the device saw. The
// decorator never changes what the engine or the device observe: simulated
// results are identical with and without it, traced or not.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "common/io.h"
#include "io/device.h"
#include "obs/metrics.h"

namespace insider::perfbench {

using SteadyClock = std::chrono::steady_clock;

inline double NsBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Host time spent in one kind of call: the per-call distribution in
/// nanoseconds (its Sum() is the total).
struct CallTimer {
  obs::LogHistogram ns{1.0, 16};
  std::uint64_t Calls() const { return ns.Count(); }
  double TotalNs() const { return ns.Count() == 0 ? 0.0 : ns.Sum(); }
};

class DeviceProbe final : public io::DeviceTarget {
 public:
  DeviceProbe(io::DeviceTarget& inner, bool trace)
      : inner_(inner), trace_(trace) {}

  SimTime Now() const override { return inner_.Now(); }
  io::DispatchResult Dispatch(const IoRequest& request,
                              std::uint64_t stamp_base) override;
  io::DispatchResult Redrive(const IoRequest& request,
                             std::uint64_t stamp_base) override;
  void RunBackgroundUntil(SimTime until) override;
  void AttachDeferredApplier(nand::DeferredApplier* applier) override {
    inner_.AttachDeferredApplier(applier);
  }

  /// Simulated dispatch-to-complete latency (µs) of every dispatch that
  /// reached the media.
  const obs::LogHistogram& DeviceLatency() const { return device_latency_; }
  /// Dispatches that completed at their dispatch instant.
  std::uint64_t Instant() const { return instant_; }
  /// Traced only: headers as the device observed them, in dispatch order
  /// (time clamped to the device clock; redrives are not new headers).
  const std::vector<IoRequest>& Headers() const { return headers_; }
  const CallTimer& DispatchTimer() const { return dispatch_; }
  const CallTimer& FirmwareTimer() const { return firmware_; }
  /// Host time inside the device across all three call kinds.
  double DeviceNs() const {
    return dispatch_.TotalNs() + redrive_.TotalNs() + firmware_.TotalNs();
  }

 private:
  io::DeviceTarget& inner_;
  const bool trace_;
  obs::LogHistogram device_latency_{1.0, 1024};
  std::uint64_t instant_ = 0;
  std::vector<IoRequest> headers_;
  CallTimer dispatch_;
  CallTimer redrive_;
  CallTimer firmware_;
};

}  // namespace insider::perfbench
