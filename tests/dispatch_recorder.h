// Test helper: an io::DeviceTarget decorator placed between io::IoEngine
// and the real device that records every command the engine hands down,
// with the device's answer. The multi-tenant driver keeps only a latency
// histogram per tenant, so suites that must compare runs command by command
// — dispatch order, dispatch instant, completion time — compare these
// records instead. Forwarding is exact: the recorder never changes what the
// engine or the device observe.
#pragma once

#include <cstdint>
#include <vector>

#include "common/io.h"
#include "common/time.h"
#include "io/device.h"

namespace insider {

struct DispatchRecord {
  IoRequest request;  ///< as dispatched: `time` is the dispatch instant
  std::uint64_t stamp_base = 0;
  bool redrive = false;  ///< an engine read retry, not new host traffic
  bool ok = false;
  io::DeviceStatus status = io::DeviceStatus::kOk;
  SimTime complete_time = 0;  ///< the device's finish time for the command

  friend bool operator==(const DispatchRecord&,
                         const DispatchRecord&) = default;
};

class DispatchRecorder final : public io::DeviceTarget {
 public:
  explicit DispatchRecorder(io::DeviceTarget& inner) : inner_(inner) {}

  SimTime Now() const override { return inner_.Now(); }
  io::DispatchResult Dispatch(const IoRequest& request,
                              std::uint64_t stamp_base) override {
    return Record(request, stamp_base, false,
                  inner_.Dispatch(request, stamp_base));
  }
  io::DispatchResult Redrive(const IoRequest& request,
                             std::uint64_t stamp_base) override {
    return Record(request, stamp_base, true,
                  inner_.Redrive(request, stamp_base));
  }
  void RunBackgroundUntil(SimTime until) override {
    inner_.RunBackgroundUntil(until);
  }
  void AttachDeferredApplier(nand::DeferredApplier* applier) override {
    inner_.AttachDeferredApplier(applier);
  }

  /// Every device call in the order the engine made it.
  const std::vector<DispatchRecord>& Records() const { return records_; }

 private:
  io::DispatchResult Record(const IoRequest& request, std::uint64_t stamp_base,
                            bool redrive, io::DispatchResult result) {
    records_.push_back({request, stamp_base, redrive, result.ok,
                        result.status, result.complete_time});
    return result;
  }

  io::DeviceTarget& inner_;
  std::vector<DispatchRecord> records_;
};

}  // namespace insider
