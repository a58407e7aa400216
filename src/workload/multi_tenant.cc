#include "workload/multi_tenant.h"

#include <limits>
#include <unordered_map>

namespace insider::wl {

const char* MultiTenantStatusName(MultiTenantStatus status) {
  switch (status) {
    case MultiTenantStatus::kOk:
      return "ok";
    case MultiTenantStatus::kDuplicateNamespace:
      return "duplicate-namespace";
  }
  return "?";
}

MultiTenantDriver::MultiTenantDriver(std::vector<TenantSpec> tenants)
    : tenants_(std::move(tenants)) {}

MultiTenantReport MultiTenantDriver::Run(io::IoEngine& engine) {
  const std::size_t n = tenants_.size();
  const std::size_t queues = engine.QueueCount();

  MultiTenantReport report;
  report.tenants.resize(n);
  report.first_submit_time = std::numeric_limits<SimTime>::max();
  std::vector<std::size_t> cursor(n, 0);
  std::vector<std::uint64_t> blocks_written(n, 0);

  // Resolve each tenant's namespace id (0 = auto: index + 1) and the
  // attribution map. Shared queue pairs make the nsid the only way to tell
  // tenants' completions apart, so a collision is a hard, typed refusal —
  // not a release-mode silent mis-attribution.
  std::vector<std::uint32_t> ns_of(n, 0);
  std::unordered_map<std::uint32_t, std::size_t> tenant_of_ns;
  tenant_of_ns.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    TenantResult& r = report.tenants[i];
    r.name = tenants_[i].name;
    r.is_ransomware = tenants_[i].is_ransomware;
    ns_of[i] = tenants_[i].nsid != 0
                   ? tenants_[i].nsid
                   : static_cast<std::uint32_t>(i) + 1;
    r.nsid = ns_of[i];
    for (const IoRequest& req : tenants_[i].requests) {
      if (req.time < report.first_submit_time) {
        report.first_submit_time = req.time;
      }
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

  auto record = [&](TenantResult& r, const io::Completion& c) {
    ++r.completed;
    if (!c.ok) ++r.errors;
    r.latency_us.Add(static_cast<double>(c.Latency()));
    if (c.complete_time > r.last_complete_time) {
      r.last_complete_time = c.complete_time;
    }
  };

  auto reap_queue = [&](std::size_t q) {
    while (std::optional<io::Completion> c =
               engine.PopCompletion(static_cast<io::QueueId>(q))) {
      if (c->complete_time > report.end_time) {
        report.end_time = c->complete_time;
      }
      auto it = tenant_of_ns.find(c->request.nsid);
      if (it == tenant_of_ns.end()) continue;  // not ours (foreign traffic)
      record(report.tenants[it->second], *c);
    }
  };
  auto reap_all = [&] {
    for (std::size_t q = 0; q < queues; ++q) reap_queue(q);
  };

  std::vector<char> pair_blocked(queues, 0);
  for (;;) {
    // Host phase: submissions flow in global time order — a repeated
    // min-pick across the (already sorted) streams. With tenants sharing a
    // pair this matters: letting one tenant burst its whole backlog into
    // the ring would park far-future commands in front of ring-mates'
    // earlier ones (SQs are FIFO) and manufacture queue wait the device
    // never caused. A full ring stalls the picked tenant and blocks that
    // pair until the device frees a slot; ties go to the lower index.
    std::fill(pair_blocked.begin(), pair_blocked.end(), 0);
    for (;;) {
      std::size_t best = n;
      SimTime best_time = std::numeric_limits<SimTime>::max();
      for (std::size_t i = 0; i < n; ++i) {
        if (cursor[i] >= tenants_[i].requests.size()) continue;
        if (pair_blocked[i % queues]) continue;
        SimTime t = tenants_[i].requests[cursor[i]].time;
        if (t < best_time) {
          best_time = t;
          best = i;
        }
      }
      if (best == n) break;
      const TenantSpec& tenant = tenants_[best];
      TenantResult& r = report.tenants[best];
      const io::QueueId q = static_cast<io::QueueId>(best % queues);
      IoRequest req = tenant.requests[cursor[best]];
      req.nsid = ns_of[best];  // the tenant's identity rides every header
      std::uint64_t stamp = tenant.stamp_base + blocks_written[best];
      if (!engine.TrySubmit(q, req, stamp)) {
        ++r.stall_events;  // host stalls until a completion frees a slot
        pair_blocked[q] = 1;
        continue;
      }
      ++r.submitted;
      if (req.mode == IoMode::kWrite) blocks_written[best] += req.length;
      ++cursor[best];
    }

    // Device phase: process one event — a dispatch (arbitrated) or a
    // completion posting — then reap so stalled tenants can make progress
    // next round.
    if (!engine.Step()) {
      bool all_drained = true;
      for (std::size_t i = 0; i < n; ++i) {
        if (cursor[i] < tenants_[i].requests.size()) all_drained = false;
      }
      if (all_drained && engine.InFlight() == 0) break;
      // Stuck on full completion rings: reap and retry.
      reap_all();
      continue;
    }
    reap_all();
  }

  reap_all();
  report.total_dispatched = engine.Stats().dispatched - dispatched_before;
  // Empty-run semantics: no completion ever advanced end_time, so pin it to
  // the start of the run — the span is zero, not an unsigned underflow.
  if (report.end_time < report.first_submit_time) {
    report.end_time = report.first_submit_time;
  }
  return report;
}

}  // namespace insider::wl
