#include "workload/multi_tenant.h"

#include <functional>
#include <limits>
#include <queue>
#include <unordered_map>
#include <utility>

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

  // Tenants free to submit, keyed (next request time, index): the key is
  // unique per tenant, so pops come in global time order with ties to the
  // lower index. With tenants sharing a pair that order matters: letting
  // one tenant burst its whole backlog into the ring would park far-future
  // commands in front of ring-mates' earlier ones (SQs are FIFO) and
  // manufacture queue wait the device never caused.
  using Ready = std::pair<SimTime, std::size_t>;
  std::priority_queue<Ready, std::vector<Ready>, std::greater<Ready>> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (!tenants_[i].requests.empty()) {
      ready.emplace(tenants_[i].requests.front().time, i);
    }
  }
  // parked[q]: the tenants waiting on pair q, non-empty exactly while q is
  // parked. A pair parks when it refuses a submission and wakes when the
  // host reaps a completion from it: its outstanding count (queued +
  // executing + unreaped) only falls on a reap, so any retry before then is
  // known to be refused.
  std::vector<std::vector<std::size_t>> parked(queues);

  auto reap_queue = [&](std::size_t q) {
    bool reaped = false;
    while (std::optional<io::Completion> c =
               engine.PopCompletion(static_cast<io::QueueId>(q))) {
      reaped = true;
      if (c->complete_time > report.end_time) {
        report.end_time = c->complete_time;
      }
      auto it = tenant_of_ns.find(c->request.nsid);
      if (it == tenant_of_ns.end()) continue;  // not ours (foreign traffic)
      record(report.tenants[it->second], *c);
    }
    if (reaped) {
      for (std::size_t i : parked[q]) {
        ready.emplace(tenants_[i].requests[cursor[i]].time, i);
      }
      parked[q].clear();
    }
  };
  auto reap_all = [&] {
    for (std::size_t q = 0; q < queues; ++q) reap_queue(q);
  };

  for (;;) {
    // Host phase: submit in global time order until every tenant is
    // exhausted or waits on a parked pair. A full ring stalls the tenant
    // that hit it and parks its pair.
    while (!ready.empty()) {
      const std::size_t best = ready.top().second;
      ready.pop();
      const io::QueueId q = static_cast<io::QueueId>(best % queues);
      if (!parked[q].empty()) {
        parked[q].push_back(best);
        continue;
      }
      const TenantSpec& tenant = tenants_[best];
      TenantResult& r = report.tenants[best];
      IoRequest req = tenant.requests[cursor[best]];
      req.nsid = ns_of[best];  // the tenant's identity rides every header
      std::uint64_t stamp = tenant.stamp_base + blocks_written[best];
      if (!engine.TrySubmit(q, req, stamp)) {
        ++r.stall_events;  // host stalls until a completion frees a slot
        parked[q].push_back(best);
        continue;
      }
      ++r.submitted;
      if (req.mode == IoMode::kWrite) blocks_written[best] += req.length;
      if (++cursor[best] < tenant.requests.size()) {
        ready.emplace(tenant.requests[cursor[best]].time, best);
      }
    }

    // Device phase: process one event — a dispatch (arbitrated) or a
    // completion posting — then reap, which wakes the pairs it frees.
    const bool stepped = engine.Step();
    reap_all();
    // An idle engine (nothing in flight, every queued command behind a full
    // completion ring) ends the run unless the reap woke a tenant. Every
    // tenant with requests left is parked by now, and a parked pair always
    // wakes here: it holds sq_depth commands, none in flight, so at least
    // one is a posted completion.
    if (!stepped && ready.empty()) break;
  }

  report.total_dispatched = engine.Stats().dispatched - dispatched_before;
  // Empty-run semantics: no completion ever advanced end_time, so pin it to
  // the start of the run — the span is zero, not an unsigned underflow.
  if (report.end_time < report.first_submit_time) {
    report.end_time = report.first_submit_time;
  }
  return report;
}

}  // namespace insider::wl
