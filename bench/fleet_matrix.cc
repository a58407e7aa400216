// Fleet-scale serving matrix (ISSUE 10 tentpole).
//
// Part 1 — detection matrix: 64 tenants (victims running 3 ransomware
// families spread across WRR service classes, benign backgrounds, noisy
// neighbors at elevated intensity) multiplex over 8 weighted queue pairs
// into one device with a per-namespace detector pool. Reports per-tenant
// detection / false-positive outcomes, per-family detection rates, and WRR
// fairness (per-weight-class p99 vs weight).
//
// Part 2 — DRAM budget sweep: the same fleet re-run under shrinking
// detector-pool budgets (unbounded -> 1/2 -> 1/4 -> 1/8 of the fleet's
// unconstrained footprint), showing graceful degradation: pressure events
// climb, modeled bytes stay under the budget, detection keeps working.
//
// Part 3 — single-tenant identity: a 1-tenant fleet scores bit-identically
// (max_score, alarm time) with the pool in shared mode (seed behavior) and
// in per-namespace mode — the pool is pure routing when it holds one
// working instance.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/pretrained.h"
#include "host/fleet.h"
#include "json_writer.h"

namespace insider::bench {
namespace {

host::FleetConfig BaseFleet(std::size_t reps) {
  host::FleetConfig fc;
  fc.tenants = 64;
  fc.families = {"WannaCry", "Mole", "Jaff"};
  fc.victim_fraction = 0.25;
  fc.noisy_fraction = 0.25;
  fc.duration = Seconds(static_cast<std::int64_t>(16 + 8 * reps));
  fc.attack_start = Seconds(8);
  fc.queue_count = 8;
  fc.queue_weights = {1, 2, 4, 8};
  fc.seed = 42;
  return fc;
}

void EmitTenantRows(JsonWriter& json, const host::FleetResult& result) {
  json.Key("per_tenant").BeginArray();
  for (const host::FleetTenantResult& t : result.tenants) {
    json.BeginObject()
        .Field("name", t.name.c_str())
        .Field("profile", t.profile.c_str())
        .Field("ransomware", t.is_ransomware)
        .Field("noisy", t.noisy)
        .Field("nsid", static_cast<std::uint64_t>(t.nsid))
        .Field("queue", t.queue)
        .Field("weight", static_cast<std::uint64_t>(t.weight))
        .Field("detected", t.detected)
        .Field("evicted", t.evicted)
        .Field("max_score", static_cast<std::int64_t>(t.max_score))
        .Field("alarm_us",
               t.alarm_time ? static_cast<std::int64_t>(RawMicros(*t.alarm_time))
                            : static_cast<std::int64_t>(-1))
        .Field("detect_latency_us", RawMicrosU64(t.detection_latency))
        .Field("p99_us", t.p99_latency_us)
        .Field("mean_us", t.mean_latency_us)
        .Field("completed", t.completed)
        .Field("errors", t.errors)
        .Field("stalls", t.stalls)
        .EndObject();
  }
  json.EndArray();
}

void EmitPool(JsonWriter& json, const host::FleetResult& result) {
  json.Key("pool")
      .BeginObject()
      .Field("instances", result.pool_instances)
      .Field("bytes", result.pool_bytes)
      .Field("budget", result.pool_budget)
      .Field("evictions", result.pool_evictions)
      .Field("over_budget", result.pool_over_budget)
      .Field("pressure_events", result.pool_pressure_events)
      .Field("within_budget", result.pool_within_budget)
      .EndObject();
}

void FleetMatrix(JsonWriter& json, const host::FleetConfig& fc,
                 host::FleetResult& result) {
  PrintHeader("fleet_matrix — 64 tenants x 3 families through 8 WRR pairs");
  result = host::RunFleet(core::PretrainedTree(), fc);

  // Per-family detection and per-weight fairness aggregation.
  struct FamilyAgg { std::size_t victims = 0, detected = 0; };
  std::map<std::string, FamilyAgg> families;
  struct WeightAgg { std::size_t tenants = 0; double p99_sum = 0; };
  std::map<std::uint32_t, WeightAgg> weights;
  for (const host::FleetTenantResult& t : result.tenants) {
    if (t.is_ransomware) {
      FamilyAgg& f = families[t.profile];
      ++f.victims;
      if (t.detected) ++f.detected;
    }
    WeightAgg& w = weights[t.weight];
    ++w.tenants;
    w.p99_sum += t.p99_latency_us;
  }

  std::printf("tenants=%zu victims=%zu detected=%zu (%.0f%%)  benign=%zu "
              "false_pos=%zu (%.1f%%)  IOPS=%.0f\n",
              result.tenants.size(), result.victims, result.detected_victims,
              100.0 * result.DetectionRate(), result.benign,
              result.false_positives, 100.0 * result.FalsePositiveRate(),
              result.total_iops);
  for (const auto& [name, f] : families) {
    std::printf("  family %-12s %zu/%zu detected\n", name.c_str(), f.detected,
                f.victims);
  }
  std::printf("%8s %8s %12s\n", "weight", "tenants", "mean_p99_us");
  for (const auto& [w, agg] : weights) {
    std::printf("%8u %8zu %12.0f\n", w, agg.tenants,
                agg.p99_sum / static_cast<double>(agg.tenants));
  }
  std::printf("pool: %zu instances, %zu bytes (budget %zu), %llu evictions, "
              "%zu pressure events\n",
              result.pool_instances, result.pool_bytes, result.pool_budget,
              static_cast<unsigned long long>(result.pool_evictions),
              result.pool_pressure_events);

  json.Key("fleet").BeginObject();
  json.Field("tenants", result.tenants.size())
      .Field("queues", fc.queue_count)
      .Field("duration_us", RawMicrosU64(fc.duration))
      .Field("victims", result.victims)
      .Field("detected_victims", result.detected_victims)
      .Field("detection_rate", result.DetectionRate())
      .Field("benign", result.benign)
      .Field("false_positives", result.false_positives)
      .Field("false_positive_rate", result.FalsePositiveRate())
      .Field("total_iops", result.total_iops);
  json.Key("families").BeginArray();
  for (const auto& [name, f] : families) {
    json.BeginObject()
        .Field("family", name.c_str())
        .Field("victims", f.victims)
        .Field("detected", f.detected)
        .EndObject();
  }
  json.EndArray();
  json.Key("fairness").BeginArray();
  for (const auto& [w, agg] : weights) {
    json.BeginObject()
        .Field("weight", static_cast<std::uint64_t>(w))
        .Field("tenants", agg.tenants)
        .Field("mean_p99_us", agg.p99_sum / static_cast<double>(agg.tenants))
        .EndObject();
  }
  json.EndArray();
  EmitPool(json, result);
  EmitTenantRows(json, result);
  json.EndObject();
}

void BudgetSweep(JsonWriter& json, const host::FleetConfig& base,
                 const host::FleetResult& unbounded) {
  PrintHeader("fleet_matrix — detector-pool DRAM budget sweep");
  std::printf("%14s %10s %10s %8s %9s %9s %7s %10s\n", "budget", "bytes",
              "instances", "evicted", "pressure", "overbud", "within",
              "det_rate");

  json.Key("budget_sweep").BeginArray();
  const std::size_t full = unbounded.pool_bytes;
  for (std::size_t divisor : {0u, 2u, 4u, 8u}) {
    host::FleetConfig fc = base;
    fc.pool.dram_budget_bytes = divisor == 0 ? 0 : full / divisor;
    host::FleetResult r =
        divisor == 0 ? unbounded : host::RunFleet(core::PretrainedTree(), fc);
    std::printf("%14zu %10zu %10zu %8llu %9zu %9llu %7s %9.0f%%\n",
                fc.pool.dram_budget_bytes, r.pool_bytes, r.pool_instances,
                static_cast<unsigned long long>(r.pool_evictions),
                r.pool_pressure_events,
                static_cast<unsigned long long>(r.pool_over_budget),
                r.pool_within_budget ? "yes" : "NO",
                100.0 * r.DetectionRate());
    json.BeginObject()
        .Field("budget", fc.pool.dram_budget_bytes)
        .Field("bytes", r.pool_bytes)
        .Field("instances", r.pool_instances)
        .Field("evictions", r.pool_evictions)
        .Field("pressure_events", r.pool_pressure_events)
        .Field("over_budget", r.pool_over_budget)
        .Field("within_budget", r.pool_within_budget)
        .Field("detection_rate", r.DetectionRate())
        .Field("false_positive_rate", r.FalsePositiveRate())
        .EndObject();
  }
  json.EndArray();
}

void SingleTenantIdentity(JsonWriter& json, const host::FleetConfig& base) {
  PrintHeader("fleet_matrix — single-tenant identity: shared vs pooled");
  host::FleetConfig fc = base;
  fc.tenants = 1;
  fc.victim_fraction = 1.0;
  fc.families = {"WannaCry"};
  fc.queue_count = 1;
  fc.queue_weights = {1};

  fc.pool.per_namespace = false;  // the seed shared-detector path
  host::FleetResult shared = host::RunFleet(core::PretrainedTree(), fc);
  fc.pool.per_namespace = true;  // one pooled instance
  host::FleetResult pooled = host::RunFleet(core::PretrainedTree(), fc);

  const host::FleetTenantResult& s = shared.tenants.at(0);
  const host::FleetTenantResult& p = pooled.tenants.at(0);
  const bool identical =
      s.max_score == p.max_score && s.alarm_time == p.alarm_time;
  std::printf("shared: max_score=%d alarm=%lld | pooled: max_score=%d "
              "alarm=%lld | identical=%s\n",
              s.max_score,
              s.alarm_time ? static_cast<long long>(RawMicros(*s.alarm_time))
                           : -1LL,
              p.max_score,
              p.alarm_time ? static_cast<long long>(RawMicros(*p.alarm_time))
                           : -1LL,
              identical ? "yes" : "NO");

  json.Key("single_tenant_identity")
      .BeginObject()
      .Field("shared_max_score", static_cast<std::int64_t>(s.max_score))
      .Field("pooled_max_score", static_cast<std::int64_t>(p.max_score))
      .Field("shared_alarm_us",
             s.alarm_time ? static_cast<std::int64_t>(RawMicros(*s.alarm_time))
                          : static_cast<std::int64_t>(-1))
      .Field("pooled_alarm_us",
             p.alarm_time ? static_cast<std::int64_t>(RawMicros(*p.alarm_time))
                          : static_cast<std::int64_t>(-1))
      .Field("identical", identical)
      .EndObject();
}

}  // namespace
}  // namespace insider::bench

int main() {
  using namespace insider;
  const std::size_t reps = bench::RepsFromEnv(2);
  bench::JsonWriter json("BENCH_fleet.json");
  json.BeginObject();
  json.Field("bench", "fleet_matrix");
  json.Field("reps", reps);

  host::FleetConfig fc = bench::BaseFleet(reps);
  host::FleetResult unbounded;
  bench::FleetMatrix(json, fc, unbounded);
  bench::BudgetSweep(json, fc, unbounded);
  bench::SingleTenantIdentity(json, fc);

  json.EndObject();
  std::printf("[bench] wrote %s\n", json.Path().c_str());
  return 0;
}
