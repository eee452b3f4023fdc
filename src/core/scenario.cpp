#include "core/scenario.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <numbers>
#include <sstream>
#include <utility>

#include "core/fleet.hpp"

namespace odin::core {

namespace {

/// Inter-layer pipeline speedup per extra PE of a shard block (the
/// campaign-scale stand-in for arch::interlayer_pipeline).
constexpr double kSpeedPerExtraPe = 0.25;

/// Drift/fault pricing: a storm's drift multiplier inflates service (more
/// verify/search work) and energy; the injector's unusable-cell fraction
/// adds retry overhead on both.
constexpr double kDriftServiceFactor = 0.5;
constexpr double kDriftEnergyFactor = 0.25;
constexpr double kFaultRetryFactor = 2.0;
/// Base inference energy per second of base service time.
constexpr double kEnergyPerServiceSecond = 0.2;

double tier_slo_mult(const ScenarioConfig& c, PriorityTier t) noexcept {
  switch (t) {
    case PriorityTier::kGold: return c.gold_slo_mult;
    case PriorityTier::kSilver: return c.silver_slo_mult;
    default: return c.bronze_slo_mult;
  }
}

}  // namespace

double campaign_shard_speed(int pes) noexcept {
  return 1.0 + kSpeedPerExtraPe * static_cast<double>(std::max(1, pes) - 1);
}

void campaign_price(const ScenarioTenant& t, double drift_mult,
                    double fault_fraction, int pes, double& service_s,
                    double& energy_j) noexcept {
  const double penal = (1.0 + kDriftServiceFactor * (drift_mult - 1.0)) *
                       (1.0 + kFaultRetryFactor * fault_fraction);
  const double speed = campaign_shard_speed(pes);
  service_s = t.service_s * penal / speed;
  energy_j = t.energy_j * (1.0 + kDriftEnergyFactor * (drift_mult - 1.0)) *
             (1.0 + kFaultRetryFactor * fault_fraction);
}

const char* tier_name(PriorityTier tier) {
  switch (tier) {
    case PriorityTier::kGold: return "gold";
    case PriorityTier::kSilver: return "silver";
    default: return "bronze";
  }
}

double ScenarioTrace::diurnal(double t_s) const {
  const double amp = std::clamp(config.diurnal_amplitude, 0.0, 0.95);
  const double phase = 2.0 * std::numbers::pi *
                       static_cast<double>(config.diurnal_cycles) * t_s /
                       config.horizon_s;
  return 1.0 + amp * std::sin(phase - std::numbers::pi / 2.0);
}

bool ScenarioTrace::crowd_active(std::size_t crowd, double t_s) const {
  const FlashCrowd& f = flash[crowd];
  const double start = f.start_frac * config.horizon_s;
  return t_s >= start && t_s < start + f.duration_frac * config.horizon_s;
}

bool ScenarioTrace::in_flash_phase(double t_s) const {
  for (std::size_t c = 0; c < flash.size(); ++c)
    if (crowd_active(c, t_s)) return true;
  return false;
}

double ScenarioTrace::tenant_weight(std::size_t i, double t_s) const {
  const ScenarioTenant& t = tenants[i];
  if (t_s < t.arrive_s || t_s >= t.depart_s) return 0.0;
  double w = t.weight;
  for (std::size_t c = 0; c < flash.size(); ++c)
    if (((t.flash_mask >> c) & 1u) != 0 && crowd_active(c, t_s))
      w *= flash[c].multiplier;
  return w;
}

std::vector<int> ScenarioTrace::storm_pes(std::size_t storm) const {
  const FaultStorm& s = storms[storm];
  const int cx = s.center_pe % pim.mesh_x;
  const int cy = s.center_pe / pim.mesh_x;
  std::vector<int> out;
  for (int y = 0; y < pim.mesh_y; ++y)
    for (int x = 0; x < pim.mesh_x; ++x)
      if (std::abs(x - cx) <= s.radius && std::abs(y - cy) <= s.radius)
        out.push_back(y * pim.mesh_x + x);
  return out;
}

ScenarioTrace build_trace(const ScenarioConfig& config,
                          const arch::PimConfig& pim) {
  ScenarioTrace trace;
  trace.config = config;
  trace.config.seed = config.resolved_seed();
  trace.pim = pim;
  const double h = config.horizon_s;
  const auto T = static_cast<std::size_t>(std::max(1, config.tenants));

  common::Rng root(trace.config.seed);
  common::Rng tenant_rng = root.fork(1);
  common::Rng flash_rng = root.fork(2);
  common::Rng storm_rng = root.fork(3);

  // Flash-crowd windows (at most 32 — ScenarioTenant::flash_mask width).
  if (!config.flash.empty()) {
    trace.flash = config.flash;
  } else {
    for (int c = 0; c < std::min(config.flash_crowds, 32); ++c) {
      FlashCrowd f;
      f.start_frac = flash_rng.uniform(0.35, 0.75);
      f.duration_frac = config.flash_duration_frac;
      f.multiplier = config.flash_multiplier;
      f.tenant_frac = config.flash_tenant_frac;
      trace.flash.push_back(f);
    }
  }
  if (trace.flash.size() > 32) trace.flash.resize(32);

  // Fault storms: drawn (or copied), centers resolved, ascending starts.
  const int pes = std::max(1, pim.pes);
  if (!config.storms.empty()) {
    trace.storms = config.storms;
    for (FaultStorm& s : trace.storms)
      if (s.center_pe < 0 || s.center_pe >= pes)
        s.center_pe = static_cast<int>(
            storm_rng.uniform_index(static_cast<std::uint64_t>(pes)));
  } else {
    for (int i = 0; i < config.fault_storms; ++i) {
      FaultStorm s;
      s.start_frac = storm_rng.uniform(0.25, 0.85);
      s.duration_frac = config.storm_duration_frac;
      s.drift_multiplier = config.storm_drift_multiplier;
      s.center_pe = static_cast<int>(
          storm_rng.uniform_index(static_cast<std::uint64_t>(pes)));
      s.radius = config.storm_radius;
      s.campaigns = config.storm_campaigns;
      trace.storms.push_back(s);
    }
  }
  std::sort(trace.storms.begin(), trace.storms.end(),
            [](const FaultStorm& a, const FaultStorm& b) {
              if (a.start_frac != b.start_frac)
                return a.start_frac < b.start_frac;
              return a.center_pe < b.center_pe;
            });

  // Tenants: tiers by index share, weights/service scales/churn windows
  // from the seed. Flash crowds target *contiguous index ranges* — initial
  // placement below is contiguous too, so a crowd's load lands on one or
  // two shards (the correlated overload the autoscaler exists for).
  trace.tenants.resize(T);
  const auto gold_n = static_cast<std::size_t>(
      std::clamp(config.gold_share, 0.0, 1.0) * static_cast<double>(T));
  const auto silver_n = static_cast<std::size_t>(
      std::clamp(config.gold_share + config.silver_share, 0.0, 1.0) *
      static_cast<double>(T));
  std::vector<double> scale(T, 1.0);
  for (std::size_t i = 0; i < T; ++i) {
    ScenarioTenant& t = trace.tenants[i];
    char name[22];  // "t" + up to 20 digits of a size_t + NUL
    std::snprintf(name, sizeof(name), "t%05zu", i);
    t.name = name;
    t.tier = i < gold_n ? PriorityTier::kGold
             : i < silver_n ? PriorityTier::kSilver
                            : PriorityTier::kBronze;
    t.weight = tenant_rng.uniform(0.5, 2.0);
    scale[i] = tenant_rng.uniform(0.5, 3.0);
    // Churn: tenant 0 is pinned always-active so the arrival process never
    // goes empty; churned tenants get a late arrival and/or early
    // departure. Non-churned tenants never depart (the horizon end is not
    // a departure — arrivals may run slightly past it).
    const bool churned = i > 0 && tenant_rng.bernoulli(config.churn_frac);
    const double a = tenant_rng.uniform();
    const double d = tenant_rng.uniform();
    if (churned) {
      t.arrive_s = 0.5 * h * a;
      t.depart_s = h * (0.55 + 0.45 * d);
    } else {
      t.arrive_s = 0.0;
      t.depart_s = std::numeric_limits<double>::infinity();
    }
  }
  for (std::size_t c = 0; c < trace.flash.size(); ++c) {
    const auto len = static_cast<std::size_t>(std::clamp(
        trace.flash[c].tenant_frac, 0.0, 1.0) * static_cast<double>(T));
    const std::size_t start = flash_rng.uniform_index(T);
    for (std::size_t j = 0; j < len; ++j)
      trace.tenants[(start + j) % T].flash_mask |= 1u << c;
  }

  // Service-time calibration: pick the base unit so mean offered load hits
  // target_utilization of the initial fleet's service capacity (shard k
  // retires service-seconds at rate shard_speed(pes_k)).
  const int shards_for_cal = std::max(1, std::min(pes, 6));
  const auto blocks = fleet_partition_pes(fleet_fill_order(pim, true),
                                          shards_for_cal);
  double capacity = 0.0;
  for (const auto& b : blocks)
    capacity += campaign_shard_speed(static_cast<int>(b.size()));
  double wsum = 0.0, wscale = 0.0;
  for (std::size_t i = 0; i < T; ++i) {
    wsum += trace.tenants[i].weight;
    wscale += trace.tenants[i].weight * scale[i];
  }
  const double mean_scale = wscale / wsum;
  const double unit = std::clamp(config.target_utilization, 0.01, 0.99) *
                      capacity * h /
                      (static_cast<double>(config.requests) * mean_scale);
  const double mean_service = unit * mean_scale;
  for (std::size_t i = 0; i < T; ++i) {
    ScenarioTenant& t = trace.tenants[i];
    t.service_s = unit * scale[i];
    t.energy_j = kEnergyPerServiceSecond * t.service_s;
    t.slo_s = tier_slo_mult(config, t.tier) * mean_service;
  }

  trace.base_rate = static_cast<double>(config.requests) / (h * wsum);
  return trace;
}

std::size_t cdf_upper_bound(const double* cdf, std::size_t n,
                            double pick) noexcept {
  if (n == 0) return 0;
  // The answer lies in [base - cdf, base - cdf + n]; each step halves the
  // range with a select instead of a branch.
  const double* base = cdf;
  while (n > 1) {
    const std::size_t half = n / 2;
    base += pick < base[half - 1] ? 0 : half;
    n -= half;
  }
  return static_cast<std::size_t>(base - cdf) + (pick < *base ? 0 : 1);
}

ArrivalGenerator::ArrivalGenerator(const ScenarioTrace& trace)
    : trace_(&trace), rng_(common::Rng(trace.config.seed).fork(7)) {
  // Weight-profile change points: churn edges and flash-crowd edges. The
  // per-tenant weight is piecewise constant between them (diurnal shaping
  // enters through the rate, not the pick weights).
  for (const ScenarioTenant& t : trace.tenants) {
    if (t.arrive_s > 0.0) boundaries_.push_back(t.arrive_s);
    if (std::isfinite(t.depart_s)) boundaries_.push_back(t.depart_s);
  }
  const double h = trace.config.horizon_s;
  for (const FlashCrowd& f : trace.flash) {
    boundaries_.push_back(f.start_frac * h);
    boundaries_.push_back((f.start_frac + f.duration_frac) * h);
  }
  std::sort(boundaries_.begin(), boundaries_.end());
  boundaries_.erase(std::unique(boundaries_.begin(), boundaries_.end()),
                    boundaries_.end());
  rebuild_cdf();
}

void ArrivalGenerator::rebuild_cdf() {
  cdf_.resize(trace_->tenants.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < trace_->tenants.size(); ++i) {
    sum += trace_->tenant_weight(i, t_);
    cdf_[i] = sum;
  }
}

ArrivalGenerator::Arrival ArrivalGenerator::next() {
  for (;;) {
    const double total = cdf_.empty() ? 0.0 : cdf_.back();
    if (total <= 0.0) {
      // Everyone inactive: jump to the next change point (tenant 0 is
      // always-active, so this only happens before a synthetic trace's
      // first arrival edge).
      assert(next_boundary_ < boundaries_.size());
      t_ = boundaries_[next_boundary_++];
      rebuild_cdf();
      continue;
    }
    const double rate = trace_->base_rate * trace_->diurnal(t_) * total;
    const double u = rng_.uniform();
    const double dt = -std::log1p(-u) / rate;
    if (next_boundary_ < boundaries_.size() &&
        t_ + dt >= boundaries_[next_boundary_]) {
      // The exponential gap is memoryless: restart it at the boundary
      // under the new weight profile instead of carrying residuals.
      t_ = boundaries_[next_boundary_++];
      rebuild_cdf();
      continue;
    }
    t_ += dt;
    const double pick = rng_.uniform() * total;
    std::size_t tenant = cdf_upper_bound(cdf_.data(), cdf_.size(), pick);
    if (tenant >= cdf_.size()) tenant = cdf_.size() - 1;
    ++emitted_;
    return {t_, static_cast<int>(tenant)};
  }
}

void ArrivalGenerator::skip(std::uint64_t events) {
  for (std::uint64_t i = 0; i < events; ++i) next();
}

// ---------------------------------------------------------------------------
// Campaign results. The loop that produces them is run_cluster
// (core/cluster.cpp); a campaign is its one-mesh case.

std::int64_t CampaignResult::requests() const noexcept {
  return static_cast<std::int64_t>(state.next_event);
}

double CampaignResult::p99_slack_s() const noexcept {
  return state.slack_p1.estimate();
}

double CampaignResult::flash_p99_slack_s() const noexcept {
  return state.flash_slack_p1.estimate();
}

double CampaignResult::edp_per_request() const noexcept {
  return state.next_event > 0
             ? state.edp_sum / static_cast<double>(state.next_event)
             : 0.0;
}

std::string CampaignResult::summary(bool include_trajectory) const {
  std::string out;
  char line[512];
  auto emit = [&](const char* fmt, auto... args) {
    std::snprintf(line, sizeof(line), fmt, args...);
    out += line;
  };
  emit("scenario seed=%llu tenants=%d requests=%lld shards=%d epochs=%d "
       "autoscale=%d\n",
       static_cast<unsigned long long>(scenario.seed),
       static_cast<int>(roster.size()),
       static_cast<long long>(state.requests), shards, state.epochs,
       autoscaled ? 1 : 0);
  emit("totals requests=%lld misses=%lld sheds=%lld migrations=%lld "
       "rescales=%d storms=%d storm_campaigns=%lld\n",
       static_cast<long long>(state.next_event),
       static_cast<long long>(state.misses),
       static_cast<long long>(state.sheds),
       static_cast<long long>(state.migrations), state.rescales,
       state.storms_fired,
       static_cast<long long>(state.storm_campaigns_fired));
  emit("latency p99_slack_s=%.17g flash_p99_slack_s=%.17g "
       "flash_requests=%lld sojourn_p99_s=%.17g sojourn_mean_s=%.17g\n",
       p99_slack_s(), flash_p99_slack_s(),
       static_cast<long long>(state.flash_requests),
       state.sojourn.percentile(99.0), state.sojourn.mean());
  emit("energy total_j=%.17g edp_per_request=%.17g migration_s=%.17g "
       "migration_energy_j=%.17g\n",
       state.energy_j, edp_per_request(), state.migration_s,
       state.migration_energy_j);
  struct TierAgg {
    int tenants = 0;
    std::int64_t runs = 0;
    std::int64_t misses = 0;
    std::int64_t sheds = 0;
  } agg[3];
  for (std::size_t i = 0; i < roster.size(); ++i) {
    TierAgg& a = agg[static_cast<int>(roster[i].tier)];
    ++a.tenants;
    a.runs += tenants[i].runs;
    a.misses += tenants[i].deadline_misses;
    a.sheds += tenants[i].shed_runs;
  }
  for (int tier = 0; tier < 3; ++tier)
    emit("tier %s tenants=%d runs=%lld misses=%lld sheds=%lld "
         "p99_slack_s=%.17g\n",
         tier_name(static_cast<PriorityTier>(tier)), agg[tier].tenants,
         static_cast<long long>(agg[tier].runs),
         static_cast<long long>(agg[tier].misses),
         static_cast<long long>(agg[tier].sheds),
         state.tier_slack_p1[tier].estimate());
  if (include_trajectory)
    for (std::size_t e = 0; e < trajectory.size(); ++e) {
      const CampaignEpoch& ep = trajectory[e];
      emit("epoch %zu t_end_s=%.17g requests=%lld misses=%lld sheds=%lld "
           "p99_slack_s=%.17g edp_per_request=%.17g\n",
           e, ep.t_end_s, static_cast<long long>(ep.requests),
           static_cast<long long>(ep.misses),
           static_cast<long long>(ep.sheds), ep.p99_slack_s,
           ep.edp_per_request());
    }
  return out;
}

void apply_trace_to_serving(const ScenarioTrace& trace, ServingConfig& sc) {
  const int runs = sc.horizon.runs;
  const int segs = std::max(1, sc.segments);
  assert(runs >= segs);
  ArrivalGenerator gen(trace);
  std::vector<double> arrivals(static_cast<std::size_t>(runs));
  for (double& t : arrivals) t = gen.next().t_s;
  const double lo = arrivals.front();
  const double hi = arrivals.back();
  const double span = hi > lo ? hi - lo : 1.0;
  // Affine map onto the serving horizon, preserving the arrival density.
  sc.schedule.resize(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i)
    sc.schedule[i] = sc.horizon.t_start_s +
                     (arrivals[i] - lo) / span *
                         (sc.horizon.t_end_s - sc.horizon.t_start_s);
  // Per-segment run counts follow the arrival density over equal time
  // bins; every segment keeps at least one run (a tenant switch with zero
  // serves would be pure programming noise).
  std::vector<std::size_t> sizes(static_cast<std::size_t>(segs), 0);
  for (double t : arrivals) {
    auto bin = static_cast<std::size_t>((t - lo) / span *
                                        static_cast<double>(segs));
    if (bin >= sizes.size()) bin = sizes.size() - 1;
    ++sizes[bin];
  }
  for (std::size_t b = 0; b < sizes.size(); ++b) {
    while (sizes[b] == 0) {
      const auto big = static_cast<std::size_t>(std::distance(
          sizes.begin(), std::max_element(sizes.begin(), sizes.end())));
      if (sizes[big] <= 1) break;
      --sizes[big];
      ++sizes[b];
    }
  }
  sc.segment_sizes = std::move(sizes);
}

// ---------------------------------------------------------------------------
// Scenario-file parser (docs/scenario_format.md).

bool parse_f64(const std::string& tok, double& out) {
  const char* s = tok.c_str();
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

bool parse_i64(const std::string& tok, long long& out) {
  const char* s = tok.c_str();
  char* end = nullptr;
  out = std::strtoll(s, &end, 10);
  return end != s && *end == '\0';
}

std::optional<CampaignConfig> parse_scenario(std::istream& in) {
  CampaignConfig cfg;
  std::string raw;
  int lineno = 0;
  auto fail = [&](const char* why) -> std::optional<CampaignConfig> {
    std::fprintf(stderr, "odin: scenario line %d: %s: %s\n", lineno, why,
                 raw.c_str());
    return std::nullopt;
  };
  while (std::getline(in, raw)) {
    ++lineno;
    std::string text = raw;
    if (const auto hash = text.find('#'); hash != std::string::npos)
      text.resize(hash);
    std::istringstream ls(text);
    std::string key;
    if (!(ls >> key)) continue;  // blank / comment-only line
    std::vector<std::string> args;
    for (std::string a; ls >> a;) args.push_back(a);
    auto num = [&](std::size_t i, double& v) {
      return i < args.size() && parse_f64(args[i], v);
    };
    auto integer = [&](std::size_t i, long long& v) {
      return i < args.size() && parse_i64(args[i], v);
    };
    long long iv = 0;
    double fv = 0.0;
    if (key == "seed") {
      if (!integer(0, iv) || iv < 1) return fail("want integer >= 1");
      cfg.scenario.seed = static_cast<std::uint64_t>(iv);
    } else if (key == "tenants") {
      if (!integer(0, iv) || iv < 1) return fail("want integer >= 1");
      cfg.scenario.tenants = static_cast<int>(iv);
    } else if (key == "requests") {
      if (!integer(0, iv) || iv < 1) return fail("want integer >= 1");
      cfg.scenario.requests = iv;
    } else if (key == "horizon-s") {
      if (!num(0, fv) || fv <= 0.0) return fail("want number > 0");
      cfg.scenario.horizon_s = fv;
    } else if (key == "diurnal-cycles") {
      if (!integer(0, iv) || iv < 0) return fail("want integer >= 0");
      cfg.scenario.diurnal_cycles = static_cast<int>(iv);
    } else if (key == "diurnal-amplitude") {
      if (!num(0, fv) || fv < 0.0 || fv >= 1.0)
        return fail("want number in [0, 1)");
      cfg.scenario.diurnal_amplitude = fv;
    } else if (key == "churn-frac") {
      if (!num(0, fv) || fv < 0.0 || fv > 1.0)
        return fail("want number in [0, 1]");
      cfg.scenario.churn_frac = fv;
    } else if (key == "target-utilization") {
      if (!num(0, fv) || fv <= 0.0 || fv >= 1.0)
        return fail("want number in (0, 1)");
      cfg.scenario.target_utilization = fv;
    } else if (key == "gold-share") {
      if (!num(0, fv)) return fail("want number");
      cfg.scenario.gold_share = fv;
    } else if (key == "silver-share") {
      if (!num(0, fv)) return fail("want number");
      cfg.scenario.silver_share = fv;
    } else if (key == "gold-slo-mult") {
      if (!num(0, fv) || fv <= 0.0) return fail("want number > 0");
      cfg.scenario.gold_slo_mult = fv;
    } else if (key == "silver-slo-mult") {
      if (!num(0, fv) || fv <= 0.0) return fail("want number > 0");
      cfg.scenario.silver_slo_mult = fv;
    } else if (key == "bronze-slo-mult") {
      if (!num(0, fv) || fv <= 0.0) return fail("want number > 0");
      cfg.scenario.bronze_slo_mult = fv;
    } else if (key == "flash") {
      FlashCrowd f;
      if (!num(0, f.start_frac) || !num(1, f.duration_frac) ||
          !num(2, f.multiplier))
        return fail("want: flash START_FRAC DURATION_FRAC MULT [TENANT_FRAC]");
      if (args.size() > 3 && !num(3, f.tenant_frac))
        return fail("bad TENANT_FRAC");
      cfg.scenario.flash.push_back(f);
    } else if (key == "storm") {
      FaultStorm s;
      long long radius = 1, campaigns = 4, center = -1;
      if (!num(0, s.start_frac) || !num(1, s.duration_frac) ||
          !num(2, s.drift_multiplier) || !integer(3, radius) ||
          !integer(4, campaigns))
        return fail(
            "want: storm START_FRAC DURATION_FRAC MULT RADIUS CAMPAIGNS "
            "[CENTER_PE]");
      if (args.size() > 5 && !integer(5, center)) return fail("bad CENTER_PE");
      s.radius = static_cast<int>(radius);
      s.campaigns = static_cast<int>(campaigns);
      s.center_pe = static_cast<int>(center);
      cfg.scenario.storms.push_back(s);
    } else if (key == "shards") {
      if (!integer(0, iv) || iv < 1) return fail("want integer >= 1");
      cfg.shards = static_cast<int>(iv);
    } else if (key == "epochs") {
      if (!integer(0, iv) || iv < 1) return fail("want integer >= 1");
      cfg.epochs = static_cast<int>(iv);
    } else if (key == "autoscale") {
      if (args.size() != 1 || (args[0] != "on" && args[0] != "off" &&
                               args[0] != "1" && args[0] != "0"))
        return fail("want on|off|1|0");
      cfg.autoscale.enabled = args[0] == "on" || args[0] == "1";
    } else if (key == "sojourn-cap") {
      if (!integer(0, iv) || iv < 0) return fail("want integer >= 0");
      cfg.sojourn_cap = static_cast<std::size_t>(iv);
    } else if (key == "checkpoint") {
      if (args.size() != 1) return fail("want one path");
      cfg.checkpoint.base_path = args[0];
    } else if (key == "checkpoint-every") {
      if (!integer(0, iv) || iv < 1) return fail("want integer >= 1");
      cfg.checkpoint.every_runs = static_cast<int>(iv);
    } else if (key == "fault-seed") {
      if (!integer(0, iv) || iv < 0) return fail("want integer >= 0");
      cfg.fault_seed = static_cast<std::uint64_t>(iv);
    } else if (key == "shed-slo-mult") {
      if (!num(0, fv) || fv <= 0.0) return fail("want number > 0");
      cfg.queue_shed_slo_mult = fv;
    } else {
      return fail("unknown key");
    }
  }
  return cfg;
}

std::optional<CampaignConfig> parse_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "odin: cannot open scenario file: %s\n",
                 path.c_str());
    return std::nullopt;
  }
  return parse_scenario(in);
}

}  // namespace odin::core
