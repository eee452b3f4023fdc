// Trace-driven scenario engine: seeded, replayable million-request
// campaigns over the sharded fleet, with diurnal load, flash crowds,
// tenant priority tiers, tenant churn, correlated fault storms, and a
// reactive PE-block autoscaler.
//
// Design (DESIGN.md §17):
//  * ScenarioConfig → build_trace() expands one seed into the full cast:
//    tenants with tier-derived SLO budgets, arrival weights, service
//    costs and active windows (churn); flash-crowd windows targeting a
//    deterministic tenant subset; fault storms pinned to a center PE and
//    a Chebyshev radius on the mesh, so spatially adjacent PEs — and
//    therefore adjacent shard blocks of the boustrophedon fill — fail
//    together.
//  * ArrivalGenerator turns the trace into a deterministic event stream.
//    Every event is a pure function of the draws before it, so a resumed
//    campaign replays the stream to its cursor instead of serializing
//    generator state (the same replay idiom as FaultInjector).
//  * run_campaign() drives an analytic fleet model at millions of
//    requests: per-shard FIFO clocks, service times scaled by the shard's
//    PE block (inter-layer pipelining) and inflated by the shard
//    injector's drift multiplier and fault fraction; storms fire
//    FaultInjector campaigns from the trace clock; an epoch-cadence
//    autoscaler re-cuts PE blocks (core/fleet rescale_shard_blocks) and
//    migrates tenants off overloaded shards, charging migrations off the
//    critical path. All percentile reporting is streaming (core/sketch),
//    so memory stays bounded at any request count.
//  * There is one campaign loop, core/cluster's run_cluster: a campaign is
//    its one-mesh case, with no outages, replication or failover, pinned in
//    code so no cluster environment knob reaches it.
//  * The campaign state (CampaignState) rides a one-mesh cluster frame
//    (core/checkpoint), so a campaign can crash mid-storm and resume
//    bitwise. Resume refuses a
//    frame whose fingerprint names another geometry, whose state does not
//    fit that geometry, or that carries no campaign surface.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "arch/components.hpp"
#include "common/binary_io.hpp"
#include "common/rng.hpp"
#include "core/serving.hpp"
#include "core/sketch.hpp"
#include "reram/fault_injection.hpp"

namespace odin::core {

/// Tenant priority tiers, each mapping to a distinct SLO budget
/// (ScenarioConfig::*_slo_mult, tightest for gold).
enum class PriorityTier : std::int32_t { kGold = 0, kSilver = 1, kBronze = 2 };

const char* tier_name(PriorityTier tier);

/// One flash-crowd burst: for `duration_frac` of the horizon starting at
/// `start_frac`, the targeted tenant subset's arrival weight is multiplied
/// by `multiplier`.
struct FlashCrowd {
  double start_frac = 0.5;
  double duration_frac = 0.04;
  double multiplier = 8.0;
  /// Fraction of tenants this crowd targets (the subset is drawn
  /// deterministically from the trace seed).
  double tenant_frac = 0.10;
};

/// One correlated fault storm: a drift-acceleration window plus a burst of
/// write-verify campaigns, hitting every PE within Chebyshev distance
/// `radius` of `center_pe` on the mesh — spatial adjacency, not
/// independent draws. Shards owning an affected PE take the hit together.
struct FaultStorm {
  double start_frac = 0.5;
  double duration_frac = 0.03;
  double drift_multiplier = 6.0;
  int center_pe = -1;  ///< global PE id; -1 = drawn from the trace seed
  int radius = 1;
  /// Extra FaultInjector campaigns fired per affected shard when the
  /// storm begins (its correlated programming/wear activity).
  int campaigns = 4;
};

/// Reactive autoscaling policy over the campaign fleet.
struct AutoscaleConfig {
  bool enabled = true;
  /// Re-cut PE blocks only when max/mean per-PE shard demand over the last
  /// epoch exceeds this factor (hysteresis against thrashing).
  double imbalance_threshold = 1.25;
  /// Per moved tenant: remap/reprogram cost charged to the migration
  /// ledger — off the critical path, never the serving FIFO.
  double migration_cost_s = 2e-3;
  double migration_energy_j = 5e-4;
};

struct ScenarioConfig {
  /// Master seed; 0 reads as 1 (resolved_seed).
  std::uint64_t seed = 1;
  int tenants = 64;
  long long requests = 100'000;
  /// Wall-clock span the arrival process is calibrated to cover.
  double horizon_s = 86'400.0;
  /// Diurnal rate shaping: 1 + amplitude * sin(...) with `cycles` full
  /// periods across the horizon (trough at t = 0).
  int diurnal_cycles = 1;
  double diurnal_amplitude = 0.6;
  /// Flash crowds; when `flash` is empty, `flash_crowds` windows are drawn
  /// from the seed with the defaults below.
  std::vector<FlashCrowd> flash;
  int flash_crowds = 2;
  double flash_multiplier = 5.0;
  double flash_duration_frac = 0.03;
  double flash_tenant_frac = 0.10;
  /// Fraction of tenants with a partial lifetime (late arrival and/or
  /// early departure) — the churn population.
  double churn_frac = 0.25;
  /// Fault storms; when `storms` is empty, `fault_storms` are drawn from
  /// the seed with the defaults below.
  std::vector<FaultStorm> storms;
  int fault_storms = 2;
  double storm_drift_multiplier = 3.0;
  double storm_duration_frac = 0.03;
  int storm_radius = 1;
  int storm_campaigns = 4;
  /// Tier population shares (bronze takes the remainder) and SLO budgets
  /// as multiples of the calibrated mean service time.
  double gold_share = 0.10;
  double silver_share = 0.30;
  double gold_slo_mult = 12.0;
  double silver_slo_mult = 24.0;
  double bronze_slo_mult = 48.0;
  /// Mean offered load as a fraction of initial fleet service capacity;
  /// the per-tenant service times are calibrated to hit it, so flash
  /// crowds create real transient overload instead of idling.
  double target_utilization = 0.45;

  std::uint64_t resolved_seed() const { return seed != 0 ? seed : 1; }
};

/// One tenant of the expanded trace.
struct ScenarioTenant {
  std::string name;
  PriorityTier tier = PriorityTier::kBronze;
  double slo_s = 0.0;
  double weight = 1.0;     ///< relative arrival weight while active
  double service_s = 0.0;  ///< calibrated base service time (1-PE, no faults)
  double energy_j = 0.0;   ///< base inference energy
  double arrive_s = 0.0;   ///< active window start (churn)
  double depart_s = 0.0;   ///< active window end
  std::uint32_t flash_mask = 0;  ///< bit c set = targeted by crowd c
};

/// The fully expanded, deterministic scenario: same config + seed =>
/// identical trace, bit for bit.
struct ScenarioTrace {
  ScenarioConfig config;  ///< with the seed resolved
  arch::PimConfig pim;
  std::vector<ScenarioTenant> tenants;
  std::vector<FlashCrowd> flash;   ///< resolved windows
  std::vector<FaultStorm> storms;  ///< resolved, ascending start, center >= 0
  /// Arrival-rate scale: lambda(t) = base_rate * diurnal(t) * sum of
  /// active tenant weights (with flash multipliers).
  double base_rate = 0.0;

  double diurnal(double t_s) const;
  bool crowd_active(std::size_t crowd, double t_s) const;
  /// True when any flash crowd is active at t (the "flash phase" over
  /// which autoscaled and static placement are compared).
  bool in_flash_phase(double t_s) const;
  /// Effective arrival weight of tenant i at time t (0 while churned out;
  /// amplified by flash crowds targeting it).
  double tenant_weight(std::size_t i, double t_s) const;
  /// Global PE ids within the storm's Chebyshev radius of its center.
  std::vector<int> storm_pes(std::size_t storm) const;
};

/// Expand `config` against the mesh geometry. Deterministic.
ScenarioTrace build_trace(const ScenarioConfig& config,
                          const arch::PimConfig& pim = {});

/// Index of the first entry of the nondecreasing `cdf[0, n)` that is
/// greater than `pick` (n when none): std::upper_bound's answer, found by
/// a branch-free halving search. `!(pick < cdf[i])` is monotone over a
/// nondecreasing cdf, so its partition point is that upper bound for
/// every pick, NaN included.
std::size_t cdf_upper_bound(const double* cdf, std::size_t n,
                            double pick) noexcept;

/// Deterministic arrival stream over a trace. Each next() is a pure
/// function of the trace and the RNG draws before it: an inter-arrival gap,
/// redrawn from the boundary whenever it crosses a churn or flash-crowd
/// edge, then a tenant pick. skip(n) calls next() n times, so it replays a
/// prefix and a resumed campaign reaches the identical stream state
/// without serializing the generator.
class ArrivalGenerator {
 public:
  explicit ArrivalGenerator(const ScenarioTrace& trace);

  struct Arrival {
    double t_s = 0.0;
    int tenant = 0;
  };
  Arrival next();
  void skip(std::uint64_t events);
  std::uint64_t emitted() const noexcept { return emitted_; }
  double clock_s() const noexcept { return t_; }

 private:
  void rebuild_cdf();

  const ScenarioTrace* trace_;
  common::Rng rng_;
  double t_ = 0.0;
  std::uint64_t emitted_ = 0;
  std::vector<double> cdf_;  ///< prefix sums of tenant weights at t_
  std::vector<double> boundaries_;  ///< times the weight profile changes
  std::size_t next_boundary_ = 0;
};

// ---------------------------------------------------------------------------
// Campaign pricing primitives: the expressions the campaign loop
// (core/cluster) serves with, public so benches can time them directly.

/// Analytic service rate of one shard block: inter-layer pipelining across
/// the block's PEs speeds back-to-back service up linearly in the extras.
double campaign_shard_speed(int pes) noexcept;

/// Price one serve of tenant `t` on a `pes`-wide block under the given
/// drift multiplier and unusable-cell fraction — exactly the expressions
/// the campaign loop serves with (drift inflates service and energy,
/// faults add retry overhead on both, the block speed divides service).
void campaign_price(const ScenarioTenant& t, double drift_mult,
                    double fault_fraction, int pes, double& service_s,
                    double& energy_j) noexcept;

/// Durable campaign-engine state (serving checkpoint). The fingerprint
/// block gates resume — a checkpoint only reinstates onto the identical
/// scenario geometry; the rest positions the replay (arrival cursor,
/// per-shard clocks and wear, autoscaler accumulators, sketches, the
/// trajectory so far).
struct CampaignState {
  // Fingerprint.
  std::uint64_t seed = 0;
  std::uint64_t requests = 0;
  std::int32_t tenants = 0;
  std::int32_t shards = 0;
  std::int32_t epochs = 0;
  bool autoscale = false;
  // Cursor.
  std::uint64_t next_event = 0;  ///< arrivals already served
  double clock_s = 0.0;
  std::int32_t epoch = 0;
  std::int32_t storms_fired = 0;
  // Ledgers.
  std::int32_t rescales = 0;
  std::int64_t migrations = 0;
  std::int64_t storm_campaigns_fired = 0;
  std::int64_t misses = 0;
  std::int64_t sheds = 0;
  std::int64_t flash_requests = 0;
  double energy_j = 0.0;
  double edp_sum = 0.0;  ///< sum of per-request energy * service latency
  double migration_s = 0.0;
  double migration_energy_j = 0.0;
  // Fleet state.
  std::vector<double> shard_busy_until_s;
  std::vector<std::int32_t> shard_pes;  ///< current PE count per shard
  std::vector<std::int32_t> tenant_shard;
  std::vector<double> shard_demand;   ///< service demand this epoch
  std::vector<double> tenant_demand;  ///< per-tenant, same window
  std::vector<reram::FaultInjector::WearState> shard_wear;
  /// Shards each fired storm's bursts landed on (bit k = shard k): blocks
  /// move under autoscaling, so resume re-applies bursts to the shards
  /// they actually hit, not the shards that own those PEs now.
  std::vector<std::uint64_t> storm_shard_mask;
  // Streaming aggregates. p99 slack is the 1st-percentile slack sample,
  // so the sketches track p = 0.01 over slack.
  QuantileSketch slack_p1{0.01};
  QuantileSketch flash_slack_p1{0.01};
  QuantileSketch tier_slack_p1[3] = {QuantileSketch(0.01), QuantileSketch(0.01),
                                     QuantileSketch(0.01)};
  SojournSketch sojourn;
  // Trajectory so far (one entry per epoch, fixed size `epochs`).
  std::vector<double> epoch_energy_j;
  std::vector<double> epoch_edp_sum;
  std::vector<std::int64_t> epoch_requests;
  std::vector<std::int64_t> epoch_misses;
  std::vector<std::int64_t> epoch_sheds;
  std::vector<QuantileSketch> epoch_slack_p1;
};

/// Wire layout (common/binary_io.hpp).
template <typename S, common::MaybeConst<CampaignState> C>
void fields(S& s, C& c) {
  s.field(c.seed);
  s.field(c.requests);
  s.field(c.tenants);
  s.field(c.shards);
  s.field(c.epochs);
  s.field(c.autoscale);
  s.field(c.next_event);
  s.field(c.clock_s);
  s.field(c.epoch);
  s.field(c.storms_fired);
  s.field(c.rescales);
  s.field(c.migrations);
  s.field(c.storm_campaigns_fired);
  s.field(c.misses);
  s.field(c.sheds);
  s.field(c.flash_requests);
  s.field(c.energy_j);
  s.field(c.edp_sum);
  s.field(c.migration_s);
  s.field(c.migration_energy_j);
  s.seq(c.shard_busy_until_s, common::kMaxSeq);
  s.seq(c.shard_pes, common::kMaxSeq);
  s.seq(c.tenant_shard, common::kMaxSeq);
  s.seq(c.shard_demand, common::kMaxSeq);
  s.seq(c.tenant_demand, common::kMaxSeq);
  s.seq(c.shard_wear, common::kMaxSeq);
  s.seq(c.storm_shard_mask, common::kMaxSeq);
  s.field(c.slack_p1);
  s.field(c.flash_slack_p1);
  for (auto& q : c.tier_slack_p1) s.field(q);
  s.field(c.sojourn);
  s.seq(c.epoch_energy_j, common::kMaxSeq);
  s.seq(c.epoch_edp_sum, common::kMaxSeq);
  s.seq(c.epoch_requests, common::kMaxSeq);
  s.seq(c.epoch_misses, common::kMaxSeq);
  s.seq(c.epoch_sheds, common::kMaxSeq);
  s.seq(c.epoch_slack_p1, common::kMaxSeq);
}

inline void encode_campaign_state(const CampaignState& s,
                                  common::ByteWriter& out) {
  out.field(s);
}
inline std::optional<CampaignState> decode_campaign_state(
    common::ByteReader& in) {
  return common::decode<CampaignState>(in);
}

struct CampaignConfig {
  ScenarioConfig scenario{};
  arch::PimConfig pim{};
  /// Initial shard count (clamped to [1, min(pim.pes, 64)]; 64 is the
  /// width of the storm→shard masks).
  int shards = 6;
  AutoscaleConfig autoscale{};
  /// Trajectory resolution and autoscale cadence.
  int epochs = 48;
  /// Per-tenant raw sojourn retention (TenantStats::record_sojourn cap);
  /// the sketches absorb everything past it. 0 = unbounded.
  std::size_t sojourn_cap = 64;
  /// Checkpointing: `every_runs` counts served requests here.
  CheckpointConfig checkpoint{};
  /// Crash hook: serve at most this many requests in this invocation
  /// (forces a final checkpoint when enabled). 0 = run to completion.
  long long max_requests = 0;
  /// Per-shard injector seeds are fault_seed + shard index.
  std::uint64_t fault_seed = 0x0dd5eed;
  /// Shed (degraded out-of-band service) when queue wait exceeds this
  /// multiple of the tenant's SLO.
  double queue_shed_slo_mult = 8.0;
};

/// Per-epoch trajectory point of a finished (or interrupted) campaign.
struct CampaignEpoch {
  double t_end_s = 0.0;
  std::int64_t requests = 0;
  std::int64_t misses = 0;
  std::int64_t sheds = 0;
  double energy_j = 0.0;
  double edp_sum = 0.0;
  double p99_slack_s = 0.0;
  double edp_per_request() const noexcept {
    return requests > 0 ? edp_sum / static_cast<double>(requests) : 0.0;
  }
};

struct CampaignResult {
  std::string label;
  ScenarioConfig scenario;  ///< seed resolved
  int shards = 1;
  bool autoscaled = false;
  bool resumed = false;
  std::vector<ScenarioTenant> roster;
  std::vector<TenantStats> tenants;  ///< parallel to roster
  std::vector<CampaignEpoch> trajectory;
  CampaignState state;  ///< final engine state (ledgers, sketches)

  std::int64_t requests() const noexcept;
  double p99_slack_s() const noexcept;
  double flash_p99_slack_s() const noexcept;
  double edp_per_request() const noexcept;

  /// Deterministic plain-text summary: same seed => byte-identical output
  /// (no wall clocks, no host state), so campaign runs diff across PRs.
  std::string summary(bool include_trajectory = true) const;
};

/// Run the campaign from the start: run_cluster (core/cluster.hpp) on one
/// mesh with no outages, replication or failover, returning the campaign
/// block of its result. Deterministic and single-threaded.
CampaignResult run_campaign(const CampaignConfig& config);

/// Resume an interrupted campaign from its checkpoint pair: resume_cluster
/// on the same pinned one-mesh cluster. nullopt when no valid checkpoint
/// exists, its fingerprint does not match `config` (different seed/
/// requests/tenants/shards/epochs/autoscale/sojourn cap, or a multi-mesh
/// frame — the wrong-geometry refusal), or its state does not fit that
/// geometry.
std::optional<CampaignResult> resume_campaign(const CampaignConfig& config);

/// Export the trace's first `sc.horizon.runs` arrivals into an explicit
/// ServingConfig schedule: arrival times are mapped affinely onto the
/// serving horizon and the per-segment run counts follow the arrival
/// density (each segment keeps at least one run), so the real serving
/// loop (core/serving, core/fleet) runs under scenario-shaped load at
/// small horizons while the campaign engine scales the same trace to
/// millions of requests analytically.
void apply_trace_to_serving(const ScenarioTrace& trace, ServingConfig& sc);

/// Parse a scenario file (docs/scenario_format.md): `key value` lines,
/// `#` comments, repeated `flash`/`storm` directives. Returns nullopt and
/// names the offending line on stderr for malformed input.
std::optional<CampaignConfig> parse_scenario(std::istream& in);
std::optional<CampaignConfig> parse_scenario_file(const std::string& path);

/// The scenario grammar's strict number parsers: the whole token must
/// parse, so "12x" or "" is refused. The cluster-file parser shares them.
bool parse_f64(const std::string& tok, double& out);
bool parse_i64(const std::string& tok, long long& out);

}  // namespace odin::core
