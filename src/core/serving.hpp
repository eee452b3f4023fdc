// Multi-tenant serving simulation — the deployment scenario that motivates
// Odin (Sec. I: "an OU configuration computed offline for a known DNN model
// at design time may not be optimal for unseen DNNs at runtime").
//
// A PIM accelerator in production does not run one network forever: new
// models are deployed over time. The ServingSimulator rotates inference
// traffic across a set of workloads along the drift horizon; one policy
// serves them all, carrying what it learned from each tenant to the next
// (every layer is featurized the same way, so knowledge transfers). The
// comparison baselines run each tenant at a fixed homogeneous OU.
//
// The device keeps drifting across tenant switches — switching DNNs remaps
// weights onto (re)programmed crossbars, which also resets the drift clock
// for the incoming tenant's arrays and is charged as a programming event.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/binary_io.hpp"
#include "core/experiment.hpp"
#include "core/resilience.hpp"
#include "core/sketch.hpp"

namespace odin::core {

/// Periodic crash-safe checkpointing of the Odin serving walk (see
/// core/checkpoint.hpp for the file format and durability contract).
struct CheckpointConfig {
  /// Base path of the double-buffered pair (`<base>.a` / `<base>.b`).
  /// Empty disables checkpointing.
  std::string base_path;
  /// Write a checkpoint after every N inference runs (>= 1).
  int every_runs = 25;
};

/// Per-tenant service-time model the fleet scheduler derives from its
/// placement: NoC transit charged on every serve, and the steady-state
/// inter-layer pipeline overlap applied to back-to-back inferences. Every
/// serve is priced through one; the default-constructed model (no NoC
/// cost, overlap 1.0) is neutral — each pricing expression reduces
/// bitwise to the bare controller cost — and is what a walk with empty
/// `ServingConfig::service_models` (the default, and always the case for a
/// single-shard fleet) uses for every tenant.
struct TenantServiceModel {
  /// Inter-PE activation traffic per inference (arch::SystemMapping's
  /// noc_per_inference for this tenant's shard placement).
  common::EnergyLatency noc_extra;
  /// Steady-state service time as a fraction of unpipelined latency
  /// (arch::InterLayerPipeline::overlap_factor); applies only when the
  /// request arrives while the device is busy (the pipeline is primed).
  double pipeline_overlap = 1.0;

  bool operator==(const TenantServiceModel&) const = default;
};

struct ServingConfig {
  HorizonConfig horizon{};
  /// How many contiguous segments the horizon is divided into; tenants are
  /// assigned round-robin (segments >= tenant count uses each at least
  /// once).
  int segments = 6;
  OdinConfig odin{};
  CheckpointConfig checkpoint{};
  /// Crash-simulation hook: when > 0, serve at most this many inference
  /// runs in this invocation (a final checkpoint is forced when
  /// checkpointing is enabled) and return the partial result. 0 = serve
  /// the whole horizon.
  int max_runs = 0;
  /// Deadline/admission/breaker/watchdog layer (core/resilience.hpp).
  /// Disabled by default: the serving walk is then bit-identical to the
  /// pre-resilience behaviour.
  ResilienceConfig resilience{};
  /// Fleet surface (core/fleet.hpp fills these; empty/defaults outside a
  /// fleet). One entry per tenant, parallel to the `tenants` argument;
  /// empty prices every tenant with the neutral TenantServiceModel{}.
  std::vector<TenantServiceModel> service_models;
  int fleet_shards = 1;       ///< total shards in the owning fleet
  int fleet_shard_index = 0;  ///< this loop's shard id in [0, fleet_shards)
  /// Explicit arrival/drift schedule: when non-empty, replaces the
  /// logspace run_schedule(horizon) and must hold horizon.runs ascending
  /// times. The fleet passes each shard the global schedule's slices for
  /// its member segments so a tenant serves at the same drift times
  /// regardless of how the fleet is sharded.
  std::vector<double> schedule;
  /// Explicit per-segment run counts paired with `schedule`: when
  /// non-empty, replaces the equal split of segment_bounds (one entry per
  /// segment, summing to horizon.runs).
  std::vector<std::size_t> segment_sizes;
};

/// The default split of a `runs`-long schedule into `segments` (>= 1)
/// contiguous [begin, end) ranges of runs / segments runs each, the last
/// also taking the remainder. The fleet cuts its per-shard slices from the
/// same split.
std::vector<std::pair<std::size_t, std::size_t>> segment_bounds(
    std::size_t runs, int segments);

struct TenantStats {
  std::string name;
  int runs = 0;
  int reprograms = 0;  ///< drift-triggered only (switch programming separate)
  int mismatches = 0;
  int retries = 0;        ///< extra write-verify attempts on this tenant
  int degraded_runs = 0;  ///< runs this tenant served in degraded mode
  /// Update-guardrail surface (zero while the guard is disabled).
  int updates_accepted = 0;
  int updates_rejected = 0;
  int updates_rolled_back = 0;
  /// Replay-buffer observability: examples dropped at saturation and
  /// entries held in quarantine while serving this tenant.
  long long buffer_dropped = 0;
  long long buffer_quarantined = 0;
  /// Resilience surface (all zero while resilience is disabled). A "run"
  /// below is one arrival of this tenant's traffic; every arrival is served
  /// exactly once, either fully (controller + search) or by the degraded
  /// fallback (last-known-good homogeneous OU, no search, no reprogram).
  double slo_s = 0.0;            ///< latency SLO in force (0 = none/disabled)
  int shed_runs = 0;             ///< admission-control sheds (queue overflow)
  int breaker_open_runs = 0;     ///< fallback serves while the breaker held
  int deadline_misses = 0;       ///< full serves whose sojourn overran the SLO
  int deferred_reprograms = 0;   ///< campaigns pushed out by the deadline
  int deadline_stopped_retries = 0;  ///< retry loops cut short by the budget
  int searches_truncated = 0;    ///< layer searches stopped at best-so-far
  int breaker_opens = 0;         ///< Closed -> Open trips
  int breaker_reopens = 0;       ///< failed half-open probes
  int breaker_probes = 0;        ///< half-open probe runs granted
  int breaker_closes = 0;        ///< recoveries back to Closed
  int watchdog_stalls = 0;       ///< hung runs cancelled by the watchdog
  /// Batch-formation surface (all zero while batching is disabled). A
  /// batch is one pipelined pass over >= 1 queued same-tenant runs.
  int batches_formed = 0;   ///< pipelined passes (including size-1 batches)
  int batch_members = 0;    ///< runs served inside those passes
  int max_batch = 0;        ///< largest batch this tenant saw
  int batch_slo_capped = 0; ///< batches stopped short by a member's slack
  /// Wear-leveling surface (all zero without a leveling-enabled injector).
  /// Deltas of the shared device's leveling counters accrued while this
  /// tenant's segments were being served.
  int rows_remapped = 0;      ///< worn rows absorbed by the spare pool
  int crossbars_retired = 0;  ///< pool exhaustions (tenant migrated)
  long long writes_leveled = 0;      ///< row writes redirected off-identity
  int wear_deferred_reprograms = 0;  ///< campaigns deferred while wear-hot
  /// Gauge, not a delta: spare rows left in the device's current pool after
  /// this tenant's most recent segment.
  int spares_remaining = 0;
  /// Fleet surface (zero outside a multi-shard fleet): wall-clock busy time
  /// this tenant held its shard's device, and runs that were served at the
  /// pipelined (overlapped) rate because the pipeline was primed.
  double service_s = 0.0;
  int pipelined_runs = 0;
  /// Cluster failover surface (zero outside a multi-mesh cluster —
  /// core/cluster.hpp).
  int failovers = 0;             ///< evacuations off a lost mesh
  int restored_stale = 0;        ///< restores from a replica missing serves
  long long lost_runs = 0;       ///< serves newer than the restored replica
  long long outage_dropped = 0;  ///< arrivals dropped while dark/restoring
  double rpo_s = 0.0;            ///< worst replica staleness at failover
  double rto_s = 0.0;            ///< worst outage-to-ready recovery time
  /// Per-served-run sojourn (queue wait + service latency), in arrival
  /// order; feeds the percentile reporting below. The serving walk keeps
  /// every sample; the campaign engine bounds retention by
  /// CampaignConfig::sojourn_cap.
  std::vector<double> sojourn_s;
  /// Streaming percentile sketch fed by *every* sojourn sample, including
  /// those the cap dropped from the vector.
  SojournSketch sojourn_sketch;
  /// Samples the cap kept out of sojourn_s (0 while uncapped).
  long long sojourn_dropped = 0;
  common::EnergyLatency inference;
  common::EnergyLatency reprogram;

  /// Record one sojourn sample under retention cap `cap` (0 = unbounded):
  /// always feeds the sketch, appends to the vector only below the cap.
  void record_sojourn(double sojourn, std::size_t cap = 0);

  /// Nearest-rank percentile of the sojourn samples (p in [0, 100]).
  /// Exact while every sample was retained; the sketch estimate once the
  /// cap dropped any.
  double sojourn_percentile(double p) const;
  /// Deadline slack at the same rank: slo_s - sojourn_percentile(p)
  /// (negative = the SLO was missed at that rank; 0 when no SLO was set).
  double slack_percentile(double p) const;
};

/// Wire layout (common/binary_io.hpp).
template <typename S, common::MaybeConst<TenantStats> T>
void fields(S& s, T& t) {
  s.field(t.name);
  s.field(t.runs);
  s.field(t.reprograms);
  s.field(t.mismatches);
  s.field(t.retries);
  s.field(t.degraded_runs);
  s.field(t.updates_accepted);
  s.field(t.updates_rejected);
  s.field(t.updates_rolled_back);
  s.field(t.buffer_dropped);
  s.field(t.buffer_quarantined);
  s.field(t.inference);
  s.field(t.reprogram);
  s.field(t.slo_s);
  s.field(t.shed_runs);
  s.field(t.breaker_open_runs);
  s.field(t.deadline_misses);
  s.field(t.deferred_reprograms);
  s.field(t.deadline_stopped_retries);
  s.field(t.searches_truncated);
  s.field(t.breaker_opens);
  s.field(t.breaker_reopens);
  s.field(t.breaker_probes);
  s.field(t.breaker_closes);
  s.field(t.watchdog_stalls);
  s.seq(t.sojourn_s, common::kMaxSeq);
  s.field(t.batches_formed);
  s.field(t.batch_members);
  s.field(t.max_batch);
  s.field(t.batch_slo_capped);
  s.field(t.rows_remapped);
  s.field(t.crossbars_retired);
  s.field(t.writes_leveled);
  s.field(t.wear_deferred_reprograms);
  s.field(t.spares_remaining);
  s.field(t.service_s);
  s.field(t.pipelined_runs);
  s.field(t.sojourn_sketch);
  s.field(t.sojourn_dropped);
  s.field(t.failovers);
  s.field(t.restored_stale);
  s.field(t.lost_runs);
  s.field(t.outage_dropped);
  s.field(t.rpo_s);
  s.field(t.rto_s);
}

struct ServingResult {
  std::string label;
  std::vector<TenantStats> tenants;
  common::EnergyLatency programming;  ///< tenant-switch (re)programming
  int switches = 0;
  int policy_updates = 0;
  /// True when this result was produced by resuming from a checkpoint
  /// (totals include the pre-crash prefix).
  bool resumed = false;

  common::EnergyLatency total() const noexcept;
  double total_edp() const noexcept { return total().edp(); }
  int total_mismatches() const noexcept;
  int total_runs() const noexcept;
  int total_retries() const noexcept;
  int total_degraded_runs() const noexcept;
  int total_updates_accepted() const noexcept;
  int total_updates_rejected() const noexcept;
  int total_updates_rolled_back() const noexcept;
  long long total_buffer_dropped() const noexcept;
  long long total_buffer_quarantined() const noexcept;
  /// Resilience totals (all zero while resilience is disabled).
  int total_shed_runs() const noexcept;
  int total_breaker_open_runs() const noexcept;
  int total_deadline_misses() const noexcept;
  int total_deferred_reprograms() const noexcept;
  int total_searches_truncated() const noexcept;
  int total_breaker_opens() const noexcept;
  int total_breaker_reopens() const noexcept;
  int total_breaker_probes() const noexcept;
  int total_breaker_closes() const noexcept;
  int total_watchdog_stalls() const noexcept;
  /// Batch-formation totals (zero while batching is disabled).
  int total_batches_formed() const noexcept;
  int total_batch_members() const noexcept;
  int total_batch_slo_capped() const noexcept;
  /// Largest batch formed anywhere; 0 when batching never ran.
  int max_batch() const noexcept;
  /// Mean members per formed batch (the occupancy figure; 0 when none).
  double mean_batch_occupancy() const noexcept;
  /// Wear-leveling totals (zero while leveling is disabled).
  int total_rows_remapped() const noexcept;
  int total_crossbars_retired() const noexcept;
  long long total_writes_leveled() const noexcept;
  int total_wear_deferred_reprograms() const noexcept;
  /// Spare rows left in the device's current pool (the smallest gauge any
  /// served tenant observed; 0 while leveling is disabled).
  int spares_remaining() const noexcept;
  /// Fleet totals (zero outside a multi-shard fleet).
  double total_service_s() const noexcept;
  int total_pipelined_runs() const noexcept;
};

/// Serve `tenants` (non-owning; must outlive the call) with one adapting
/// Odin policy. `initial_policy` is typically offline-bootstrapped.
/// `faults` (caller-owned, optional) is the shared device wear state: every
/// tenant-switch programming and every drift-triggered reprogram advances
/// it, and each segment's controller consumes its measured health.
ServingResult serve_with_odin(
    std::vector<const ou::MappedModel*> tenants,
    const ou::NonIdealityModel& nonideal, const ou::OuCostModel& cost,
    policy::OuPolicy initial_policy, const ServingConfig& config = {},
    reram::FaultInjector* faults = nullptr);

/// Serve the same traffic with a fixed homogeneous OU configuration. With
/// `faults` the segment walk runs sequentially (wear is shared state);
/// without it the arms are independent and run concurrently.
ServingResult serve_with_homogeneous(
    std::vector<const ou::MappedModel*> tenants,
    const ou::NonIdealityModel& nonideal, const ou::OuCostModel& cost,
    ou::OuConfig ou, const ServingConfig& config = {},
    reram::FaultInjector* faults = nullptr);

struct ServingCheckpoint;  // core/checkpoint.hpp

/// Continue an interrupted serve_with_odin from `ckpt` (typically obtained
/// via load_latest_checkpoint). `config` and `tenants` must match the
/// original invocation (validated against the checkpoint's fingerprint) and
/// `faults`, when used originally, must be a freshly constructed injector
/// with the original seed/schedule — its wear is replayed and verified.
/// Returns nullopt when the checkpoint does not match this configuration.
std::optional<ServingResult> resume_with_odin(
    std::vector<const ou::MappedModel*> tenants,
    const ou::NonIdealityModel& nonideal, const ou::OuCostModel& cost,
    const ServingCheckpoint& ckpt, const ServingConfig& config = {},
    reram::FaultInjector* faults = nullptr);

}  // namespace odin::core
