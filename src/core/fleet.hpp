// Fleet-scale sharded serving: partition the 36-PE mesh into shards, place
// tenants onto shards NoC- and wear-aware, and run one serving loop per
// shard concurrently on the thread pool.
//
// The placement objective (DESIGN.md §16) combines three terms per tenant:
//  * NoC transit — the inter-layer activation traffic of the tenant's
//    layers placed onto the shard's PE block (arch::SystemModel::map_onto
//    over arch::NocModel), normalized per tenant across candidate shards;
//  * load balance — the shard's crossbar fill after taking the tenant,
//    relative to the fleet-wide mean;
//  * wear — the shard device's consumed lifetime fraction plus its fault
//    fraction (reram::FaultInjector), so new tenants prefer least-worn
//    shards and migrate off wear-hot arrays.
// Greedy seeding (largest tenant first, best shard by the score) is
// followed by `refine_passes` single-tenant best-move passes that accept
// strict global-objective decreases — deterministic, no randomness.
//
// Each shard then runs the full serving loop (admission queue, breakers,
// batching, checkpoints) over its own tenants, with a placement-derived
// TenantServiceModel charging NoC transit per serve and crediting
// inter-layer pipelining across the shard's PEs (arch::interlayer_pipeline).
// A single-shard fleet passes the ServingConfig through untouched, so its
// walk prices every serve with the neutral service model exactly as
// serve_with_odin does, and is bitwise identical to it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "arch/components.hpp"
#include "core/serving.hpp"

namespace odin::core {

struct FleetConfig {
  /// Template ServingConfig every shard derives its own loop from (horizon
  /// and segments are split across shards by tenant membership).
  ServingConfig serving{};
  arch::PimConfig pim{};
  /// Shard count. Clamped to [1, pim.pes].
  int shards = 1;
  /// NoC-aware greedy-then-refine placement; false = placement-oblivious
  /// round-robin (tenant t -> shard t % shards), the comparison baseline.
  bool noc_aware = true;
  /// Steer tenants away from worn/faulty shard devices (no-op without
  /// per-shard fault injectors).
  bool wear_aware = true;
  /// Single-tenant best-move refinement passes after greedy seeding.
  int refine_passes = 2;
  /// Inter-layer activation precision on the NoC.
  int activation_bits = 8;

  int resolved_shards() const {
    return std::clamp(shards, 1, std::max(1, pim.pes));
  }
};

/// One tenant's placement outcome.
struct TenantPlacement {
  int tenant = 0;  ///< index into the fleet's tenant vector
  int shard = 0;
  std::int64_t crossbars = 0;  ///< footprint (crossbars occupied)
  int pes_spanned = 0;         ///< PEs of the shard the layers landed on
  /// Inter-layer activation transit per inference on the shard's block.
  common::EnergyLatency noc_per_inference;
  /// Steady-state inter-layer pipeline factor across those PEs.
  double pipeline_overlap = 1.0;
  /// The wear term moved this tenant off the shard a wear-blind score
  /// would have picked.
  bool wear_displaced = false;
};

struct FleetPlacement {
  int shards = 1;
  /// Global PE ids per shard, in fill order (contiguous blocks of the
  /// boustrophedon mesh walk when NoC-aware, row-major otherwise).
  std::vector<std::vector<int>> shard_pes;
  std::vector<TenantPlacement> tenants;  ///< indexed by tenant
  std::vector<std::int64_t> shard_load;  ///< crossbars per shard
  double load_imbalance = 1.0;  ///< max shard load / mean shard load
  double objective = 0.0;       ///< final global objective value
};

/// PE fill order across the mesh. The boustrophedon (snake) walk keeps
/// consecutive ids mesh-adjacent, so a shard's contiguous block is compact
/// and its internal hop distances small; row-major (snake = false) is the
/// oblivious baseline. Public because the scenario engine's storm
/// footprints and the campaign autoscaler share this spatial layout.
std::vector<int> fleet_fill_order(const arch::PimConfig& pim,
                                  bool snake = true);

/// Near-equal contiguous chunks of the fill order, one per shard (the
/// first `pes % shards` shards get the extra PE).
std::vector<std::vector<int>> fleet_partition_pes(const std::vector<int>& order,
                                                  int shards);

/// Reactive autoscaling step (DESIGN.md §17): re-cut the fill order into
/// contiguous shard blocks apportioned to `shard_demand` (largest-remainder
/// rounding, one-PE floor per shard, deterministic tie-breaks). Shards keep
/// their index — a demand shift slides the block boundaries along the
/// snake, so neighbouring shards trade mesh-adjacent PEs instead of
/// scattering.
std::vector<std::vector<int>> rescale_shard_blocks(
    const arch::PimConfig& pim, bool snake,
    const std::vector<double>& shard_demand);

/// Index of the block with the lowest per-PE demand (`demand[i] /
/// max(1, pes[i])`), deterministic lowest-index tie-break. A non-empty
/// `eligible` bitmap (parallel to `demand`) restricts the candidates;
/// returns demand.size() when nothing is eligible. The cluster failover
/// path (core/cluster) picks both the target mesh and the target shard
/// within it this way.
std::size_t pick_least_loaded_block(const std::vector<double>& demand,
                                    const std::vector<std::int32_t>& pes,
                                    const std::vector<std::uint8_t>& eligible);

/// Place `tenants` onto the fleet's shards. `shard_faults` (optional, one
/// per shard, entries may be null) feeds the wear term.
FleetPlacement place_fleet(
    const std::vector<const ou::MappedModel*>& tenants,
    const ou::OuCostModel& cost, const FleetConfig& config,
    const std::vector<const reram::FaultInjector*>& shard_faults = {});

/// Outcome of a fleet run: the placement plus one ServingResult per shard.
struct FleetResult {
  FleetPlacement placement;
  std::vector<ServingResult> shards;
  /// Tenant indices served by each shard (ascending; order matches the
  /// shard's local tenant vector and its ServingResult::tenants).
  std::vector<std::vector<int>> shard_tenants;

  int total_runs() const noexcept;
  /// Wall-clock the shard's device spent serving (service + switch
  /// programming) — the makespan denominator.
  double shard_busy_s(std::size_t shard) const noexcept;
  double makespan_s() const noexcept;
  /// Aggregate throughput: total runs over the slowest shard's busy time.
  double aggregate_images_per_s() const noexcept;
  /// Run-weighted mean per-request EDP across tenants:
  /// sum_t(E_t * L_t / R_t) / sum_t(R_t) over every tenant of every shard
  /// (inference + reprogram). Aggregated per tenant, not per shard, so the
  /// figure is invariant to how tenants are grouped onto shards.
  double edp_per_request() const noexcept;
  /// Pooled deadline-slack percentile across every SLO-bearing tenant of
  /// every shard: the slack at the p-th percentile sojourn (p99 slack =
  /// the 1st-percentile slack sample). 0 when no SLO samples exist.
  double slack_percentile(double p) const;
};

/// Serve the fleet: place, derive per-shard ServingConfigs, run every
/// shard's loop concurrently (common::parallel_transform), one cloned
/// policy per shard. `shard_faults` (optional, one per shard, entries may
/// be null) are each shard's private device wear state. With
/// resolved_shards() == 1 the serving walk is bitwise identical to
/// serve_with_odin on the unmodified config.
FleetResult serve_fleet(
    const std::vector<const ou::MappedModel*>& tenants,
    const ou::NonIdealityModel& nonideal, const ou::OuCostModel& cost,
    policy::OuPolicy initial_policy, const FleetConfig& config,
    const std::vector<reram::FaultInjector*>& shard_faults = {});

/// Resume an interrupted fleet from each shard's checkpoint pair (the
/// fleet writes shard k's pair at `<base>.shard<k>.a/.b`; a single-shard
/// fleet uses `<base>.a/.b` unchanged). The same driver as serve_fleet, so
/// shards resume concurrently. Placement is recomputed — it is a pure
/// function of tenants and config, so it reproduces the interrupted run's
/// geometry; `shard_faults` must be freshly constructed injectors (their
/// wear is replayed and verified per shard). Shards without a checkpoint
/// run fresh; a shard whose checkpoint fails to reinstate fails the whole
/// resume. The fleet's `serving.max_runs` crash hook is cleared on resume.
std::optional<FleetResult> resume_fleet(
    const std::vector<const ou::MappedModel*>& tenants,
    const ou::NonIdealityModel& nonideal, const ou::OuCostModel& cost,
    policy::OuPolicy initial_policy, const FleetConfig& config,
    const std::vector<reram::FaultInjector*>& shard_faults = {});

}  // namespace odin::core
