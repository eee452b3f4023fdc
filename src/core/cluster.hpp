// Cross-mesh failover: replicated checkpoints, mesh-loss fault domains,
// and bounded-RTO tenant evacuation (DESIGN.md §18).
//
// One PE mesh — however well it shards (core/fleet), autoscales and
// storm-hardens (core/scenario) — is still one fault domain: a power or
// interconnect event takes every shard on it down together. The cluster
// layer runs N independent meshes, each serving its own slice of the
// tenant set through the campaign analytics, and makes whole-mesh loss a
// first-class, recoverable event:
//
//  * mesh-loss fault domains — seeded outage windows (MeshOutage) take one
//    mesh's shards dark for part of the horizon, replayable from the
//    scenario seed exactly like PR 9's fault storms. While dark, the
//    mesh's arrivals are dropped (counted, never silently lost) and its
//    injectors report a paused drift clock (FaultInjector::add_power_down).
//  * checkpoint replication — at an epoch cadence, every tenant's durable
//    state is mirrored to a peer mesh over the inter-mesh link
//    (arch::intermesh_transfer), and the replica's age is tracked so a
//    failover can report exactly how much each tenant lost (RPO).
//  * failover — when a mesh dies with failover enabled, its tenants are
//    restored from the freshest surviving replica onto the least-loaded
//    surviving mesh (core/fleet pick_least_loaded_block at mesh then
//    shard granularity), under degraded admission: breakers pre-opened
//    (CircuitBreaker::force_open) so restored tenants serve the cheap
//    fallback path until a half-open probe passes, and the destination
//    array is re-bootstrapped with a write-verify campaign. Per-tenant
//    recovery time (RTO) is the outage-to-ready gap, serialized restores
//    queuing behind one detection delay.
//
// One engine: run_cluster holds the only campaign loop. A plain campaign
// (core/scenario run_campaign) is its one-mesh case, with no outages,
// replication or failover and every cluster knob pinned in code.
//
// Determinism: every cluster decision (outage windows, storm target
// meshes, failover destinations) is a pure function of the seeds and the
// state, so same-seed replay and mid-campaign resume reproduce the summary
// byte for byte. The state rides the serving checkpoint with the campaign
// surface set. Resume refuses a frame with has_scenario unset, a frame
// whose fingerprint names another geometry, and a frame whose state does
// not fit that geometry.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/binary_io.hpp"
#include "core/resilience.hpp"
#include "core/scenario.hpp"

namespace odin::core {

/// One mesh-loss window: mesh `mesh` is dark (all shards unservable, drift
/// clocks paused) for `duration_frac` of the horizon starting at
/// `start_frac`. A negative mesh index is resolved from the scenario seed.
struct MeshOutage {
  double start_frac = 0.5;
  double duration_frac = 0.25;
  int mesh = -1;  ///< victim mesh; -1 = drawn from the seed
};

/// Failover policy for tenants on a lost mesh.
struct FailoverConfig {
  bool enabled = true;
  /// Outage-to-detection delay before the first restore can start.
  double detection_s = 30.0;
  /// Per-tenant restore work on the destination (state reinstatement,
  /// admission re-registration); restores are serialized, so the i-th
  /// victim waits behind i - 1 of these plus i replica pulls.
  double restore_s = 2.0;
  /// Breaker hold (in tenant runs) a restored tenant is pre-opened for —
  /// the degraded-admission regime until the half-open probe passes.
  int degraded_window = 8;
};

/// Upper bounds of ClusterConfig::meshes and ::replication_epochs.
inline constexpr int kMaxMeshes = 8;
inline constexpr int kMaxReplicationEpochs = 64;

struct ClusterConfig {
  /// The per-mesh campaign (scenario, shards *per mesh*, autoscale,
  /// epochs, checkpointing).
  CampaignConfig campaign{};
  /// Mesh count. Clamped to [1, 8].
  int meshes = 1;
  /// Outage windows; when empty, `mesh_outages` windows are drawn from the
  /// scenario seed with `outage_duration_frac` each.
  std::vector<MeshOutage> outages;
  int mesh_outages = 1;
  double outage_duration_frac = 0.25;
  /// Replicate tenant state to a peer mesh every this many epochs.
  /// Clamped to [1, 64].
  int replication_epochs = 4;
  FailoverConfig failover{};

  int resolved_meshes() const { return std::clamp(meshes, 1, kMaxMeshes); }
  int resolved_replication_epochs() const {
    return std::clamp(replication_epochs, 1, kMaxReplicationEpochs);
  }
};

/// Durable cluster-engine state (serving checkpoint). The fingerprint
/// block extends CampaignState's resume gate to the cluster geometry; the
/// rest positions the outage/replication replay and carries the failover
/// ledgers.
struct ClusterState {
  // Fingerprint.
  std::int32_t meshes = 1;
  std::int32_t replication_epochs = 0;
  bool failover = false;
  // Cursor.
  std::int32_t outages_fired = 0;
  std::int32_t replication_rounds = 0;
  // Per-mesh.
  std::vector<std::uint8_t> mesh_down;
  std::vector<double> mesh_down_until_s;
  std::vector<std::int64_t> mesh_served;
  // Per-tenant replication/restore surface.
  std::vector<std::int64_t> replica_runs;   ///< runs captured by the replica
  std::vector<double> replica_time_s;       ///< when it was taken (0 = never)
  std::vector<std::int32_t> replica_mesh;   ///< where it lives (-1 = none)
  std::vector<double> tenant_ready_s;       ///< restore completion time
  std::vector<std::uint8_t> tenant_victim;  ///< ever evacuated off a mesh
  /// Per-tenant degraded-admission breakers (the failover path force-opens
  /// them; closed breakers never consume state, so a run without failovers
  /// serves on the plain path).
  std::vector<CircuitBreaker::Snapshot> breakers;
  // Ledgers.
  std::int64_t failovers = 0;        ///< tenant evacuations off a lost mesh
  std::int64_t restored_stale = 0;   ///< restores from a replica missing serves
  std::int64_t lost_runs = 0;        ///< serves newer than the restored replica
  std::int64_t outage_dropped = 0;   ///< arrivals dropped while dark/restoring
  std::int64_t degraded_runs = 0;    ///< breaker-open fallback serves
  std::int64_t bootstrap_campaigns = 0;  ///< destination re-bootstrap writes
  std::int64_t victim_offered = 0;   ///< post-outage arrivals for victims
  std::int64_t victim_served = 0;    ///< of those, actually served
  double rto_max_s = 0.0;
  double rto_sum_s = 0.0;
  double rpo_max_s = 0.0;
  double rpo_sum_s = 0.0;
  double replication_bytes = 0.0;
  double replication_s = 0.0;
  double replication_energy_j = 0.0;
};

/// Wire layout (common/binary_io.hpp).
template <typename S, common::MaybeConst<ClusterState> C>
void fields(S& s, C& c) {
  s.field(c.meshes);
  s.field(c.replication_epochs);
  s.field(c.failover);
  s.field(c.outages_fired);
  s.field(c.replication_rounds);
  s.seq(c.mesh_down, common::kMaxSeq);
  s.seq(c.mesh_down_until_s, common::kMaxSeq);
  s.seq(c.mesh_served, common::kMaxSeq);
  s.seq(c.replica_runs, common::kMaxSeq);
  s.seq(c.replica_time_s, common::kMaxSeq);
  s.seq(c.replica_mesh, common::kMaxSeq);
  s.seq(c.tenant_ready_s, common::kMaxSeq);
  s.seq(c.tenant_victim, common::kMaxSeq);
  s.seq(c.breakers, common::kMaxSeq);
  s.field(c.failovers);
  s.field(c.restored_stale);
  s.field(c.lost_runs);
  s.field(c.outage_dropped);
  s.field(c.degraded_runs);
  s.field(c.bootstrap_campaigns);
  s.field(c.victim_offered);
  s.field(c.victim_served);
  s.field(c.rto_max_s);
  s.field(c.rto_sum_s);
  s.field(c.rpo_max_s);
  s.field(c.rpo_sum_s);
  s.field(c.replication_bytes);
  s.field(c.replication_s);
  s.field(c.replication_energy_j);
}

inline void encode_cluster_state(const ClusterState& s,
                                 common::ByteWriter& out) {
  out.field(s);
}
inline std::optional<ClusterState> decode_cluster_state(
    common::ByteReader& in) {
  return common::decode<ClusterState>(in);
}

struct ClusterResult {
  CampaignResult campaign;  ///< fleet-wide campaign surface (all meshes)
  ClusterState cluster;     ///< final cluster state (ledgers, cursors)
  int meshes = 1;
  int shards_per_mesh = 1;
  bool failover = true;
  int replication_epochs = 4;
  std::vector<MeshOutage> outages;  ///< resolved windows, ascending start

  /// Post-outage served fraction of victim-tenant arrivals (1 when no
  /// outage produced victims) — the cluster's recovery figure.
  double victim_recovery() const noexcept;
  double rto_mean_s() const noexcept;
  double rpo_mean_s() const noexcept;

  /// Deterministic plain-text summary: the cluster block (geometry,
  /// outages, failover/replication ledgers, per-mesh serve counts)
  /// followed by the campaign summary. Same seed => byte-identical.
  std::string summary(bool include_trajectory = true) const;
};

/// Run the cluster campaign from the start. Deterministic and
/// single-threaded.
ClusterResult run_cluster(const ClusterConfig& config);

/// Resume an interrupted cluster campaign from its checkpoint pair.
/// nullopt when no valid cluster checkpoint exists, either fingerprint
/// (campaign geometry or cluster geometry: meshes/replication_epochs/
/// failover) does not match `config`, or the frame's vectors, cursors or
/// shard indices do not fit that geometry.
std::optional<ClusterResult> resume_cluster(const ClusterConfig& config);

/// Parse a cluster scenario file: the scenario keys of
/// docs/scenario_format.md plus the cluster keys (`meshes`,
/// `replication-epochs`, `failover`, `outage START_FRAC DURATION_FRAC
/// [MESH]`, `mesh-outages`, `outage-duration-frac`, `detection-s`,
/// `restore-s`, `degraded-window`). Returns nullopt and names the
/// offending line on stderr for malformed input.
std::optional<ClusterConfig> parse_cluster(std::istream& in);
std::optional<ClusterConfig> parse_cluster_file(const std::string& path);

}  // namespace odin::core
