// Crash-safe checkpoint/restore of the multi-tenant serving state.
//
// A production serving process must survive being killed at any moment: the
// adapted policy, the replay buffer (including quarantined batches), the
// drift clock, the guardrail's probation state, the accumulated per-tenant
// energy/latency totals and the device's wear history are all state that a
// restart would otherwise silently reset. This layer persists all of it.
//
// Durability contract (DESIGN.md §12):
//  * framed & checksummed — a fixed header (magic, version, sequence,
//    payload size, CRC-32 of the payload) is validated before any payload
//    byte is trusted, so a torn or bit-flipped file is detected, never
//    parsed;
//  * atomic — each write goes to `<slot>.tmp`, is flushed (fsync where
//    available), then renamed over the slot, so a crash mid-write leaves
//    the previous slot contents intact;
//  * double-buffered — writes alternate between `<base>.a` and `<base>.b`;
//    the loader picks the valid slot with the highest sequence number and
//    falls back to the other when the newest write was torn. Two
//    independent failures are required to lose all serving state.
//
// The device's stochastic wear state is NOT serialized bit-by-bit: the
// FaultInjector's randomness is a pure function of (seed, campaign count),
// so the checkpoint stores the campaign-count fingerprint and resume
// replays it (FaultInjector::fast_forward), verifying the fingerprint.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/binary_io.hpp"
#include "core/cluster.hpp"
#include "core/odin.hpp"
#include "core/scenario.hpp"
#include "core/serving.hpp"
#include "reram/fault_injection.hpp"

namespace odin::core {

/// On-disk payload version. There is one layout, the ServingCheckpoint
/// walk in core/checkpoint.cpp; a change to it bumps this number, and
/// frames of any other version are refused.
inline constexpr std::uint32_t kCheckpointVersion = 8;

/// The configuration a checkpointed walk ran under. The serving walk
/// builds one from its arguments both when it writes a checkpoint and when
/// it resumes one, and resume refuses any difference: the state only
/// transfers onto the same horizon/segment layout, the same tenants in the
/// same order, the same device wear and leveling knobs, the same admission
/// and batching geometry, and the same fleet shard and placement-derived
/// service models. Fields of a layer that is off keep their defaults. The
/// campaign engine fills the layout fields and `sojourn_cap` of its frames
/// and checks its own state on resume.
struct ServingFingerprint {
  int segments = 0;
  int horizon_runs = 0;
  double t_start_s = 0.0;
  double t_end_s = 0.0;
  std::vector<std::string> tenant_names;
  /// A leveled campaign history only replays under the same spare pool
  /// and wear budget.
  bool has_faults = false;
  bool leveling_enabled = false;
  std::int32_t leveling_spare_rows = 0;  ///< resolved pool in force
  double leveling_wear_budget = 0.0;     ///< resolved budget fraction
  bool has_resilience = false;
  std::int32_t shed_policy = 0;      ///< ShedPolicy in force
  std::uint64_t queue_capacity = 0;  ///< admission bound
  bool batching_enabled = false;
  std::int32_t batch_cap = 0;  ///< resolved max batch in force
  std::int32_t fleet_shards = 1;
  std::int32_t fleet_shard_index = 0;
  bool has_service_models = false;
  std::vector<TenantServiceModel> service_models;
  /// Raw sojourn retention cap: the campaign engine's bound; serving walks
  /// keep every sample and write 0.
  std::uint64_t sojourn_cap = 0;

  bool operator==(const ServingFingerprint&) const = default;
};

/// The complete serving state at a run boundary. `segment`/`next_run`
/// locate the resume point: the next inference to execute is
/// schedule[next_run] inside `segment` (whose tenant-switch programming
/// already happened and is already accounted in `result`).
struct ServingCheckpoint {
  /// Monotone write counter (assigned by CheckpointWriter).
  std::uint64_t sequence = 0;
  /// Resume position.
  std::uint64_t segment = 0;
  std::uint64_t next_run = 0;
  /// Resume refuses a checkpoint taken under another configuration.
  ServingFingerprint fingerprint;
  /// Accumulated serving totals up to (but excluding) next_run.
  ServingResult result;
  /// The in-flight controller (policy, buffer, guard, drift clock).
  ControllerSnapshot controller;
  /// Device wear fingerprint (meaningful when fingerprint.has_faults).
  reram::FaultInjector::WearState wear;
  /// Resilience serving state (defaulted when the walk ran with
  /// resilience disabled).
  double busy_until_s = 0.0;         ///< when the FIFO device frees up
  std::vector<std::uint64_t> pending_runs;  ///< queued arrival indices
  std::vector<CircuitBreaker::Snapshot> breakers;  ///< one per tenant
  std::vector<ou::OuConfig> fallback_ous;          ///< one per tenant
  /// Wear-leveling segment baselines: restore mid-segment per-tenant
  /// attribution of the device-global counters.
  int wear_seg_base_rows_remapped = 0;
  int wear_seg_base_crossbars_retired = 0;
  long long wear_seg_base_writes_leveled = 0;
  /// Scenario surface. The campaign state is only meaningful when
  /// has_scenario (the campaign engine's checkpoints); the plain serving
  /// loop writes it defaulted.
  bool has_scenario = false;
  CampaignState scenario;
  /// Cluster surface. Set on every frame the campaign engine writes — a
  /// plain campaign's is a one-mesh cluster frame — and required by its
  /// resume: a frame with has_cluster unset decodes but does not resume.
  bool has_cluster = false;
  ClusterState cluster;
};

/// Payload codec (no framing). decode returns nullopt on truncation, a
/// refused count, or bytes left over after the layout; framing, CRC and the
/// version field are the file layer's job.
void encode_checkpoint(const ServingCheckpoint& ckpt,
                       common::ByteWriter& out);
std::optional<ServingCheckpoint> decode_checkpoint(common::ByteReader& in);

/// Double-buffered atomic checkpoint file pair (`<base>.a` / `<base>.b`).
/// Construction scans existing slots so sequence numbers keep increasing
/// across process restarts and the next write targets the older slot.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(std::string base_path);

  /// Serialize + frame `ckpt` (its `sequence` is overwritten with the next
  /// number) and atomically replace the older slot. Returns false on I/O
  /// failure (the previous slots are untouched).
  bool write(ServingCheckpoint& ckpt);

  std::uint64_t last_sequence() const noexcept { return sequence_; }
  const std::string& base_path() const noexcept { return base_; }

 private:
  std::string base_;
  std::uint64_t sequence_ = 0;
  int next_slot_ = 0;  ///< 0 = ".a", 1 = ".b"
};

/// Parse and validate one checkpoint file: header magic/version, payload
/// size, CRC, then payload decode. nullopt on any failure.
std::optional<ServingCheckpoint> load_checkpoint_file(
    const std::string& path);

/// Load the newest valid checkpoint of the `<base>.a`/`<base>.b` pair. A
/// corrupt or torn slot is skipped and the other slot is used — this is the
/// crash-fallback path the fuzz tests exercise.
std::optional<ServingCheckpoint> load_latest_checkpoint(
    const std::string& base_path);

}  // namespace odin::core
