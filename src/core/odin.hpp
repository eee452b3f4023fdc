// OdinController — the online learning loop of Algorithm 1, extended with
// fault-tolerant serving.
//
// Per inference run at wall-clock time t:
//   1. If even the minimum OU violates the non-ideality constraint for the
//      elapsed drift, reprogram the ReRAM cells (cost accounted, drift clock
//      reset) before inferencing (lines 7-8) — but only when a fresh
//      programming pass can actually restore feasibility. Measured permanent
//      faults (stuck cells, dead peripheral lines) survive every write, so
//      once the post-program read-verify shows the fresh array still
//      violating eta, the controller stops reprogramming (no livelock),
//      enters degraded mode, and serves the rest of the horizon under a
//      bounded eta-relaxation schedule with an accuracy guardrail.
//   2. For each layer: extract features Phi, predict (R,C) with the current
//      policy (line 5), run the best-OU search (line 6; resource-bounded by
//      default, exhaustive optionally), execute the layer with the best
//      configuration, and on a policy/search mismatch push (Phi, (R,C)*)
//      into the training buffer (lines 9-10).
//   3. When the buffer fills, retrain the policy on its contents and reset
//      it (line 11).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/binary_io.hpp"
#include "common/deadline.hpp"
#include "common/units.hpp"
#include "ou/cost_model.hpp"
#include "ou/mapped_model.hpp"
#include "ou/nonideality.hpp"
#include "ou/search.hpp"
#include "policy/buffer.hpp"
#include "policy/policy.hpp"

namespace odin::reram {
class FaultInjector;
}

namespace odin::core {

enum class SearchKind { kResourceBounded, kExhaustive };

/// Recovery policy for permanent device damage (stuck cells, dead lines,
/// non-converging writes). All thresholds act on the *measured* health the
/// post-program read-verify reports, never on the injector's ground truth.
struct FaultPolicy {
  /// Write-verify attempts per reprogram before giving up (>= 1).
  int max_program_attempts = 3;
  /// Each retry escalates its verify window: attempt k's latency is the
  /// base programming latency x backoff^k (energy is per-campaign).
  double retry_backoff = 2.0;
  /// Measured fault fraction above which the array is marked degraded and
  /// further reprogramming (which wears it further) is withheld.
  double stuck_cell_budget = 0.02;
  /// Conversion from measured stuck-cell fraction to the OU-independent
  /// conductance-error floor entering the feasibility checks (a stuck cell
  /// is O(1) wrong relative to G_ON, so ~1).
  double fault_nf_weight = 1.0;
  /// Degraded-mode eta relaxation: multiplicative step per escalation and
  /// the hard ceiling on the cumulative factor.
  double eta_relax_step = 1.5;
  double eta_relax_max = 4.0;
  /// Accuracy guardrail: relaxation stops widening the budgets once the
  /// constraint excess it would admit drives the estimated accuracy (via
  /// the core/accuracy surrogate at `ideal_accuracy`) below this floor.
  double ideal_accuracy = 0.92;
  double accuracy_floor = 0.75;
  /// Wear-aware reprogram deferral: when the device reports wear-hot (its
  /// leveled wear consumed the wear budget's share of projected lifetime),
  /// a due campaign is deferred as long as the drift still fits inside one
  /// extra eta-relaxation step of this factor. Once drift exceeds even the
  /// relaxed budget the campaign runs — one bounded step, so deferral can
  /// never livelock into serving an infeasible array.
  double wear_defer_eta = 1.25;
};

/// Guardrail for the online policy update (extension over Algorithm 1's
/// unconditional line-11 retrain). A retrained candidate is first
/// shadow-evaluated against the incumbent — on a holdout slice of the
/// replay buffer and on the current tenant's layer set at the current
/// drift — and promoted only when it does not regress; a promoted
/// candidate then serves a probation window during which a mismatch-rate
/// explosion rolls the controller back to the last-known-good policy.
/// Rejected and rolled-back batches are quarantined in the replay buffer
/// so poisoned supervision (e.g. labels recorded inside a drift burst) is
/// not re-learned. Off by default: vanilla Algorithm 1 promotes every
/// retrain, which keeps the paper-faithful loop bit-identical.
struct GuardPolicy {
  bool enabled = false;
  /// Fraction of buffer entries held out of the retrain and used to score
  /// candidate vs incumbent label agreement.
  double holdout_fraction = 0.25;
  /// Candidate holdout accuracy may fall below the incumbent's by at most
  /// this before the update is rejected (the candidate trained on the
  /// batch should at least match the incumbent on held-out labels).
  double holdout_slack = 0.10;
  /// Shadow EDP over the tenant's layer set: the candidate's predicted
  /// configurations may cost at most (1 + this) x the incumbent's.
  double max_edp_regression = 0.05;
  /// DeltaG-feasibility rate over the layer set: the candidate's rate may
  /// fall below the incumbent's by at most this.
  double max_feasibility_drop = 0.0;
  /// Post-promotion probation: number of runs to watch before the update
  /// is declared last-known-good.
  int probation_runs = 6;
  /// Roll back when the probation mismatch rate exceeds
  /// max(rollback_rate_floor, rollback_rate_factor x pre-update EMA rate).
  double rollback_rate_factor = 3.0;
  double rollback_rate_floor = 0.60;
  /// Smoothing of the trailing per-run mismatch-rate EMA.
  double rate_alpha = 0.2;
};

struct OdinConfig {
  SearchKind search = SearchKind::kResourceBounded;
  int search_steps = 3;  ///< the paper's K
  std::size_t buffer_capacity = 50;
  nn::TrainOptions update_options{.epochs = 100, .batch_size = 10,
                                  .learning_rate = 5e-3,
                                  .shuffle_seed = 0x0d1e};
  /// Entropy-gated search (extension, see bench/ablation_entropy_gate):
  /// when the policy's prediction entropy is below this threshold and its
  /// choice is feasible, the choice is executed without running the search
  /// at all. Negative disables the gate (vanilla Algorithm 1).
  double entropy_gate = -1.0;
  FaultPolicy fault{};
  GuardPolicy guard{};
};

struct LayerDecision {
  ou::OuConfig policy_choice;
  ou::OuConfig executed;  ///< the search's best (what actually runs)
  bool mismatch = false;
  int evaluations = 0;
};

struct RunResult {
  double time_s = 0.0;
  double elapsed_s = 0.0;  ///< since last programming, after any reprogram
  bool reprogrammed = false;
  bool policy_updated = false;  ///< a retrain was promoted this run
  /// Guardrail surface: a retrain was rejected by the shadow evaluation /
  /// a promoted update was reverted at the end of its probation window.
  bool update_rejected = false;
  bool update_rolled_back = false;
  std::size_t buffer_dropped = 0;  ///< cumulative buffer-full drops so far
  int mismatches = 0;
  int searches_skipped = 0;  ///< layers served by the entropy gate
  /// Fault-recovery surface of this run.
  bool degraded = false;            ///< controller is in degraded mode
  bool write_verify_failed = false; ///< all programming attempts exhausted
  bool accuracy_floor_hit = false;  ///< guardrail capped the eta relaxation
  int program_retries = 0;          ///< extra write-verify attempts this run
  double fault_fraction = 0.0;      ///< measured health (last read-verify)
  double eta_scale = 1.0;           ///< relaxation factor in effect
  double estimated_accuracy = 0.0;  ///< surrogate accuracy for this run
  /// Deadline surface (all false/0 when run without a deadline).
  /// A required reprogram campaign was deferred because its latency did
  /// not fit the remaining budget; the run was served best-effort on the
  /// drifted array instead (the campaign stays due for a later run).
  bool deadline_deferred_reprogram = false;
  /// The write-verify retry loop stopped early because the next escalated
  /// retry no longer fit the budget (the array may be unverified, but the
  /// controller is NOT ratcheted into degraded mode for it).
  bool deadline_stopped_retries = false;
  int searches_truncated = 0;  ///< layer searches cut short by the deadline
  /// Wear-leveling surface (all false/0 without a leveling-enabled
  /// FaultInjector attached).
  /// A due campaign was deferred because the array is wear-hot and one
  /// extra eta step still admits the drift (the campaign stays due).
  bool wear_deferred_reprogram = false;
  /// A campaign this run exhausted the spare pool: the crossbar was retired
  /// and the tenant migrated to a fresh array (degradation ladder cleared).
  bool crossbar_retired = false;
  /// Cumulative leveling totals after this run (injector-wide).
  int rows_remapped = 0;
  int spares_remaining = 0;
  int crossbars_retired = 0;
  long long writes_leveled = 0;
  common::EnergyLatency inference;
  common::EnergyLatency reprogram;
  std::vector<LayerDecision> decisions;  ///< one per layer
};

/// Resumable controller state: everything run_inference mutates, with the
/// policies captured as binary blobs (policy/serialization). Produced by
/// OdinController::snapshot and consumed by restore; the serving checkpoint
/// (core/checkpoint) embeds one of these verbatim.
struct ControllerSnapshot {
  double programmed_at_s = 0.0;
  int reprogram_count = 0;
  int update_count = 0;
  double health_fraction = 0.0;
  bool degraded = false;
  double eta_scale = 1.0;
  int retry_count = 0;
  int degraded_runs = 0;
  /// Wear-leveling state. Written by the ServingCheckpoint walk, not the
  /// one below (core/checkpoint.cpp says why).
  int wear_deferred_reprograms = 0;
  int retired_seen = 0;
  /// Guardrail state.
  int updates_accepted = 0;
  int updates_rejected = 0;
  int updates_rolled_back = 0;
  int probation_left = 0;
  long long probation_mismatches = 0;
  long long probation_layers = 0;
  double pre_update_rate = 0.0;
  double mismatch_rate_ema = 0.0;
  /// Replay-buffer state.
  std::vector<policy::ReplayBuffer::Entry> buffer_entries;
  std::vector<policy::ReplayBuffer::Entry> buffer_quarantine;
  std::vector<policy::ReplayBuffer::Entry> last_update_batch;
  std::size_t buffer_dropped = 0;
  std::size_t buffer_quarantine_hits = 0;
  /// Policies (save_policy_binary blobs; last_good empty when absent).
  std::string policy_blob;
  std::string last_good_blob;
};

/// Wire layout (common/binary_io.hpp), replay entries included.
template <typename S, common::MaybeConst<ControllerSnapshot> C>
void fields(S& s, C& c) {
  s.field(c.programmed_at_s);
  s.field(c.reprogram_count);
  s.field(c.update_count);
  s.field(c.health_fraction);
  s.field(c.degraded);
  s.field(c.eta_scale);
  s.field(c.retry_count);
  s.field(c.degraded_runs);
  s.field(c.updates_accepted);
  s.field(c.updates_rejected);
  s.field(c.updates_rolled_back);
  s.field(c.probation_left);
  s.field(c.probation_mismatches);
  s.field(c.probation_layers);
  s.field(c.pre_update_rate);
  s.field(c.mismatch_rate_ema);
  const auto entry = [](auto& st, auto& e) {
    st.field(e.features.layer_position);
    st.field(e.features.sparsity);
    st.field(e.features.kernel);
    st.field(e.features.log_time);
    st.field(e.best.rows);
    st.field(e.best.cols);
  };
  s.seq(c.buffer_entries, common::kMaxSeq, entry);
  s.seq(c.buffer_quarantine, common::kMaxSeq, entry);
  s.seq(c.last_update_batch, common::kMaxSeq, entry);
  s.field(c.buffer_dropped);
  s.field(c.buffer_quarantine_hits);
  s.field(c.policy_blob);
  s.field(c.last_good_blob);
}

class OdinController {
 public:
  /// `policy` is typically the offline-bootstrapped policy; Odin owns and
  /// keeps adapting it. All referenced objects must outlive the controller.
  /// `faults` (optional, caller-owned) is the device's fault schedule: each
  /// programming attempt advances its wear, and its read-verify health
  /// feeds the feasibility checks and the degradation policy.
  OdinController(const ou::MappedModel& model,
                 const ou::NonIdealityModel& nonideal,
                 const ou::OuCostModel& cost, policy::OuPolicy policy,
                 OdinConfig config = {},
                 reram::FaultInjector* faults = nullptr);

  /// One inference run at absolute time `t_s` (monotonically increasing
  /// across calls). Returns everything that happened during the run.
  /// `deadline` (optional, caller-owned) bounds the work this run may do:
  /// reprogram campaigns and retries that do not fit the remaining budget
  /// are deferred, and the per-layer search stops with its best-so-far
  /// configuration when the budget runs out. Null (the default) is the
  /// unbounded pre-resilience behaviour, bit for bit.
  RunResult run_inference(double t_s, common::Deadline* deadline = nullptr);

  int reprogram_count() const noexcept { return reprogram_count_; }
  int update_count() const noexcept { return update_count_; }
  double programmed_at_s() const noexcept { return programmed_at_s_; }
  /// Guardrail counters (accepted == update_count when the guard is off).
  int updates_accepted() const noexcept { return updates_accepted_; }
  int updates_rejected() const noexcept { return updates_rejected_; }
  int updates_rolled_back() const noexcept { return updates_rolled_back_; }
  /// Replay-buffer observability.
  std::size_t buffer_dropped() const noexcept { return buffer_.dropped(); }
  std::size_t buffer_quarantined() const noexcept {
    return buffer_.quarantined();
  }

  /// Capture / reinstate the full mutable state (crash-safe serving).
  /// restore returns false when a policy blob fails to decode or a replay
  /// entry (buffer, quarantine or last update batch) names an OU size off
  /// this controller's grid, which would become an out-of-range training
  /// label; the controller is left unchanged in that case.
  ControllerSnapshot snapshot();
  bool restore(const ControllerSnapshot& snap);
  /// Fault-recovery state.
  bool degraded() const noexcept { return degraded_; }
  int retry_count() const noexcept { return retry_count_; }
  int degraded_run_count() const noexcept { return degraded_runs_; }
  double measured_fault_fraction() const noexcept { return health_fraction_; }
  double eta_scale() const noexcept { return eta_scale_; }
  /// Reprograms deferred on a wear-hot array (0 without a leveling-enabled
  /// injector).
  int wear_deferred_reprograms() const noexcept {
    return wear_deferred_reprograms_;
  }

  /// Declare that the weights were (re)programmed at `t_s` by an external
  /// event (e.g. a tenant switch that remapped the arrays); the cost of
  /// that event is the caller's to account.
  void reset_drift_clock(double t_s) noexcept { programmed_at_s_ = t_s; }
  policy::OuPolicy& policy() noexcept { return policy_; }
  const ou::MappedModel& model() const noexcept { return *model_; }
  const ou::OuLevelGrid& grid() const noexcept { return grid_; }

  /// Total cost of reprogramming every layer of the model.
  common::EnergyLatency full_reprogram_cost() const;

 private:
  const ou::MappedModel* model_;
  const ou::NonIdealityModel* nonideal_;
  const ou::OuCostModel* cost_;
  ou::OuLevelGrid grid_;
  /// Per-drift-step memo of the NF factors, rebuilt at the top of each run
  /// and shared read-only by every layer's search.
  ou::NonIdealityCache nf_cache_;
  policy::OuPolicy policy_;
  policy::ReplayBuffer buffer_;
  OdinConfig config_;
  reram::FaultInjector* faults_ = nullptr;  ///< caller-owned, may be null
  double programmed_at_s_ = 0.0;
  int reprogram_count_ = 0;
  int update_count_ = 0;
  /// Measured device health (read-verify after the last programming pass).
  double health_fraction_ = 0.0;
  /// Degraded mode: reprogramming cannot restore feasibility (or the array
  /// is over its stuck-cell budget / write-verify stopped converging), so
  /// the controller serves under relaxed budgets instead of reprogramming.
  bool degraded_ = false;
  double eta_scale_ = 1.0;  ///< ratcheting relaxation factor (>= 1)
  int retry_count_ = 0;
  int degraded_runs_ = 0;
  /// Wear-leveling observation: campaigns deferred for wear, and the
  /// injector's retired-crossbar count already folded into this
  /// controller's state (a delta above it means a migration happened).
  int wear_deferred_reprograms_ = 0;
  int retired_seen_ = 0;
  /// Guardrail state (see GuardPolicy). The incumbent that a promotion
  /// displaced is kept until its successor survives probation; the batch
  /// that trained the promotion is kept so a rollback can quarantine it.
  int updates_accepted_ = 0;
  int updates_rejected_ = 0;
  int updates_rolled_back_ = 0;
  int probation_left_ = 0;
  long long probation_mismatches_ = 0;
  long long probation_layers_ = 0;
  double pre_update_rate_ = 0.0;
  double mismatch_rate_ema_ = 0.0;
  std::optional<policy::OuPolicy> last_good_policy_;
  std::vector<policy::ReplayBuffer::Entry> last_update_batch_;

  void observe_mismatch_rate(RunResult& run, int layer_count);
  void maybe_update_policy(RunResult& run, double drift_s, double fault_nf);
};

}  // namespace odin::core
