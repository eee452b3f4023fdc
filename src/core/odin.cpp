#include "core/odin.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/binary_io.hpp"
#include "core/accuracy.hpp"
#include "policy/serialization.hpp"
#include "reram/fault_injection.hpp"

namespace odin::core {

namespace {

/// Largest constraint excess the accuracy guardrail tolerates: the excess x
/// at which ideal * (1 - loss(x)) falls to the floor, inverted through the
/// surrogate's saturating ramp. Unbounded when even the saturated loss
/// keeps accuracy above the floor.
double guardrail_excess(const FaultPolicy& fp, const AccuracyParams& acc) {
  if (fp.ideal_accuracy <= 0.0)
    return std::numeric_limits<double>::infinity();
  const double max_loss = 1.0 - fp.accuracy_floor / fp.ideal_accuracy;
  if (max_loss <= 0.0) return 0.0;
  if (max_loss >= acc.max_drop)
    return std::numeric_limits<double>::infinity();
  return acc.excess_saturation *
         std::pow(max_loss / acc.max_drop, 1.0 / acc.exponent);
}

}  // namespace

OdinController::OdinController(const ou::MappedModel& model,
                               const ou::NonIdealityModel& nonideal,
                               const ou::OuCostModel& cost,
                               policy::OuPolicy policy, OdinConfig config,
                               reram::FaultInjector* faults)
    : model_(&model),
      nonideal_(&nonideal),
      cost_(&cost),
      grid_(model.crossbar_size()),
      nf_cache_(nonideal, grid_),
      policy_(std::move(policy)),
      buffer_(config.buffer_capacity),
      config_(config),
      faults_(faults) {
  assert(policy_.grid().crossbar_size() == model.crossbar_size());
  assert(config_.fault.max_program_attempts >= 1);
  // A pre-worn device (e.g. inherited across a tenant switch) starts from
  // its current measured health, not from a pristine assumption.
  if (faults_ != nullptr) {
    health_fraction_ = faults_->fault_fraction();
    retired_seen_ = faults_->crossbars_retired();
  }
}

common::EnergyLatency OdinController::full_reprogram_cost() const {
  common::EnergyLatency total;
  for (std::size_t j = 0; j < model_->layer_count(); ++j)
    total += cost_->reprogram_cost(model_->mapping(j));
  return total;
}

RunResult OdinController::run_inference(double t_s,
                                        common::Deadline* deadline) {
  assert(t_s >= programmed_at_s_);
  RunResult run;
  run.time_s = t_s;

  const int layer_count = static_cast<int>(model_->layer_count());
  const FaultPolicy& fp = config_.fault;
  const double t0 = nonideal_->device().t0_s;
  const double burst =
      faults_ != nullptr ? faults_->drift_time_multiplier(t_s) : 1.0;
  double elapsed = t_s - programmed_at_s_;
  double fault_nf = fp.fault_nf_weight * health_fraction_;

  // Algorithm 1, lines 7-8, fault-aware: drift is device-global, so if the
  // most drift-tolerant configuration fails for the least sensitive layer,
  // no layer has a feasible OU. Reprogramming resets the drift clock — but
  // only helps when the *measured* permanent-fault floor leaves headroom at
  // a fresh clock; otherwise every campaign would be wasted wear and the
  // loop would reprogram forever (the livelock this policy removes).
  bool reprogram_due = nonideal_->reprogram_required(elapsed * burst, grid_,
                                                     1.0, fault_nf,
                                                     eta_scale_);
  // Wear-aware deferral: on a wear-hot array, every campaign spends scarce
  // remaining lifetime. Grant one extra eta step (fp.wear_defer_eta) before
  // paying for it — if the drift fits the relaxed budget, serve this run on
  // the drifted array and leave the campaign due. Bounded by construction:
  // once drift exceeds even the relaxed budget, the campaign runs.
  if (reprogram_due && !degraded_ && faults_ != nullptr &&
      faults_->wear_hot() &&
      !nonideal_->reprogram_required(elapsed * burst, grid_, 1.0, fault_nf,
                                     eta_scale_ * fp.wear_defer_eta)) {
    run.wear_deferred_reprogram = true;
    ++wear_deferred_reprograms_;
    reprogram_due = false;
  }
  if (reprogram_due) {
    const bool recoverable =
        !degraded_ &&
        !nonideal_->reprogram_required(t0, grid_, 1.0, fault_nf, 1.0);
    // Deadline gate: a reprogram campaign is the single most expensive
    // thing a run can do. When the remaining budget cannot absorb even the
    // first attempt's latency, defer the campaign — serve this run
    // best-effort on the most drift-tolerant corner of the drifted array
    // (degraded_ is NOT set; the device is healthy, just out of time) and
    // leave the campaign due for a run with more headroom.
    const bool deferred = recoverable && deadline != nullptr &&
                          !deadline->allows(full_reprogram_cost().latency_s);
    if (deferred) run.deadline_deferred_reprogram = true;
    if (recoverable && !deferred) {
      run.reprogrammed = true;
      ++reprogram_count_;
      const common::EnergyLatency attempt = full_reprogram_cost();
      run.reprogram += attempt;
      if (deadline != nullptr) deadline->charge(attempt.latency_s);
      bool converged = faults_ == nullptr || faults_->program_campaign();
      int attempts = 1;
      // Bounded retries with escalating verify windows: each retry is a
      // full write-verify campaign (it wears the array again) whose
      // latency grows by the backoff factor. Under a deadline each retry
      // must also fit the remaining budget — when it no longer does, the
      // loop gives up early (best-effort: the array keeps whatever the
      // last campaign achieved; the controller is not marked degraded).
      while (!converged && attempts < fp.max_program_attempts) {
        common::EnergyLatency retry = attempt;
        retry.latency_s *=
            std::pow(fp.retry_backoff, static_cast<double>(attempts));
        if (deadline != nullptr && !deadline->allows(retry.latency_s)) {
          run.deadline_stopped_retries = true;
          break;
        }
        run.reprogram += retry;
        if (deadline != nullptr) deadline->charge(retry.latency_s);
        converged = faults_->program_campaign();
        ++attempts;
      }
      run.program_retries = attempts - 1;
      retry_count_ += run.program_retries;
      programmed_at_s_ = t_s;
      elapsed = t0;
      // Post-program read-verify: refresh the measured fault fraction.
      if (faults_ != nullptr) {
        health_fraction_ = faults_->fault_fraction();
        fault_nf = fp.fault_nf_weight * health_fraction_;
        // Proactive retirement: a campaign that exhausted the spare pool
        // retired the crossbar and migrated the tenant to a fresh array
        // (FaultInjector swaps in place). Migration clears the degradation
        // ladder — the relaxations earned on the dying array do not apply
        // to the new one.
        if (faults_->crossbars_retired() > retired_seen_) {
          retired_seen_ = faults_->crossbars_retired();
          run.crossbar_retired = true;
          degraded_ = false;
          eta_scale_ = 1.0;
        }
      }
      if (!converged) {
        run.write_verify_failed = true;
        // Exhausting every allowed attempt means the writes themselves do
        // not converge — permanent damage, so degrade. Stopping because
        // the *deadline* ran out says nothing about the device; the next
        // unhurried run simply retries.
        if (!run.deadline_stopped_retries) degraded_ = true;
      }
      // Livelock cap: if the freshly programmed array still violates eta,
      // or it is over its stuck-cell budget, another campaign cannot help —
      // degrade instead of reprogramming again next run.
      if (nonideal_->reprogram_required(t0, grid_, 1.0, fault_nf, 1.0) ||
          health_fraction_ > fp.stuck_cell_budget)
        degraded_ = true;
    } else if (!recoverable) {
      degraded_ = true;
    }
    if (degraded_ &&
        nonideal_->reprogram_required(elapsed * burst, grid_, 1.0, fault_nf,
                                      eta_scale_)) {
      // Controlled eta-relaxation: widen the budgets step by step until the
      // minimum OU is admitted, bounded by the hard ceiling and by the
      // accuracy guardrail (relaxation admits configurations whose
      // constraint excess reaches (scale - 1) * eta, and the surrogate maps
      // that excess to an accuracy drop).
      const AccuracyParams acc{.ideal_accuracy = fp.ideal_accuracy};
      const double excess_cap = guardrail_excess(fp, acc);
      const double scale_cap =
          std::min(fp.eta_relax_max,
                   1.0 + excess_cap / nonideal_->params().eta_total);
      while (eta_scale_ < scale_cap &&
             nonideal_->reprogram_required(elapsed * burst, grid_, 1.0,
                                           fault_nf, eta_scale_)) {
        eta_scale_ = std::min(eta_scale_ * fp.eta_relax_step, scale_cap);
      }
      if (nonideal_->reprogram_required(elapsed * burst, grid_, 1.0,
                                        fault_nf, eta_scale_))
        run.accuracy_floor_hit = true;  // guardrail bound before feasibility
    }
  }
  run.elapsed_s = elapsed;
  run.degraded = degraded_;
  if (degraded_) ++degraded_runs_;
  run.fault_fraction = health_fraction_;
  run.eta_scale = eta_scale_;
  // Surrogate accuracy of this run: the minimum OU's excess over the
  // *unrelaxed* budget (relaxation changes what is admitted, not the
  // physics) through the saturating loss ramp.
  {
    const AccuracyModel acc_model(
        AccuracyParams{.ideal_accuracy = fp.ideal_accuracy});
    const double min_total =
        nonideal_->total_nf(elapsed * burst, grid_.min_config());
    const double excess = std::max(
        0.0, min_total + fault_nf - nonideal_->params().eta_total);
    run.estimated_accuracy =
        fp.ideal_accuracy * (1.0 - acc_model.loss_from_excess(excess));
  }

  const double drift_s = elapsed * burst;  ///< drift-effective elapsed time
  nf_cache_.rebuild(drift_s);

  run.decisions.reserve(model_->layer_count());
  for (std::size_t j = 0; j < model_->layer_count(); ++j) {
    const auto& layer = model_->model().layers[j];
    const policy::Features phi =
        policy::extract_features(layer, layer_count, drift_s);

    LayerDecision decision;
    decision.policy_choice = policy_.predict(phi);  // line 5

    ou::LayerContext ctx{
        .mapping = &model_->mapping(j),
        .cost = cost_,
        .nonideal = nonideal_,
        .grid = &grid_,
        .cache = &nf_cache_,
        .elapsed_s = drift_s,
        .sensitivity = nonideal_->layer_sensitivity(layer.index, layer_count),
        .nf_floor = fault_nf,
        .eta_scale = eta_scale_,
        .deadline = deadline,
    };

    // Entropy-gate extension: a confident, feasible policy prediction is
    // executed without invoking the search (and produces no training
    // example — the gate only opens when the policy has converged). The
    // gate stays closed while a promotion is on probation: probation is an
    // audit of the freshly promoted policy, and a confidently *wrong*
    // policy (e.g. one retrained inside a drift burst) would otherwise
    // skip the very searches that expose its mispredictions.
    const bool gated =
        config_.entropy_gate >= 0.0 && probation_left_ == 0 &&
        policy_.prediction_entropy(phi) < config_.entropy_gate &&
        ctx.feasible(decision.policy_choice);
    if (gated) {
      decision.executed = decision.policy_choice;
      decision.evaluations = 0;
      ++run.searches_skipped;
    } else {
      const ou::SearchResult best =  // line 6
          config_.search == SearchKind::kExhaustive
              ? ou::exhaustive_search(ctx)
              : ou::resource_bounded_search(ctx, decision.policy_choice,
                                            config_.search_steps);
      decision.evaluations = best.evaluations;
      if (best.truncated) ++run.searches_truncated;
      // When healthy and unhurried, a feasible config always exists here
      // (reprogramming was handled above and the sensitivity-scaled IR
      // constraint admits the minimum OU). A degraded array whose
      // relaxation was capped by the accuracy guardrail can leave the
      // whole grid infeasible, a deferred reprogram leaves it drifted past
      // eta, and a truncated search may simply not have reached a feasible
      // point — in all three the run still completes on the most
      // fault-tolerant corner.
      assert(best.found || degraded_ || best.truncated ||
             run.deadline_deferred_reprogram);
      decision.executed = best.found ? best.best : grid_.min_config();
    }
    decision.mismatch = decision.executed != decision.policy_choice;

    run.inference +=
        cost_->layer_cost(ctx.mapping->counts(decision.executed),
                          decision.executed, layer.activation_sparsity)
            .total();

    if (decision.mismatch) {  // lines 9-10
      ++run.mismatches;
      buffer_.add(phi, decision.executed);
    }
    run.decisions.push_back(decision);
  }

  observe_mismatch_rate(run, layer_count);
  // A controller on probation defers retraining until the verdict on the
  // last promotion is in (overflowing examples are dropped and counted),
  // so a rollback target is never itself an unvetted policy.
  if (probation_left_ == 0)
    maybe_update_policy(run, drift_s, fault_nf);  // line 11, guarded
  run.buffer_dropped = buffer_.dropped();
  return run;
}

void OdinController::observe_mismatch_rate(RunResult& run, int layer_count) {
  const GuardPolicy& gp = config_.guard;
  if (probation_left_ > 0) {
    probation_mismatches_ += run.mismatches;
    probation_layers_ += layer_count;
    if (--probation_left_ == 0) {
      const double rate =
          static_cast<double>(probation_mismatches_) /
          static_cast<double>(std::max<long long>(probation_layers_, 1));
      const double threshold = std::max(
          gp.rollback_rate_floor, gp.rollback_rate_factor * pre_update_rate_);
      if (rate > threshold && last_good_policy_.has_value()) {
        // The promotion looked fine in shadow but mispredicts massively in
        // live traffic (e.g. it was trained and evaluated inside a drift
        // burst that has since passed): reinstate the last-known-good
        // policy and quarantine the batch that taught the bad behaviour.
        policy_ = last_good_policy_->clone();
        buffer_.quarantine_batch(last_update_batch_);
        ++updates_rolled_back_;
        run.update_rolled_back = true;
        mismatch_rate_ema_ = pre_update_rate_;
      }
      last_good_policy_.reset();
      last_update_batch_.clear();
      probation_mismatches_ = probation_layers_ = 0;
    }
    return;
  }
  const double run_rate = layer_count > 0
                              ? static_cast<double>(run.mismatches) /
                                    static_cast<double>(layer_count)
                              : 0.0;
  mismatch_rate_ema_ =
      (1.0 - gp.rate_alpha) * mismatch_rate_ema_ + gp.rate_alpha * run_rate;
}

void OdinController::maybe_update_policy(RunResult& run, double drift_s,
                                         double fault_nf) {
  if (!buffer_.full()) return;
  const GuardPolicy& gp = config_.guard;
  if (!gp.enabled) {  // vanilla Algorithm 1: promote unconditionally
    policy_.train(buffer_.to_dataset(grid_), config_.update_options);
    buffer_.reset();
    ++update_count_;
    run.policy_updated = true;
    return;
  }

  // Holdout split: every stride-th entry is withheld from the retrain and
  // scores candidate-vs-incumbent label agreement.
  const std::vector<policy::ReplayBuffer::Entry> batch = buffer_.entries();
  const int stride = std::max(
      2, static_cast<int>(std::lround(
             1.0 / std::clamp(gp.holdout_fraction, 0.05, 0.5))));
  nn::Dataset train_data;
  std::vector<policy::ReplayBuffer::Entry> holdout;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (static_cast<int>(i % static_cast<std::size_t>(stride)) ==
        stride - 1)
      holdout.push_back(batch[i]);
    else
      policy::OuPolicy::append_example(train_data, batch[i].features, grid_,
                                       batch[i].best);
  }

  policy::OuPolicy candidate = policy_.clone();
  if (train_data.size() > 0)
    candidate.train(train_data, config_.update_options);

  // Shadow evaluation: holdout agreement plus the current tenant's layer
  // set at the current drift (the exact contexts the next runs will see).
  const int layer_count = static_cast<int>(model_->layer_count());
  struct Score {
    double holdout_acc = 1.0;
    double edp = 0.0;
    double feasible_rate = 1.0;
    bool sane = true;
  };
  auto score = [&](policy::OuPolicy& p) {
    Score s;
    if (!holdout.empty()) {
      int agree = 0;
      for (const auto& e : holdout)
        if (p.predict(e.features) == e.best) ++agree;
      s.holdout_acc =
          static_cast<double>(agree) / static_cast<double>(holdout.size());
    }
    int feasible = 0;
    for (std::size_t j = 0; j < model_->layer_count(); ++j) {
      const auto& layer = model_->model().layers[j];
      const policy::Features phi =
          policy::extract_features(layer, layer_count, drift_s);
      const ou::OuConfig cfg = p.predict(phi);
      const ou::LayerContext ctx{
          .mapping = &model_->mapping(j),
          .cost = cost_,
          .nonideal = nonideal_,
          .grid = &grid_,
          .cache = &nf_cache_,
          .elapsed_s = drift_s,
          .sensitivity =
              nonideal_->layer_sensitivity(layer.index, layer_count),
          .nf_floor = fault_nf,
          .eta_scale = eta_scale_,
      };
      s.edp += ctx.edp(cfg);
      if (ctx.feasible(cfg)) ++feasible;
      const double entropy = p.prediction_entropy(phi);
      s.sane = s.sane && std::isfinite(entropy) && entropy >= 0.0 &&
               entropy <= 1.0 + 1e-9;
    }
    s.feasible_rate = layer_count > 0 ? static_cast<double>(feasible) /
                                            static_cast<double>(layer_count)
                                      : 1.0;
    s.sane = s.sane && std::isfinite(s.edp);
    return s;
  };

  const Score inc = score(policy_);
  const Score cand = score(candidate);
  const bool accepted =
      candidate.weights_finite() && cand.sane &&
      cand.holdout_acc >= inc.holdout_acc - gp.holdout_slack &&
      cand.edp <= inc.edp * (1.0 + gp.max_edp_regression) &&
      cand.feasible_rate >= inc.feasible_rate - gp.max_feasibility_drop;

  if (accepted) {
    last_good_policy_ = policy_.clone();
    last_update_batch_ = batch;
    policy_ = std::move(candidate);
    buffer_.reset();
    ++update_count_;
    run.policy_updated = true;
    probation_left_ = std::max(gp.probation_runs, 0);
    probation_mismatches_ = probation_layers_ = 0;
    pre_update_rate_ = mismatch_rate_ema_;
    if (probation_left_ == 0) {  // probation disabled: promote outright
      last_good_policy_.reset();
      last_update_batch_.clear();
    }
  } else {
    buffer_.quarantine_contents();
    ++updates_rejected_;
    run.update_rejected = true;
  }
}

ControllerSnapshot OdinController::snapshot() {
  ControllerSnapshot s;
  s.programmed_at_s = programmed_at_s_;
  s.reprogram_count = reprogram_count_;
  s.update_count = update_count_;
  s.health_fraction = health_fraction_;
  s.degraded = degraded_;
  s.eta_scale = eta_scale_;
  s.retry_count = retry_count_;
  s.degraded_runs = degraded_runs_;
  s.wear_deferred_reprograms = wear_deferred_reprograms_;
  s.retired_seen = retired_seen_;
  s.updates_rejected = updates_rejected_;
  s.updates_rolled_back = updates_rolled_back_;
  s.probation_left = probation_left_;
  s.probation_mismatches = probation_mismatches_;
  s.probation_layers = probation_layers_;
  s.pre_update_rate = pre_update_rate_;
  s.mismatch_rate_ema = mismatch_rate_ema_;
  s.buffer_entries = buffer_.entries();
  s.buffer_quarantine = buffer_.quarantined_entries();
  s.last_update_batch = last_update_batch_;
  s.buffer_dropped = buffer_.dropped();
  s.buffer_quarantine_hits = buffer_.quarantine_hits();
  common::ByteWriter policy_bytes;
  policy::save_policy_binary(policy_, policy_bytes);
  s.policy_blob = policy_bytes.bytes();
  if (last_good_policy_.has_value()) {
    common::ByteWriter last_good_bytes;
    policy::save_policy_binary(*last_good_policy_, last_good_bytes);
    s.last_good_blob = last_good_bytes.bytes();
  }
  return s;
}

bool OdinController::restore(const ControllerSnapshot& s) {
  for (const auto* entries :
       {&s.buffer_entries, &s.buffer_quarantine, &s.last_update_batch})
    for (const policy::ReplayBuffer::Entry& e : *entries)
      if (grid_.level_of(e.best.rows) < 0 || grid_.level_of(e.best.cols) < 0)
        return false;
  common::ByteReader policy_bytes(s.policy_blob);
  std::optional<policy::OuPolicy> restored =
      policy::load_policy_binary(policy_bytes);
  if (!restored.has_value() ||
      restored->grid().crossbar_size() != grid_.crossbar_size())
    return false;
  std::optional<policy::OuPolicy> last_good;
  if (!s.last_good_blob.empty()) {
    common::ByteReader last_good_bytes(s.last_good_blob);
    last_good = policy::load_policy_binary(last_good_bytes);
    if (!last_good.has_value() ||
        last_good->grid().crossbar_size() != grid_.crossbar_size())
      return false;
  }
  policy_ = std::move(*restored);
  last_good_policy_ = std::move(last_good);
  programmed_at_s_ = s.programmed_at_s;
  reprogram_count_ = s.reprogram_count;
  update_count_ = s.update_count;
  health_fraction_ = s.health_fraction;
  degraded_ = s.degraded;
  eta_scale_ = s.eta_scale;
  retry_count_ = s.retry_count;
  degraded_runs_ = s.degraded_runs;
  wear_deferred_reprograms_ = s.wear_deferred_reprograms;
  retired_seen_ = s.retired_seen;
  updates_rejected_ = s.updates_rejected;
  updates_rolled_back_ = s.updates_rolled_back;
  probation_left_ = s.probation_left;
  probation_mismatches_ = s.probation_mismatches;
  probation_layers_ = s.probation_layers;
  pre_update_rate_ = s.pre_update_rate;
  mismatch_rate_ema_ = s.mismatch_rate_ema;
  buffer_.restore(s.buffer_entries, s.buffer_quarantine, s.buffer_dropped,
                  s.buffer_quarantine_hits);
  last_update_batch_ = s.last_update_batch;
  return true;
}

}  // namespace odin::core
