#include "core/serving.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <thread>

#include "arch/batching.hpp"
#include "common/cancellation.hpp"
#include "common/parallel.hpp"
#include "core/checkpoint.hpp"
#include "reram/fault_injection.hpp"

namespace odin::core {

void TenantStats::record_sojourn(double sojourn, std::size_t cap) {
  sojourn_sketch.add(sojourn);
  if (cap == 0 || sojourn_s.size() < cap)
    sojourn_s.push_back(sojourn);
  else
    ++sojourn_dropped;
}

double TenantStats::sojourn_percentile(double p) const {
  if (sojourn_dropped > 0) return sojourn_sketch.percentile(p);
  return percentile(sojourn_s, p);
}

double TenantStats::slack_percentile(double p) const {
  if (slo_s <= 0.0 || sojourn_s.empty()) return 0.0;
  return slo_s - sojourn_percentile(p);
}

common::EnergyLatency ServingResult::total() const noexcept {
  common::EnergyLatency t = programming;
  for (const TenantStats& s : tenants) t += s.inference + s.reprogram;
  return t;
}

int ServingResult::max_batch() const noexcept {
  int n = 0;
  for (const TenantStats& s : tenants) n = std::max(n, s.max_batch);
  return n;
}

double ServingResult::mean_batch_occupancy() const noexcept {
  const int formed = sum(&TenantStats::batches_formed);
  if (formed == 0) return 0.0;
  return static_cast<double>(sum(&TenantStats::batch_members)) /
         static_cast<double>(formed);
}

ServingWalk serving_walk(const ServingConfig& config) {
  ServingWalk walk;
  walk.schedule = config.schedule.empty() ? run_schedule(config.horizon)
                                          : config.schedule;
  const std::size_t runs = walk.schedule.size();
  assert(runs == static_cast<std::size_t>(config.horizon.runs));
  const auto segments =
      static_cast<std::size_t>(std::max(config.segments, 1));
  std::vector<std::size_t> sizes = config.segment_sizes;
  if (sizes.empty()) {
    sizes.assign(segments, runs / segments);
    sizes.back() += runs % segments;
  }
  assert(sizes.size() == segments);
  std::size_t start = 0;
  for (std::size_t n : sizes) {
    walk.bounds.emplace_back(start, start + n);
    start += n;
  }
  assert(start == runs);
  return walk;
}

namespace {

common::EnergyLatency full_programming_cost(const ou::MappedModel& model,
                                            const ou::OuCostModel& cost) {
  common::EnergyLatency total;
  for (std::size_t j = 0; j < model.layer_count(); ++j)
    total += cost.reprogram_cost(model.mapping(j));
  return total;
}

/// Cost of one degraded fallback serve: plain inference at a fixed
/// homogeneous OU — no search, no reprogram, no controller involvement.
common::EnergyLatency fallback_serve_cost(const ou::MappedModel& model,
                                          const ou::OuCostModel& cost,
                                          ou::OuConfig ou) {
  common::EnergyLatency total;
  for (std::size_t j = 0; j < model.layer_count(); ++j)
    total += cost
                 .layer_cost(model.mapping(j).counts(ou), ou,
                             model.model().layers[j].activation_sparsity)
                 .total();
  return total;
}

/// The fingerprint of a walk over `tenants` under `config` and `faults`:
/// stamped on every checkpoint the walk writes, and compared whole against
/// the checkpoint on resume.
ServingFingerprint serving_fingerprint(
    const std::vector<const ou::MappedModel*>& tenants,
    const ServingConfig& config, const reram::FaultInjector* faults) {
  ServingFingerprint fp;
  fp.segments = config.segments;
  fp.horizon_runs = config.horizon.runs;
  fp.t_start_s = config.horizon.t_start_s;
  fp.t_end_s = config.horizon.t_end_s;
  for (const ou::MappedModel* t : tenants)
    fp.tenant_names.push_back(t->model().name);
  if (faults != nullptr) {
    fp.has_faults = true;
    const reram::WearLevelingParams& lv = faults->params().leveling;
    fp.leveling_enabled = lv.enabled;
    if (lv.enabled) {
      fp.leveling_spare_rows = lv.resolved_spare_rows();
      fp.leveling_wear_budget = lv.resolved_wear_budget();
    }
  }
  const ResilienceConfig& res = config.resilience;
  if (res.enabled) {
    fp.has_resilience = true;
    fp.shed_policy = static_cast<std::int32_t>(res.shed);
    fp.queue_capacity = res.queue_capacity;
    fp.batching_enabled = res.batching.enabled;
    fp.batch_cap =
        res.batching.enabled ? res.batching.resolved_max_batch() : 1;
  }
  fp.fleet_shards = config.fleet_shards;
  fp.fleet_shard_index = config.fleet_shard_index;
  fp.service_models = config.service_models;
  return fp;
}

/// One driver for both the fresh and the resumed walk. `resume` (optional)
/// positions the walk mid-horizon: totals start from the checkpointed
/// result, the first segment skips its (already charged) switch
/// programming, and the controller state is reinstated verbatim. Returns
/// nullopt only when a resume checkpoint fails to reinstate.
std::optional<ServingResult> serve_odin_impl(
    std::vector<const ou::MappedModel*>& tenants,
    const ou::NonIdealityModel& nonideal, const ou::OuCostModel& cost,
    policy::OuPolicy initial_policy, const ServingConfig& config,
    reram::FaultInjector* faults, const ServingCheckpoint* resume) {
  assert(!tenants.empty());
  assert(config.service_models.empty() ||
         config.service_models.size() == tenants.size());
  ServingResult result;
  result.label = "Odin";
  result.tenants.resize(tenants.size());
  for (std::size_t i = 0; i < tenants.size(); ++i)
    result.tenants[i].name = tenants[i]->model().name;

  const ServingWalk walk = serving_walk(config);
  const std::vector<double>& schedule = walk.schedule;
  const auto& bounds = walk.bounds;

  // The serving walk itself is inherently sequential (the policy carries
  // its learning from segment to segment), but each segment's tenant-switch
  // programming cost is a pure per-layer sum — precompute the arms
  // concurrently and consume them in segment order.
  const auto switch_costs = common::parallel_transform(
      bounds.size(), 1, [&](std::size_t s) {
        return full_programming_cost(*tenants[s % tenants.size()], cost);
      });

  // --- Resilience serving state (inert while res.enabled is false) ---
  // The device is a single FIFO server: busy_until_s is when it frees up,
  // `pending` the bounded run queue of this segment's not-yet-served
  // arrivals. Breakers and the last-known-good fallback OU are per tenant
  // and persist across segments (and across checkpoints).
  const ResilienceConfig& res = config.resilience;
  // Batch formation (inert unless resilience AND batching are enabled):
  // drain time groups queued same-tenant runs into one pipelined pass.
  const bool batching = res.enabled && res.batching.enabled;
  const int batch_cap = batching ? res.batching.resolved_max_batch() : 1;
  std::vector<std::size_t> batch_scratch;      // members being formed
  std::vector<ou::OuConfig> batch_configs;     // per-layer pricing configs
  double busy_until_s = 0.0;
  std::deque<std::size_t> pending;
  std::vector<CircuitBreaker> breakers;
  std::vector<ou::OuConfig> fallback;
  std::optional<common::Watchdog> watchdog;
  common::CancellationToken token;
  if (res.enabled) {
    breakers.reserve(tenants.size());
    fallback.reserve(tenants.size());
    for (const ou::MappedModel* t : tenants) {
      breakers.emplace_back(res.breaker);
      fallback.push_back(ou::OuLevelGrid(t->crossbar_size()).min_config());
    }
    if (res.watchdog_bound_s > 0.0) watchdog.emplace();
  }

  // Wear-leveling segment baselines: the shared injector's counters at the
  // current segment's start, so the segment-end fold attributes only this
  // segment's deltas to its tenant. Restored from the checkpoint on a
  // mid-segment resume (the fold happens at segment end, after the resume).
  int seg_base_rows_remapped = 0;
  int seg_base_crossbars_retired = 0;
  long long seg_base_writes_leveled = 0;

  std::size_t s0 = 0;
  std::size_t i0 = 0;
  if (resume != nullptr) {
    result = resume->result;
    result.resumed = true;
    s0 = static_cast<std::size_t>(resume->segment);
    i0 = static_cast<std::size_t>(resume->next_run);
    if (s0 >= bounds.size() || i0 < bounds[s0].first ||
        i0 > bounds[s0].second)
      return std::nullopt;
    if (res.enabled) {
      busy_until_s = resume->busy_until_s;
      for (std::uint64_t j : resume->pending_runs) {
        // Only arrivals before the cursor can be queued.
        if (j >= i0) return std::nullopt;
        pending.push_back(static_cast<std::size_t>(j));
      }
      for (std::size_t i = 0; i < tenants.size(); ++i)
        breakers[i].restore(resume->breakers[i]);
      fallback = resume->fallback_ous;
    }
    seg_base_rows_remapped = resume->wear_seg_base_rows_remapped;
    seg_base_crossbars_retired = resume->wear_seg_base_crossbars_retired;
    seg_base_writes_leveled = resume->wear_seg_base_writes_leveled;
  }
  if (res.enabled)
    for (std::size_t i = 0; i < tenants.size(); ++i)
      result.tenants[i].slo_s = res.has_slo(i) ? res.slo_s(i) : 0.0;

  std::unique_ptr<CheckpointWriter> writer;
  if (!config.checkpoint.base_path.empty())
    writer = std::make_unique<CheckpointWriter>(config.checkpoint.base_path);
  const ServingFingerprint fingerprint =
      serving_fingerprint(tenants, config, faults);

  auto make_checkpoint = [&](std::size_t seg, std::size_t next_run,
                             OdinController& controller) {
    ServingCheckpoint ckpt;
    ckpt.segment = seg;
    ckpt.next_run = next_run;
    ckpt.fingerprint = fingerprint;
    ckpt.result = result;
    ckpt.controller = controller.snapshot();
    if (faults != nullptr) {
      ckpt.wear = faults->wear_state();
      ckpt.wear_seg_base_rows_remapped = seg_base_rows_remapped;
      ckpt.wear_seg_base_crossbars_retired = seg_base_crossbars_retired;
      ckpt.wear_seg_base_writes_leveled = seg_base_writes_leveled;
    }
    if (res.enabled) {
      ckpt.busy_until_s = busy_until_s;
      for (std::size_t j : pending)
        ckpt.pending_runs.push_back(static_cast<std::uint64_t>(j));
      for (const CircuitBreaker& b : breakers)
        ckpt.breakers.push_back(b.snapshot());
      ckpt.fallback_ous = fallback;
    }
    return ckpt;
  };

  int invocation_runs = 0;  ///< runs served by THIS process (max_runs cap)
  int runs_since_ckpt = 0;
  bool stopped = false;

  policy::OuPolicy policy = std::move(initial_policy);
  for (std::size_t s = s0; s < bounds.size() && !stopped; ++s) {
    const std::size_t tenant_idx = s % tenants.size();
    const ou::MappedModel& tenant = *tenants[tenant_idx];
    TenantStats& stats = result.tenants[tenant_idx];
    // Every serve is priced through the tenant's service model; outside a
    // fleet that is the neutral model, under which each pricing expression
    // below is bitwise the bare controller cost.
    const TenantServiceModel svc = config.service_models.empty()
                                       ? TenantServiceModel{}
                                       : config.service_models[tenant_idx];
    const bool resuming = resume != nullptr && s == s0;

    if (!resuming) {
      // Tenant switch: the incoming network's weights are programmed onto
      // the arrays (drift clock starts fresh at the segment's first run).
      // That programming is itself a wear campaign on the shared device.
      // A resumed first segment already paid this before the checkpoint
      // (its campaign is part of the replayed wear fingerprint).
      if (faults != nullptr) {
        // The switch campaign's wear belongs to the incoming tenant:
        // baseline the leveling counters before it runs.
        seg_base_rows_remapped = faults->rows_remapped();
        seg_base_crossbars_retired = faults->crossbars_retired();
        seg_base_writes_leveled = faults->writes_leveled();
      }
      result.programming += switch_costs[s];
      ++result.switches;
      if (faults != nullptr) faults->program_campaign();
    }

    OdinController controller(tenant, nonideal, cost, policy.clone(),
                              config.odin, faults);
    if (resuming) {
      if (!controller.restore(resume->controller)) return std::nullopt;
    } else {
      // Align the controller's drift clock with the programming moment.
      controller.reset_drift_clock(schedule[bounds[s].first]);
    }

    // --- Per-segment serving lambdas (resilience path) ---
    // Full service runs the controller (search + any reprogram) under the
    // tenant's deadline; fallback service bills a plain inference at the
    // tenant's last-known-good OU. Both advance the device's busy_until
    // clock, so shedding relieves overload by skipping the expensive parts
    // (reprogram campaigns and search), not by pretending work is free.
    const double slo = res.enabled
                           ? res.slo_s(tenant_idx)
                           : std::numeric_limits<double>::infinity();
    CircuitBreaker* breaker = res.enabled ? &breakers[tenant_idx] : nullptr;
    auto sync_breaker = [&] {
      stats.breaker_opens = breaker->opens();
      stats.breaker_reopens = breaker->reopens();
      stats.breaker_probes = breaker->probes();
      stats.breaker_closes = breaker->closes();
    };
    auto serve_fallback = [&](std::size_t j, bool shed) {
      const double t_arr = schedule[j];
      const double start = std::max(busy_until_s, t_arr);
      // Fallback serves still cross the shard's NoC (no pipeline credit:
      // the degraded path runs unoverlapped).
      const common::EnergyLatency c =
          fallback_serve_cost(tenant, cost, fallback[tenant_idx]) +
          svc.noc_extra;
      busy_until_s = start + c.latency_s;
      stats.inference += c;
      stats.service_s += c.latency_s;
      ++stats.runs;
      stats.record_sojourn(busy_until_s - t_arr);
      if (shed)
        ++stats.shed_runs;
      else
        ++stats.breaker_open_runs;
    };
    // The per-run controller counters every full serve folds in, the
    // resilience-off loop's included (without a deadline the three
    // deadline counters stay zero).
    auto fold_run = [&](const RunResult& run) {
      stats.reprogram += run.reprogram;
      stats.mismatches += run.mismatches;
      stats.degraded_runs += run.degraded ? 1 : 0;
      if (run.deadline_deferred_reprogram) ++stats.deferred_reprograms;
      if (run.deadline_stopped_retries) ++stats.deadline_stopped_retries;
      stats.searches_truncated += run.searches_truncated;
    };
    struct Pass {
      RunResult run;
      int evals = 0;         ///< search evaluations charged to the pass
      bool stalled = false;  ///< the watchdog cancelled it
    };
    // The guarded controller pass single and batched serves share, over
    // `members` (queued arrivals of this tenant in arrival order, served
    // from `start`): the breaker gate, then one controller run under the
    // leader's (longest-waiting member's) deadline with the watchdog armed
    // around it. nullopt when the controller did not run — the breaker
    // held open, or the hang hook stalled the pass — and every member has
    // already been served degraded.
    auto guarded_pass = [&](std::span<const std::size_t> members,
                            double start) -> std::optional<Pass> {
      if (!breaker->allow()) {
        // Breaker holding open: degraded service, search skipped entirely.
        for (std::size_t j : members) serve_fallback(j, false);
        sync_breaker();
        return std::nullopt;
      }
      const std::size_t lead = members.front();
      token.reset();
      const bool guarded = watchdog.has_value();
      if (guarded)
        watchdog->arm(&token,
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::duration<double>(res.watchdog_bound_s)));
      Pass pass;
      bool hung = false;
      if (guarded && res.hang_run_index >= 0 &&
          static_cast<long long>(lead) == res.hang_run_index) {
        // Hung-worker simulation: spin (with a failsafe so a broken
        // watchdog cannot hang the suite) until the watchdog cancels the
        // token, exactly like a stuck chunk that never returns.
        const auto failsafe =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!token.cancelled() &&
               std::chrono::steady_clock::now() < failsafe)
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        hung = true;
      } else {
        common::Deadline deadline(slo - (start - schedule[lead]),
                                  res.search_eval_cost_s,
                                  guarded ? &token : nullptr);
        pass.run = controller.run_inference(start, &deadline);
      }
      pass.stalled = guarded && watchdog->disarm();
      if (pass.stalled) ++stats.watchdog_stalls;
      if (hung) {
        // The pass never reached the controller: serve it degraded, count
        // it shed, and let the breaker see the failure.
        for (std::size_t j : members) serve_fallback(j, true);
        breaker->record(false);
        sync_breaker();
        return std::nullopt;
      }
      for (const LayerDecision& d : pass.run.decisions)
        pass.evals += d.evaluations;
      return pass;
    };
    // Settle a pass, `missed` when any member overran its SLO: fold its
    // counters, feed the breaker, and keep its first-layer OU as the
    // tenant's last-known-good fallback. A crossbar retirement is the
    // device migrating the tenant to a fresh array — planned sparing, not
    // a tenant failure; it must not feed the breaker's failure window.
    auto settle = [&](const Pass& pass, bool missed) {
      fold_run(pass.run);
      const bool success = (!missed && !pass.run.write_verify_failed &&
                            !pass.stalled) ||
                           pass.run.crossbar_retired;
      breaker->record(success);
      if (success && !pass.run.decisions.empty())
        fallback[tenant_idx] = pass.run.decisions.front().executed;
      sync_breaker();
    };
    auto serve_full = [&](std::size_t j) {
      const double t_arr = schedule[j];
      const double start = std::max(busy_until_s, t_arr);
      const std::optional<Pass> pass =
          guarded_pass(std::span<const std::size_t>(&j, 1), start);
      if (!pass) return;
      const RunResult& run = pass->run;
      // A primed pipeline (the device was still busy when this request
      // arrived) serves back-to-back inferences at the overlapped rate; an
      // idle device pays the full fill. NoC transit is charged either way.
      const bool pipelined = start > t_arr && svc.pipeline_overlap < 1.0;
      if (pipelined) ++stats.pipelined_runs;
      const double service =
          run.inference.latency_s * (pipelined ? svc.pipeline_overlap : 1.0) +
          run.reprogram.latency_s +
          static_cast<double>(pass->evals) * res.search_eval_cost_s +
          svc.noc_extra.latency_s;
      busy_until_s = start + service;
      stats.service_s += service;
      stats.inference += svc.noc_extra;
      stats.inference += run.inference;
      const double sojourn = busy_until_s - t_arr;
      stats.record_sojourn(sojourn);
      ++stats.runs;
      const bool miss = std::isfinite(slo) && sojourn > slo;
      if (miss) ++stats.deadline_misses;
      settle(*pass, miss);
    };
    // Would a batch of exactly `members` keep every member's SLO slack
    // non-negative? Estimated with the pipelined batch-cost model at the
    // tenant's last-known-good OU (the actual per-layer decisions are not
    // known until the leader's search runs); member k exits the pipeline
    // after fill + k bottleneck beats.
    auto batch_fits = [&](const std::vector<std::size_t>& members) {
      if (!std::isfinite(slo)) return true;
      const int b = static_cast<int>(members.size());
      const arch::BatchCost est = arch::batched_inference_cost(
          tenant, fallback[tenant_idx], cost, b);
      const double start = std::max(busy_until_s, schedule[members.back()]);
      for (int k = 0; k < b; ++k) {
        const double exit_s = start + est.member_exit_latency_s(k);
        if (exit_s - schedule[members[static_cast<std::size_t>(k)]] > slo)
          return false;
      }
      return true;
    };
    // One pipelined pass over `members` (all queued arrivals of this
    // segment's tenant, in arrival order). The leader run pays the
    // controller once — search, any reprogram, the deadline budget — and
    // its layer decisions price the whole batch through the pipelined
    // BatchCost model; members are billed their own pipeline-exit sojourn.
    auto serve_batch = [&](const std::vector<std::size_t>& members) {
      assert(!members.empty());
      const int b = static_cast<int>(members.size());
      ++stats.batches_formed;
      stats.batch_members += b;
      stats.max_batch = std::max(stats.max_batch, b);
      if (b == 1) {
        serve_full(members.front());
        return;
      }
      const double start = std::max(busy_until_s, schedule[members.back()]);
      const std::optional<Pass> pass = guarded_pass(members, start);
      if (!pass) return;
      const RunResult& run = pass->run;
      // Search + reprogram happen once, before the pipeline fills. The
      // batch's activations cross the NoC once per member; the latency is
      // pipelined behind the pass and charged up front.
      const double pre =
          run.reprogram.latency_s +
          static_cast<double>(pass->evals) * res.search_eval_cost_s +
          svc.noc_extra.latency_s;
      stats.inference += common::EnergyLatency{
          svc.noc_extra.energy_j * static_cast<double>(b),
          svc.noc_extra.latency_s};
      batch_configs.clear();
      if (run.decisions.size() == tenant.layer_count()) {
        for (const LayerDecision& d : run.decisions)
          batch_configs.push_back(d.executed);
      } else {
        batch_configs.assign(tenant.layer_count(), fallback[tenant_idx]);
      }
      const arch::BatchCost bc =
          arch::batched_inference_cost(tenant, batch_configs, cost, b);
      busy_until_s = start + pre + bc.total.latency_s;
      stats.service_s += pre + bc.total.latency_s;
      stats.inference += bc.total;
      bool any_miss = false;
      for (int k = 0; k < b; ++k) {
        const double sojourn = start + pre + bc.member_exit_latency_s(k) -
                               schedule[members[static_cast<std::size_t>(k)]];
        stats.record_sojourn(sojourn);
        ++stats.runs;
        if (std::isfinite(slo) && sojourn > slo) {
          ++stats.deadline_misses;
          any_miss = true;
        }
      }
      settle(*pass, any_miss);
    };
    auto drain_queue = [&](double until_s) {
      while (!pending.empty() && busy_until_s <= until_s) {
        if (!batching) {
          const std::size_t j = pending.front();
          pending.pop_front();
          serve_full(j);
          continue;
        }
        // Grow the batch from the queue front (arrival order) until the
        // cap, the queue, or a member's deadline slack stops it. The
        // leader always ships — a single run that will miss anyway is
        // serve_full's problem, not formation's.
        batch_scratch.clear();
        batch_scratch.push_back(pending.front());
        pending.pop_front();
        bool slo_capped = false;
        while (static_cast<int>(batch_scratch.size()) < batch_cap &&
               !pending.empty()) {
          batch_scratch.push_back(pending.front());  // candidate member
          if (!batch_fits(batch_scratch)) {
            batch_scratch.pop_back();
            slo_capped = true;
            break;
          }
          pending.pop_front();
        }
        if (slo_capped) ++stats.batch_slo_capped;
        serve_batch(batch_scratch);
      }
    };

    const std::size_t seg_start = resuming ? i0 : bounds[s].first;
    for (std::size_t i = seg_start; i < bounds[s].second; ++i) {
      if (!res.enabled) {
        const RunResult run = controller.run_inference(schedule[i]);
        stats.inference += run.inference;
        fold_run(run);
        // No admission queue here, so back-to-back segment traffic always
        // runs with the pipeline primed.
        stats.inference += svc.noc_extra;
        stats.service_s += run.inference.latency_s * svc.pipeline_overlap +
                           run.reprogram.latency_s + svc.noc_extra.latency_s;
        if (svc.pipeline_overlap < 1.0) ++stats.pipelined_runs;
        ++stats.runs;
      } else {
        // Event-driven FIFO: serve whatever the device finished before
        // this arrival, enqueue it, shed on overflow, then serve it
        // immediately if the device is idle. Serves happen in arrival
        // order, so the walk stays deterministic and resumable.
        const double t_arr = schedule[i];
        drain_queue(t_arr);
        pending.push_back(i);
        if (pending.size() > res.queue_capacity) {
          switch (res.shed) {
            case ShedPolicy::kBlock:
              break;  // unbounded queue: callers absorb the backpressure
            case ShedPolicy::kShedOldest: {
              const std::size_t j = pending.front();
              pending.pop_front();
              serve_fallback(j, true);
              break;
            }
            case ShedPolicy::kShedNewest: {
              const std::size_t j = pending.back();
              pending.pop_back();
              serve_fallback(j, true);
              break;
            }
          }
        }
        drain_queue(t_arr);
      }
      ++invocation_runs;
      ++runs_since_ckpt;

      // The horizon's very last run needs no checkpoint; everything else
      // checkpoints on the period, and a max_runs stop forces a final
      // write so the simulated crash loses nothing.
      const bool horizon_done =
          s + 1 == bounds.size() && i + 1 == bounds[s].second;
      const bool budget_hit =
          config.max_runs > 0 && invocation_runs >= config.max_runs;
      const bool periodic = writer != nullptr &&
                            config.checkpoint.every_runs > 0 &&
                            runs_since_ckpt >= config.checkpoint.every_runs;
      if (!horizon_done && (budget_hit || periodic)) {
        if (writer != nullptr) {
          ServingCheckpoint ckpt = make_checkpoint(s, i + 1, controller);
          writer->write(ckpt);
          runs_since_ckpt = 0;
        }
        if (budget_hit) {
          // Partial return: the in-flight segment's controller counters
          // are not folded in (they are accounted at segment end, which
          // this segment has not reached); the checkpoint carries them.
          stopped = true;
          break;
        }
      }
    }
    if (stopped) break;
    // Segment end is a tenant switch: the outgoing tenant's queue drains
    // completely before the device reprograms for the next one.
    if (res.enabled)
      drain_queue(std::numeric_limits<double>::infinity());
    stats.reprograms += controller.reprogram_count();
    stats.retries += controller.retry_count();
    stats.updates_rejected += controller.updates_rejected();
    stats.updates_rolled_back += controller.updates_rolled_back();
    stats.buffer_dropped +=
        static_cast<long long>(controller.buffer_dropped());
    stats.buffer_quarantined +=
        static_cast<long long>(controller.buffer_quarantined());
    stats.wear_deferred_reprograms += controller.wear_deferred_reprograms();
    if (faults != nullptr) {
      // Leveling counters are device-global; attribute this segment's delta
      // to the tenant that was serving while it accrued.
      stats.rows_remapped += faults->rows_remapped() - seg_base_rows_remapped;
      stats.crossbars_retired +=
          faults->crossbars_retired() - seg_base_crossbars_retired;
      stats.writes_leveled +=
          faults->writes_leveled() - seg_base_writes_leveled;
    }
    result.policy_updates += controller.update_count();
    policy = controller.policy().clone();  // carry the learning forward
  }
  return result;
}

}  // namespace

ServingResult serve_with_odin(
    std::vector<const ou::MappedModel*> tenants,
    const ou::NonIdealityModel& nonideal, const ou::OuCostModel& cost,
    policy::OuPolicy initial_policy, const ServingConfig& config,
    reram::FaultInjector* faults) {
  auto result = serve_odin_impl(tenants, nonideal, cost,
                                std::move(initial_policy), config, faults,
                                nullptr);
  assert(result.has_value());  // only a resume checkpoint can fail
  return std::move(*result);
}

std::optional<ServingResult> resume_with_odin(
    std::vector<const ou::MappedModel*> tenants,
    const ou::NonIdealityModel& nonideal, const ou::OuCostModel& cost,
    const ServingCheckpoint& ckpt, const ServingConfig& config,
    reram::FaultInjector* faults) {
  assert(!tenants.empty());
  if (ckpt.fingerprint != serving_fingerprint(tenants, config, faults))
    return std::nullopt;
  // The state must also fit the walk it is reinstated into: one stats
  // entry per tenant and, with resilience, one breaker and one fallback OU
  // per tenant.
  if (ckpt.result.tenants.size() != tenants.size()) return std::nullopt;
  if (config.resilience.enabled &&
      (ckpt.breakers.size() != tenants.size() ||
       ckpt.fallback_ous.size() != tenants.size()))
    return std::nullopt;
  // Device wear: replay the campaign history on the caller's freshly
  // seeded injector and verify the wear fingerprint.
  if (faults != nullptr && !faults->fast_forward(ckpt.wear))
    return std::nullopt;

  const ou::OuLevelGrid grid(tenants.front()->crossbar_size());
  return serve_odin_impl(tenants, nonideal, cost, policy::OuPolicy(grid),
                         config, faults, &ckpt);
}

ServingResult serve_with_homogeneous(
    std::vector<const ou::MappedModel*> tenants,
    const ou::NonIdealityModel& nonideal, const ou::OuCostModel& cost,
    ou::OuConfig ou, const ServingConfig& config,
    reram::FaultInjector* faults) {
  assert(!tenants.empty());
  ServingResult result;
  result.label = ou.to_string();
  result.tenants.resize(tenants.size());
  for (std::size_t i = 0; i < tenants.size(); ++i)
    result.tenants[i].name = tenants[i]->model().name;

  const ServingWalk walk = serving_walk(config);
  const std::vector<double>& schedule = walk.schedule;
  const auto& bounds = walk.bounds;

  // With a fixed OU there is no state carried between segments: every
  // segment is an independent arm. Each arm produces a partial TenantStats
  // plus its switch programming cost; partials combine in segment order, so
  // the totals do not depend on scheduling (the single-threaded path folds
  // the very same per-segment partials). A fault injector is shared wear
  // state — every campaign changes what later segments see — so with one
  // attached the walk must be sequential in segment order instead.
  struct SegmentOutcome {
    common::EnergyLatency programming;
    TenantStats partial;
  };
  auto run_segment = [&](std::size_t s) {
    const ou::MappedModel& tenant = *tenants[s % tenants.size()];
    SegmentOutcome seg;
    seg.programming = full_programming_cost(tenant, cost);
    if (faults != nullptr) faults->program_campaign();  // switch programming
    HomogeneousRunner runner(tenant, nonideal, cost, ou, true, faults);
    runner.reset_drift_clock(schedule[bounds[s].first]);
    for (std::size_t i = bounds[s].first; i < bounds[s].second; ++i) {
      const BaselineRunResult run = runner.run_inference(schedule[i]);
      seg.partial.inference += run.inference;
      seg.partial.reprogram += run.reprogram;
      ++seg.partial.runs;
    }
    seg.partial.reprograms = runner.reprogram_count();
    return seg;
  };
  std::vector<SegmentOutcome> outcomes;
  if (faults != nullptr) {
    outcomes.reserve(bounds.size());
    for (std::size_t s = 0; s < bounds.size(); ++s)
      outcomes.push_back(run_segment(s));
  } else {
    outcomes = common::parallel_transform(bounds.size(), 1, run_segment);
  }
  for (std::size_t s = 0; s < bounds.size(); ++s) {
    TenantStats& stats = result.tenants[s % tenants.size()];
    result.programming += outcomes[s].programming;
    ++result.switches;
    stats.inference += outcomes[s].partial.inference;
    stats.reprogram += outcomes[s].partial.reprogram;
    stats.runs += outcomes[s].partial.runs;
    stats.reprograms += outcomes[s].partial.reprograms;
  }
  return result;
}

}  // namespace odin::core
