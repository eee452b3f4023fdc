#include "core/fleet.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "arch/pipeline.hpp"
#include "arch/system.hpp"
#include "common/parallel.hpp"
#include "core/checkpoint.hpp"
#include "reram/fault_injection.hpp"

namespace odin::core {

namespace {

/// Relative weights of the placement score's terms (DESIGN.md §16). Wear
/// dominates on purpose: a wear-hot shard must lose a tenant even when it
/// is the NoC-optimal home.
constexpr double kLoadWeight = 1.0;
constexpr double kWearWeight = 4.0;

/// A tenant's prospective cost on one shard's PE block.
struct ShardCandidate {
  common::EnergyLatency noc;
  double overlap = 1.0;
  int pes_spanned = 0;
};

ShardCandidate evaluate_candidate(const arch::SystemModel& system,
                                  const ou::MappedModel& tenant,
                                  const std::vector<double>& layer_latency_s,
                                  const std::vector<int>& pes,
                                  int activation_bits) {
  const arch::SystemMapping m = system.map_onto(
      tenant.model(), pes, tenant.crossbar_size(), activation_bits);
  ShardCandidate cand;
  cand.noc = m.noc_per_inference;
  for (std::int64_t load : m.pe_load)
    if (load > 0) ++cand.pes_spanned;
  // Pipeline stages: consecutive layers sharing a home PE form one stage;
  // a PE boundary is where activations cross the NoC and the next request
  // can be admitted behind this one.
  std::vector<double> stages;
  for (std::size_t j = 0; j < m.placements.size(); ++j) {
    if (j == 0 || m.placements[j].pe != m.placements[j - 1].pe)
      stages.push_back(0.0);
    stages.back() += layer_latency_s[j];
  }
  cand.overlap = arch::interlayer_pipeline(stages).overlap_factor;
  return cand;
}

double shard_wear_penalty(const reram::FaultInjector* faults) {
  if (faults == nullptr) return 0.0;
  return faults->wear_fraction() + faults->fault_fraction() +
         (faults->wear_hot() ? 1.0 : 0.0);
}

/// Derive shard `shard`'s ServingConfig from the fleet template: its share
/// of the segment walk and horizon traffic, its members' SLOs in local
/// order, the placement-derived service models, and a private checkpoint
/// pair. A single-shard fleet returns the template untouched — that is the
/// bitwise-compatibility contract with serve_with_odin.
ServingConfig shard_serving_config(const FleetConfig& config,
                                   const FleetPlacement& placement,
                                   const std::vector<int>& members, int shard,
                                   int shards) {
  ServingConfig sc = config.serving;
  if (shards <= 1 || members.empty()) return sc;
  sc.fleet_shards = shards;
  sc.fleet_shard_index = shard;
  const int total_tenants = static_cast<int>(placement.tenants.size());
  const int global_segments = std::max(config.serving.segments, 1);
  // This shard serves the global segments whose round-robin tenant lives
  // here, at the global walk's own arrival/drift times: the shard's
  // serving loop gets the global logspace slices of those segments, so a
  // tenant's serves (drift clock, OU decisions, physical cost) are the
  // same no matter how the fleet is sharded — only queueing changes.
  const std::vector<double> global_schedule =
      run_schedule(config.serving.horizon);
  const auto bounds = segment_bounds(global_schedule.size(), global_segments);
  std::vector<double> schedule;
  std::vector<std::size_t> sizes;
  for (std::size_t s = 0; s < bounds.size(); ++s) {
    if (std::find(members.begin(), members.end(),
                  static_cast<int>(s) % total_tenants) == members.end())
      continue;
    const auto [start, end] = bounds[s];
    schedule.insert(schedule.end(),
                    global_schedule.begin() + static_cast<long>(start),
                    global_schedule.begin() + static_cast<long>(end));
    sizes.push_back(end - start);
  }
  sc.segments = static_cast<int>(sizes.size());
  sc.horizon.runs = static_cast<int>(schedule.size());
  sc.schedule = std::move(schedule);
  sc.segment_sizes = std::move(sizes);
  if (!config.serving.resilience.tenant_slo_s.empty()) {
    std::vector<double> slo;
    slo.reserve(members.size());
    for (int g : members) {
      const auto& global = config.serving.resilience.tenant_slo_s;
      slo.push_back(static_cast<std::size_t>(g) < global.size()
                        ? global[static_cast<std::size_t>(g)]
                        : 0.0);
    }
    sc.resilience.tenant_slo_s = std::move(slo);
  }
  sc.service_models.clear();
  sc.service_models.reserve(members.size());
  for (int g : members) {
    const TenantPlacement& p = placement.tenants[static_cast<std::size_t>(g)];
    TenantServiceModel m;
    m.noc_extra = p.noc_per_inference;
    m.pipeline_overlap = p.pipeline_overlap;
    sc.service_models.push_back(m);
  }
  if (!sc.checkpoint.base_path.empty())
    sc.checkpoint.base_path += ".shard" + std::to_string(shard);
  return sc;
}

}  // namespace

std::vector<int> fleet_fill_order(const arch::PimConfig& pim, bool snake) {
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(pim.pes));
  for (int y = 0; y < pim.mesh_y; ++y)
    for (int x = 0; x < pim.mesh_x; ++x) {
      const int col = snake && (y % 2 == 1) ? pim.mesh_x - 1 - x : x;
      order.push_back(y * pim.mesh_x + col);
    }
  return order;
}

std::vector<std::vector<int>> fleet_partition_pes(
    const std::vector<int>& order, int shards) {
  std::vector<std::vector<int>> out(static_cast<std::size_t>(shards));
  const std::size_t per = order.size() / static_cast<std::size_t>(shards);
  const std::size_t extra = order.size() % static_cast<std::size_t>(shards);
  std::size_t pos = 0;
  for (std::size_t k = 0; k < out.size(); ++k) {
    const std::size_t take = per + (k < extra ? 1 : 0);
    out[k].assign(order.begin() + static_cast<std::ptrdiff_t>(pos),
                  order.begin() + static_cast<std::ptrdiff_t>(pos + take));
    pos += take;
  }
  return out;
}

std::vector<std::vector<int>> rescale_shard_blocks(
    const arch::PimConfig& pim, bool snake,
    const std::vector<double>& shard_demand) {
  const std::vector<int> order = fleet_fill_order(pim, snake);
  const std::size_t K = shard_demand.size();
  assert(K >= 1 && order.size() >= K);
  // Largest-remainder apportionment of the PEs over the demand vector with
  // a one-PE floor per shard. All-zero demand degrades to the equal split.
  double total = 0.0;
  for (double d : shard_demand) total += std::max(d, 0.0);
  if (total <= 0.0) return fleet_partition_pes(order, static_cast<int>(K));
  const std::size_t spare = order.size() - K;  ///< PEs beyond the floor
  std::vector<std::size_t> pes(K, 1);
  std::vector<double> frac(K, 0.0);
  std::size_t given = 0;
  for (std::size_t k = 0; k < K; ++k) {
    const double ideal =
        static_cast<double>(spare) * std::max(shard_demand[k], 0.0) / total;
    const auto whole = static_cast<std::size_t>(ideal);
    pes[k] += whole;
    frac[k] = ideal - static_cast<double>(whole);
    given += whole;
  }
  // Hand out the rounding remainder by descending fractional part; ties
  // break on the lower shard index so the cut is deterministic.
  std::vector<std::size_t> by_frac(K);
  for (std::size_t k = 0; k < K; ++k) by_frac[k] = k;
  std::sort(by_frac.begin(), by_frac.end(),
            [&](std::size_t a, std::size_t b) {
              if (frac[a] != frac[b]) return frac[a] > frac[b];
              return a < b;
            });
  for (std::size_t i = 0; given < spare && i < K; ++i, ++given)
    ++pes[by_frac[i]];
  std::vector<std::vector<int>> out(K);
  std::size_t pos = 0;
  for (std::size_t k = 0; k < K; ++k) {
    out[k].assign(order.begin() + static_cast<std::ptrdiff_t>(pos),
                  order.begin() + static_cast<std::ptrdiff_t>(pos + pes[k]));
    pos += pes[k];
  }
  return out;
}

std::size_t pick_least_loaded_block(const std::vector<double>& demand,
                                    const std::vector<std::int32_t>& pes,
                                    const std::vector<std::uint8_t>& eligible) {
  std::size_t best = demand.size();
  double best_pp = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < demand.size(); ++i) {
    if (!eligible.empty() && (i >= eligible.size() || eligible[i] == 0))
      continue;
    const double p = static_cast<double>(
        i < pes.size() ? std::max<std::int32_t>(1, pes[i]) : 1);
    const double pp = demand[i] / p;
    if (pp < best_pp) {
      best_pp = pp;
      best = i;
    }
  }
  return best;
}

FleetPlacement place_fleet(
    const std::vector<const ou::MappedModel*>& tenants,
    const ou::OuCostModel& cost, const FleetConfig& config,
    const std::vector<const reram::FaultInjector*>& shard_faults) {
  assert(!tenants.empty());
  const int shards = config.resolved_shards();
  const std::size_t T = tenants.size();
  const std::size_t K = static_cast<std::size_t>(shards);

  FleetPlacement out;
  out.shards = shards;
  out.shard_pes =
      fleet_partition_pes(fleet_fill_order(config.pim, config.noc_aware),
                          shards);

  const arch::SystemModel system(config.pim);
  // Per-layer reference latencies (the grid's minimum OU — the same
  // config the serving loop's fallback path prices with), shared across
  // candidate shards.
  std::vector<std::vector<double>> layer_latency(T);
  std::vector<std::int64_t> footprint(T, 0);
  for (std::size_t t = 0; t < T; ++t) {
    const ou::MappedModel& m = *tenants[t];
    const ou::OuConfig ref =
        ou::OuLevelGrid(m.crossbar_size()).min_config();
    layer_latency[t].reserve(m.layer_count());
    for (std::size_t j = 0; j < m.layer_count(); ++j)
      layer_latency[t].push_back(
          cost.layer_cost(m.mapping(j).counts(ref), ref,
                          m.model().layers[j].activation_sparsity)
              .total()
              .latency_s);
    const arch::SystemMapping full =
        system.map_onto(m.model(), out.shard_pes[0], m.crossbar_size(),
                        config.activation_bits);
    footprint[t] = full.crossbars_used;
  }

  // Candidate costs for every (tenant, shard) pair, and each tenant's
  // normalization denominator.
  std::vector<std::vector<ShardCandidate>> cand(T);
  std::vector<double> max_noc(T, 0.0);
  for (std::size_t t = 0; t < T; ++t) {
    cand[t].reserve(K);
    for (std::size_t k = 0; k < K; ++k) {
      cand[t].push_back(evaluate_candidate(system, *tenants[t],
                                           layer_latency[t], out.shard_pes[k],
                                           config.activation_bits));
      max_noc[t] = std::max(max_noc[t], cand[t][k].noc.latency_s);
    }
  }
  auto noc_norm = [&](std::size_t t, std::size_t k) {
    return max_noc[t] > 0.0 ? cand[t][k].noc.latency_s / max_noc[t] : 0.0;
  };
  std::vector<double> wear(K, 0.0);
  if (config.wear_aware)
    for (std::size_t k = 0; k < K && k < shard_faults.size(); ++k)
      wear[k] = shard_wear_penalty(shard_faults[k]);

  const std::int64_t total_foot =
      std::accumulate(footprint.begin(), footprint.end(), std::int64_t{0});
  const double target = std::max(
      static_cast<double>(total_foot) / static_cast<double>(shards), 1.0);

  std::vector<int> shard_of(T, 0);
  std::vector<std::int64_t> load(K, 0);
  std::vector<bool> displaced(T, false);

  if (!config.noc_aware) {
    // Placement-oblivious baseline: round-robin by tenant index.
    for (std::size_t t = 0; t < T; ++t) {
      shard_of[t] = static_cast<int>(t % K);
      load[t % K] += footprint[t];
    }
  } else {
    // Greedy seeding, largest footprint first (big tenants pick freely;
    // small ones fill the gaps).
    std::vector<std::size_t> greedy_order(T);
    std::iota(greedy_order.begin(), greedy_order.end(), std::size_t{0});
    std::stable_sort(greedy_order.begin(), greedy_order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return footprint[a] > footprint[b];
                     });
    for (std::size_t t : greedy_order) {
      std::size_t best = 0, blind = 0;
      double best_score = std::numeric_limits<double>::infinity();
      double blind_score = std::numeric_limits<double>::infinity();
      for (std::size_t k = 0; k < K; ++k) {
        const double load_term =
            (static_cast<double>(load[k]) + static_cast<double>(footprint[t])) /
            target;
        const double s = noc_norm(t, k) + kLoadWeight * load_term;
        if (s < blind_score) {
          blind_score = s;
          blind = k;
        }
        const double full = s + kWearWeight * wear[k];
        if (full < best_score) {
          best_score = full;
          best = k;
        }
      }
      shard_of[t] = static_cast<int>(best);
      load[best] += footprint[t];
      displaced[t] = best != blind;
    }

    // Single-tenant best-move refinement on the global objective.
    auto objective = [&](const std::vector<int>& assign,
                         const std::vector<std::int64_t>& l) {
      double noc_sum = 0.0, wear_sum = 0.0;
      for (std::size_t t = 0; t < T; ++t) {
        noc_sum += noc_norm(t, static_cast<std::size_t>(assign[t]));
        wear_sum += wear[static_cast<std::size_t>(assign[t])];
      }
      const std::int64_t max_load = *std::max_element(l.begin(), l.end());
      const double mean =
          static_cast<double>(total_foot) / static_cast<double>(shards);
      const double imbalance =
          mean > 0.0 ? static_cast<double>(max_load) / mean : 1.0;
      return noc_sum + kLoadWeight * imbalance + kWearWeight * wear_sum;
    };
    double obj = objective(shard_of, load);
    for (int pass = 0; pass < config.refine_passes; ++pass) {
      bool moved = false;
      for (std::size_t t = 0; t < T; ++t) {
        const int from = shard_of[t];
        int best_to = from;
        double best_obj = obj;
        for (std::size_t k = 0; k < K; ++k) {
          if (static_cast<int>(k) == from) continue;
          shard_of[t] = static_cast<int>(k);
          load[static_cast<std::size_t>(from)] -= footprint[t];
          load[k] += footprint[t];
          const double trial = objective(shard_of, load);
          shard_of[t] = from;
          load[static_cast<std::size_t>(from)] += footprint[t];
          load[k] -= footprint[t];
          if (trial < best_obj - 1e-12) {
            best_obj = trial;
            best_to = static_cast<int>(k);
          }
        }
        if (best_to != from) {
          load[static_cast<std::size_t>(from)] -= footprint[t];
          load[static_cast<std::size_t>(best_to)] += footprint[t];
          shard_of[t] = best_to;
          obj = best_obj;
          moved = true;
        }
      }
      if (!moved) break;
    }
  }

  out.tenants.reserve(T);
  for (std::size_t t = 0; t < T; ++t) {
    const std::size_t k = static_cast<std::size_t>(shard_of[t]);
    TenantPlacement p;
    p.tenant = static_cast<int>(t);
    p.shard = shard_of[t];
    p.crossbars = footprint[t];
    p.pes_spanned = cand[t][k].pes_spanned;
    p.noc_per_inference = cand[t][k].noc;
    p.pipeline_overlap = cand[t][k].overlap;
    p.wear_displaced = displaced[t];
    out.tenants.push_back(p);
  }
  out.shard_load = load;
  const std::int64_t max_load = *std::max_element(load.begin(), load.end());
  const double mean =
      static_cast<double>(total_foot) / static_cast<double>(shards);
  out.load_imbalance =
      mean > 0.0 ? static_cast<double>(max_load) / mean : 1.0;
  {
    double noc_sum = 0.0, wear_sum = 0.0;
    for (std::size_t t = 0; t < T; ++t) {
      noc_sum += noc_norm(t, static_cast<std::size_t>(shard_of[t]));
      wear_sum += wear[static_cast<std::size_t>(shard_of[t])];
    }
    out.objective =
        noc_sum + kLoadWeight * out.load_imbalance + kWearWeight * wear_sum;
  }
  return out;
}

int FleetResult::total_runs() const noexcept {
  int n = 0;
  for (const ServingResult& s : shards) n += s.total_runs();
  return n;
}

double FleetResult::shard_busy_s(std::size_t shard) const noexcept {
  return shards[shard].total_service_s() +
         shards[shard].programming.latency_s;
}

double FleetResult::makespan_s() const noexcept {
  double m = 0.0;
  for (std::size_t k = 0; k < shards.size(); ++k)
    m = std::max(m, shard_busy_s(k));
  return m;
}

double FleetResult::aggregate_images_per_s() const noexcept {
  const double m = makespan_s();
  return m > 0.0 ? static_cast<double>(total_runs()) / m : 0.0;
}

double FleetResult::edp_per_request() const noexcept {
  // Aggregate per TENANT, not per shard: a tenant's E*L/R is intrinsic to
  // its serves, so the run-weighted mean is invariant to how tenants are
  // grouped onto shards. A per-shard aggregate would mix cross products of
  // different tenants' energies and latencies and drift with the sharding.
  double num = 0.0;
  long long runs = 0;
  for (const ServingResult& s : shards) {
    for (const TenantStats& t : s.tenants) {
      if (t.runs == 0) continue;
      const common::EnergyLatency e = t.inference + t.reprogram;
      num += e.energy_j * e.latency_s / static_cast<double>(t.runs);
      runs += t.runs;
    }
  }
  return runs > 0 ? num / static_cast<double>(runs) : 0.0;
}

double FleetResult::slack_percentile(double p) const {
  std::vector<double> slack;
  for (const ServingResult& s : shards)
    for (const TenantStats& t : s.tenants) {
      if (t.slo_s <= 0.0) continue;
      for (double v : t.sojourn_s) slack.push_back(t.slo_s - v);
    }
  if (slack.empty()) return 0.0;
  // The slack at the p-th percentile sojourn is the (100-p)-th percentile
  // slack sample (slower requests have less slack).
  return percentile(std::move(slack), 100.0 - p);
}

namespace {

/// The one fleet driver: place, derive each shard's ServingConfig, and run
/// every shard's loop concurrently (common::parallel_transform), one cloned
/// policy per shard. With `resume` each shard continues from its own
/// checkpoint pair when it has one; nullopt when a shard's checkpoint fails
/// to reinstate.
std::optional<FleetResult> run_fleet(
    const std::vector<const ou::MappedModel*>& tenants,
    const ou::NonIdealityModel& nonideal, const ou::OuCostModel& cost,
    policy::OuPolicy& initial_policy, const FleetConfig& config,
    const std::vector<reram::FaultInjector*>& shard_faults, bool resume) {
  assert(!tenants.empty());
  const int shards = config.resolved_shards();
  FleetResult out;
  const std::vector<const reram::FaultInjector*> cfaults(shard_faults.begin(),
                                                         shard_faults.end());
  // Placement is a pure function of (tenants, config, fresh injectors), so
  // a resume recomputes the interrupted run's geometry — and the per-shard
  // checkpoints verify that via the service-model fingerprint.
  out.placement = place_fleet(tenants, cost, config, cfaults);
  out.shard_tenants.assign(static_cast<std::size_t>(shards), {});
  for (const TenantPlacement& p : out.placement.tenants)
    out.shard_tenants[static_cast<std::size_t>(p.shard)].push_back(p.tenant);

  // clone() is non-const: mint every shard's policy before the parallel
  // region so the pool workers never touch the shared original.
  std::vector<policy::OuPolicy> policies;
  policies.reserve(static_cast<std::size_t>(shards));
  for (int k = 0; k < shards; ++k) policies.push_back(initial_policy.clone());

  auto results = common::parallel_transform(
      static_cast<std::size_t>(shards), 1,
      [&](std::size_t k) -> std::optional<ServingResult> {
        ServingResult idle;
        idle.label = "Odin";
        const std::vector<int>& members = out.shard_tenants[k];
        if (members.empty()) return idle;
        std::vector<const ou::MappedModel*> local;
        local.reserve(members.size());
        for (int g : members)
          local.push_back(tenants[static_cast<std::size_t>(g)]);
        ServingConfig sc = shard_serving_config(
            config, out.placement, members, static_cast<int>(k), shards);
        // Fewer global segments than tenants: these members never serve
        // (matching the single-shard walk, which skips them too).
        if (sc.horizon.runs == 0) return idle;
        reram::FaultInjector* faults =
            k < shard_faults.size() ? shard_faults[k] : nullptr;
        if (resume) {
          // The crash hook belongs to the interrupted invocation.
          sc.max_runs = 0;
          if (!sc.checkpoint.base_path.empty())
            if (const auto ckpt =
                    load_latest_checkpoint(sc.checkpoint.base_path))
              return resume_with_odin(local, nonideal, cost, *ckpt, sc,
                                      faults);
        }
        return serve_with_odin(local, nonideal, cost, std::move(policies[k]),
                               sc, faults);
      });
  out.shards.reserve(results.size());
  for (std::optional<ServingResult>& r : results) {
    if (!r.has_value()) return std::nullopt;
    out.shards.push_back(std::move(*r));
  }
  return out;
}

}  // namespace

FleetResult serve_fleet(const std::vector<const ou::MappedModel*>& tenants,
                        const ou::NonIdealityModel& nonideal,
                        const ou::OuCostModel& cost,
                        policy::OuPolicy initial_policy,
                        const FleetConfig& config,
                        const std::vector<reram::FaultInjector*>& shard_faults) {
  auto out = run_fleet(tenants, nonideal, cost, initial_policy, config,
                       shard_faults, false);
  assert(out.has_value());  // only a resume checkpoint can fail
  return std::move(*out);
}

std::optional<FleetResult> resume_fleet(
    const std::vector<const ou::MappedModel*>& tenants,
    const ou::NonIdealityModel& nonideal, const ou::OuCostModel& cost,
    policy::OuPolicy initial_policy, const FleetConfig& config,
    const std::vector<reram::FaultInjector*>& shard_faults) {
  return run_fleet(tenants, nonideal, cost, initial_policy, config,
                   shard_faults, true);
}

}  // namespace odin::core
