#include "core/cluster.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>

#include "arch/noc.hpp"
#include "core/checkpoint.hpp"
#include "core/fleet.hpp"

namespace odin::core {

namespace {

/// Serialized tenant state per replication push (and per restore pull):
/// policy blob + breaker/ledger state at checkpoint granularity.
constexpr double kReplicaBytesPerTenant = 4096.0;

/// Per-mesh shard count: the campaign's shard knob clamped to the mesh,
/// then squeezed so the *global* shard set still fits the u64
/// storm_shard_mask (meshes * K <= 64).
int shards_per_mesh(const CampaignConfig& campaign, int meshes) {
  const int pes_total = std::max(1, campaign.pim.pes);
  int k = std::clamp(campaign.shards, 1, pes_total);
  k = std::min(k, 64 / std::max(1, meshes));
  return std::max(1, k);
}

}  // namespace

// ---------------------------------------------------------------------------
// The campaign engine: one loop for a plain campaign (one mesh, pinned
// below) and for a multi-mesh cluster.

namespace {

/// Degraded out-of-band (shed or breaker-open) service relative to the
/// full path: shorter, cheaper, off the shard FIFO.
constexpr double kShedServiceFactor = 0.5;
constexpr double kShedEnergyFactor = 0.6;

/// Per-PE demand bar the tenant-migration loop flattens toward after a
/// rescale (which equalizes only to 1-PE granularity).
constexpr double kMigrateResidualThreshold = 1.05;

void campaign_degrade(double& service_s, double& energy_j) noexcept {
  service_s *= kShedServiceFactor;
  energy_j *= kShedEnergyFactor;
}

/// Contiguous shard blocks with the given per-shard PE counts, cut along
/// the snake fill order — the shape rescale_shard_blocks produces, so the
/// counts alone reconstruct the blocks on resume.
std::vector<std::vector<int>> campaign_blocks_from_counts(
    const arch::PimConfig& pim, const std::vector<std::int32_t>& counts) {
  const std::vector<int> order = fleet_fill_order(pim, true);
  std::vector<std::vector<int>> out(counts.size());
  std::size_t pos = 0;
  for (std::size_t k = 0; k < counts.size(); ++k) {
    const auto take = static_cast<std::size_t>(std::max<std::int32_t>(
        0, counts[k]));
    out[k].assign(order.begin() + static_cast<std::ptrdiff_t>(pos),
                  order.begin() + static_cast<std::ptrdiff_t>(pos + take));
    pos += take;
  }
  return out;
}

/// Demand-balanced contiguous initial placement: tenant index ranges map
/// to shards in order, boundaries chosen so each shard's expected demand
/// share matches its PE share. Contiguity matters: flash crowds target
/// contiguous tenant index ranges, so a crowd's overload lands shard-local.
std::vector<std::int32_t> campaign_initial_placement(
    const ScenarioTrace& trace, const std::vector<std::int32_t>& shard_pes) {
  const std::size_t T = trace.tenants.size();
  const std::size_t K = shard_pes.size();
  double total = 0.0;
  std::vector<double> demand(T, 0.0);
  for (std::size_t i = 0; i < T; ++i) {
    demand[i] = trace.tenants[i].weight * trace.tenants[i].service_s;
    total += demand[i];
  }
  double pes_total = 0.0;
  for (std::int32_t p : shard_pes) pes_total += static_cast<double>(p);
  std::vector<std::int32_t> out(T, 0);
  std::size_t k = 0;
  double acc = 0.0, cut = total * static_cast<double>(shard_pes[0]) / pes_total;
  for (std::size_t i = 0; i < T; ++i) {
    if (acc >= cut && k + 1 < K) {
      ++k;
      cut += total * static_cast<double>(shard_pes[k]) / pes_total;
    }
    out[i] = static_cast<std::int32_t>(k);
    acc += demand[i];
  }
  return out;
}

/// True when every container holds exactly `n` elements.
template <typename... Vs>
bool all_sized(std::size_t n, const Vs&... vs) {
  return ((vs.size() == n) && ...);
}

/// Resolve the outage schedule against the mesh count: draw missing
/// windows and victim meshes from the scenario seed (fork 11 — disjoint
/// from the trace and arrival streams, so the mesh count and the outage
/// schedule never perturb the arrivals), ascending start with a
/// mesh-index tie-break.
std::vector<MeshOutage> resolve_outages(const ClusterConfig& config,
                                        std::uint64_t seed, int meshes) {
  common::Rng rng = common::Rng(seed).fork(11);
  std::vector<MeshOutage> outs = config.outages;
  if (outs.empty()) {
    for (int i = 0; i < config.mesh_outages; ++i) {
      MeshOutage o;
      o.start_frac = rng.uniform(0.35, 0.8);
      o.duration_frac = config.outage_duration_frac;
      o.mesh = -1;
      outs.push_back(o);
    }
  }
  for (MeshOutage& o : outs)
    if (o.mesh < 0 || o.mesh >= meshes)
      o.mesh = static_cast<int>(
          rng.uniform_index(static_cast<std::uint64_t>(meshes)));
  std::sort(outs.begin(), outs.end(),
            [](const MeshOutage& a, const MeshOutage& b) {
              if (a.start_frac != b.start_frac)
                return a.start_frac < b.start_frac;
              return a.mesh < b.mesh;
            });
  return outs;
}

std::optional<ClusterResult> run_cluster_impl(
    const ClusterConfig& config, const ServingCheckpoint* resume_ckpt) {
  const CampaignConfig& camp = config.campaign;
  ScenarioConfig scfg = camp.scenario;
  scfg.seed = scfg.resolved_seed();
  const ScenarioTrace trace = build_trace(scfg, camp.pim);
  const int M = config.resolved_meshes();
  const int pes_per_mesh = std::max(1, camp.pim.pes);
  const int K = shards_per_mesh(camp, M);
  const int S = M * K;  ///< global shard count
  const int E = std::max(1, camp.epochs);
  const int R = config.resolved_replication_epochs();
  const bool autoscale = camp.autoscale.enabled;
  const bool fo = config.failover.enabled;
  const std::size_t T = trace.tenants.size();
  const double h = scfg.horizon_s;

  const std::vector<MeshOutage> outs =
      resolve_outages(config, scfg.seed, M);
  // Per-storm target mesh (fork 12): recomputed every run, never
  // serialized — one draw per trace storm whether or not it fires.
  std::vector<int> storm_mesh(trace.storms.size(), 0);
  {
    common::Rng rng = common::Rng(scfg.seed).fork(12);
    for (int& m : storm_mesh)
      m = static_cast<int>(
          rng.uniform_index(static_cast<std::uint64_t>(M)));
  }

  CampaignState st;
  st.seed = scfg.seed;
  st.requests = static_cast<std::uint64_t>(std::max<long long>(
      0, scfg.requests));
  st.tenants = static_cast<std::int32_t>(T);
  st.shards = S;
  st.epochs = E;
  st.autoscale = autoscale;
  {
    // Every mesh starts with the identical K-way cut of its own PE fill
    // order (meshes are geometry clones; their blocks diverge only as
    // each mesh's autoscaler reacts to its own demand).
    const auto blocks =
        fleet_partition_pes(fleet_fill_order(camp.pim, true), K);
    st.shard_pes.resize(static_cast<std::size_t>(S));
    for (int m = 0; m < M; ++m)
      for (std::size_t k = 0; k < blocks.size(); ++k)
        st.shard_pes[static_cast<std::size_t>(m) * blocks.size() + k] =
            static_cast<std::int32_t>(blocks[k].size());
  }
  st.shard_busy_until_s.assign(static_cast<std::size_t>(S), 0.0);
  st.shard_demand.assign(static_cast<std::size_t>(S), 0.0);
  st.tenant_demand.assign(T, 0.0);
  st.tenant_shard = campaign_initial_placement(trace, st.shard_pes);
  st.epoch_energy_j.assign(static_cast<std::size_t>(E), 0.0);
  st.epoch_edp_sum.assign(static_cast<std::size_t>(E), 0.0);
  st.epoch_requests.assign(static_cast<std::size_t>(E), 0);
  st.epoch_misses.assign(static_cast<std::size_t>(E), 0);
  st.epoch_sheds.assign(static_cast<std::size_t>(E), 0);
  st.epoch_slack_p1.assign(static_cast<std::size_t>(E), QuantileSketch(0.01));

  ClusterState cs;
  cs.meshes = M;
  cs.replication_epochs = R;
  cs.failover = fo;
  cs.mesh_down.assign(static_cast<std::size_t>(M), 0);
  cs.mesh_down_until_s.assign(static_cast<std::size_t>(M), 0.0);
  cs.mesh_served.assign(static_cast<std::size_t>(M), 0);
  cs.replica_runs.assign(T, 0);
  cs.replica_time_s.assign(T, 0.0);
  cs.replica_mesh.assign(T, -1);
  cs.tenant_ready_s.assign(T, 0.0);
  cs.tenant_victim.assign(T, 0);

  std::vector<TenantStats> stats(T);
  for (std::size_t i = 0; i < T; ++i) {
    stats[i].name = trace.tenants[i].name;
    stats[i].slo_s = trace.tenants[i].slo_s;
  }
  std::vector<CircuitBreaker> brk(T, CircuitBreaker(BreakerConfig{}));

  reram::FaultScheduleParams fp;
  fp.wordline_fail_rate = 2e-3;
  fp.bitline_fail_rate = 2e-3;
  fp.write_fail_rate = 0.05;
  std::vector<std::unique_ptr<reram::FaultInjector>> inj;
  inj.reserve(static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s)
    inj.push_back(std::make_unique<reram::FaultInjector>(
        fp, camp.fault_seed + static_cast<std::uint64_t>(s)));

  ArrivalGenerator gen(trace);

  // A frame that passed the CRC and the fingerprint can still carry
  // sizes, cursors or indices that disagree with the geometry. The loop
  // indexes with every one of them unchecked, so resume checks them first.
  auto state_fits = [&]() {
    if (!all_sized(static_cast<std::size_t>(S), st.shard_busy_until_s,
                   st.shard_pes, st.shard_demand, st.shard_wear) ||
        !all_sized(T, stats, st.tenant_shard, st.tenant_demand,
                   cs.replica_runs, cs.replica_time_s, cs.replica_mesh,
                   cs.tenant_ready_s, cs.tenant_victim, cs.breakers) ||
        !all_sized(static_cast<std::size_t>(E), st.epoch_energy_j,
                   st.epoch_edp_sum, st.epoch_requests, st.epoch_misses,
                   st.epoch_sheds, st.epoch_slack_p1) ||
        !all_sized(static_cast<std::size_t>(M), cs.mesh_down,
                   cs.mesh_down_until_s, cs.mesh_served))
      return false;
    if (st.next_event > st.requests || st.epoch < 0 || st.epoch >= E ||
        st.storms_fired < 0 ||
        static_cast<std::size_t>(st.storms_fired) > trace.storms.size() ||
        st.storm_shard_mask.size() !=
            static_cast<std::size_t>(st.storms_fired) ||
        cs.outages_fired < 0 ||
        static_cast<std::size_t>(cs.outages_fired) > outs.size())
      return false;
    for (std::int32_t g : st.tenant_shard)
      if (g < 0 || g >= S) return false;
    // Each mesh's blocks tile its PEs exactly, as every cut does:
    // campaign_blocks_from_counts walks the fill order by these counts.
    for (int m = 0; m < M; ++m) {
      int pes = 0;
      for (int k = 0; k < K; ++k) {
        const std::int32_t p =
            st.shard_pes[static_cast<std::size_t>(m * K + k)];
        if (p < 1 || p > pes_per_mesh) return false;
        pes += p;
      }
      if (pes != pes_per_mesh) return false;
    }
    return true;
  };

  if (resume_ckpt != nullptr) {
    st = resume_ckpt->scenario;
    stats = resume_ckpt->result.tenants;
    cs = resume_ckpt->cluster;
    if (!state_fits()) return std::nullopt;
    gen.skip(st.next_event);
    // Re-apply fired storms' drift windows to the global shards they
    // actually hit (a dark target mesh left its mask empty).
    for (std::int32_t s = 0; s < st.storms_fired; ++s) {
      const FaultStorm& storm = trace.storms[static_cast<std::size_t>(s)];
      const reram::DriftBurst burst{storm.start_frac * h,
                                    storm.duration_frac * h,
                                    storm.drift_multiplier};
      for (int g = 0; g < S; ++g)
        if ((st.storm_shard_mask[static_cast<std::size_t>(s)] >>
             static_cast<unsigned>(g)) &
            1u)
          inj[static_cast<std::size_t>(g)]->add_burst(burst);
    }
    // Re-apply fired outages' power-down windows (not serialized; pure
    // function of the cursor and the resolved schedule).
    for (std::int32_t oi = 0; oi < cs.outages_fired; ++oi) {
      const MeshOutage& o = outs[static_cast<std::size_t>(oi)];
      const double t0 = o.start_frac * h;
      const double dur = o.duration_frac * h;
      for (int k = 0; k < K; ++k)
        inj[static_cast<std::size_t>(o.mesh * K + k)]->add_power_down(t0,
                                                                      dur);
    }
    for (int s = 0; s < S; ++s)
      if (!inj[static_cast<std::size_t>(s)]->fast_forward(
              st.shard_wear[static_cast<std::size_t>(s)]))
        return std::nullopt;
    for (std::size_t i = 0; i < T; ++i) brk[i].restore(cs.breakers[i]);
  }

  std::optional<CheckpointWriter> writer;
  if (!camp.checkpoint.base_path.empty())
    writer.emplace(camp.checkpoint.base_path);
  const int every = std::max(1, camp.checkpoint.every_runs);

  auto write_checkpoint = [&]() {
    if (!writer.has_value()) return;
    st.shard_wear.resize(static_cast<std::size_t>(S));
    for (int s = 0; s < S; ++s)
      st.shard_wear[static_cast<std::size_t>(s)] =
          inj[static_cast<std::size_t>(s)]->wear_state();
    cs.breakers.resize(T);
    for (std::size_t i = 0; i < T; ++i) cs.breakers[i] = brk[i].snapshot();
    ServingCheckpoint ckpt;
    ckpt.segment = static_cast<std::uint64_t>(st.epoch);
    ckpt.next_run = st.next_event;
    ServingFingerprint& fp = ckpt.fingerprint;
    fp.segments = E;
    fp.horizon_runs = static_cast<int>(std::min<long long>(
        scfg.requests, std::numeric_limits<int>::max()));
    fp.t_start_s = 0.0;
    fp.t_end_s = h;
    for (const ScenarioTenant& t : trace.tenants)
      fp.tenant_names.push_back(t.name);
    fp.sojourn_cap = static_cast<std::uint64_t>(camp.sojourn_cap);
    ckpt.result.label = "cluster";
    ckpt.result.tenants = stats;
    ckpt.has_scenario = true;
    ckpt.scenario = st;
    ckpt.has_cluster = true;
    ckpt.cluster = cs;
    writer->write(ckpt);
  };

  // Close one epoch: each *alive* mesh autoscales independently over its
  // own K shards and its own tenants — re-cut PE blocks proportionally to
  // the epoch's shard demand, then migrate tenants off still-overloaded
  // shards. Migration cost is ledgered, never added to a shard's FIFO
  // clock — off the critical path. A dark mesh is skipped (nothing
  // served, nothing to cut).
  auto close_epoch = [&]() {
    for (int m = 0; m < M; ++m) {
      if (cs.mesh_down[static_cast<std::size_t>(m)] != 0) continue;
      const std::size_t base = static_cast<std::size_t>(m) *
                               static_cast<std::size_t>(K);
      double total = 0.0;
      for (int k = 0; k < K; ++k)
        total += st.shard_demand[base + static_cast<std::size_t>(k)];
      if (!autoscale || total <= 0.0) continue;
      auto pes_of = [&](std::size_t g) {
        return static_cast<double>(
            std::max<std::int32_t>(1, st.shard_pes[g]));
      };
      const double mean_pp = total / static_cast<double>(pes_per_mesh);
      double max_pp = 0.0;
      for (int k = 0; k < K; ++k) {
        const std::size_t g = base + static_cast<std::size_t>(k);
        max_pp = std::max(max_pp, st.shard_demand[g] / pes_of(g));
      }
      if (max_pp <= camp.autoscale.imbalance_threshold * mean_pp) continue;
      std::vector<double> local(
          st.shard_demand.begin() + static_cast<std::ptrdiff_t>(base),
          st.shard_demand.begin() +
              static_cast<std::ptrdiff_t>(base + static_cast<std::size_t>(K)));
      const auto blocks = rescale_shard_blocks(camp.pim, true, local);
      for (std::size_t k = 0; k < blocks.size(); ++k)
        st.shard_pes[base + k] = static_cast<std::int32_t>(blocks[k].size());
      ++st.rescales;
      for (std::size_t iter = 0; iter < T; ++iter) {
        std::size_t a = base, b = base;
        double hi = -1.0, lo = std::numeric_limits<double>::infinity();
        for (int k = 0; k < K; ++k) {
          const std::size_t g = base + static_cast<std::size_t>(k);
          const double pp = st.shard_demand[g] / pes_of(g);
          if (pp > hi) {
            hi = pp;
            a = g;
          }
          if (pp < lo) {
            lo = pp;
            b = g;
          }
        }
        if (a == b || hi <= kMigrateResidualThreshold * mean_pp) break;
        std::size_t best = T;
        double best_d = 0.0;
        for (std::size_t i = 0; i < T; ++i)
          if (st.tenant_shard[i] == static_cast<std::int32_t>(a) &&
              st.tenant_demand[i] > best_d) {
            best_d = st.tenant_demand[i];
            best = i;
          }
        if (best == T) break;
        const double new_a = (st.shard_demand[a] - best_d) / pes_of(a);
        const double new_b = (st.shard_demand[b] + best_d) / pes_of(b);
        if (std::max(new_a, new_b) >= hi) break;
        st.tenant_shard[best] = static_cast<std::int32_t>(b);
        st.shard_demand[a] -= best_d;
        st.shard_demand[b] += best_d;
        ++st.migrations;
        st.migration_s += camp.autoscale.migration_cost_s;
        st.migration_energy_j += camp.autoscale.migration_energy_j;
      }
    }
    std::fill(st.shard_demand.begin(), st.shard_demand.end(), 0.0);
    std::fill(st.tenant_demand.begin(), st.tenant_demand.end(), 0.0);
  };

  // Replicate every alive tenant's state to a peer mesh at the cadence:
  // ring-wise first alive mesh after home. One inter-mesh transfer per
  // round carries the batched payload; the ledger charges it off the
  // serving path (replication is asynchronous by construction).
  auto replicate = [&](int closing_epoch) {
    if (M <= 1) return;
    if (((closing_epoch + 1) % R) != 0) return;
    double bytes = 0.0;
    for (std::size_t i = 0; i < T; ++i) {
      const int home = st.tenant_shard[i] / K;
      if (cs.mesh_down[static_cast<std::size_t>(home)] != 0) continue;
      int peer = -1;
      for (int d = 1; d < M; ++d) {
        const int c = (home + d) % M;
        if (cs.mesh_down[static_cast<std::size_t>(c)] == 0) {
          peer = c;
          break;
        }
      }
      if (peer < 0) continue;
      cs.replica_runs[i] = stats[i].runs;
      cs.replica_time_s[i] = h * static_cast<double>(closing_epoch + 1) /
                             static_cast<double>(E);
      cs.replica_mesh[i] = static_cast<std::int32_t>(peer);
      bytes += kReplicaBytesPerTenant;
    }
    if (bytes <= 0.0) return;
    const common::EnergyLatency cost = arch::intermesh_transfer(
        static_cast<std::int64_t>(bytes));
    cs.replication_bytes += bytes;
    cs.replication_s += cost.latency_s;
    cs.replication_energy_j += cost.energy_j;
    ++cs.replication_rounds;
  };

  // Mesh loss: darken the mesh (shards unservable, drift clocks paused)
  // and, with failover on and a survivor available, evacuate its tenants
  // in index order — RPO from the replica cursor, destination by
  // least-loaded mesh then least-loaded shard, RTO from the serialized
  // restore queue, breaker pre-opened, destination re-bootstrapped.
  auto fire_outage = [&](const MeshOutage& o) {
    const int m = o.mesh;
    const double t0 = o.start_frac * h;
    const double dur = o.duration_frac * h;
    cs.mesh_down[static_cast<std::size_t>(m)] = 1;
    cs.mesh_down_until_s[static_cast<std::size_t>(m)] = t0 + dur;
    for (int k = 0; k < K; ++k)
      inj[static_cast<std::size_t>(m * K + k)]->add_power_down(t0, dur);
    bool any_alive = false;
    for (int c = 0; c < M; ++c)
      if (cs.mesh_down[static_cast<std::size_t>(c)] == 0) any_alive = true;
    std::vector<double> mesh_demand(static_cast<std::size_t>(M), 0.0);
    for (int g = 0; g < S; ++g)
      mesh_demand[static_cast<std::size_t>(g / K)] +=
          st.shard_demand[static_cast<std::size_t>(g)];
    const std::vector<std::int32_t> mesh_pes(
        static_cast<std::size_t>(M),
        static_cast<std::int32_t>(pes_per_mesh));
    std::vector<std::uint8_t> mesh_ok(static_cast<std::size_t>(M), 0);
    for (int c = 0; c < M; ++c)
      mesh_ok[static_cast<std::size_t>(c)] =
          cs.mesh_down[static_cast<std::size_t>(c)] == 0 ? 1 : 0;
    const double pull_s =
        arch::intermesh_transfer(
            static_cast<std::int64_t>(kReplicaBytesPerTenant))
            .latency_s;
    int restored = 0;
    for (std::size_t i = 0; i < T; ++i) {
      if (st.tenant_shard[i] / K != m) continue;
      cs.tenant_victim[i] = 1;
      if (!fo || !any_alive) continue;  // stranded: dark until revival
      TenantStats& ts = stats[i];
      // RPO: how far behind the freshest replica is.
      double rpo = 0.0;
      if (ts.runs > cs.replica_runs[i]) {
        ++cs.restored_stale;
        ++ts.restored_stale;
        const long long lost =
            static_cast<long long>(ts.runs) - cs.replica_runs[i];
        cs.lost_runs += lost;
        ts.lost_runs += lost;
        rpo = std::max(0.0, t0 - cs.replica_time_s[i]);
      }
      ts.rpo_s = std::max(ts.rpo_s, rpo);
      cs.rpo_sum_s += rpo;
      cs.rpo_max_s = std::max(cs.rpo_max_s, rpo);
      // Destination: least-loaded surviving mesh, then its least-loaded
      // shard (per-PE demand, deterministic tie-breaks).
      const std::size_t tm =
          pick_least_loaded_block(mesh_demand, mesh_pes, mesh_ok);
      assert(tm < mesh_demand.size());
      const std::size_t tb = tm * static_cast<std::size_t>(K);
      const std::vector<double> local_demand(
          st.shard_demand.begin() + static_cast<std::ptrdiff_t>(tb),
          st.shard_demand.begin() +
              static_cast<std::ptrdiff_t>(tb + static_cast<std::size_t>(K)));
      const std::vector<std::int32_t> local_pes(
          st.shard_pes.begin() + static_cast<std::ptrdiff_t>(tb),
          st.shard_pes.begin() +
              static_cast<std::ptrdiff_t>(tb + static_cast<std::size_t>(K)));
      const std::size_t tk =
          pick_least_loaded_block(local_demand, local_pes, {});
      const auto dst = static_cast<std::int32_t>(tb + tk);
      const auto src = static_cast<std::size_t>(st.tenant_shard[i]);
      st.shard_demand[src] -= st.tenant_demand[i];
      st.shard_demand[static_cast<std::size_t>(dst)] += st.tenant_demand[i];
      mesh_demand[static_cast<std::size_t>(m)] -= st.tenant_demand[i];
      mesh_demand[tm] += st.tenant_demand[i];
      st.tenant_shard[i] = dst;
      // RTO: detection once, then the serialized restore queue (one pull
      // plus one reinstatement per victim ahead of this one, inclusive).
      ++restored;
      const double ready = t0 + config.failover.detection_s +
                           static_cast<double>(restored) *
                               (config.failover.restore_s + pull_s);
      cs.tenant_ready_s[i] = ready;
      const double rto = ready - t0;
      ts.rto_s = std::max(ts.rto_s, rto);
      cs.rto_sum_s += rto;
      cs.rto_max_s = std::max(cs.rto_max_s, rto);
      // Restore pull rides the inter-mesh link too.
      cs.replication_bytes += kReplicaBytesPerTenant;
      cs.replication_s += pull_s;
      cs.replication_energy_j +=
          arch::intermesh_transfer(
              static_cast<std::int64_t>(kReplicaBytesPerTenant))
              .energy_j;
      // Re-bootstrap from last-known-good OU config: one write-verify
      // campaign on the destination shard's array (rides the wear
      // fingerprint, so resume replays it).
      inj[static_cast<std::size_t>(dst)]->program_campaign();
      ++cs.bootstrap_campaigns;
      // Degraded admission until a half-open probe passes.
      brk[i].force_open(config.failover.degraded_window);
      ++cs.failovers;
      ++ts.failovers;
    }
  };

  long long served_now = 0;
  bool stopped = false;
  while (st.next_event < st.requests) {
    if (camp.max_requests > 0 && served_now >= camp.max_requests) {
      stopped = true;
      break;
    }
    const ArrivalGenerator::Arrival arr = gen.next();
    const double t = arr.t_s;
    const auto tenant = static_cast<std::size_t>(arr.tenant);

    // Fire due outages, then revive meshes whose window has passed (in
    // that order, so a window fully inside an arrival gap still fires —
    // and its failover still runs — before the mesh comes back).
    while (static_cast<std::size_t>(cs.outages_fired) < outs.size() &&
           outs[static_cast<std::size_t>(cs.outages_fired)].start_frac * h <=
               t) {
      fire_outage(outs[static_cast<std::size_t>(cs.outages_fired)]);
      ++cs.outages_fired;
    }
    for (int m = 0; m < M; ++m)
      if (cs.mesh_down[static_cast<std::size_t>(m)] != 0 &&
          t >= cs.mesh_down_until_s[static_cast<std::size_t>(m)])
        cs.mesh_down[static_cast<std::size_t>(m)] = 0;

    // Fire due storms on their target mesh's current shard blocks. A
    // dark target absorbs the storm (mask stays empty — nothing to burn).
    while (static_cast<std::size_t>(st.storms_fired) < trace.storms.size() &&
           trace.storms[static_cast<std::size_t>(st.storms_fired)].start_frac *
                   h <=
               t) {
      const auto si = static_cast<std::size_t>(st.storms_fired);
      const FaultStorm& storm = trace.storms[si];
      const int tm = storm_mesh[si];
      std::uint64_t mask = 0;
      if (cs.mesh_down[static_cast<std::size_t>(tm)] == 0) {
        const std::size_t base = static_cast<std::size_t>(tm) *
                                 static_cast<std::size_t>(K);
        const std::vector<std::int32_t> local_pes(
            st.shard_pes.begin() + static_cast<std::ptrdiff_t>(base),
            st.shard_pes.begin() +
                static_cast<std::ptrdiff_t>(base +
                                            static_cast<std::size_t>(K)));
        const auto blocks = campaign_blocks_from_counts(camp.pim, local_pes);
        std::vector<std::int32_t> shard_of(
            static_cast<std::size_t>(pes_per_mesh), 0);
        for (std::size_t k = 0; k < blocks.size(); ++k)
          for (int pe : blocks[k])
            shard_of[static_cast<std::size_t>(pe)] =
                static_cast<std::int32_t>(k);
        for (int pe : trace.storm_pes(si))
          mask |= 1ull << static_cast<unsigned>(
                      base + static_cast<std::size_t>(
                                 shard_of[static_cast<std::size_t>(pe)]));
        const reram::DriftBurst burst{storm.start_frac * h,
                                      storm.duration_frac * h,
                                      storm.drift_multiplier};
        for (int g = 0; g < S; ++g)
          if ((mask >> static_cast<unsigned>(g)) & 1u) {
            inj[static_cast<std::size_t>(g)]->add_burst(burst);
            inj[static_cast<std::size_t>(g)]->program_campaigns(
                storm.campaigns);
            st.storm_campaigns_fired += storm.campaigns;
          }
      }
      st.storm_shard_mask.push_back(mask);
      ++st.storms_fired;
    }

    // Epoch rollover(s): close accumulators, autoscale per mesh, then
    // push replicas at the cadence.
    const int ep = std::min(E - 1, static_cast<int>(t / h *
                                                    static_cast<double>(E)));
    while (st.epoch < ep) {
      close_epoch();
      replicate(st.epoch);
      ++st.epoch;
    }

    // Serve. A dark home mesh (or a restore still in flight) drops the
    // arrival — counted, never silently lost.
    const ScenarioTenant& sp = trace.tenants[tenant];
    TenantStats& ts = stats[tenant];
    const auto k = static_cast<std::size_t>(st.tenant_shard[tenant]);
    const int mesh = static_cast<int>(k) / K;
    if (cs.mesh_down[static_cast<std::size_t>(mesh)] != 0 ||
        t < cs.tenant_ready_s[tenant]) {
      ++cs.outage_dropped;
      ++ts.outage_dropped;
      if (cs.tenant_victim[tenant] != 0) ++cs.victim_offered;
      st.clock_s = t;
      ++st.next_event;
      ++served_now;
      if (writer.has_value() && served_now % every == 0) write_checkpoint();
      continue;
    }
    if (cs.tenant_victim[tenant] != 0) {
      ++cs.victim_offered;
      ++cs.victim_served;
    }
    ++cs.mesh_served[static_cast<std::size_t>(mesh)];
    // Degraded admission: a non-closed breaker serves the fallback path
    // until its hold drains; the run that exhausts it is the half-open
    // probe. Closed breakers never consume state, so without a failover
    // (every plain campaign) this is the plain serve path.
    bool degraded = false, probe = false;
    if (brk[tenant].state() != CircuitBreaker::State::kClosed) {
      const bool full = brk[tenant].allow();
      probe = full;
      degraded = !full;
    }
    const double mult = inj[k]->drift_time_multiplier(t);
    const double ff = inj[k]->fault_fraction();
    double service = 0.0, energy = 0.0;
    campaign_price(sp, mult, ff, st.shard_pes[k], service, energy);
    const double demand_service = service;
    const double wait = std::max(0.0, st.shard_busy_until_s[k] - t);
    const bool shed = wait > camp.queue_shed_slo_mult * sp.slo_s;
    double sojourn;
    if (degraded) {
      // Breaker-open fallback: same degraded out-of-band path as a shed,
      // ledgered separately (it is admission policy, not queue pressure).
      campaign_degrade(service, energy);
      sojourn = service;
      ++ts.breaker_open_runs;
      ++cs.degraded_runs;
    } else if (shed) {
      campaign_degrade(service, energy);
      sojourn = service;
      ++ts.shed_runs;
      ++st.sheds;
      ++st.epoch_sheds[static_cast<std::size_t>(st.epoch)];
    } else {
      const double start = std::max(st.shard_busy_until_s[k], t);
      st.shard_busy_until_s[k] = start + service;
      sojourn = st.shard_busy_until_s[k] - t;
    }
    const double slack = sp.slo_s - sojourn;
    if (sojourn > sp.slo_s) {
      ++ts.deadline_misses;
      ++st.misses;
      ++st.epoch_misses[static_cast<std::size_t>(st.epoch)];
    }
    ts.record_sojourn(sojourn, camp.sojourn_cap);
    ++ts.runs;
    ts.service_s += service;
    ts.inference.energy_j += energy;
    ts.inference.latency_s += service;
    const double edp = energy * service;
    st.energy_j += energy;
    st.edp_sum += edp;
    st.sojourn.add(sojourn);
    st.slack_p1.add(slack);
    st.tier_slack_p1[static_cast<int>(sp.tier)].add(slack);
    if (trace.in_flash_phase(t)) {
      ++st.flash_requests;
      st.flash_slack_p1.add(slack);
    }
    const auto e = static_cast<std::size_t>(st.epoch);
    ++st.epoch_requests[e];
    st.epoch_energy_j[e] += energy;
    st.epoch_edp_sum[e] += edp;
    st.epoch_slack_p1[e].add(slack);
    st.shard_demand[k] += demand_service;
    st.tenant_demand[tenant] += demand_service;
    st.clock_s = t;
    if (probe) brk[tenant].record(sojourn <= sp.slo_s);

    ++st.next_event;
    ++served_now;
    if (writer.has_value() && served_now % every == 0) write_checkpoint();
  }
  write_checkpoint();
  (void)stopped;

  st.shard_wear.resize(static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s)
    st.shard_wear[static_cast<std::size_t>(s)] =
        inj[static_cast<std::size_t>(s)]->wear_state();
  cs.breakers.resize(T);
  for (std::size_t i = 0; i < T; ++i) cs.breakers[i] = brk[i].snapshot();

  ClusterResult r;
  r.campaign.label = autoscale ? "autoscaled" : "static";
  r.campaign.scenario = scfg;
  r.campaign.shards = S;
  r.campaign.autoscaled = autoscale;
  r.campaign.resumed = resume_ckpt != nullptr;
  r.campaign.roster = trace.tenants;
  r.campaign.tenants = std::move(stats);
  r.campaign.trajectory.reserve(static_cast<std::size_t>(E));
  for (int e = 0; e < E; ++e) {
    const auto i = static_cast<std::size_t>(e);
    CampaignEpoch ep;
    ep.t_end_s = h * static_cast<double>(e + 1) / static_cast<double>(E);
    ep.requests = st.epoch_requests[i];
    ep.misses = st.epoch_misses[i];
    ep.sheds = st.epoch_sheds[i];
    ep.energy_j = st.epoch_energy_j[i];
    ep.edp_sum = st.epoch_edp_sum[i];
    ep.p99_slack_s = st.epoch_slack_p1[i].estimate();
    r.campaign.trajectory.push_back(ep);
  }
  r.campaign.state = std::move(st);
  r.cluster = std::move(cs);
  r.meshes = M;
  r.shards_per_mesh = K;
  r.failover = fo;
  r.replication_epochs = R;
  r.outages = outs;
  return r;
}

}  // namespace

double ClusterResult::victim_recovery() const noexcept {
  if (cluster.victim_offered <= 0) return 1.0;
  return static_cast<double>(cluster.victim_served) /
         static_cast<double>(cluster.victim_offered);
}

double ClusterResult::rto_mean_s() const noexcept {
  return cluster.failovers > 0
             ? cluster.rto_sum_s / static_cast<double>(cluster.failovers)
             : 0.0;
}

double ClusterResult::rpo_mean_s() const noexcept {
  return cluster.failovers > 0
             ? cluster.rpo_sum_s / static_cast<double>(cluster.failovers)
             : 0.0;
}

std::string ClusterResult::summary(bool include_trajectory) const {
  std::string out;
  char line[512];
  auto emit = [&](const char* fmt, auto... args) {
    std::snprintf(line, sizeof(line), fmt, args...);
    out += line;
  };
  emit("cluster meshes=%d shards_per_mesh=%d failover=%d "
       "replication_epochs=%d outages=%zu fired=%d\n",
       meshes, shards_per_mesh, failover ? 1 : 0, replication_epochs,
       outages.size(), cluster.outages_fired);
  for (std::size_t i = 0; i < outages.size(); ++i)
    emit("outage %zu mesh=%d start_frac=%.17g duration_frac=%.17g\n", i,
         outages[i].mesh, outages[i].start_frac, outages[i].duration_frac);
  emit("failover failovers=%lld restored_stale=%lld lost_runs=%lld "
       "outage_dropped=%lld degraded_runs=%lld bootstrap_campaigns=%lld\n",
       static_cast<long long>(cluster.failovers),
       static_cast<long long>(cluster.restored_stale),
       static_cast<long long>(cluster.lost_runs),
       static_cast<long long>(cluster.outage_dropped),
       static_cast<long long>(cluster.degraded_runs),
       static_cast<long long>(cluster.bootstrap_campaigns));
  emit("recovery rto_max_s=%.17g rto_mean_s=%.17g rpo_max_s=%.17g "
       "rpo_mean_s=%.17g victim_offered=%lld victim_served=%lld "
       "victim_recovery=%.17g\n",
       cluster.rto_max_s, rto_mean_s(), cluster.rpo_max_s, rpo_mean_s(),
       static_cast<long long>(cluster.victim_offered),
       static_cast<long long>(cluster.victim_served), victim_recovery());
  emit("replication rounds=%d bytes=%.17g time_s=%.17g energy_j=%.17g\n",
       cluster.replication_rounds, cluster.replication_bytes,
       cluster.replication_s, cluster.replication_energy_j);
  for (std::size_t m = 0; m < cluster.mesh_served.size(); ++m)
    emit("mesh %zu served=%lld down=%d\n", m,
         static_cast<long long>(cluster.mesh_served[m]),
         static_cast<int>(cluster.mesh_down[m]));
  out += campaign.summary(include_trajectory);
  return out;
}

ClusterResult run_cluster(const ClusterConfig& config) {
  auto result = run_cluster_impl(config, nullptr);
  assert(result.has_value());  // only a resume checkpoint can fail
  return std::move(*result);
}

std::optional<ClusterResult> resume_cluster(const ClusterConfig& config) {
  if (config.campaign.checkpoint.base_path.empty()) return std::nullopt;
  const auto ckpt =
      load_latest_checkpoint(config.campaign.checkpoint.base_path);
  if (!ckpt.has_value() || !ckpt->has_scenario || !ckpt->has_cluster)
    return std::nullopt;
  // Wrong-geometry refusal, campaign then cluster: the state only
  // reinstates onto the identical scenario AND the identical cluster
  // (mesh count, replication cadence, failover arm).
  ScenarioConfig scfg = config.campaign.scenario;
  scfg.seed = scfg.resolved_seed();
  const int M = config.resolved_meshes();
  const int K = shards_per_mesh(config.campaign, M);
  const CampaignState& s = ckpt->scenario;
  if (s.seed != scfg.seed ||
      s.requests != static_cast<std::uint64_t>(
                        std::max<long long>(0, scfg.requests)) ||
      s.tenants != std::max(1, scfg.tenants) || s.shards != M * K ||
      s.epochs != std::max(1, config.campaign.epochs) ||
      s.autoscale != config.campaign.autoscale.enabled)
    return std::nullopt;
  if (ckpt->fingerprint.sojourn_cap !=
      static_cast<std::uint64_t>(config.campaign.sojourn_cap))
    return std::nullopt;
  const ClusterState& c = ckpt->cluster;
  if (c.meshes != M ||
      c.replication_epochs != config.resolved_replication_epochs() ||
      c.failover != config.failover.enabled)
    return std::nullopt;
  ClusterConfig cont = config;
  cont.campaign.max_requests = 0;
  return run_cluster_impl(cont, &*ckpt);
}

namespace {

/// The cluster a plain campaign runs as: the default one-mesh cluster
/// with no outages and failover off. One mesh with no outages never
/// replicates, fails over or drops an arrival; the cadence only fills the
/// fingerprint.
ClusterConfig one_mesh(const CampaignConfig& campaign) {
  ClusterConfig c;
  c.campaign = campaign;
  c.mesh_outages = 0;  // and no pinned `outages`
  c.failover.enabled = false;
  return c;
}

}  // namespace

CampaignResult run_campaign(const CampaignConfig& config) {
  return run_cluster(one_mesh(config)).campaign;
}

std::optional<CampaignResult> resume_campaign(const CampaignConfig& config) {
  auto r = resume_cluster(one_mesh(config));
  if (!r.has_value()) return std::nullopt;
  return std::move(r->campaign);
}

// ---------------------------------------------------------------------------
// Cluster scenario-file parser. Cluster keys are consumed here; every
// other line is passed through to parse_scenario with its position
// preserved (consumed lines become blanks), so scenario-level errors
// still report the right line number.

std::optional<ClusterConfig> parse_cluster(std::istream& in) {
  ClusterConfig cfg;
  std::string raw;
  int lineno = 0;
  std::string rest;
  auto fail = [&](const char* why) -> std::optional<ClusterConfig> {
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
    if (!(ls >> key)) {
      rest += raw;
      rest += '\n';
      continue;
    }
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
    if (key == "meshes") {
      if (!integer(0, iv) || iv < 1 || iv > kMaxMeshes)
        return fail("want integer in [1, 8]");
      cfg.meshes = static_cast<int>(iv);
    } else if (key == "replication-epochs") {
      if (!integer(0, iv) || iv < 1 || iv > kMaxReplicationEpochs)
        return fail("want integer in [1, 64]");
      cfg.replication_epochs = static_cast<int>(iv);
    } else if (key == "failover") {
      if (args.size() != 1 || (args[0] != "on" && args[0] != "off" &&
                               args[0] != "1" && args[0] != "0"))
        return fail("want on|off|1|0");
      cfg.failover.enabled = args[0] == "on" || args[0] == "1";
    } else if (key == "outage") {
      MeshOutage o;
      long long mesh = -1;
      if (!num(0, o.start_frac) || !num(1, o.duration_frac))
        return fail("want: outage START_FRAC DURATION_FRAC [MESH]");
      if (args.size() > 2 && !integer(2, mesh)) return fail("bad MESH");
      o.mesh = static_cast<int>(mesh);
      cfg.outages.push_back(o);
    } else if (key == "mesh-outages") {
      if (!integer(0, iv) || iv < 0) return fail("want integer >= 0");
      cfg.mesh_outages = static_cast<int>(iv);
    } else if (key == "outage-duration-frac") {
      if (!num(0, fv) || fv <= 0.0 || fv > 1.0)
        return fail("want number in (0, 1]");
      cfg.outage_duration_frac = fv;
    } else if (key == "detection-s") {
      if (!num(0, fv) || fv < 0.0) return fail("want number >= 0");
      cfg.failover.detection_s = fv;
    } else if (key == "restore-s") {
      if (!num(0, fv) || fv < 0.0) return fail("want number >= 0");
      cfg.failover.restore_s = fv;
    } else if (key == "degraded-window") {
      if (!integer(0, iv) || iv < 1) return fail("want integer >= 1");
      cfg.failover.degraded_window = static_cast<int>(iv);
    } else {
      rest += raw;
      rest += '\n';
      continue;
    }
    rest += '\n';  // consumed: keep downstream line numbers aligned
  }
  std::istringstream scenario_in(rest);
  auto camp = parse_scenario(scenario_in);
  if (!camp.has_value()) return std::nullopt;
  cfg.campaign = std::move(*camp);
  return cfg;
}

std::optional<ClusterConfig> parse_cluster_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "odin: cannot open scenario file: %s\n",
                 path.c_str());
    return std::nullopt;
  }
  return parse_cluster(in);
}

}  // namespace odin::core
