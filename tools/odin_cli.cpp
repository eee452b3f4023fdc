// odin_cli — command-line driver for the Odin library.
//
//   odin_cli workloads
//       List the paper's nine workloads (plus extensions) with their
//       lowered sizes, sparsity and crossbar footprints.
//   odin_cli simulate  <workload> [--crossbar N] [--runs N] [--ou RxC]
//       Horizon simulation of Odin vs a homogeneous baseline on one
//       workload; prints totals and the EDP advantage.
//   odin_cli train-policy <output-file> [--exclude FAMILY] [--crossbar N]
//       Offline-bootstrap a policy (leave-one-family-out) and save it.
//   odin_cli best-ou <workload> [--layer J] [--time T]
//       Exhaustive best OU configuration per layer at a given drift time.
//   odin_cli checkpoint <base> [--workload W] [--runs N] [--segments K]
//                              [--every N] [--max-runs N] [--crossbar N]
//       Serve with periodic crash-safe checkpoints to <base>.a/<base>.b;
//       --max-runs simulates a crash after N inference runs.
//   odin_cli resume <base> [--workload W] [--runs N] [--segments K]
//                          [--crossbar N]
//       Load the newest valid checkpoint of the pair and finish the
//       interrupted serving horizon (flags must match the original).
//   odin_cli serve [--workloads A,B,C] [--runs N] [--segments K]
//                  [--crossbar N] [--slo S] [--queue N]
//                  [--shed block|oldest|newest] [--eval-cost S]
//                  [--breaker-window N] [--breaker-threshold N]
//                  [--watchdog-ms N] [--batch-max N]
//       Multi-tenant serving with the resilience layer on: per-tenant
//       latency SLOs, bounded admission queue with load shedding,
//       circuit breakers and the hung-work watchdog. Reports deadline
//       slack percentiles, shed/miss counts and breaker transitions.
//       --batch-max N enables deadline-aware batch formation over the
//       admission queue with a cap of N (clamped to 1024); the summary
//       then also reports batches formed, mean occupancy and SLO-capped
//       growth.
//       --wear SEED serves against a wear-leveled fault injector (16
//       spare rows per crossbar, 80% wear budget) and reports per-tenant
//       wear counters: rows remapped onto spares, crossbars retired
//       (tenant migrated), leveled row writes, wear-deferred reprograms
//       and the spare rows still unused.
//       --shards N partitions the 36-PE mesh into N shards (default 1,
//       clamped to the PE count) and serves them concurrently: tenants
//       are placed NoC-/wear-aware (core/fleet.hpp), each shard runs its
//       own serving loop, and the report adds a per-shard table plus
//       fleet aggregates (makespan, images/s, per-request EDP, pooled
//       p99 slack). With --wear, each shard gets its own injector seeded
//       SEED+k so placement can steer tenants off worn shards.
//   odin_cli campaign [--file SCENARIO] [--seed N] [--tenants N]
//                     [--requests N] [--shards N] [--epochs N]
//                     [--autoscale on|off] [--checkpoint BASE] [--every N]
//                     [--max-requests N] [--resume]
//       Seeded, replayable workload-trace campaign (core/scenario.hpp):
//       diurnal arrivals, flash crowds, tenant churn, correlated fault
//       storms and reactive autoscaling over the sharded mesh. --file
//       reads a scenario file (docs/scenario_format.md); flags override
//       it. --max-requests simulates a crash mid-campaign; --resume
//       reinstates the newest checkpoint of the pair and finishes the
//       campaign bitwise-identical to an uninterrupted run.
//   odin_cli cluster [campaign flags] [--meshes N] [--replication-epochs N]
//                    [--failover on|off] [--mesh-outages N]
//       The campaign across N independent meshes (core/cluster.hpp):
//       seeded whole-mesh outages, checkpoint replication to a peer mesh
//       and failover evacuation, with per-tenant RTO/RPO. --file also
//       reads the cluster keys of a scenario file.
//
// Numeric flags parse strictly: a malformed token or a value outside the
// flag's range (for campaign and cluster flags, the range of the matching
// scenario-file key) is a usage error with exit status 1. All randomness
// is seeded; outputs are reproducible.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/math.hpp"
#include "common/table.hpp"
#include "core/checkpoint.hpp"
#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "core/fleet.hpp"
#include "core/scenario.hpp"
#include "core/serving.hpp"
#include "ou/search.hpp"
#include "policy/serialization.hpp"
#include "reram/fault_injection.hpp"

using namespace odin;

namespace {

std::map<std::string, dnn::DnnModel (*)(data::DatasetKind)> builders() {
  return {
      {"resnet18", dnn::make_resnet18},   {"resnet34", dnn::make_resnet34},
      {"resnet50", dnn::make_resnet50},   {"vgg11", dnn::make_vgg11},
      {"vgg16", dnn::make_vgg16},         {"vgg19", dnn::make_vgg19},
      {"googlenet", dnn::make_googlenet},
      {"densenet121", dnn::make_densenet121},
      {"vit", dnn::make_vit},             {"mobilenetv1", dnn::make_mobilenetv1},
  };
}

std::optional<std::string> flag_value(int argc, char** argv,
                                      const char* name) {
  for (int i = 0; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return std::string(argv[i + 1]);
  return std::nullopt;
}

bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return true;
  return false;
}

/// A flag value the command cannot accept: a usage error, exit status 1.
[[noreturn]] void bad_flag(const char* name, const std::string& token,
                           const char* want) {
  std::fprintf(stderr, "odin_cli: bad %s '%s' (want %s)\n", name,
               token.c_str(), want);
  std::exit(1);
}

/// Reads numeric flag `name` into `out` and reports whether it was given;
/// an absent flag leaves `out` as it is. The whole token must parse
/// (core::parse_i64 for an integer field, core::parse_f64 for a real one)
/// and lie in [lo, hi]; anything else is a usage error.
template <typename T>
bool read_flag(int argc, char** argv, const char* name, T& out,
               std::type_identity_t<T> lo,
               std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  const auto token = flag_value(argc, argv, name);
  if (!token) return false;
  constexpr bool real = std::is_floating_point_v<T>;
  if constexpr (real) {
    double v = 0.0;
    if (core::parse_f64(*token, v) && v >= lo && v <= hi) {
      out = v;
      return true;
    }
  } else {
    long long v = 0;
    if (core::parse_i64(*token, v) && std::cmp_greater_equal(v, lo) &&
        std::cmp_less_equal(v, hi)) {
      out = static_cast<T>(v);
      return true;
    }
  }
  char want[96];
  const char* kind = real ? "number" : "integer";
  if (hi == std::numeric_limits<T>::max())
    std::snprintf(want, sizeof(want), "%s >= %g", kind,
                  static_cast<double>(lo));
  else
    std::snprintf(want, sizeof(want), "%s in [%g, %g]", kind,
                  static_cast<double>(lo), static_cast<double>(hi));
  bad_flag(name, *token, want);
}

/// Reads an on|off|1|0 flag into `out`; an absent flag leaves it as is.
void read_switch(int argc, char** argv, const char* name, bool& out) {
  const auto token = flag_value(argc, argv, name);
  if (!token) return;
  if (*token != "on" && *token != "off" && *token != "1" && *token != "0")
    bad_flag(name, *token, "on|off|1|0");
  out = *token == "on" || *token == "1";
}

/// --crossbar: a power of two >= 4 (the OU grid's contract), default 128.
int crossbar_flag(int argc, char** argv) {
  int n = 128;
  read_flag(argc, argv, "--crossbar", n, 4);
  if (!common::is_pow2(n))
    bad_flag("--crossbar", std::to_string(n), "a power of two >= 4");
  return n;
}

std::optional<dnn::DnnModel> build_workload(const std::string& name) {
  const auto reg = builders();
  const auto it = reg.find(name);
  if (it == reg.end()) return std::nullopt;
  // CLI workloads default to CIFAR-10 shapes.
  return it->second(data::DatasetKind::kCifar10);
}

std::optional<ou::OuConfig> parse_ou(const std::string& text) {
  const auto x = text.find('x');
  if (x == std::string::npos) return std::nullopt;
  long long r = 0, c = 0;
  if (!core::parse_i64(text.substr(0, x), r) ||
      !core::parse_i64(text.substr(x + 1), c) || r < 1 || c < 1 ||
      r > std::numeric_limits<int>::max() ||
      c > std::numeric_limits<int>::max())
    return std::nullopt;
  return ou::OuConfig{static_cast<int>(r), static_cast<int>(c)};
}

int cmd_workloads() {
  const core::Setup setup;
  const arch::SystemModel system = setup.make_system();
  common::Table table({"workload", "layers", "lowered weights",
                       "sparsity %", "crossbars", "MACs"});
  auto add = [&](dnn::DnnModel model) {
    const auto pruned = dnn::prune_model(model, setup.prune_seed);
    const auto mapping = system.map(pruned.model);
    table.add_row({pruned.model.name,
                   common::Table::integer(
                       static_cast<long long>(pruned.model.layers.size())),
                   common::Table::integer(pruned.model.total_weights()),
                   common::Table::num(
                       100.0 * pruned.model.overall_sparsity(), 3),
                   common::Table::integer(mapping.crossbars_used),
                   common::Table::integer(pruned.model.total_macs())});
  };
  for (dnn::DnnModel& m : dnn::paper_workloads()) add(std::move(m));
  add(dnn::make_mobilenetv1(data::DatasetKind::kCifar10));
  common::print_table("available workloads (paper nine + extensions)",
                      table);
  return 0;
}

int cmd_simulate(const std::string& workload, int argc, char** argv) {
  auto model = build_workload(workload);
  if (!model) {
    std::fprintf(stderr, "unknown workload '%s' (try: odin_cli workloads)\n",
                 workload.c_str());
    return 1;
  }
  const int crossbar = crossbar_flag(argc, argv);
  core::HorizonConfig horizon;
  horizon.runs = 400;
  read_flag(argc, argv, "--runs", horizon.runs, 2);
  const std::string ou = flag_value(argc, argv, "--ou").value_or("16x16");
  const auto baseline = parse_ou(ou);
  if (!baseline) bad_flag("--ou", ou, "RxC, integers >= 1");

  const core::Setup setup;
  const ou::NonIdealityModel nonideal = setup.make_nonideality(crossbar);
  const ou::OuCostModel cost = setup.make_cost();
  const ou::MappedModel mapped = setup.make_mapped(std::move(*model),
                                                   crossbar);
  core::OdinController controller(mapped, nonideal, cost,
                                  policy::OuPolicy(ou::OuLevelGrid(crossbar)));
  const auto odin = core::simulate_odin(controller, horizon);
  const auto base = core::simulate_homogeneous(mapped, nonideal, cost,
                                               *baseline, horizon);
  common::Table table({"scheme", "energy (mJ)", "latency (s)", "EDP (Js)",
                       "reprograms"});
  table.add_row({"Odin", common::Table::num(odin.total().energy_j * 1e3, 4),
                 common::Table::num(odin.total().latency_s, 4),
                 common::Table::num(odin.total_edp(), 4),
                 common::Table::integer(odin.reprograms)});
  table.add_row({baseline->to_string(),
                 common::Table::num(base.total().energy_j * 1e3, 4),
                 common::Table::num(base.total().latency_s, 4),
                 common::Table::num(base.total_edp(), 4),
                 common::Table::integer(base.reprograms)});
  common::print_table(mapped.model().name + " over [t0, 1e8 s], " +
                          std::to_string(horizon.runs) + " runs",
                      table);
  std::printf("Odin EDP advantage: %.2fx\n",
              base.total_edp() / odin.total_edp());
  return 0;
}

int cmd_train_policy(const std::string& path, int argc, char** argv) {
  const std::string family =
      flag_value(argc, argv, "--exclude").value_or("VGG");
  const int crossbar = crossbar_flag(argc, argv);
  const std::map<std::string, dnn::Family> families{
      {"ResNet", dnn::Family::kResNet},   {"VGG", dnn::Family::kVgg},
      {"GoogLeNet", dnn::Family::kGoogLeNet},
      {"DenseNet", dnn::Family::kDenseNet}, {"ViT", dnn::Family::kViT}};
  const auto it = families.find(family);
  if (it == families.end()) {
    std::fprintf(stderr, "unknown family '%s'\n", family.c_str());
    return 1;
  }
  const core::Setup setup;
  std::printf("bootstrapping policy (excluding %s, crossbar %d)...\n",
              family.c_str(), crossbar);
  policy::OuPolicy policy =
      core::offline_policy_excluding(setup, it->second, crossbar);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
    return 1;
  }
  policy::save_policy(policy, out);
  std::printf("saved %zu-parameter policy to %s\n", policy.parameter_count(),
              path.c_str());
  return 0;
}

int cmd_best_ou(const std::string& workload, int argc, char** argv) {
  auto model = build_workload(workload);
  if (!model) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 1;
  }
  double t = 1.0;
  read_flag(argc, argv, "--time", t, 0.0);
  int only_layer = -1;  // every layer
  read_flag(argc, argv, "--layer", only_layer, 0);

  const core::Setup setup;
  const ou::NonIdealityModel nonideal = setup.make_nonideality();
  const ou::OuCostModel cost = setup.make_cost();
  const ou::MappedModel mapped = setup.make_mapped(std::move(*model));
  const ou::OuLevelGrid grid(mapped.crossbar_size());
  const int n = static_cast<int>(mapped.layer_count());

  common::Table table({"layer", "name", "sparsity %", "best OU",
                       "EDP (Js)"});
  for (int j = 0; j < n; ++j) {
    if (only_layer >= 0 && j != only_layer) continue;
    const auto& layer = mapped.model().layers[static_cast<std::size_t>(j)];
    ou::LayerContext ctx{
        .mapping = &mapped.mapping(static_cast<std::size_t>(j)),
        .cost = &cost,
        .nonideal = &nonideal,
        .grid = &grid,
        .elapsed_s = t,
        .sensitivity = nonideal.layer_sensitivity(j, n)};
    const auto best = ou::exhaustive_search(ctx);
    table.add_row({common::Table::integer(j + 1), layer.name,
                   common::Table::num(100.0 * layer.weight_sparsity, 3),
                   best.found ? best.best.to_string() : "REPROGRAM",
                   best.found ? common::Table::num(best.edp, 4) : "-"});
  }
  char title[96];
  std::snprintf(title, sizeof(title), "%s best OU at t = %g s",
                mapped.model().name.c_str(), t);
  common::print_table(title, table);
  return 0;
}

/// Shared setup for the checkpoint/resume pair — both invocations must
/// build the identical serving configuration or the checkpoint's
/// fingerprint validation will (correctly) refuse to resume.
core::ServingConfig serving_config_from_flags(int argc, char** argv) {
  core::ServingConfig config;
  config.horizon.runs = 120;
  config.segments = 4;
  read_flag(argc, argv, "--runs", config.horizon.runs, 2);
  read_flag(argc, argv, "--segments", config.segments, 1);
  read_flag(argc, argv, "--every", config.checkpoint.every_runs, 1);
  read_flag(argc, argv, "--max-runs", config.max_runs, 0);
  return config;
}

void print_serving_summary(const core::ServingResult& result) {
  common::Table table({"tenant", "runs", "mismatches", "reprograms",
                       "EDP (Js)"});
  for (const core::TenantStats& t : result.tenants)
    table.add_row({t.name, common::Table::integer(t.runs),
                   common::Table::integer(t.mismatches),
                   common::Table::integer(t.reprograms),
                   common::Table::num((t.inference + t.reprogram).edp(), 4)});
  common::print_table(result.resumed ? "serving result (resumed)"
                                     : "serving result",
                      table);
  std::printf(
      "total: %d runs, EDP %.4f Js, %d policy updates "
      "(%d accepted, %d rejected, %d rolled back), %lld dropped\n",
      result.total_runs(), result.total_edp(), result.policy_updates,
      result.total_updates_accepted(), result.total_updates_rejected(),
      result.total_updates_rolled_back(), result.total_buffer_dropped());
}

void print_resilience_summary(const core::ServingResult& result) {
  common::Table table({"tenant", "SLO (s)", "p50 sojourn", "p99 sojourn",
                       "p99 slack", "misses", "shed", "brk o/c", "stalls"});
  for (const core::TenantStats& t : result.tenants) {
    char brk[32];
    std::snprintf(brk, sizeof(brk), "%d/%d", t.breaker_opens,
                  t.breaker_closes);
    table.add_row({t.name,
                   t.slo_s > 0.0 ? common::Table::num(t.slo_s, 4) : "-",
                   common::Table::num(t.sojourn_percentile(50.0), 4),
                   common::Table::num(t.sojourn_percentile(99.0), 4),
                   t.slo_s > 0.0
                       ? common::Table::num(t.slack_percentile(99.0), 4)
                       : "-",
                   common::Table::integer(t.deadline_misses),
                   common::Table::integer(t.shed_runs), brk,
                   common::Table::integer(t.watchdog_stalls)});
  }
  common::print_table("resilience (deadline/queue/breaker/watchdog)", table);
  std::printf(
      "resilience: %d shed, %d breaker-held, %d deadline misses, "
      "%d deferred reprograms, %d truncated searches, "
      "breakers %d open / %d reopen / %d probe / %d close, %d stalls\n",
      result.total_shed_runs(), result.total_breaker_open_runs(),
      result.total_deadline_misses(), result.total_deferred_reprograms(),
      result.total_searches_truncated(), result.total_breaker_opens(),
      result.total_breaker_reopens(), result.total_breaker_probes(),
      result.total_breaker_closes(), result.total_watchdog_stalls());
  if (result.total_batches_formed() > 0)
    std::printf(
        "batching: %d batches over %d runs (mean occupancy %.2f, "
        "max batch %d, %d SLO-capped)\n",
        result.total_batches_formed(), result.total_batch_members(),
        result.mean_batch_occupancy(), result.max_batch(),
        result.total_batch_slo_capped());
}

void print_wear_summary(const core::ServingResult& result,
                        const reram::FaultInjector& faults) {
  common::Table table({"tenant", "rows remapped", "xbars retired",
                       "writes leveled", "wear-deferred"});
  for (const core::TenantStats& t : result.tenants)
    table.add_row({t.name, common::Table::integer(t.rows_remapped),
                   common::Table::integer(t.crossbars_retired),
                   common::Table::integer(t.writes_leveled),
                   common::Table::integer(t.wear_deferred_reprograms)});
  common::print_table("wear leveling (rotate / remap / retire / migrate)",
                      table);
  std::printf(
      "wear: %d rows remapped, %d crossbars retired, %lld writes leveled, "
      "%d wear-deferred reprograms, %d of %d spare rows remaining\n",
      result.total_rows_remapped(), result.total_crossbars_retired(),
      result.total_writes_leveled(),
      result.total_wear_deferred_reprograms(), result.spares_remaining(),
      faults.params().leveling.resolved_spare_rows());
}

void print_fleet_summary(const core::FleetResult& fleet,
                         const std::vector<std::string>& names) {
  common::Table table({"shard", "tenants", "PEs", "xbars", "runs",
                       "busy (s)", "EDP (Js)"});
  for (std::size_t k = 0; k < fleet.shards.size(); ++k) {
    std::string members;
    for (int t : fleet.shard_tenants[k]) {
      if (!members.empty()) members += ",";
      members += names[static_cast<std::size_t>(t)];
    }
    table.add_row(
        {common::Table::integer(static_cast<long long>(k)),
         members.empty() ? "-" : members,
         common::Table::integer(
             static_cast<long long>(fleet.placement.shard_pes[k].size())),
         common::Table::integer(fleet.placement.shard_load[k]),
         common::Table::integer(fleet.shards[k].total_runs()),
         common::Table::num(fleet.shard_busy_s(k), 4),
         common::Table::num(fleet.shards[k].total_edp(), 4)});
  }
  common::print_table("fleet (NoC-/wear-aware sharded serving)", table);
  int pipelined = 0, displaced = 0;
  for (const core::ServingResult& r : fleet.shards)
    pipelined += r.total_pipelined_runs();
  for (const core::TenantPlacement& p : fleet.placement.tenants)
    displaced += p.wear_displaced ? 1 : 0;
  std::printf(
      "fleet: %zu shards, %d runs, makespan %.4f s, %.2f images/s, "
      "per-request EDP %.6g Js, pooled p99 slack %.4f s\n"
      "placement: load imbalance %.2f, objective %.4f, %d pipelined runs, "
      "%d tenant(s) steered off worn shards\n",
      fleet.shards.size(), fleet.total_runs(), fleet.makespan_s(),
      fleet.aggregate_images_per_s(), fleet.edp_per_request(),
      fleet.slack_percentile(99.0), fleet.placement.load_imbalance,
      fleet.placement.objective, pipelined, displaced);
}

int cmd_serve(int argc, char** argv) {
  const std::string list = flag_value(argc, argv, "--workloads")
                               .value_or("resnet18,vgg11,googlenet");
  std::vector<std::string> names;
  for (std::size_t pos = 0; pos <= list.size();) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    if (comma > pos) names.push_back(list.substr(pos, comma - pos));
    pos = comma + 1;
  }
  if (names.empty()) {
    std::fprintf(stderr, "--workloads needs at least one name\n");
    return 1;
  }
  const int crossbar = crossbar_flag(argc, argv);
  core::ServingConfig config = serving_config_from_flags(argc, argv);
  // Default to at least one segment per tenant so every workload serves.
  if (!flag_value(argc, argv, "--segments"))
    config.segments = static_cast<int>(std::max<std::size_t>(
        names.size(), static_cast<std::size_t>(config.segments)));
  core::ResilienceConfig& res = config.resilience;
  res.enabled = true;
  res.default_slo_s = 0.0;  // no SLO
  read_flag(argc, argv, "--slo", res.default_slo_s, 0.0);
  read_flag(argc, argv, "--queue", res.queue_capacity, 0);
  const std::string shed =
      flag_value(argc, argv, "--shed").value_or("oldest");
  if (shed == "block")
    res.shed = core::ShedPolicy::kBlock;
  else if (shed == "oldest")
    res.shed = core::ShedPolicy::kShedOldest;
  else if (shed == "newest")
    res.shed = core::ShedPolicy::kShedNewest;
  else
    bad_flag("--shed", shed, "block|oldest|newest");
  read_flag(argc, argv, "--eval-cost", res.search_eval_cost_s, 0.0);
  read_flag(argc, argv, "--breaker-window", res.breaker.window, 1, 64);
  read_flag(argc, argv, "--breaker-threshold",
            res.breaker.failure_threshold, 1);
  double watchdog_ms = 0.0;
  read_flag(argc, argv, "--watchdog-ms", watchdog_ms, 0.0);
  res.watchdog_bound_s = watchdog_ms * 1e-3;
  res.batching.enabled =
      read_flag(argc, argv, "--batch-max", res.batching.max_batch, 1);
  core::FleetConfig fleet;
  read_flag(argc, argv, "--shards", fleet.shards, 1);
  std::optional<std::uint64_t> wear_seed;
  if (std::uint64_t seed = 0; read_flag(argc, argv, "--wear", seed, 0))
    wear_seed = seed;

  const core::Setup setup;
  const ou::NonIdealityModel nonideal = setup.make_nonideality(crossbar);
  const ou::OuCostModel cost = setup.make_cost();
  std::vector<ou::MappedModel> owned;
  owned.reserve(names.size());
  for (const std::string& name : names) {
    auto model = build_workload(name);
    if (!model) {
      std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
      return 1;
    }
    owned.push_back(setup.make_mapped(std::move(*model), crossbar));
  }
  std::vector<const ou::MappedModel*> tenants;
  for (const ou::MappedModel& m : owned) tenants.push_back(&m);

  // --shards N: partition the mesh and serve shards concurrently. With
  // --wear each shard owns a private injector seeded SEED+k so the
  // placement's wear term has distinct device histories to steer by.
  fleet.serving = config;
  const int shards = fleet.resolved_shards();
  if (shards > 1) {
    std::vector<reram::FaultInjector> owned_faults;
    std::vector<reram::FaultInjector*> shard_faults;
    if (wear_seed) {
      reram::FaultScheduleParams wear;
      wear.leveling.enabled = true;
      owned_faults.reserve(static_cast<std::size_t>(shards));
      for (int k = 0; k < shards; ++k)
        owned_faults.emplace_back(wear,
                                  *wear_seed + static_cast<std::uint64_t>(k));
      for (reram::FaultInjector& f : owned_faults)
        shard_faults.push_back(&f);
    }
    const auto fleet_result = core::serve_fleet(
        tenants, nonideal, cost,
        policy::OuPolicy(ou::OuLevelGrid(crossbar)), fleet, shard_faults);
    print_fleet_summary(fleet_result, names);
    return 0;
  }

  // --wear SEED: share a wear-leveled injector across the tenants so the
  // serve report shows the rotate/remap/retire/migrate ladder in action.
  std::optional<reram::FaultInjector> faults;
  if (wear_seed) {
    reram::FaultScheduleParams wear;
    wear.leveling.enabled = true;
    faults.emplace(wear, *wear_seed);
  }

  const auto result = core::serve_with_odin(
      tenants, nonideal, cost, policy::OuPolicy(ou::OuLevelGrid(crossbar)),
      config, faults ? &*faults : nullptr);
  print_serving_summary(result);
  print_resilience_summary(result);
  if (faults) print_wear_summary(result, *faults);
  return 0;
}

int cmd_checkpoint(const std::string& base, int argc, char** argv) {
  const std::string workload =
      flag_value(argc, argv, "--workload").value_or("resnet18");
  auto model = build_workload(workload);
  if (!model) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 1;
  }
  const int crossbar = crossbar_flag(argc, argv);
  core::ServingConfig config = serving_config_from_flags(argc, argv);
  config.checkpoint.base_path = base;

  const core::Setup setup;
  const ou::NonIdealityModel nonideal = setup.make_nonideality(crossbar);
  const ou::OuCostModel cost = setup.make_cost();
  const ou::MappedModel mapped = setup.make_mapped(std::move(*model),
                                                   crossbar);
  const auto result = core::serve_with_odin(
      {&mapped}, nonideal, cost,
      policy::OuPolicy(ou::OuLevelGrid(crossbar)), config);
  print_serving_summary(result);
  if (config.max_runs > 0 && result.total_runs() < config.horizon.runs)
    std::printf("stopped after %d runs (simulated crash); resume with:\n"
                "  odin_cli resume %s --workload %s --runs %d --segments %d"
                " --crossbar %d\n",
                result.total_runs(), base.c_str(), workload.c_str(),
                config.horizon.runs, config.segments, crossbar);
  return 0;
}

int cmd_resume(const std::string& base, int argc, char** argv) {
  auto ckpt = core::load_latest_checkpoint(base);
  if (!ckpt) {
    std::fprintf(stderr, "no valid checkpoint at %s.{a,b}\n", base.c_str());
    return 1;
  }
  const std::string workload =
      flag_value(argc, argv, "--workload").value_or("resnet18");
  auto model = build_workload(workload);
  if (!model) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 1;
  }
  const int crossbar = crossbar_flag(argc, argv);
  core::ServingConfig config = serving_config_from_flags(argc, argv);
  config.checkpoint.base_path = base;  // keep checkpointing while resuming
  config.max_runs = 0;                 // finish the horizon

  const core::Setup setup;
  const ou::NonIdealityModel nonideal = setup.make_nonideality(crossbar);
  const ou::OuCostModel cost = setup.make_cost();
  const ou::MappedModel mapped = setup.make_mapped(std::move(*model),
                                                   crossbar);
  std::printf("loaded checkpoint seq %llu (segment %llu, next run %llu)\n",
              static_cast<unsigned long long>(ckpt->sequence),
              static_cast<unsigned long long>(ckpt->segment),
              static_cast<unsigned long long>(ckpt->next_run));
  const auto result =
      core::resume_with_odin({&mapped}, nonideal, cost, *ckpt, config);
  if (!result) {
    std::fprintf(stderr,
                 "checkpoint does not match this configuration "
                 "(check --runs/--segments/--workload/--crossbar)\n");
    return 1;
  }
  print_serving_summary(*result);
  return 0;
}

/// The nine flags `campaign` and `cluster` share. Each overrides its
/// scenario-file key and accepts what that key accepts
/// (docs/scenario_format.md); --max-requests has no key and takes any
/// count >= 0 (0 = run to completion).
void read_campaign_flags(int argc, char** argv, core::CampaignConfig& cfg) {
  read_flag(argc, argv, "--seed", cfg.scenario.seed, 1);
  read_flag(argc, argv, "--tenants", cfg.scenario.tenants, 1);
  read_flag(argc, argv, "--requests", cfg.scenario.requests, 1);
  read_flag(argc, argv, "--shards", cfg.shards, 1);
  read_flag(argc, argv, "--epochs", cfg.epochs, 1);
  read_switch(argc, argv, "--autoscale", cfg.autoscale.enabled);
  if (const auto v = flag_value(argc, argv, "--checkpoint"))
    cfg.checkpoint.base_path = *v;
  read_flag(argc, argv, "--every", cfg.checkpoint.every_runs, 1);
  read_flag(argc, argv, "--max-requests", cfg.max_requests, 0);
}

int cmd_campaign(int argc, char** argv) {
  core::CampaignConfig cfg;
  // A scenario file seeds the configuration; flags override it.
  if (const auto file = flag_value(argc, argv, "--file")) {
    auto parsed = core::parse_scenario_file(*file);
    if (!parsed) return 1;
    cfg = std::move(*parsed);
  }
  read_campaign_flags(argc, argv, cfg);

  std::optional<core::CampaignResult> result;
  if (has_flag(argc, argv, "--resume")) {
    if (cfg.checkpoint.base_path.empty()) {
      std::fprintf(stderr, "--resume needs --checkpoint BASE\n");
      return 1;
    }
    result = core::resume_campaign(cfg);
    if (!result) {
      std::fprintf(stderr,
                   "no matching campaign checkpoint at %s.{a,b} "
                   "(check --seed/--tenants/--requests/--shards/--epochs/"
                   "--autoscale)\n",
                   cfg.checkpoint.base_path.c_str());
      return 1;
    }
  } else {
    result = core::run_campaign(cfg);
  }
  std::fputs(result->summary().c_str(), stdout);
  if (cfg.max_requests > 0 &&
      result->requests() < cfg.scenario.requests &&
      !cfg.checkpoint.base_path.empty())
    std::printf(
        "stopped after %lld requests (simulated crash); resume with:\n"
        "  odin_cli campaign --resume --checkpoint %s [same flags]\n",
        static_cast<long long>(result->requests()),
        cfg.checkpoint.base_path.c_str());
  return 0;
}

int cmd_cluster(int argc, char** argv) {
  core::ClusterConfig cfg;
  // A cluster scenario file seeds the configuration; flags override it.
  if (const auto file = flag_value(argc, argv, "--file")) {
    auto parsed = core::parse_cluster_file(*file);
    if (!parsed) return 1;
    cfg = std::move(*parsed);
  }
  read_campaign_flags(argc, argv, cfg.campaign);
  read_flag(argc, argv, "--meshes", cfg.meshes, 1, core::kMaxMeshes);
  read_flag(argc, argv, "--replication-epochs", cfg.replication_epochs, 1,
            core::kMaxReplicationEpochs);
  read_switch(argc, argv, "--failover", cfg.failover.enabled);
  read_flag(argc, argv, "--mesh-outages", cfg.mesh_outages, 0);

  std::optional<core::ClusterResult> result;
  if (has_flag(argc, argv, "--resume")) {
    if (cfg.campaign.checkpoint.base_path.empty()) {
      std::fprintf(stderr, "--resume needs --checkpoint BASE\n");
      return 1;
    }
    result = core::resume_cluster(cfg);
    if (!result) {
      std::fprintf(stderr,
                   "no matching cluster checkpoint at %s.{a,b} "
                   "(check --seed/--tenants/--requests/--shards/--epochs/"
                   "--meshes/--replication-epochs/--failover)\n",
                   cfg.campaign.checkpoint.base_path.c_str());
      return 1;
    }
  } else {
    result = core::run_cluster(cfg);
  }
  std::fputs(result->summary().c_str(), stdout);
  if (cfg.campaign.max_requests > 0 &&
      result->campaign.requests() < cfg.campaign.scenario.requests &&
      !cfg.campaign.checkpoint.base_path.empty())
    std::printf(
        "stopped after %lld requests (simulated crash); resume with:\n"
        "  odin_cli cluster --resume --checkpoint %s [same flags]\n",
        static_cast<long long>(result->campaign.requests()),
        cfg.campaign.checkpoint.base_path.c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: odin_cli <command> [...]\n"
               "  workloads\n"
               "  simulate <workload> [--crossbar N] [--runs N] [--ou RxC]\n"
               "  train-policy <file> [--exclude FAMILY] [--crossbar N]\n"
               "  best-ou <workload> [--layer J] [--time T]\n"
               "  checkpoint <base> [--workload W] [--runs N] [--segments K]"
               " [--every N] [--max-runs N] [--crossbar N]\n"
               "  resume <base> [--workload W] [--runs N] [--segments K]"
               " [--crossbar N]\n"
               "  campaign [--file SCENARIO] [--seed N] [--tenants N]"
               " [--requests N]\n"
               "           [--shards N] [--epochs N] [--autoscale on|off]\n"
               "           [--checkpoint BASE] [--every N] [--max-requests N]"
               " [--resume]\n"
               "     (seeded, replayable workload-trace campaign on the"
               " 36-PE mesh:\n"
               "      diurnal arrivals, flash crowds, tenant churn,"
               " correlated fault\n"
               "      storms, reactive autoscaling; --file reads a scenario"
               " file\n"
               "      (docs/scenario_format.md), --max-requests simulates a"
               " crash,\n"
               "      --resume continues from the checkpoint pair bitwise)\n"
               "  cluster [--file SCENARIO] [--seed N] [--tenants N]"
               " [--requests N]\n"
               "          [--shards N] [--epochs N] [--meshes N]"
               " [--replication-epochs N]\n"
               "          [--failover on|off] [--mesh-outages N]"
               " [--autoscale on|off]\n"
               "          [--checkpoint BASE] [--every N] [--max-requests N]"
               " [--resume]\n"
               "     (the campaign across N independent meshes with"
               " mesh-loss fault\n"
               "      domains: seeded outage windows, checkpoint replication"
               " to a peer\n"
               "      mesh every --replication-epochs epochs, and bounded-RTO"
               " tenant\n"
               "      evacuation onto surviving meshes under degraded"
               " admission;\n"
               "      cluster keys in the scenario file per"
               " docs/scenario_format.md;\n"
               "      reports per-tenant RTO/RPO)\n"
               "  serve [--workloads A,B,C] [--runs N] [--segments K]"
               " [--crossbar N]\n"
               "        [--slo S] [--queue N] [--shed block|oldest|newest]"
               " [--eval-cost S]\n"
               "        [--breaker-window N] [--breaker-threshold N]"
               " [--watchdog-ms N]\n"
               "        [--batch-max N] [--wear SEED] [--shards N]\n"
               "     (serve counters: shed runs, deadline misses, deferred"
               " reprograms,\n"
               "      truncated searches, breaker open/reopen/probe/close,"
               " watchdog stalls,\n"
               "      p50/p99 sojourn and deadline slack per tenant;"
               " --batch-max N\n"
               "      enables deadline-aware batch formation with a cap of"
               " N;\n"
               "      --wear SEED serves against a wear-leveled injector"
               " and reports rows\n"
               "      remapped, crossbars retired, leveled writes and spare"
               " rows left —\n"
               "      16 spare rows per crossbar, 80%% wear budget;\n"
               "      --shards N serves a sharded fleet with NoC-/wear-aware"
               " placement and\n"
               "      per-shard loops)\n"
               "  numeric flags parse strictly; a bad value exits with"
               " status 1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "workloads") return cmd_workloads();
  if (cmd == "simulate" && argc >= 3) return cmd_simulate(argv[2], argc, argv);
  if (cmd == "train-policy" && argc >= 3)
    return cmd_train_policy(argv[2], argc, argv);
  if (cmd == "best-ou" && argc >= 3) return cmd_best_ou(argv[2], argc, argv);
  // <base> is positional; a flag in its place would otherwise become a
  // checkpoint file literally named "--workload.a".
  if (cmd == "checkpoint" && argc >= 3 && argv[2][0] != '-')
    return cmd_checkpoint(argv[2], argc, argv);
  if (cmd == "resume" && argc >= 3 && argv[2][0] != '-')
    return cmd_resume(argv[2], argc, argv);
  if (cmd == "serve") return cmd_serve(argc, argv);
  if (cmd == "campaign") return cmd_campaign(argc, argv);
  if (cmd == "cluster") return cmd_cluster(argc, argv);
  return usage();
}
