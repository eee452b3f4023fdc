// serve-zoo: the Odin online loop over the paper's CIFAR-10 zoo.
//
// Set-up prunes and maps ResNet18, VGG11 and GoogLeNet (plus the held-out
// ViT), bootstraps the policy offline from the ViT alone, and places the
// three tenants on a 4-shard mesh. The timed phase repeats serve_fleet over
// one seeded open-loop arrival schedule across the drift horizon, with
// resilience on (SLO, bounded queue, breakers). serve_with_homogeneous at
// 16x16 then serves the identical traffic for the EDP-gain figure.
//
// The traced run adds the controller layer driven directly: the same
// segments walked through OdinController::run_inference, one span per
// call, plus probes that time policy training, policy prediction and the
// resource-bounded search on the walk's own inputs.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/fleet.hpp"
#include "core/odin.hpp"
#include "dnn/zoo.hpp"
#include "ou/search.hpp"
#include "policy/buffer.hpp"
#include "policy/offline.hpp"

namespace perfbench {
namespace {

using namespace odin;

constexpr int kRuns = 3000;
constexpr int kSegments = 6;
constexpr int kShards = 4;
constexpr int kCrossbar = 128;
constexpr double kHorizonStartS = 10.0;
constexpr double kHorizonEndS = 1e8;
constexpr double kSloS = 1.0;
constexpr std::size_t kQueueCapacity = 8;
constexpr int kSetupRepeats = 3;

/// Seeded open-loop arrivals: log-uniform over the drift horizon (drift is
/// a power law in time, so every decade gets equal traffic), sorted.
std::vector<double> arrival_schedule(std::uint64_t seed) {
  common::Rng rng(seed ^ 0x5e12e200ULL);
  const double lo = std::log(kHorizonStartS), hi = std::log(kHorizonEndS);
  std::vector<double> t(kRuns);
  for (double& x : t) x = std::exp(rng.uniform(lo, hi));
  std::sort(t.begin(), t.end());
  return t;
}

/// Everything set-up produces. Heap-held: the mapped models are referenced
/// by pointer from the fleet calls.
struct Zoo {
  explicit Zoo(const core::Setup& s)
      : nonideal(s.make_nonideality()), cost(s.make_cost()) {}

  ou::NonIdealityModel nonideal;
  ou::OuCostModel cost;
  std::vector<ou::MappedModel> models;  ///< resnet18, vgg11, googlenet, vit
  std::vector<const ou::MappedModel*> tenants;  ///< the first three
  std::optional<policy::OuPolicy> policy;
  core::FleetConfig fleet;
  double prune_s = 0.0, map_s = 0.0, bootstrap_s = 0.0, place_s = 0.0;
};

/// The zoo's weights are the paper set-up's (fixed prune seed); the
/// workload seed drives the arrival schedule only, so every seed does the
/// same set-up work.
std::unique_ptr<Zoo> build_zoo(std::uint64_t seed, Tracer& tracer) {
  const core::Setup setup;
  auto zoo = std::make_unique<Zoo>(setup);
  const ou::OuLevelGrid grid(kCrossbar);

  std::vector<dnn::DnnModel> shapes;
  shapes.push_back(dnn::make_resnet18(data::DatasetKind::kCifar10));
  shapes.push_back(dnn::make_vgg11(data::DatasetKind::kCifar10));
  shapes.push_back(dnn::make_googlenet(data::DatasetKind::kCifar10));
  shapes.push_back(dnn::make_vit(data::DatasetKind::kCifar10));

  std::vector<dnn::PrunedModel> pruned;
  zoo->prune_s = timed([&] {
    for (dnn::DnnModel& m : shapes) {
      Scope span(tracer, "dnn", "dnn.prune_model");
      pruned.push_back(dnn::prune_model(std::move(m), setup.prune_seed));
    }
  });

  // Mapping includes the live-OU-block counts of every grid shape, which
  // LayerMapping otherwise fills lazily inside the first timed walk.
  zoo->map_s = timed([&] {
    zoo->models.reserve(pruned.size());
    for (dnn::PrunedModel& p : pruned) {
      Scope span(tracer, "ou", "ou.map_model");
      const ou::MappedModel& m =
          zoo->models.emplace_back(std::move(p), kCrossbar);
      for (std::size_t j = 0; j < m.layer_count(); ++j)
        for (ou::OuConfig cfg : grid.all_configs()) m.mapping(j).counts(cfg);
    }
  });
  for (int i = 0; i < 3; ++i) zoo->tenants.push_back(&zoo->models[i]);

  zoo->bootstrap_s = timed([&] {
    Scope span(tracer, "policy", "policy.train_offline_policy");
    const ou::MappedModel* known[] = {&zoo->models[3]};
    zoo->policy.emplace(policy::train_offline_policy(
        known, zoo->nonideal, zoo->cost, grid));
  });

  core::FleetConfig& f = zoo->fleet;
  f.shards = kShards;
  f.serving.horizon = core::HorizonConfig{.t_start_s = kHorizonStartS,
                                          .t_end_s = kHorizonEndS,
                                          .runs = kRuns};
  f.serving.segments = kSegments;
  f.serving.schedule = arrival_schedule(seed);
  core::ResilienceConfig& res = f.serving.resilience;
  res.enabled = true;
  res.default_slo_s = kSloS;
  res.queue_capacity = kQueueCapacity;
  res.shed = core::ShedPolicy::kShedOldest;

  zoo->place_s = timed([&] {
    Scope span(tracer, "core.fleet", "core.fleet.place_fleet");
    (void)core::place_fleet(zoo->tenants, zoo->cost, f);
  });
  return zoo;
}

/// Bitwise fingerprint of every simulated figure of a fleet result.
std::string fingerprint(const core::FleetResult& r) {
  std::string s = exact(r.edp_per_request()) + " " +
                  exact(r.slack_percentile(99.0)) + " " +
                  exact(r.makespan_s());
  for (const core::ServingResult& shard : r.shards)
    for (const core::TenantStats& t : shard.tenants)
      s += " " + t.name + ":" + std::to_string(t.runs) + "," +
           std::to_string(t.shed_runs) + "," +
           std::to_string(t.breaker_open_runs) + "," +
           std::to_string(t.deadline_misses) + "," +
           std::to_string(t.reprograms) + "," +
           std::to_string(t.mismatches) + "," + exact(t.inference.energy_j) +
           "," + exact(t.inference.latency_s);
  return s;
}

struct WalkStats {
  long long runs = 0;
  long long decisions = 0;
  long long mismatches = 0;
  long long evaluations = 0;
  long long train_calls = 0;
  double walk_s = 0.0;
};

/// The controller layer driven directly over the fleet's segments (one
/// policy carried across tenants, as serve_with_odin does). Times every
/// run_inference call and, on a sample of the retrains, replays the
/// identical buffer through OuPolicy::train.
WalkStats controller_walk(Zoo& zoo, Tracer& tracer) {
  const ou::OuLevelGrid grid(kCrossbar);
  const core::OdinConfig config{};
  const std::vector<double>& schedule = zoo.fleet.serving.schedule;
  WalkStats w;
  std::optional<policy::OuPolicy> carried;
  carried.emplace(zoo.policy->clone());
  policy::ReplayBuffer shadow(config.buffer_capacity);
  const std::size_t per = schedule.size() / kSegments;
  const double t0 = now_s();
  for (int seg = 0; seg < kSegments; ++seg) {
    const std::size_t begin = per * static_cast<std::size_t>(seg);
    const std::size_t end =
        seg + 1 == kSegments ? schedule.size() : begin + per;
    const ou::MappedModel& model =
        *zoo.tenants[static_cast<std::size_t>(seg) % zoo.tenants.size()];
    core::OdinController ctl(model, zoo.nonideal, zoo.cost,
                             std::move(*carried), config);
    carried.reset();
    ctl.reset_drift_clock(schedule[begin]);
    const int layer_count = static_cast<int>(model.layer_count());
    for (std::size_t i = begin; i < end; ++i) {
      const int id = tracer.begin("core.odin", "core.odin.run_inference",
                                  static_cast<long long>(i));
      const core::RunResult run = ctl.run_inference(schedule[i]);
      tracer.end(id);
      ++w.runs;
      for (std::size_t j = 0; j < run.decisions.size(); ++j) {
        const core::LayerDecision& d = run.decisions[j];
        ++w.decisions;
        w.evaluations += d.evaluations;
        if (!d.mismatch) continue;
        ++w.mismatches;
        shadow.add(policy::extract_features(model.model().layers[j],
                                            layer_count, run.elapsed_s),
                   d.executed);
      }
      if (!run.policy_updated) continue;
      // Replay every 16th retrain on a clone: same buffer, same options.
      if (w.train_calls % 16 == 0) {
        policy::OuPolicy probe = ctl.policy().clone();
        const nn::Dataset data = shadow.to_dataset(grid);
        Scope span(tracer, "policy", "policy.train");
        probe.train(data, config.update_options);
      }
      shadow.reset();
      ++w.train_calls;
    }
    carried.emplace(std::move(ctl.policy()));
  }
  w.walk_s = now_s() - t0;
  zoo.policy.emplace(std::move(*carried));  // the adapted policy probes below
  return w;
}

/// Time OuPolicy::predict and ou::resource_bounded_search over every layer
/// of every tenant at four drift points. Returns {predict_ns, search_ns}.
std::pair<double, double> predict_search_probe(Zoo& zoo, Tracer& tracer) {
  const ou::OuLevelGrid grid(kCrossbar);
  constexpr int kRepeats = 20;
  constexpr double kDrift[] = {1e1, 1e3, 1e5, 1e7};
  long long calls = 0;
  double predict_s = 0.0, search_s = 0.0;
  ou::NonIdealityCache cache(zoo.nonideal, grid);
  for (double drift : kDrift) {
    cache.rebuild(drift);
    for (const ou::MappedModel* m : zoo.tenants) {
      const int n = static_cast<int>(m->layer_count());
      for (int j = 0; j < n; ++j) {
        const dnn::LayerDescriptor& layer = m->model().layers[j];
        const policy::Features phi =
            policy::extract_features(layer, n, drift);
        ou::OuConfig guess{};
        predict_s += timed([&] {
          Scope span(tracer, "policy", "policy.predict");
          for (int r = 0; r < kRepeats; ++r) guess = zoo.policy->predict(phi);
        });
        const ou::LayerContext ctx{
            .mapping = &m->mapping(static_cast<std::size_t>(j)),
            .cost = &zoo.cost,
            .nonideal = &zoo.nonideal,
            .grid = &grid,
            .cache = &cache,
            .elapsed_s = drift,
            .sensitivity = zoo.nonideal.layer_sensitivity(layer.index, n),
        };
        search_s += timed([&] {
          Scope span(tracer, "ou", "ou.resource_bounded_search");
          for (int r = 0; r < kRepeats; ++r)
            (void)ou::resource_bounded_search(ctx, guess, 3);
        });
        calls += kRepeats;
      }
    }
  }
  const double n = static_cast<double>(std::max<long long>(calls, 1));
  return {predict_s / n * 1e9, search_s / n * 1e9};
}

}  // namespace

void run_serve_zoo(const Options& opt, Tracer& tracer, Report& report) {
  report.setting("tenants", "resnet18,vgg11,googlenet (CIFAR-10)");
  report.setting("bootstrap", "offline policy from held-out vit");
  report.setting("arrivals", "open loop, 3000 log-uniform over [10 s, 1e8 s]");
  report.setting("shards", std::to_string(kShards));
  report.setting("slo_s", exact(kSloS));
  report.setting("queue_capacity", std::to_string(kQueueCapacity));
  report.setting("shed", "oldest");

  // Set-up: repeated untraced so setup_s is a median; traced once.
  std::unique_ptr<Zoo> zoo;
  std::vector<double> setup_s;
  for (int rep = 0; rep < (opt.trace ? 1 : kSetupRepeats); ++rep) {
    const double t0 = now_s();
    zoo = build_zoo(opt.seed, tracer);
    setup_s.push_back(now_s() - t0);
  }

  std::optional<core::FleetResult> first;
  std::string first_print;
  bool replay_identical = true;
  const double rate = timed_phase(opt, tracer, report, 3, [&](int, bool traced) {
    const int id =
        traced ? tracer.begin("core.fleet", "core.fleet.serve_fleet") : -1;
    core::FleetResult r =
        core::serve_fleet(zoo->tenants, zoo->nonideal, zoo->cost,
                          zoo->policy->clone(), zoo->fleet);
    tracer.end(id);
    const std::string print = fingerprint(r);
    if (!first) {
      first_print = print;
      first.emplace(std::move(r));
    } else if (print != first_print) {
      replay_identical = false;
    }
    return static_cast<double>(kRuns);
  });

  core::FleetResult homogeneous;  // one device; a fleet result for its EDP
  {
    Scope span(tracer, "core.serving", "core.serving.serve_with_homogeneous");
    homogeneous.shards.push_back(core::serve_with_homogeneous(
        zoo->tenants, zoo->nonideal, zoo->cost, ou::OuConfig{16, 16},
        zoo->fleet.serving));
  }

  // Simulated outcomes and the conservation check.
  const core::FleetResult& r = *first;
  long long offered = 0, shed = 0, fallback = 0, misses = 0, reprograms = 0;
  bool conserved = true;
  std::vector<double> sojourn;
  for (const core::ServingResult& shard : r.shards)
    for (const core::TenantStats& t : shard.tenants) {
      offered += t.runs;
      shed += t.shed_runs;
      fallback += t.breaker_open_runs;
      misses += t.deadline_misses;
      reprograms += t.reprograms;
      conserved = conserved && t.shed_runs + t.breaker_open_runs <= t.runs;
      sojourn.insert(sojourn.end(), t.sojourn_s.begin(), t.sojourn_s.end());
    }
  conserved = conserved && offered == kRuns;
  report.check("replay_identical", replay_identical);
  report.check("conservation_offered_eq_served_shed_dropped", conserved);

  const double failed = static_cast<double>(shed + fallback) /
                        static_cast<double>(std::max<long long>(offered, 1));
  const double miss = static_cast<double>(misses + shed + fallback) /
                      static_cast<double>(std::max<long long>(offered, 1));
  const double edp = r.edp_per_request();
  const double gain = homogeneous.edp_per_request() / edp;
  report.simulated("failed_frac", failed, "fraction");
  report.simulated("sim_slo_miss_frac", miss, "fraction");
  report.simulated("sim_p99_slack_s", r.slack_percentile(99.0), "s");
  report.simulated("sim_edp_per_req_js", edp, "J.s");
  report.simulated("sim_edp_gain_x", gain, "x");

  if (!opt.trace) {
    report.e2e("setup_s", median(setup_s), "s");
    report.e2e("req_per_s", rate, "1/s");
    report.e2e("served_frac", 1.0 - failed, "fraction");
    return;
  }

  report.layer("dnn.prune_s", zoo->prune_s, "s");
  report.layer("ou.map_s", zoo->map_s, "s");
  report.layer("policy.bootstrap_s", zoo->bootstrap_s, "s");
  report.layer("core.fleet.place_ms", zoo->place_s * 1e3, "ms");
  report.layer("core.odin.reprograms", static_cast<double>(reprograms),
               "count");
  report.layer("core.serving.sojourn_p99_s", percentile(sojourn, 99.0), "s");
  report.layer("core.serving.shed", static_cast<double>(shed), "count");
  int breaker_opens = 0;
  for (const core::ServingResult& shard : r.shards)
    breaker_opens += shard.total_breaker_opens();
  report.layer("core.serving.breaker_opens", breaker_opens, "count");
  report.layer("core.fleet.load_imbalance", r.placement.load_imbalance,
               "ratio");
  report.layer("core.fleet.makespan_s", r.makespan_s(), "s");

  const WalkStats w = controller_walk(*zoo, tracer);
  const std::vector<double> runs = tracer.durations("core.odin.run_inference");
  const double train_ms = median(tracer.durations("policy.train")) * 1e3;
  report.layer("core.odin.runs", static_cast<double>(w.runs), "count");
  report.layer("core.odin.run_p50_us", percentile(runs, 50.0) * 1e6, "us");
  report.layer("core.odin.run_p99_us", percentile(runs, 99.0) * 1e6, "us");
  report.layer("policy.train_calls", static_cast<double>(w.train_calls),
               "count");
  report.layer("policy.train_ms", train_ms, "ms");
  report.layer("policy.train_share",
               static_cast<double>(w.train_calls) * train_ms * 1e-3 /
                   w.walk_s,
               "ratio");
  const auto [predict_ns, search_ns] = predict_search_probe(*zoo, tracer);
  report.layer("policy.predict_calls", static_cast<double>(w.decisions),
               "count");
  report.layer("policy.predict_ns", predict_ns, "ns");
  report.layer("ou.search_calls", static_cast<double>(w.decisions), "count");
  report.layer("ou.search_ns", search_ns, "ns");
  report.layer("ou.search_evals_per_call",
               static_cast<double>(w.evaluations) /
                   static_cast<double>(std::max<long long>(w.decisions, 1)),
               "count");
  report.layer("ou.mismatch_ratio",
               static_cast<double>(w.mismatches) /
                   static_cast<double>(std::max<long long>(w.decisions, 1)),
               "ratio");
}

}  // namespace perfbench
