// campaign-1m and cluster-failover: the analytic campaign engine at a
// million requests, on one mesh and on a three-mesh cluster.
//
// campaign-1m repeats run_campaign (1000 tenants, diurnal load, flash
// crowds, two fault storms, autoscaling, no checkpoints). cluster-failover
// repeats run_cluster on three meshes with a seeded mid-campaign mesh
// outage, replication, failover and a durable checkpoint every 200k
// requests, then crashes a copy at 70% and resumes it.
//
// Both run their timed calls untouched. The traced run times the engine's
// public primitives (arrival generation, pricing, sketch updates, fault
// campaigns, checkpoint write/load) on the same trace, so the share of
// run_campaign time they do not cover is the loop's own.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/checkpoint.hpp"
#include "core/cluster.hpp"
#include "core/scenario.hpp"
#include "core/sketch.hpp"
#include "reram/fault_injection.hpp"

namespace perfbench {
namespace {

using namespace odin;

constexpr long long kRequests = 1'000'000;
constexpr int kTenants = 1000;
constexpr int kSetupRepeats = 9;
constexpr long long kCheckpointEvery = 200'000;

/// The operating point: below saturation, so the p99 tail is the
/// workload's and not a backlog's. The scenario defaults (utilization 0.45,
/// 5x flash crowds) leave the p99 slack negative with shedding.
core::ScenarioConfig scenario(std::uint64_t seed) {
  core::ScenarioConfig s;
  s.seed = seed + 1;  // scenario seed 0 would defer to ODIN_SCENARIO_SEED
  s.tenants = kTenants;
  s.requests = kRequests;
  s.target_utilization = 0.25;
  s.flash_multiplier = 2.5;
  s.fault_storms = 2;
  return s;
}

void describe(const core::ScenarioConfig& s, Report& report) {
  report.setting("requests", std::to_string(s.requests));
  report.setting("tenants", std::to_string(s.tenants));
  report.setting("target_utilization", exact(s.target_utilization));
  report.setting("flash_crowds", std::to_string(s.flash_crowds) + " x " +
                                     exact(s.flash_multiplier));
  report.setting("fault_storms", std::to_string(s.fault_storms));
  report.setting("arrivals", "open loop, seeded diurnal trace");
}

/// Set-up is everything before the first timed request: expanding the
/// trace, then a warm-up campaign at a tenth of the requests (first-touch
/// allocation and page faults). Returns the median over the repeats; the
/// build_trace share alone lands in `build_trace_s`.
double setup_campaign(const core::CampaignConfig& c, bool traced,
                      Tracer& tracer, std::optional<core::ScenarioTrace>& out,
                      double& build_trace_s) {
  std::vector<double> total, build;
  core::CampaignConfig warm = c;
  warm.scenario.requests = c.scenario.requests / 10;
  warm.checkpoint = {};
  for (int rep = 0; rep < (traced ? 1 : kSetupRepeats); ++rep) {
    const double t0 = now_s();
    build.push_back(timed([&] {
      Scope span(tracer, "core.scenario", "core.scenario.build_trace");
      out.emplace(core::build_trace(c.scenario, c.pim));
    }));
    {
      Scope span(tracer, "core.scenario", "core.scenario.warm_up");
      (void)core::run_campaign(warm);
    }
    total.push_back(now_s() - t0);
  }
  build_trace_s = median(build);
  return median(total);
}

/// Offered = fully served + shed + breaker fallback + outage-dropped, per
/// tenant and in total; the sheds ledger matches the tenants'.
bool conserved(const core::CampaignResult& r) {
  long long offered = 0, sheds = 0;
  for (const core::TenantStats& t : r.tenants) {
    offered += t.runs + t.outage_dropped;
    sheds += t.shed_runs;
    if (t.shed_runs + t.breaker_open_runs > t.runs) return false;
  }
  return offered == r.requests() && sheds == r.state.sheds;
}

struct Outcome {
  double failed_frac = 0.0;
  double slo_miss_frac = 0.0;
};

/// Failures: shed, breaker fallback and outage-dropped arrivals. Every
/// failure also counts as an SLO miss; the miss share is an upper bound,
/// since a shed whose degraded serve also overran sits in both ledgers.
Outcome outcome(const core::CampaignResult& r) {
  long long failed = 0, missed = 0;
  for (const core::TenantStats& t : r.tenants) {
    const long long f = t.shed_runs + t.breaker_open_runs + t.outage_dropped;
    failed += f;
    missed += std::min<long long>(f + t.deadline_misses,
                                  t.runs + t.outage_dropped);
  }
  const double n = static_cast<double>(std::max<std::int64_t>(r.requests(), 1));
  return {static_cast<double>(failed) / n, static_cast<double>(missed) / n};
}

void report_campaign_sim(const core::CampaignResult& r, Report& report) {
  const Outcome o = outcome(r);
  report.simulated("failed_frac", o.failed_frac, "fraction");
  report.simulated("sim_slo_miss_frac", o.slo_miss_frac, "fraction");
  report.simulated("sim_p99_slack_s", r.p99_slack_s(), "s");
  report.simulated("sim_edp_per_req_js", r.edp_per_request(), "J.s");
}

/// Time the campaign loop's public primitives over the same trace and
/// report what share of the engine's wall time they leave to the loop.
void primitive_probes(const core::ScenarioTrace& trace, std::uint64_t seed,
                      double engine_s, long long sketch_adds, Tracer& tracer,
                      Report& report) {
  const auto n = static_cast<std::size_t>(trace.config.requests);
  std::vector<int> tenant(n);
  std::vector<double> service(n);
  const double arrival_s = timed([&] {
    Scope span(tracer, "core.scenario", "core.scenario.arrival_next");
    core::ArrivalGenerator gen(trace);
    for (std::size_t i = 0; i < n; ++i) tenant[i] = gen.next().tenant;
  });
  const double price_s = timed([&] {
    Scope span(tracer, "core.scenario", "core.scenario.campaign_price");
    double energy = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      core::campaign_price(trace.tenants[static_cast<std::size_t>(tenant[i])],
                           1.0, 0.0, 6, service[i], energy);
  });
  core::QuantileSketch slack(0.01);
  core::SojournSketch sojourn;
  const double sketch_s = timed([&] {
    Scope span(tracer, "core.sketch", "core.sketch.add");
    for (std::size_t i = 0; i < n; ++i) {
      slack.add(trace.tenants[static_cast<std::size_t>(tenant[i])].slo_s -
                service[i]);
      sojourn.add(service[i]);
    }
  });
  const double dn = static_cast<double>(n);
  // One QuantileSketch add plus one SojournSketch add (four quantiles).
  const double add_ns = sketch_s / (5.0 * dn) * 1e9;
  report.layer("core.scenario.arrival_ns", arrival_s / dn * 1e9, "ns");
  report.layer("core.scenario.price_ns", price_s / dn * 1e9, "ns");
  report.layer("core.sketch.add_ns", add_ns, "ns");
  const double covered = arrival_s + price_s +
                         add_ns * 1e-9 * static_cast<double>(sketch_adds);
  // Negative when the primitives, timed on their own, cost more than they
  // do inside the engine's loop.
  report.layer("core.scenario.loop_self_share", 1.0 - covered / engine_s,
               "ratio");

  // The campaign's injector parameters (core/scenario.cpp) on a fresh
  // device: the per-campaign cost a storm pays.
  reram::FaultScheduleParams fp;
  fp.wordline_fail_rate = 2e-3;
  fp.bitline_fail_rate = 2e-3;
  fp.write_fail_rate = 0.05;
  reram::FaultInjector inj(fp, seed);
  constexpr int kCampaigns = 200;
  const double fault_s = timed([&] {
    Scope span(tracer, "reram", "reram.fault.program_campaigns");
    inj.program_campaigns(kCampaigns);
  });
  report.layer("reram.fault.program_campaign_us", fault_s / kCampaigns * 1e6,
               "us");
}

/// QuantileSketch adds per request inside the campaign loop: p1 slack,
/// tier slack and epoch slack, four each for the fleet's and the tenant's
/// sojourn sketches, plus the flash-phase slack for requests in a crowd.
long long sketch_adds(const core::CampaignResult& r) {
  return 11 * r.requests() + r.state.flash_requests;
}

void remove_pair(const std::string& base) {
  std::remove((base + ".a").c_str());
  std::remove((base + ".b").c_str());
}

}  // namespace

void run_campaign_1m(const Options& opt, Tracer& tracer, Report& report) {
  core::CampaignConfig c;
  c.scenario = scenario(opt.seed);
  c.shards = 6;
  c.autoscale.enabled = 1;
  c.epochs = 48;
  c.sojourn_cap = 64;
  describe(c.scenario, report);
  report.setting("shards", "6, autoscaled");

  std::optional<core::ScenarioTrace> trace;
  double build_trace_s = 0.0;
  const double setup_s =
      setup_campaign(c, opt.trace, tracer, trace, build_trace_s);

  // Memory must stay flat in the request count: peak RSS after a
  // quarter-size campaign versus after the full ones.
  double quarter_rss = 0.0;
  if (opt.trace) {
    core::CampaignConfig quarter = c;
    quarter.scenario.requests = kRequests / 4;
    Scope span(tracer, "core.scenario", "core.scenario.run_campaign_quarter");
    (void)core::run_campaign(quarter);
    quarter_rss = peak_rss_mb();
  }

  std::optional<core::CampaignResult> first;
  std::string first_summary;
  bool replay_identical = true;
  std::vector<double> engine_s;
  const double rate = timed_phase(
      opt, tracer, report, 3, [&](int, bool traced) {
        const int id = traced ? tracer.begin("core.scenario",
                                             "core.scenario.run_campaign")
                              : -1;
        const double t0 = now_s();
        core::CampaignResult r = core::run_campaign(c);
        engine_s.push_back(now_s() - t0);
        tracer.end(id);
        std::string s = r.summary();
        if (!first) {
          first_summary = std::move(s);
          first.emplace(std::move(r));
        } else if (s != first_summary) {
          replay_identical = false;
        }
        return static_cast<double>(kRequests);
      });

  const core::CampaignResult& r = *first;
  report.check("replay_identical", replay_identical);
  report.check("conservation_offered_eq_served_shed_dropped", conserved(r));
  report.check("requests_complete", r.requests() == kRequests);
  report_campaign_sim(r, report);

  if (!opt.trace) {
    report.e2e("setup_s", setup_s, "s");
    report.e2e("req_per_s", rate, "1/s");
    report.e2e("served_frac", 1.0 - outcome(r).failed_frac, "fraction");
    return;
  }
  report.layer("core.scenario.build_trace_ms", build_trace_s * 1e3, "ms");
  report.layer("core.scenario.rss_growth_mb", peak_rss_mb() - quarter_rss,
               "MB");
  report.layer("core.scenario.rescales", r.state.rescales, "count");
  report.layer("core.scenario.migrations",
               static_cast<double>(r.state.migrations), "count");
  report.layer("core.scenario.sheds", static_cast<double>(r.state.sheds),
               "count");
  report.layer("reram.fault.campaigns",
               static_cast<double>(r.state.storm_campaigns_fired), "count");
  primitive_probes(*trace, opt.seed, median(engine_s), sketch_adds(r), tracer,
                   report);
}

void run_cluster_failover(const Options& opt, Tracer& tracer,
                          Report& report) {
  const std::string base = opt.work_dir + "/ckpt-cluster";
  const std::string crash_base = opt.work_dir + "/ckpt-cluster-crash";
  core::ClusterConfig c;
  c.campaign.scenario = scenario(opt.seed);
  c.campaign.shards = 4;
  c.campaign.autoscale.enabled = 1;
  c.campaign.epochs = 48;
  c.campaign.sojourn_cap = 64;
  c.campaign.checkpoint.base_path = base;
  c.campaign.checkpoint.every_runs = static_cast<int>(kCheckpointEvery);
  c.meshes = 3;
  c.replication_epochs = 4;
  c.failover.enabled = 1;
  c.outages = {core::MeshOutage{.start_frac = 0.55, .duration_frac = 0.25,
                                .mesh = -1}};
  describe(c.campaign.scenario, report);
  report.setting("meshes", "3 x 4 shards, autoscaled");
  report.setting("outage", "one mesh (drawn from the seed) dark 55%-80%");
  report.setting("replication_epochs", "4");
  report.setting("checkpoint_every", std::to_string(kCheckpointEvery));

  std::optional<core::ScenarioTrace> trace;
  double build_trace_s = 0.0;
  const double setup_s =
      setup_campaign(c.campaign, opt.trace, tracer, trace, build_trace_s);

  std::optional<core::ClusterResult> first;
  std::string first_summary;
  bool replay_identical = true;
  std::vector<double> engine_s;
  const double rate = timed_phase(
      opt, tracer, report, 3, [&](int, bool traced) {
        remove_pair(base);  // every run starts a fresh checkpoint history
        const int id = traced ? tracer.begin("core.cluster",
                                             "core.cluster.run_cluster")
                              : -1;
        const double t0 = now_s();
        core::ClusterResult r = core::run_cluster(c);
        engine_s.push_back(now_s() - t0);
        tracer.end(id);
        std::string s = r.summary();
        if (!first) {
          first_summary = std::move(s);
          first.emplace(std::move(r));
        } else if (s != first_summary) {
          replay_identical = false;
        }
        return static_cast<double>(kRequests);
      });

  // Crash at 70% and resume: the resumed summary must be the
  // uninterrupted one, byte for byte.
  core::ClusterConfig crash = c;
  crash.campaign.checkpoint.base_path = crash_base;
  crash.campaign.max_requests = kRequests * 7 / 10;
  remove_pair(crash_base);
  {
    Scope span(tracer, "core.cluster", "core.cluster.run_cluster_crash");
    (void)core::run_cluster(crash);
  }
  std::optional<core::ClusterResult> resumed;
  const double resume_s = timed([&] {
    Scope span(tracer, "core.cluster", "core.cluster.resume_cluster");
    resumed = core::resume_cluster(crash);
  });

  const core::ClusterResult& r = *first;
  report.check("replay_identical", replay_identical);
  report.check("resume_identical",
               resumed.has_value() && resumed->summary() == first_summary);
  report.check("conservation_offered_eq_served_shed_dropped",
               conserved(r.campaign));
  report.check("requests_complete", r.campaign.requests() == kRequests);
  report.check("outage_fired", r.cluster.outages_fired == 1);
  report_campaign_sim(r.campaign, report);
  report.simulated("sim_victim_recovery", r.victim_recovery(), "fraction");

  if (opt.trace) {
    report.layer("core.scenario.build_trace_ms", build_trace_s * 1e3, "ms");
    report.layer("core.scenario.rescales", r.campaign.state.rescales,
                 "count");
    report.layer("core.scenario.migrations",
                 static_cast<double>(r.campaign.state.migrations), "count");
    report.layer("core.scenario.sheds",
                 static_cast<double>(r.campaign.state.sheds), "count");
    report.layer("reram.fault.campaigns",
                 static_cast<double>(r.campaign.state.storm_campaigns_fired +
                                     r.cluster.bootstrap_campaigns),
                 "count");
    report.layer("core.cluster.resume_s", resume_s, "s");
    report.layer("core.cluster.failovers",
                 static_cast<double>(r.cluster.failovers), "count");
    report.layer("core.cluster.rto_max_s", r.cluster.rto_max_s, "s");
    report.layer("core.cluster.rpo_max_s", r.cluster.rpo_max_s, "s");
    report.layer("core.cluster.restored_stale_ratio",
                 static_cast<double>(r.cluster.restored_stale) /
                     static_cast<double>(
                         std::max<std::int64_t>(r.cluster.failovers, 1)),
                 "ratio");
    report.layer("arch.intermesh.bytes", r.cluster.replication_bytes,
                 "bytes");

    // Durable writes and restores: load the last frame of a timed run,
    // then rewrite it through a fresh writer.
    std::optional<core::ServingCheckpoint> ckpt;
    const double load_s = timed([&] {
      Scope span(tracer, "core.checkpoint", "core.checkpoint.load");
      ckpt = core::load_latest_checkpoint(base);
    });
    report.check("checkpoint_loads", ckpt.has_value());
    if (ckpt) {
      report.layer("core.checkpoint.writes",
                   static_cast<double>(ckpt->sequence), "count");
      const std::string probe = opt.work_dir + "/ckpt-probe";
      remove_pair(probe);
      core::CheckpointWriter writer(probe);
      bool wrote = true;
      for (int i = 0; i < 20; ++i) {
        Scope span(tracer, "core.checkpoint", "core.checkpoint.write");
        wrote = writer.write(*ckpt) && wrote;
      }
      report.check("checkpoint_writes", wrote);
      const std::vector<double> w = tracer.durations("core.checkpoint.write");
      report.layer("core.checkpoint.write_ms_p50", percentile(w, 50.0) * 1e3,
                   "ms");
      report.layer("core.checkpoint.write_ms_p99", percentile(w, 99.0) * 1e3,
                   "ms");
      std::error_code ec;
      report.layer("core.checkpoint.frame_bytes",
                   static_cast<double>(
                       std::filesystem::file_size(probe + ".a", ec)),
                   "bytes");
      remove_pair(probe);
    }
    report.layer("core.checkpoint.load_ms", load_s * 1e3, "ms");
    primitive_probes(*trace, opt.seed, median(engine_s),
                     sketch_adds(r.campaign), tracer, report);
  }
  remove_pair(base);
  remove_pair(crash_base);

  if (!opt.trace) {
    report.e2e("setup_s", setup_s, "s");
    report.e2e("req_per_s", rate, "1/s");
    report.e2e("served_frac", 1.0 - outcome(r.campaign).failed_frac,
               "fraction");
  }
}

}  // namespace perfbench
