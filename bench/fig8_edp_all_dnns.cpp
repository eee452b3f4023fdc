// Fig. 8 — Total EDP of the Odin-enabled accelerator vs the four
// state-of-the-art homogeneous OU configurations across all nine DNN
// workloads (CIFAR-10, CIFAR-100, TinyImageNet), normalized to the (16x16)
// configuration's inferencing EDP, as in the paper.
//
// Paper headline: Odin reduces EDP by 3.9x / 2.5x / 1.5x / 1.9x on average
// vs (16x16) / (16x4) / (9x8) / (8x4), and by up to 8.7x.
#include <cstdio>
#include <map>
#include <memory>

#include "bench_util.hpp"
#include "common/math.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"

using namespace odin;

int main() {
  bench::banner("Fig. 8: total EDP across all nine DNN workloads");
  const core::Setup setup = bench::default_setup();
  const ou::NonIdealityModel nonideal = setup.make_nonideality();
  const ou::OuCostModel cost = setup.make_cost();
  const arch::SystemModel system = setup.make_system();
  const arch::OverheadModel overhead = setup.make_overhead();
  const core::HorizonConfig horizon{};
  const auto baselines = core::paper_baseline_configs();

  bench::Stopwatch clock;
  // Map all nine workloads once; offline policies per held-out family are
  // trained from the other workloads' mappings.
  std::vector<std::unique_ptr<ou::MappedModel>> mapped;
  for (dnn::DnnModel& model : dnn::paper_workloads())
    mapped.push_back(
        std::make_unique<ou::MappedModel>(setup.make_mapped(std::move(model))));
  std::printf("[setup] 9 workloads pruned+mapped in %.1fs\n", clock.seconds());

  const ou::OuLevelGrid grid(setup.pim.tile.crossbar_size);
  std::map<dnn::Family, std::unique_ptr<policy::OuPolicy>> policies;
  for (const auto& mm : mapped) {
    const dnn::Family family = mm->model().family;
    if (policies.count(family)) continue;
    std::vector<const ou::MappedModel*> known;
    for (const auto& other : mapped)
      if (other->model().family != family) known.push_back(other.get());
    policies[family] = std::make_unique<policy::OuPolicy>(
        policy::train_offline_policy(known, nonideal, cost, grid));
    std::printf("[setup] offline policy excluding %s trained (%.1fs)\n",
                dnn::family_name(family).c_str(), clock.seconds());
  }

  common::Table table({"workload", "dataset", "16x16", "16x4", "9x8", "8x4",
                       "Odin", "Odin vs 16x16", "Odin vs best baseline"});
  std::map<std::string, std::vector<double>> reductions;  // per baseline
  double max_reduction = 0.0;
  std::string max_reduction_at;

  // Per-workload arms are independent; clone each arm's policy up front
  // (clone() is not const-safe on a shared policy), then fan out. Within an
  // arm the baseline sweep fans out again when lanes are idle; nested
  // regions degrade to inline execution, never deadlock. Each arm records
  // when it finished, and the lines print in workload order after the
  // sweep, so scheduling moves only the wall-clock text.
  struct Arm {
    std::vector<core::AggregateResult> results;
    double done_s = 0.0;
  };
  std::vector<policy::OuPolicy> arm_policies;
  arm_policies.reserve(mapped.size());
  for (const auto& mm : mapped)
    arm_policies.push_back(policies.at(mm->model().family)->clone());
  const auto arms = common::parallel_transform(
      mapped.size(), 1, [&](std::size_t i) {
        const auto& mm = mapped[i];
        const auto noc = system.map(mm->model()).noc_per_inference;
        Arm arm;
        arm.results = core::simulate_homogeneous_sweep(
            *mm, nonideal, cost, baselines, horizon, noc);
        core::OdinController controller(*mm, nonideal, cost,
                                        std::move(arm_policies[i]));
        arm.results.push_back(
            core::simulate_odin(controller, horizon, noc, &overhead));
        arm.done_s = clock.seconds();
        return arm;
      });
  for (std::size_t w = 0; w < mapped.size(); ++w)
    std::printf("[run] %-12s done (%.1fs)\n",
                mapped[w]->model().name.c_str(), arms[w].done_s);

  for (std::size_t w = 0; w < mapped.size(); ++w) {
    const auto& mm = mapped[w];
    const std::vector<core::AggregateResult>& results = arms[w].results;

    const double norm = results[0].inference_edp();  // 16x16 inferencing EDP
    const double odin_edp = results.back().total_edp();
    std::vector<std::string> row{
        mm->model().name,
        data::DatasetSpec::for_kind(mm->model().dataset).name};
    double best_baseline = 1e300;
    for (std::size_t b = 0; b < baselines.size(); ++b) {
      const double edp = results[b].total_edp();
      row.push_back(common::Table::num(edp / norm, 4));
      best_baseline = std::min(best_baseline, edp);
      const double reduction = edp / odin_edp;
      reductions[baselines[b].to_string()].push_back(reduction);
      if (reduction > max_reduction) {
        max_reduction = reduction;
        max_reduction_at = mm->model().name + " vs " +
                           baselines[b].to_string();
      }
    }
    row.push_back(common::Table::num(odin_edp / norm, 4));
    row.push_back(common::Table::num(results[0].total_edp() / odin_edp, 3));
    row.push_back(common::Table::num(best_baseline / odin_edp, 3));
    table.add_row(std::move(row));
  }
  common::print_table(
      "Fig. 8: total EDP normalized to (16x16) inferencing EDP", table);

  common::Table avg({"baseline", "mean EDP reduction by Odin",
                     "paper mean"});
  const std::map<std::string, std::string> paper{{"16x16", "3.9"},
                                                 {"16x4", "2.5"},
                                                 {"9x8", "1.5"},
                                                 {"8x4", "1.9"}};
  for (const ou::OuConfig cfg : baselines) {
    const auto& r = reductions[cfg.to_string()];
    avg.add_row({cfg.to_string(), common::Table::num(common::mean(r), 3),
                 paper.at(cfg.to_string())});
  }
  common::print_table("average EDP reductions across workloads", avg);
  std::printf("\n[headline] max EDP reduction: %.2fx (%s); paper: up to 8.7x"
              "\n",
              max_reduction, max_reduction_at.c_str());
  return 0;
}
