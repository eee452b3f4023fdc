// Ablation — multi-tenant serving (the deployment story of Sec. I).
//
// Four CIFAR-10 workloads from different families share the accelerator;
// inference traffic rotates across them over the drift horizon. One Odin
// policy serves all tenants, transferring what it learns between them;
// the baselines run each tenant at a fixed homogeneous OU. Tenant switches
// (array reprogramming) are charged identically to everyone.
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/serving.hpp"

using namespace odin;

int main() {
  bench::banner("Ablation: multi-tenant serving across the drift horizon");
  const core::Setup setup = bench::default_setup();
  const ou::NonIdealityModel nonideal = setup.make_nonideality();
  const ou::OuCostModel cost = setup.make_cost();

  bench::Stopwatch clock;
  const ou::MappedModel resnet =
      setup.make_mapped(dnn::make_resnet18(data::DatasetKind::kCifar10));
  const ou::MappedModel vgg =
      setup.make_mapped(dnn::make_vgg11(data::DatasetKind::kCifar10));
  const ou::MappedModel vit =
      setup.make_mapped(dnn::make_vit(data::DatasetKind::kCifar10));
  const ou::MappedModel mobilenet =
      setup.make_mapped(dnn::make_mobilenetv1(data::DatasetKind::kCifar10));
  const std::vector<const ou::MappedModel*> tenants{&resnet, &vgg, &vit,
                                                    &mobilenet};
  std::printf("[setup] 4 tenants mapped in %.1fs\n", clock.seconds());

  core::ServingConfig cfg;
  cfg.horizon.runs = 400;
  cfg.segments = 8;

  common::Table table({"scheme", "E_total (mJ)", "L_total (s)", "EDP (Js)",
                       "drift reprograms", "mismatch rate %",
                       "EDP vs Odin"});
  const auto odin = core::serve_with_odin(
      tenants, nonideal, cost, policy::OuPolicy(ou::OuLevelGrid(128)), cfg);
  auto add_row = [&](const core::ServingResult& r) {
    const int reprograms = r.sum(&core::TenantStats::reprograms);
    const int mismatches = r.sum(&core::TenantStats::mismatches);
    const double layers_served = [&] {
      double n = 0;
      for (std::size_t i = 0; i < tenants.size(); ++i)
        n += static_cast<double>(r.tenants[i].runs) *
             static_cast<double>(tenants[i]->layer_count());
      return n;
    }();
    table.add_row({r.label,
                   common::Table::num(r.total().energy_j * 1e3, 4),
                   common::Table::num(r.total().latency_s, 4),
                   common::Table::num(r.total_edp(), 4),
                   common::Table::integer(reprograms),
                   common::Table::num(100.0 * mismatches / layers_served, 3),
                   common::Table::num(r.total_edp() / odin.total_edp(), 3)});
  };
  add_row(odin);
  for (ou::OuConfig cfgou : core::paper_baseline_configs())
    add_row(core::serve_with_homogeneous(tenants, nonideal, cost, cfgou,
                                         cfg));
  common::print_table(
      "4 tenants (ResNet18 / VGG11 / ViT / MobileNetV1), 8 segments, "
      "400 runs",
      table);

  common::Table per({"tenant", "runs", "Odin E_inf (mJ)",
                     "Odin mismatches"});
  for (const auto& t : odin.tenants)
    per.add_row({t.name, common::Table::integer(t.runs),
                 common::Table::num(t.inference.energy_j * 1e3, 4),
                 common::Table::integer(t.mismatches)});
  common::print_table("Odin per-tenant view", per);
  std::printf("\n[shape] one policy serves every tenant — the featurized "
              "layer space transfers across architectures (the paper's "
              "'unseen DNN' premise, stress-tested with tenant churn); "
              "%d online updates occurred. (%.1fs)\n",
              odin.policy_updates, clock.seconds());
  return 0;
}
