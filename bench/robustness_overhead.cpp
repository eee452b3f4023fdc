// Extension — robustness overhead: what fault-tolerant serving costs.
//
// Three questions, one bench:
//  1. Checkpoint durability cost — wall-clock latency of one crash-safe
//     checkpoint write (encode + CRC + tmp/fsync/rename) and of one
//     restore (read + validate + decode + controller reinstate), plus the
//     on-disk frame size.
//  2. Shadow-evaluation overhead — wall clock of the guarded serving loop
//     vs the vanilla loop on a clean horizon (the guard's holdout split,
//     candidate clone training and layer-set shadow pricing all run inside
//     the retrain path).
//  3. Rollback behaviour under poisoning — the ISSUE's drift-burst
//     campaign: fault-free EDP vs unguarded-poisoned vs guarded-poisoned,
//     with the accept/reject/rollback counters.
//
// --json PATH writes the summary to PATH (BENCH_robustness.json).
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/checkpoint.hpp"
#include "core/serving.hpp"
#include "reram/fault_injection.hpp"

using namespace odin;

namespace {

constexpr std::uint64_t kSeed = 0x6a1d;

/// The poisoning campaign (kept in sync with tests/test_guardrails.cpp):
/// one intense thermal burst spanning a few runs of the log-spaced
/// horizon — long enough to fill the replay buffer with burst-era labels
/// and trigger a retrain inside the burst, short enough that its direct
/// (guard-independent) reprogramming cost is small against the horizon.
reram::FaultScheduleParams burst_params() {
  reram::FaultScheduleParams p;
  p.bursts = {{.start_s = 1e4, .duration_s = 2e4, .multiplier = 3e2}};
  return p;
}

core::OdinConfig loop_config(bool guard) {
  core::OdinConfig cfg;
  cfg.buffer_capacity = 10;
  cfg.update_options.epochs = 80;
  // Entropy gate on in every arm: a confidently-poisoned policy skips the
  // very searches that would expose (and retrain away) its mispredictions,
  // which is what makes an unguarded poisoned promotion persist.
  cfg.entropy_gate = 0.3;
  cfg.guard.enabled = guard;
  return cfg;
}

struct ArmOutcome {
  std::string label;
  double edp = 0.0;
  double wall_s = 0.0;
  int updates_accepted = 0;
  int updates_rejected = 0;
  int updates_rolled_back = 0;
  long long buffer_quarantined = 0;
};

ArmOutcome run_arm(const char* label, const ou::MappedModel& tenant,
                   const ou::NonIdealityModel& nonideal,
                   const ou::OuCostModel& cost,
                   const core::HorizonConfig& horizon, bool with_faults,
                   bool with_guard) {
  reram::FaultInjector faults(burst_params(), kSeed);
  core::OdinController controller(tenant, nonideal, cost,
                                  policy::OuPolicy(ou::OuLevelGrid(128)),
                                  loop_config(with_guard),
                                  with_faults ? &faults : nullptr);
  const bench::Stopwatch clock;
  const auto agg = core::simulate_odin(controller, horizon);
  ArmOutcome out;
  out.label = label;
  out.wall_s = clock.seconds();
  out.edp = agg.total_edp();
  out.updates_accepted = agg.updates_accepted;
  out.updates_rejected = agg.updates_rejected;
  out.updates_rolled_back = agg.updates_rolled_back;
  out.buffer_quarantined = agg.buffer_quarantined;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];

  bench::banner("Extension: robustness overhead (guard + checkpoint cost)");
  const core::Setup setup = bench::default_setup();
  const ou::NonIdealityModel nonideal = setup.make_nonideality();
  const ou::OuCostModel cost = setup.make_cost();
  const ou::MappedModel vgg11 =
      setup.make_mapped(dnn::make_vgg11(data::DatasetKind::kCifar10));

  // ---- 1. checkpoint write / restore latency --------------------------
  // State worth checkpointing: a controller mid-horizon with a filled
  // buffer and promoted updates, wrapped exactly as the serving loop does.
  core::OdinController donor(vgg11, nonideal, cost,
                             policy::OuPolicy(ou::OuLevelGrid(128)),
                             loop_config(false));
  double t = 1.0;
  for (int i = 0; i < 40; ++i, t *= 1.6) donor.run_inference(t);
  core::ServingCheckpoint ckpt;
  ckpt.segment = 1;
  ckpt.next_run = 40;
  ckpt.fingerprint.segments = 4;
  ckpt.fingerprint.horizon_runs = 160;
  ckpt.fingerprint.t_start_s = 1.0;
  ckpt.fingerprint.t_end_s = 1e8;
  ckpt.fingerprint.tenant_names = {vgg11.model().name};
  ckpt.result.label = "Odin";
  ckpt.result.tenants.resize(1);
  ckpt.result.tenants[0].name = vgg11.model().name;
  ckpt.controller = donor.snapshot();

  const std::string base = "/tmp/odin_bench_ckpt";
  std::remove((base + ".a").c_str());
  std::remove((base + ".b").c_str());
  constexpr int kCycles = 50;
  core::CheckpointWriter writer(base);
  const bench::Stopwatch write_clock;
  for (int i = 0; i < kCycles; ++i) writer.write(ckpt);
  const double write_ms = write_clock.seconds() * 1e3 / kCycles;

  const bench::Stopwatch load_clock;
  for (int i = 0; i < kCycles; ++i) {
    const auto loaded = core::load_latest_checkpoint(base);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "error: checkpoint failed to load\n");
      return 1;
    }
  }
  const double load_ms = load_clock.seconds() * 1e3 / kCycles;

  // Restore = load + controller reinstate (decode blobs, rebuild buffer).
  const auto loaded = core::load_latest_checkpoint(base);
  const bench::Stopwatch restore_clock;
  int restored_ok = 0;
  for (int i = 0; i < kCycles; ++i) {
    core::OdinController target(vgg11, nonideal, cost,
                                policy::OuPolicy(ou::OuLevelGrid(128)),
                                loop_config(false));
    restored_ok += target.restore(loaded->controller) ? 1 : 0;
  }
  const double restore_ms = restore_clock.seconds() * 1e3 / kCycles;

  common::ByteWriter frame_probe;
  core::encode_checkpoint(ckpt, frame_probe);
  const std::size_t frame_bytes = frame_probe.bytes().size() + 32;

  common::Table ckpt_table(
      {"operation", "latency (ms)", "notes"});
  char size_note[64];
  std::snprintf(size_note, sizeof(size_note), "frame %zu bytes",
                frame_bytes);
  ckpt_table.add_row({"checkpoint write", common::Table::num(write_ms, 3),
                      size_note});
  ckpt_table.add_row({"checkpoint load", common::Table::num(load_ms, 3),
                      "read + CRC + decode"});
  ckpt_table.add_row({"controller restore", common::Table::num(restore_ms, 3),
                      "reinstate policy + buffer"});
  common::print_table("crash-safe checkpoint cost (VGG11 serving state)",
                      ckpt_table);
  if (restored_ok != kCycles)
    std::fprintf(stderr, "warning: %d/%d restores failed\n",
                 kCycles - restored_ok, kCycles);

  // ---- 2 + 3. guard overhead and the poisoning campaign ---------------
  const core::HorizonConfig horizon{.t_start_s = 1.0, .t_end_s = 1e8,
                                    .runs = 160};
  const ArmOutcome clean =
      run_arm("fault-free (vanilla)", vgg11, nonideal, cost, horizon, false,
              false);
  const ArmOutcome clean_guarded =
      run_arm("fault-free (guarded)", vgg11, nonideal, cost, horizon, false,
              true);
  const ArmOutcome poisoned_unguarded =
      run_arm("drift-burst (unguarded)", vgg11, nonideal, cost, horizon,
              true, false);
  const ArmOutcome poisoned_guarded =
      run_arm("drift-burst (guarded)", vgg11, nonideal, cost, horizon, true,
              true);

  common::Table arm_table({"arm", "EDP (J*s)", "vs fault-free", "wall (s)",
                           "acc/rej/rb", "quarantined"});
  auto add_arm = [&](const ArmOutcome& o) {
    char counters[48], ratio[32];
    std::snprintf(counters, sizeof(counters), "%d/%d/%d",
                  o.updates_accepted, o.updates_rejected,
                  o.updates_rolled_back);
    std::snprintf(ratio, sizeof(ratio), "%.3fx", o.edp / clean.edp);
    arm_table.add_row({o.label, common::Table::num(o.edp, 4), ratio,
                       common::Table::num(o.wall_s, 2), counters,
                       common::Table::integer(o.buffer_quarantined)});
  };
  add_arm(clean);
  add_arm(clean_guarded);
  add_arm(poisoned_unguarded);
  add_arm(poisoned_guarded);
  common::print_table(
      "VGG11/CIFAR-10, 160-run horizon, drift-burst poisoning campaign",
      arm_table);
  std::printf(
      "\n[shape] the burst poisons one retrain batch; unguarded Algorithm 1 "
      "promotes it and serves the rest of the horizon from a bad policy, "
      "while the guard rejects or rolls the promotion back (quarantining "
      "the batch) and stays within a few percent of the fault-free walk. "
      "The guard's shadow evaluation costs wall clock only at retrain "
      "boundaries.\n");

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path);
      return 1;
    }
    const reram::FaultScheduleParams sched = burst_params();
    std::fprintf(f,
                 "{\n"
                 "  \"workload\": \"VGG11/CIFAR-10\",\n"
                 "  \"horizon_runs\": %d,\n"
                 "  \"burst\": {\"start_s\": %.2e, \"duration_s\": %.2e, "
                 "\"multiplier\": %.1f},\n"
                 "  \"checkpoint\": {\n"
                 "    \"frame_bytes\": %zu,\n"
                 "    \"write_ms\": %.4f,\n"
                 "    \"load_ms\": %.4f,\n"
                 "    \"controller_restore_ms\": %.4f\n"
                 "  },\n"
                 "  \"guard_wall_overhead\": %.4f,\n"
                 "  \"arms\": [\n",
                 horizon.runs, sched.bursts[0].start_s,
                 sched.bursts[0].duration_s, sched.bursts[0].multiplier,
                 frame_bytes, write_ms, load_ms, restore_ms,
                 clean.wall_s > 0.0 ? clean_guarded.wall_s / clean.wall_s
                                    : 0.0);
    const ArmOutcome* arms[] = {&clean, &clean_guarded, &poisoned_unguarded,
                                &poisoned_guarded};
    for (std::size_t i = 0; i < 4; ++i) {
      const ArmOutcome& o = *arms[i];
      std::fprintf(f,
                   "    {\"label\": \"%s\", \"edp\": %.6e, "
                   "\"edp_vs_fault_free\": %.4f, \"wall_s\": %.3f, "
                   "\"updates_accepted\": %d, \"updates_rejected\": %d, "
                   "\"updates_rolled_back\": %d, "
                   "\"buffer_quarantined\": %lld}%s\n",
                   o.label.c_str(), o.edp, o.edp / clean.edp, o.wall_s,
                   o.updates_accepted, o.updates_rejected,
                   o.updates_rolled_back, o.buffer_quarantined,
                   i + 1 < 4 ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("[bench] wrote %s\n", json_path);
  }
  std::remove((base + ".a").c_str());
  std::remove((base + ".b").c_str());
  return 0;
}
