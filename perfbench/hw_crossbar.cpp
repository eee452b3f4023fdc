// hw-crossbar: batched HardwareMlpRunner inference of reference MLPs on the
// behavioural crossbars — the only workload that runs the reram plane
// kernel and batch GEMM.
//
// Set-up trains two reference classifiers on a seeded synthetic CIFAR-10
// feature set (hidden 48: 3 crossbars, whose effective planes fit in a
// 2 MiB L2; hidden 1024: 24 crossbars, 3 MiB of effective plane, which do
// not) and lowers/programs each onto 128x128 crossbars. The timed phase
// sweeps OU shape x drift time x batch size over both. Batched logits must
// be bitwise equal to batch-1 logits.
#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/hardware_inference.hpp"
#include "data/synthetic.hpp"
#include "nn/train.hpp"
#include "reram/crossbar.hpp"

namespace perfbench {
namespace {

using namespace odin;

constexpr int kCrossbar = 128;
constexpr int kPool = 4;
constexpr std::size_t kRows = 512;
constexpr int kSetupRepeats = 3;
constexpr std::size_t kHidden[] = {48, 1024};
constexpr ou::OuConfig kOus[] = {{8, 8}, {16, 16}, {32, 32}};
constexpr double kTimes[] = {1.0, 1e4, 1e7};
constexpr int kBatches[] = {1, 16, 64};

struct Reference {
  std::unique_ptr<nn::MultiHeadMlp> model;
  std::unique_ptr<core::HardwareMlpRunner> runner;
  std::size_t in = 0;
  std::size_t hidden = 0;
  std::size_t out = 0;

  /// Dense multiply-accumulates of one image.
  double macs() const {
    return static_cast<double>(in * hidden + hidden * out);
  }
  /// Crossbars the two layers tile onto.
  std::int64_t crossbars() const {
    auto tiles = [](std::size_t r, std::size_t c) {
      return static_cast<std::int64_t>((r + kCrossbar - 1) / kCrossbar *
                                       ((c + kCrossbar - 1) / kCrossbar));
    };
    return tiles(in, hidden) + tiles(hidden, out);
  }
  /// Effective-plane bytes one batched forward pass reads (computed: one
  /// size x size plane of doubles per crossbar).
  double plane_bytes() const {
    return static_cast<double>(crossbars()) * kCrossbar * kCrossbar *
           sizeof(double);
  }
};

struct Bench {
  nn::Dataset data;
  std::vector<Reference> refs;
  double fit_s = 0.0;
  double program_s = 0.0;
};

std::unique_ptr<Bench> build(std::uint64_t seed, Tracer& tracer) {
  auto b = std::make_unique<Bench>();
  const data::SyntheticDataset dataset(
      data::DatasetSpec::for_kind(data::DatasetKind::kCifar10), seed);
  b->data = dataset.as_feature_dataset(kRows, kPool);
  for (std::size_t hidden : kHidden) {
    Reference r;
    r.in = dataset.feature_count(kPool);
    r.hidden = hidden;
    r.out = 10;
    r.model = std::make_unique<nn::MultiHeadMlp>(
        nn::MlpConfig{.inputs = r.in, .hidden = {hidden}, .heads = {r.out}},
        seed);
    nn::TrainOptions opt;
    opt.epochs = hidden > 256 ? 6 : 30;
    opt.batch_size = 32;
    opt.learning_rate = 3e-3;
    opt.shuffle_seed = seed;
    b->fit_s += timed([&] {
      Scope span(tracer, "nn", "nn.fit");
      nn::fit(*r.model, b->data, opt);
    });
    b->program_s += timed([&] {
      Scope span(tracer, "reram", "reram.lower_and_program");
      r.runner = std::make_unique<core::HardwareMlpRunner>(
          *r.model, reram::DeviceParams{}, kCrossbar);
    });
    b->refs.push_back(std::move(r));
  }
  return b;
}

/// Time the plane kernel alone: single-query OU passes and the batched
/// GEMM over one programmed crossbar. Returns {mvm_ou_ns, gemm_ns/query}.
std::pair<double, double> kernel_probe(std::uint64_t seed, Tracer& tracer) {
  constexpr int kOu = 16, kBatch = 64, kReps = 4000;
  common::Rng rng(seed);
  std::vector<double> w(kCrossbar * kCrossbar);
  for (double& v : w) v = rng.uniform(-1.0, 1.0);
  reram::Crossbar xb(kCrossbar, reram::DeviceParams{});
  xb.program(w, kCrossbar, kCrossbar, 1.0);
  xb.prepare(1e4);
  std::vector<double> in(kOu * kBatch), out(kOu * kBatch);
  for (double& v : in) v = rng.uniform(0.0, 1.0);
  const double single = timed([&] {
    Scope span(tracer, "reram", "reram.mvm_ou");
    for (int r = 0; r < kReps; ++r)
      xb.mvm_ou(std::span<const double>(in.data(), kOu), (r % 8) * kOu, kOu,
                (r / 8 % 8) * kOu, kOu, 1e4, 4,
                std::span<double>(out.data(), kOu));
  });
  const double batched = timed([&] {
    Scope span(tracer, "reram", "reram.mvm_ou_batch");
    for (int r = 0; r < kReps / kBatch * 4; ++r)
      xb.mvm_ou(in, kBatch, (r % 8) * kOu, kOu, (r / 8 % 8) * kOu, kOu, 1e4,
                4, out);
  });
  return {single / kReps * 1e9,
          batched / (static_cast<double>(kReps / kBatch * 4) * kBatch) * 1e9};
}

}  // namespace

void run_hw_crossbar(const Options& opt, Tracer& tracer, Report& report) {
  report.setting("models", "mlp 192-48-10 (3 crossbars), 192-1024-10 (24)");
  report.setting("sweep", "ou {8x8,16x16,32x32} x t {1,1e4,1e7} s x batch "
                          "{1,16,64}");
  report.setting("noise", "off (deterministic cells; batched GEMM path)");

  std::unique_ptr<Bench> b;
  std::vector<double> setup_s;
  for (int rep = 0; rep < (opt.trace ? 1 : kSetupRepeats); ++rep) {
    const double t0 = now_s();
    b = build(opt.seed, tracer);
    setup_s.push_back(now_s() - t0);
  }
  const std::size_t stride = b->data.inputs.cols();
  const double* inputs = b->data.inputs.flat().data();

  // Batched vs batch-1 bitwise equality, on every setting with a batch.
  bool bitwise = true;
  for (Reference& r : b->refs)
    for (ou::OuConfig ou : kOus)
      for (double t : kTimes) {
        constexpr int kCheck = 16;
        std::vector<double> batched(kCheck * r.out);
        r.runner->logits(std::span<const double>(inputs, kCheck * stride),
                         kCheck, stride, ou, t, batched);
        for (int q = 0; q < kCheck; ++q) {
          const std::vector<double> one = r.runner->logits(
              std::span<const double>(inputs + q * stride, r.in), ou, t);
          bitwise = bitwise &&
                    std::memcmp(one.data(), batched.data() + q * r.out,
                                r.out * sizeof(double)) == 0;
        }
      }
  report.check("batched_logits_bitwise_equal_batch1", bitwise);

  // One iteration = the full sweep; the first logits of each call are
  // folded into a checksum that must repeat every iteration.
  std::vector<double> out(64 * 10);  // largest batch x classes
  std::optional<double> first_sum;
  bool repeatable = true;
  double images_per_iteration = 0.0;
  double macs_per_iteration = 0.0;
  const double rate = timed_phase(opt, tracer, report, 3, [&](int, bool traced) {
    double sum = 0.0, images = 0.0, macs = 0.0;
    for (Reference& r : b->refs)
      for (ou::OuConfig ou : kOus)
        for (double t : kTimes)
          for (int batch : kBatches) {
            const int id =
                !traced ? -1
                : batch == 64 ? tracer.begin("core.hw", "core.hw.logits_b64")
                              : tracer.begin("core.hw", "core.hw.logits");
            r.runner->logits(std::span<const double>(inputs, batch * stride),
                             batch, stride, ou, t,
                             std::span<double>(out.data(), batch * r.out));
            tracer.end(id);
            sum += out[0];
            images += batch;
            macs += batch * r.macs();
          }
    if (!first_sum) first_sum = sum;
    repeatable = repeatable && sum == *first_sum;
    images_per_iteration = images;
    macs_per_iteration = macs;
    return images;
  });
  report.check("sweep_repeatable", repeatable);

  double accuracy = 0.0;
  {
    Scope span(tracer, "core.hw", "core.hw.accuracy");
    for (Reference& r : b->refs)
      accuracy +=
          r.runner->accuracy(b->data, ou::OuConfig{16, 16}, 1e4, 64) /
          static_cast<double>(b->refs.size());
  }
  report.check("accuracy_above_chance", accuracy > 0.2);
  report.simulated("sim_accuracy", accuracy, "fraction");

  if (!opt.trace) {
    report.e2e("setup_s", median(setup_s), "s");
    report.e2e("req_per_s", rate, "1/s");
    report.e2e("served_frac", 1.0, "fraction");
    return;
  }
  const std::vector<double> fwd = tracer.durations("core.hw.logits_b64");
  report.layer("core.hw.forward_us_p50", percentile(fwd, 50.0) * 1e6, "us");
  report.layer("core.hw.forward_us_p99", percentile(fwd, 99.0) * 1e6, "us");
  const auto [mvm_ns, gemm_ns] = kernel_probe(opt.seed, tracer);
  report.layer("reram.mvm_ou_ns", mvm_ns, "ns");
  report.layer("reram.gemm_ns_per_query", gemm_ns, "ns");
  report.layer("reram.macs_per_image_computed",
               macs_per_iteration / images_per_iteration, "count");
  report.layer("reram.plane_bytes_per_batch_computed",
               b->refs.back().plane_bytes(), "bytes");
  report.layer("nn.fit_s", b->fit_s, "s");
  report.layer("reram.program_ms", b->program_s * 1e3, "ms");
}

}  // namespace perfbench
