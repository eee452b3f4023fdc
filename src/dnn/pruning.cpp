#include "dnn/pruning.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <memory>
#include <mutex>
#include <numbers>
#include <span>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "dnn/pruning_bracket.hpp"

namespace odin::dnn {

namespace bracket {

Tables::Tables() {
  // u1 edge (e, j) is 2^(e-53)·(1 + j/256); 1 + j/256 is exact, so the
  // mantissa term needs only log, which the exact path already calls. Its
  // last entry is the binade step itself, so the top bucket's lower bound,
  // at u1 = 1, sums to exactly +0; its first is +0, where the computed
  // −2·log(1) is −0, whose float pattern would sort above every positive
  // bound.
  const double step = 2.0 * std::numbers::ln2;
  for (std::size_t e = 0; e < kU1Binades; ++e)
    binade_term[e] = static_cast<double>(kU1Binades - e) * step;
  mantissa_term[0] = 0.0;
  for (std::size_t j = 1; j < kU1Steps; ++j)
    mantissa_term[j] =
        -2.0 * std::log(1.0 + static_cast<double>(j) / kU1Steps);
  mantissa_term[kU1Steps] = -step;
  // u2 edge f is f·2^-14; cos(2π·1/4) is 0, which the computed cos of the
  // rounded argument would miss by ~6e-17.
  for (std::size_t f = 0; f < kU2Buckets; ++f) {
    const double c = std::cos(
        2.0 * std::numbers::pi *
        std::ldexp(static_cast<double>(f), -2 - kU2BucketBits));
    cos_term[f] = c * c;
  }
  cos_term[kU2Buckets] = 0.0;
}

}  // namespace bracket

namespace {

/// Deterministic per-(layer, row) generator: both pruning walks must see
/// identical magnitude streams.
common::Rng row_rng(std::uint64_t layer_seed, int row) {
  std::uint64_t s = layer_seed ^ (0xd1b54a32d192ed03ULL *
                                  (static_cast<std::uint64_t>(row) + 1));
  return common::Rng(common::splitmix64(s));
}

double row_importance(common::Rng& rng, double sigma) {
  return std::exp(sigma * rng.normal());
}

/// uniform()'s value of the 53-bit draw k.
double to_unit(std::uint64_t k) { return static_cast<double>(k) * 0x1.0p-53; }

/// Walk 1's bounds on one sampled weight's squared magnitude, as the bit
/// patterns of floats rounded outward: the bytes of one double.
struct SampleBounds {
  std::uint32_t lo;
  std::uint32_t hi;
};

/// A weight of walk 2 whose bounds straddle [LO, HI], with its exact
/// magnitude.
struct Undecided {
  int row;
  int col;
  bool sampled;
  double magnitude;
};

/// Walk 2's undecided weights, in slots its chunks claim one at a time.
/// The slots take the bytes of walk 1's sample, which is freed by then;
/// they are allocated on the calling thread and left uninitialised, so
/// only the slots written become resident and the workers allocate
/// nothing. A layer with more undecided weights than slots (a row scale
/// outside the tables' range sends whole rows here) puts the rest in an
/// overflow list.
class UndecidedList {
 public:
  explicit UndecidedList(std::size_t samples)
      : capacity_(samples * sizeof(SampleBounds) / sizeof(Undecided) + 1),
        slots_(std::make_unique_for_overwrite<Undecided[]>(capacity_)) {}

  void add(const Undecided& u) {
    const std::size_t i = used_.fetch_add(1, std::memory_order_relaxed);
    if (i < capacity_) [[likely]] {
      slots_[i] = u;
      return;
    }
    const std::lock_guard<std::mutex> lock(overflow_mutex_);
    overflow_.push_back(u);
  }

  /// Every weight added, in no particular order. Call once the walk is
  /// done.
  std::span<Undecided> all() {
    const std::size_t used = std::min(used_.load(), capacity_);
    if (overflow_.empty()) return {slots_.get(), used};
    overflow_.insert(overflow_.end(), slots_.get(), slots_.get() + used);
    return overflow_;
  }

 private:
  std::size_t capacity_;
  std::unique_ptr<Undecided[]> slots_;
  std::atomic<std::size_t> used_{0};
  std::mutex overflow_mutex_;
  std::vector<Undecided> overflow_;
};

/// Rough cost of one weight in either walk (ns), and of one sampled
/// weight in the counting pass, for the pool's cutoff that keeps small
/// layers inline.
constexpr std::size_t kNsPerWeight = 25;
constexpr std::size_t kNsPerCount = 2;

/// Counts of one 10-bit digit of the bound patterns, [lo, hi][digit]. The
/// select reads the digits at bits 21..30 (walk 1 counts them; bit 31, the
/// sign, is 0 in every bound) and at bits 11..20 (one counting pass over
/// the sample). Each chunk keeps its counts on its thread's stack, whose
/// touched pages stay resident, so they are kept to 8 KB.
constexpr int kTopShift = 21;
constexpr int kNextShift = 11;
constexpr std::uint32_t kDigit = 0x3ff;
using DigitCounts = std::array<std::array<std::uint32_t, kDigit + 1>, 2>;

void merge(DigitCounts& into, const DigitCounts& from, std::mutex& mutex) {
  const std::lock_guard<std::mutex> lock(mutex);
  for (std::size_t key = 0; key < 2; ++key)
    for (std::size_t d = 0; d <= kDigit; ++d) into[key][d] += from[key][d];
}

/// The digit holding the rank-th smallest (0-based) pattern; rank becomes
/// the pattern's rank among those with that digit.
std::uint32_t pick(const std::array<std::uint32_t, kDigit + 1>& counts,
                   std::size_t& rank) {
  std::uint32_t d = 0;
  while (rank >= counts[d]) rank -= counts[d++];
  return d;
}

/// What both walks read for every row of one layer, passed by value so
/// the loops keep it in registers across their stores.
struct Walk {
  const bracket::Tables* tables;
  std::uint64_t seed;
  double sigma;
  std::int64_t cols;
  std::int64_t stride;
};

/// Walk 1 over row r: fills the row's sample slots with bounds and counts
/// their top digits; every other weight only advances the stream.
void bound_row(Walk w, std::size_t r, std::span<SampleBounds> sample,
               DigitCounts& top) {
  common::Rng rng = row_rng(w.seed, static_cast<int>(r));
  const bracket::Scales scales =
      bracket::row_scales(row_importance(rng, w.sigma));
  const std::int64_t first = static_cast<std::int64_t>(r) * w.cols;
  std::int64_t slot = (first + w.stride - 1) / w.stride;
  std::int64_t next = slot * w.stride - first;  // next sampled column
  for (std::int64_t c = 0; c < w.cols; ++c) {
    if (c != next) {
      rng.discard_normal();
      continue;
    }
    const double u1 = rng.uniform_positive();
    const bracket::Bounds b = bracket::square_bounds(
        *w.tables, scales, bracket::u1_bucket(u1),
        bracket::u2_bucket(rng.next_u53()));
    const SampleBounds bounds{bracket::float_below(b.lo),
                              bracket::float_above(b.hi)};
    sample[static_cast<std::size_t>(slot++)] = bounds;
    ++top[0][bounds.lo >> kTopShift];
    ++top[1][bounds.hi >> kTopShift];
    next += w.stride;
  }
}

/// Walk 2 over row r: writes the bits the bounds decide into the row's
/// mask words, adds the rest, with their exact magnitudes, to `undecided`
/// and returns how many of the row's sampled weights the bounds dropped.
std::int64_t decide_row(Walk w, std::size_t r, double lo_cut, double hi_cut,
                        std::span<std::uint64_t> words,
                        UndecidedList& undecided) {
  common::Rng rng = row_rng(w.seed, static_cast<int>(r));
  const double imp = row_importance(rng, w.sigma);
  const bracket::Scales scales = bracket::row_scales(imp);
  const std::int64_t first = static_cast<std::int64_t>(r) * w.cols;
  std::int64_t next = (first + w.stride - 1) / w.stride * w.stride - first;
  std::int64_t drops = 0;
  for (std::int64_t base = 0; base < w.cols; base += 64) {
    const std::int64_t end = std::min<std::int64_t>(base + 64, w.cols);
    std::uint64_t word = 0;
    for (std::int64_t c = base; c < end; ++c) {
      const double u1 = rng.uniform_positive();
      const std::uint64_t k2 = rng.next_u53();
      const bracket::Bounds b = bracket::square_bounds(
          *w.tables, scales, bracket::u1_bucket(u1), bracket::u2_bucket(k2));
      const bool sampled = c == next;
      if (sampled) next += w.stride;
      const bool drop = b.hi < lo_cut;
      const bool keep = b.lo > hi_cut;
      // Counted by the very test that drops: θ's rank among the undecided
      // depends on it.
      drops += sampled && drop;
      word |= std::uint64_t{keep} << (c & 63);
      if (!drop && !keep) [[unlikely]]
        undecided.add(
            {static_cast<int>(r), static_cast<int>(c), sampled,
             imp * std::abs(common::Rng::box_muller(u1, to_unit(k2)))});
    }
    words[static_cast<std::size_t>(base >> 6)] = word;
  }
  return drops;
}

}  // namespace

double target_sparsity(const LayerDescriptor& layer) {
  if (layer.type == LayerType::kDepthwise) {
    // Structural block-diagonal zeros dominate; within each k*k filter
    // block only mild magnitude pruning is possible.
    const double per_filter = static_cast<double>(layer.kernel) *
                              layer.kernel / layer.fan_in;
    return std::clamp(1.0 - per_filter * 0.9, 0.10, 0.999);
  }
  double s = 0.16 * std::log(static_cast<double>(layer.fan_in)) - 0.28;
  if (layer.type == LayerType::kConv && layer.kernel == 1) s -= 0.15;
  if (layer.type == LayerType::kFullyConnected) s -= 0.08;
  if (layer.type == LayerType::kAttention) s -= 0.05;
  return std::clamp(s, 0.10, 0.80);
}

/// Depthwise layers are block-diagonal by construction: column c's weights
/// live in rows [k*k*c, k*k*(c+1)); ~10% of in-block weights are magnitude
/// pruned.
WeightPattern prune_depthwise(const LayerDescriptor& layer,
                              std::uint64_t seed) {
  const int filter = layer.kernel * layer.kernel;
  WeightPattern pattern(layer.fan_in, layer.outputs);
  common::Rng rng(seed ^ 0xdee9f11ceULL);
  for (int c = 0; c < layer.outputs; ++c) {
    bool any = false;
    for (int t = 0; t < filter; ++t) {
      const int r = c * filter + t;
      if (r >= layer.fan_in) break;
      if (rng.bernoulli(0.9)) {
        pattern.set(r, c);
        any = true;
      }
    }
    if (!any && c * filter < layer.fan_in) pattern.set(c * filter, c);
  }
  return pattern;
}

namespace {

/// prune_layer on tables the caller built.
WeightPattern prune_with(const LayerDescriptor& layer, std::uint64_t seed,
                         const PruningConfig& config,
                         const bracket::Tables& tables) {
  assert(layer.fan_in > 0 && layer.outputs > 0);
  if (layer.type == LayerType::kDepthwise)
    return prune_depthwise(layer, seed);
  common::Rng jitter_rng(seed ^ 0xabcdef12345ULL);
  const double target = std::clamp(
      target_sparsity(layer) +
          jitter_rng.uniform(-config.sparsity_jitter, config.sparsity_jitter),
      0.05, 0.95);

  const std::int64_t total = layer.weight_count();
  const std::int64_t stride = std::max<std::int64_t>(
      1, total / std::max<std::int64_t>(1, config.quantile_samples));
  const auto samples = static_cast<std::size_t>((total + stride - 1) / stride);
  // target <= 0.95 keeps the cut inside the sample.
  const auto cut =
      static_cast<std::size_t>(target * static_cast<double>(samples));
  assert(cut < samples);
  const Walk walk{&tables, seed, config.row_importance_sigma,
                  layer.outputs, stride};
  const auto rows = static_cast<std::size_t>(layer.fan_in);
  const std::size_t cost = static_cast<std::size_t>(layer.outputs) * kNsPerWeight;

  // Walk 1: the weights at flat indices 0, stride, 2*stride, ... form the
  // quantile sample; row r fills its own slots with bounds on their squared
  // magnitudes. Two 10-bit digits of the cut-th smallest lower and upper
  // bound give LO ≤ θ² ≤ HI, θ being the cut-th smallest sampled magnitude
  // (DESIGN.md §21). The sample is freed before the mask is allocated, so
  // the two never coexist.
  const std::array<double, 2> cuts = [&] {
    std::vector<SampleBounds> sample(samples);
    std::mutex count_mutex;
    DigitCounts counts{};
    common::parallel_for_chunks(
        0, rows, 0,
        [&](std::size_t begin, std::size_t end) {
          DigitCounts local{};
          for (std::size_t r = begin; r < end; ++r)
            bound_row(walk, r, sample, local);
          merge(counts, local, count_mutex);
        },
        cost);
    std::array<std::size_t, 2> rank{cut, cut};
    const std::array<std::uint32_t, 2> high{pick(counts[0], rank[0]),
                                            pick(counts[1], rank[1])};
    counts = {};
    common::parallel_for_chunks(
        0, samples, 0,
        [&](std::size_t begin, std::size_t end) {
          DigitCounts local{};
          for (std::size_t i = begin; i < end; ++i) {
            const SampleBounds s = sample[i];
            local[0][(s.lo >> kNextShift) & kDigit] +=
                (s.lo >> kTopShift) == high[0];
            local[1][(s.hi >> kNextShift) & kDigit] +=
                (s.hi >> kTopShift) == high[1];
          }
          merge(counts, local, count_mutex);
        },
        kNsPerCount);
    // LO is the smallest pattern with the cut-th smallest lo's two digits,
    // HI the largest with the cut-th smallest hi's.
    const std::uint32_t lo = high[0] << kTopShift | pick(counts[0], rank[0])
                                                         << kNextShift;
    const std::uint32_t hi = high[1] << kTopShift |
                             pick(counts[1], rank[1]) << kNextShift |
                             ((1u << kNextShift) - 1);
    return std::array<double, 2>{std::bit_cast<float>(lo),
                                 std::bit_cast<float>(hi)};
  }();

  // Walk 2: replay the identical stream. A weight whose upper bound is
  // below LO is dropped and one whose lower bound is above HI is kept; only
  // the rest get the exact magnitude, through the same box_muller on the
  // same draws as Rng::normal().
  WeightPattern pattern(layer.fan_in, layer.outputs);
  UndecidedList list(samples);
  std::atomic<std::int64_t> drops{0};
  common::parallel_for_chunks(
      0, rows, 0,
      [&](std::size_t begin, std::size_t end) {
        std::int64_t chunk_drops = 0;
        for (std::size_t r = begin; r < end; ++r)
          chunk_drops +=
              decide_row(walk, r, cuts[0], cuts[1],
                         pattern.row_words(static_cast<int>(r)), list);
        drops.fetch_add(chunk_drops, std::memory_order_relaxed);
      },
      cost);

  // Every dropped sampled magnitude is below θ and every kept one above,
  // so θ is the (cut − drops)-th smallest undecided sampled magnitude.
  // The list's order depends on scheduling; neither θ nor the bits set
  // from it depend on that order.
  const std::span<Undecided> undecided = list.all();
  const auto sampled_end =
      std::partition(undecided.begin(), undecided.end(),
                     [](const Undecided& u) { return u.sampled; });
  const auto rank = static_cast<std::ptrdiff_t>(
      static_cast<std::int64_t>(cut) - drops.load());
  assert(rank >= 0 && rank < sampled_end - undecided.begin());
  std::nth_element(undecided.begin(), undecided.begin() + rank, sampled_end,
                   [](const Undecided& a, const Undecided& b) {
                     return a.magnitude < b.magnitude;
                   });
  const double threshold = undecided[static_cast<std::size_t>(rank)].magnitude;
  for (const Undecided& u : undecided)
    if (u.magnitude >= threshold)
      pattern.row_words(u.row)[static_cast<std::size_t>(u.col >> 6)] |=
          1ULL << (u.col & 63);
  pattern.recount();
  // Never prune a layer to fully-zero: keep at least one weight so the
  // mapper always has work (mirrors real pruners' per-layer floors).
  if (pattern.nonzeros() == 0) pattern.set(0, 0);
  return pattern;
}

}  // namespace

WeightPattern prune_layer(const LayerDescriptor& layer, std::uint64_t seed,
                          const PruningConfig& config) {
  return prune_with(layer, seed, config, *std::make_unique<bracket::Tables>());
}

PrunedModel prune_model(DnnModel model, std::uint64_t seed,
                        const PruningConfig& config) {
  // One set of tables serves every layer and is freed with the call, so
  // the pruner leaves nothing resident after set-up.
  const auto tables = std::make_unique<bracket::Tables>();
  PrunedModel out;
  out.patterns.reserve(model.layers.size());
  for (auto& layer : model.layers) {
    const std::uint64_t layer_seed =
        seed ^ (0x9e3779b97f4a7c15ULL *
                (static_cast<std::uint64_t>(layer.index) + 17));
    out.patterns.push_back(prune_with(layer, layer_seed, config, *tables));
    layer.weight_sparsity = out.patterns.back().sparsity();
  }
  out.model = std::move(model);
  return out;
}

}  // namespace odin::dnn
