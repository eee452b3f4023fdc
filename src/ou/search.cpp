#include "ou/search.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

#include "common/parallel.hpp"

namespace odin::ou {

double LayerContext::violation(OuConfig config) const {
  const auto& p = nonideal->params();
  const bool cached = cache != nullptr && cache->matches(elapsed_s);
  const double total = cached ? cache->total_nf(config)
                              : nonideal->total_nf(elapsed_s, config);
  const double ir =
      sensitivity * (cached ? cache->ir_nf(config)
                            : nonideal->ir_nf(elapsed_s, config));
  return std::max({0.0, total + nf_floor - p.eta_total * eta_scale,
                   ir - p.eta_ir * eta_scale});
}

namespace {

/// Lexicographic candidate score: any feasible config beats any infeasible
/// one; feasible configs compare by EDP, infeasible ones by violation (so a
/// greedy walk still descends toward the feasible region).
struct Score {
  bool feasible = false;
  double value = std::numeric_limits<double>::infinity();

  bool better_than(const Score& o) const noexcept {
    if (feasible != o.feasible) return feasible;
    return value < o.value;
  }
};

/// Pure candidate evaluation — safe to run concurrently; callers account
/// for SearchResult::evaluations themselves.
Score evaluate(const LayerContext& ctx, OuConfig config) {
  if (ctx.feasible(config)) return {true, ctx.edp(config)};
  return {false, ctx.violation(config)};
}

/// Analytic evaluation is ~1us per candidate; fan-outs of a handful of
/// neighbours (or one small grid) sit far below the fork-join break-even,
/// so the hint keeps them on the inline path (waking the pool for these
/// tiny regions measured slower than running them inline).
constexpr std::size_t kEvaluateCostNs = 1000;

int snap_level(const OuLevelGrid& grid, int size) {
  // Grid sizes are exact powers of two: log2(size_at(l)) is the integer
  // l + kMinExponent, so only the start size needs a log2 per call.
  const double target = std::log2(static_cast<double>(size));
  int best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (int l = 0; l < grid.levels(); ++l) {
    const double d =
        std::abs(target - static_cast<double>(l + OuLevelGrid::kMinExponent));
    if (d < best_dist) {
      best_dist = d;
      best = l;
    }
  }
  return best;
}

/// One greedy descent; updates `result` with the best feasible config seen.
/// A deadline on the context is charged per evaluation; when it expires
/// the walk stops where it stands (best-so-far is already in `result`).
void greedy_from(const LayerContext& ctx, int rl, int cl, int max_steps,
                 SearchResult& result) {
  const OuLevelGrid& grid = *ctx.grid;
  common::Deadline* deadline = ctx.deadline;
  Score current = evaluate(ctx, grid.config_at(rl, cl));
  ++result.evaluations;
  if (deadline != nullptr) deadline->charge_evaluations(1);
  auto consider = [&](const Score& s, OuConfig cfg) {
    if (s.feasible && s.value < result.edp) {
      result.found = true;
      result.edp = s.value;
      result.best = cfg;
    }
  };
  consider(current, grid.config_at(rl, cl));

  for (int step = 0; step < max_steps; ++step) {
    if (deadline != nullptr && deadline->expired()) {
      result.truncated = true;
      break;
    }
    constexpr std::array<std::array<int, 2>, 4> kMoves{
        {{+1, 0}, {-1, 0}, {0, +1}, {0, -1}}};
    // Collect the in-grid neighbours, score them concurrently (evaluate is
    // pure), then reduce in move order — the same winner the sequential
    // walk picks, including its first-wins tie-breaking.
    std::array<std::array<int, 2>, 4> candidates{};
    std::size_t n = 0;
    for (const auto& mv : kMoves) {
      const int nrl = rl + mv[0];
      const int ncl = cl + mv[1];
      if (nrl < 0 || nrl >= grid.levels() || ncl < 0 || ncl >= grid.levels())
        continue;
      candidates[n++] = {nrl, ncl};
    }
    const auto scores =
        common::parallel_transform(
            n, 1,
            [&](std::size_t i) {
              return evaluate(ctx, grid.config_at(candidates[i][0],
                                                  candidates[i][1]));
            },
            kEvaluateCostNs,
            deadline != nullptr ? deadline->token() : nullptr);
    result.evaluations += static_cast<int>(n);
    if (deadline != nullptr) deadline->charge_evaluations(static_cast<int>(n));
    Score best_neighbor;
    int best_rl = rl, best_cl = cl;
    for (std::size_t i = 0; i < n; ++i) {
      consider(scores[i], grid.config_at(candidates[i][0], candidates[i][1]));
      if (scores[i].better_than(best_neighbor)) {
        best_neighbor = scores[i];
        best_rl = candidates[i][0];
        best_cl = candidates[i][1];
      }
    }
    if (!best_neighbor.better_than(current)) break;  // local optimum
    current = best_neighbor;
    rl = best_rl;
    cl = best_cl;
  }
}

}  // namespace

SearchResult exhaustive_search(const LayerContext& ctx) {
  assert(ctx.grid != nullptr);
  SearchResult result;
  // Score all candidates concurrently, reduce in grid order (the argmin is
  // scheduling-independent: comparisons only, no FP accumulation).
  const auto configs = ctx.grid->all_configs();
  const auto scores = common::parallel_transform(
      configs.size(), 4,
      [&](std::size_t i) { return evaluate(ctx, configs[i]); },
      kEvaluateCostNs);
  result.evaluations = static_cast<int>(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (scores[i].feasible && scores[i].value < result.edp) {
      result.found = true;
      result.edp = scores[i].value;
      result.best = configs[i];
    }
  }
  return result;
}

SearchResult resource_bounded_search(const LayerContext& ctx, OuConfig start,
                                     int max_steps) {
  assert(ctx.grid != nullptr && max_steps >= 0);
  const OuLevelGrid& grid = *ctx.grid;
  SearchResult result;
  greedy_from(ctx, snap_level(grid, start.rows), snap_level(grid, start.cols),
              max_steps, result);
  if (!result.found &&
      !(ctx.deadline != nullptr && ctx.deadline->expired())) {
    // The policy's neighbourhood is entirely infeasible; fall back to the
    // most drift-tolerant corner (feasible unless reprogramming is due).
    greedy_from(ctx, 0, 0, max_steps, result);
  }
  if (ctx.deadline != nullptr && ctx.deadline->expired())
    result.truncated = true;
  return result;
}

}  // namespace odin::ou
