// Endurance-aware wear leveling: row rotation, spare-row remapping, and
// the wear map that rides the serving checkpoint.
//
// PR 2 gave crossbars per-cell Weibull endurance wear; nothing steered the
// writes, so every reprogram campaign hammered the same physical rows until
// their cells died. This module supplies the management layer (DESIGN.md
// §15):
//
//  * rotation — successive campaigns shift the logical→physical row map so
//    write wear spreads across the whole array instead of the logical block,
//  * spare-row remapping — a bounded pool of replacement rows absorbs rows
//    whose projected remaining lifetime (or measured wear) crosses a budget,
//  * the WearMap — per-physical-row campaign counts plus the remap state,
//    serialized into the serving checkpoint alongside CrossbarHealth.
//
// The mapping is tracking-only: logical cell state (conductances, signs,
// weight plane) stays in logical order, so the MVM plane kernel is bitwise
// untouched by leveling (pinned in tests/test_mvm_kernel.cpp). Only wear
// accrual and the wear-fault projection consult the physical map.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/binary_io.hpp"

namespace odin::reram {

/// Wear-leveling knobs, shared by the behavioural Crossbar and the analytic
/// FaultInjector. Disabled (the default) leaves both bit-identical to the
/// pre-leveling code paths.
struct WearLevelingParams {
  bool enabled = false;
  /// Rotate the logical→physical row map every campaign (the cheap layer of
  /// the ladder; remap-on-wear still applies when this is off).
  bool rotate = true;
  /// Spare-row pool size per crossbar. Clamped to [1, 512].
  int spare_rows = 16;
  /// Fraction of a row's projected wear-out lifetime that may be consumed
  /// before the row is proactively retired, as an integer percent. Clamped
  /// to [1, 100].
  int wear_budget_percent = 80;
  /// Explicit per-row write-campaign cap overriding the projected lifetime
  /// (test hook: forces retirement without an endurance model). 0 = derive
  /// from the attached EnduranceModel.
  double row_cycle_budget = 0.0;

  /// Effective spare-pool size after clamping.
  int resolved_spare_rows() const { return std::clamp(spare_rows, 1, 512); }
  /// Effective wear budget as a fraction in (0, 1].
  double resolved_wear_budget() const {
    return std::clamp(wear_budget_percent, 1, 100) / 100.0;
  }
};

/// Durable per-crossbar wear/remap state (serving checkpoint). Vectors
/// are indexed by physical row; `remap` maps logical row → physical row for
/// the most recent campaign (empty until the first leveled program).
struct WearMap {
  std::int32_t rows = 0;        ///< physical rows tracked
  std::int32_t spare_rows = 0;  ///< retirement budget (resolved)
  std::int64_t rotation = 0;    ///< rotation offset of the current map
  std::vector<std::int64_t> row_writes;  ///< write campaigns per physical row
  std::vector<std::uint8_t> retired;     ///< 1 = physical row retired
  std::vector<std::int32_t> remap;       ///< logical → physical row
  std::int64_t rows_remapped = 0;        ///< retirements applied so far
  std::int64_t writes_leveled = 0;       ///< row writes redirected off-identity
};

/// Wire layout (common/binary_io.hpp).
template <typename S, common::MaybeConst<WearMap> M>
void fields(S& s, M& m) {
  s.field(m.rows);
  s.field(m.spare_rows);
  s.field(m.rotation);
  s.field(m.rows_remapped);
  s.field(m.writes_leveled);
  s.seq(m.row_writes, common::kMaxSeq);
  s.seq(m.retired, common::kMaxSeq);
  s.seq(m.remap, common::kMaxSeq);
}

/// Binary codec for the checkpoint frame; decode returns nullopt on
/// truncated or inconsistent input.
inline void encode_wear_map(const WearMap& map, common::ByteWriter& out) {
  out.field(map);
}
inline std::optional<WearMap> decode_wear_map(common::ByteReader& in) {
  return common::decode<WearMap>(in);
}

}  // namespace odin::reram
