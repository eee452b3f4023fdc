// Endurance-aware wear leveling knobs.
//
// Every reprogram campaign stresses the array; unsteered, the same rows take
// every write until their cells die. reram::FaultInjector runs the
// management ladder on its device-global wear model (DESIGN.md §15):
//
//  * rotation — successive campaigns spread write wear over the array plus
//    its spare rows instead of the logical block,
//  * spare-row remapping — a bounded pool of replacement rows absorbs worn
//    rows before any cell is visibly stuck,
//  * retirement — an exhausted pool retires the crossbar, and the tenant
//    migrates to a fresh array.
//
// Wear never touches logical cell state, so leveling costs nothing at
// inference time.
#pragma once

#include <algorithm>

namespace odin::reram {

/// Wear-leveling knobs of the FaultInjector. Disabled (the default) leaves
/// it bit-identical to the pre-leveling campaign walk.
struct WearLevelingParams {
  bool enabled = false;
  /// Spare-row pool size per crossbar. Clamped to [1, 512].
  int spare_rows = 16;
  /// Share of the crossbar's projected lifetime that leveled wear may
  /// consume before the array runs wear-hot and the controller defers due
  /// reprograms (FaultInjector::wear_hot), as an integer percent. Clamped
  /// to [1, 100].
  int wear_budget_percent = 80;

  /// Effective spare-pool size after clamping.
  int resolved_spare_rows() const { return std::clamp(spare_rows, 1, 512); }
  /// Effective wear budget as a fraction in (0, 1].
  double resolved_wear_budget() const {
    return std::clamp(wear_budget_percent, 1, 100) / 100.0;
  }
};

}  // namespace odin::reram
