#include "reram/wear_leveling.hpp"

#include <algorithm>

#include "common/env.hpp"

namespace odin::reram {

int WearLevelingParams::resolved_spare_rows() const {
  long long v = spare_rows;
  if (v <= 0) {
    v = 16;
    common::env_long("ODIN_SPARE_ROWS", v);
  }
  return static_cast<int>(std::clamp<long long>(v, 1, 512));
}

double WearLevelingParams::resolved_wear_budget() const {
  long long v = wear_budget_percent;
  if (v <= 0) {
    v = 80;
    common::env_long("ODIN_WEAR_BUDGET", v);
  }
  return static_cast<double>(std::clamp<long long>(v, 1, 100)) / 100.0;
}

}  // namespace odin::reram
