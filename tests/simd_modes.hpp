// Runs a test body under each SIMD dispatch mode (common/simd.hpp), so one
// case pins both the scalar fallback and the AVX2 body whatever ODIN_SIMD
// says.
#pragma once

#include <gtest/gtest.h>

#include "common/simd.hpp"

namespace odin::testing {

/// Runs `body` under the scalar kernels, then under AVX2 (which degrades to
/// scalar on a CPU without it), and restores the mode the test binary
/// started with, also when `body` throws.
template <typename F>
void in_both_simd_modes(F&& body) {
  struct Restore {
    common::SimdMode initial = common::active_simd_mode();
    ~Restore() { common::set_simd_mode(initial); }
  } restore;
  for (const common::SimdMode mode :
       {common::SimdMode::kScalar, common::SimdMode::kAvx2}) {
    SCOPED_TRACE(common::simd_mode_name(mode));
    common::set_simd_mode(mode);
    body();
  }
}

}  // namespace odin::testing
