#include "common/simd.hpp"

#include <atomic>
#include <cstdio>
#include <cstring>

#include "common/env.hpp"

namespace odin::common {

namespace {

/// Active dispatch mode; -1 = not yet resolved from ODIN_SIMD.
std::atomic<int> g_mode{-1};

}  // namespace

const char* simd_mode_name(SimdMode mode) noexcept {
  return mode == SimdMode::kAvx2 ? "avx2" : "scalar";
}

bool avx2_available() noexcept {
#if defined(ODIN_HAVE_AVX2) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool parse_simd_mode(const char* text, SimdMode& out) noexcept {
  if (text == nullptr) return false;
  if (std::strcmp(text, "scalar") == 0) {
    out = SimdMode::kScalar;
    return true;
  }
  if (std::strcmp(text, "avx2") == 0) {
    out = SimdMode::kAvx2;
    return true;
  }
  return false;
}

SimdMode default_simd_mode() noexcept {
  return avx2_available() ? SimdMode::kAvx2 : SimdMode::kScalar;
}

SimdMode simd_mode_from_env() noexcept {
  const char* env = env_string("ODIN_SIMD");
  if (env == nullptr) return default_simd_mode();
  SimdMode mode;
  if (!parse_simd_mode(env, mode)) {
    std::fprintf(stderr,
                 "odin: ignoring ODIN_SIMD='%s' (want avx2|scalar); "
                 "using default\n",
                 env);
    return default_simd_mode();
  }
  if (mode == SimdMode::kAvx2 && !avx2_available()) {
    std::fprintf(stderr,
                 "odin: ODIN_SIMD=avx2 requested but AVX2 is unavailable; "
                 "using scalar\n");
    return SimdMode::kScalar;
  }
  return mode;
}

SimdMode active_simd_mode() noexcept {
  int mode = g_mode.load(std::memory_order_relaxed);
  if (mode < 0) {
    mode = static_cast<int>(simd_mode_from_env());
    g_mode.store(mode, std::memory_order_relaxed);
  }
  return static_cast<SimdMode>(mode);
}

void set_simd_mode(SimdMode mode) noexcept {
  if (mode == SimdMode::kAvx2 && !avx2_available()) mode = SimdMode::kScalar;
  g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

}  // namespace odin::common
