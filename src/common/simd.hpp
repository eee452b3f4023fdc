// The one SIMD switch. Every library with an AVX2 kernel TU (reram's batch
// GEMM and ADC epilogue, core's lockstep sketch step, nn's MLP training
// products) dispatches on active_simd_mode(), so ODIN_SIMD, the CPU probe
// and the tests' override act on all of them at once.
//
// Each AVX2 body rounds every operation as its scalar fallback does, so the
// mode picks how the host computes, never a number (DESIGN.md §14).
#pragma once

namespace odin::common {

/// Kernel instruction set. kAvx2 runs the explicit AVX2 bodies; kScalar is
/// the portable fallback with the same per-element operation order.
enum class SimdMode { kScalar, kAvx2 };

/// "scalar" / "avx2" (for logs and bench output).
const char* simd_mode_name(SimdMode mode) noexcept;

/// True when the AVX2 kernels were compiled in AND the CPU supports them.
bool avx2_available() noexcept;

/// Strict parse of an ODIN_SIMD value ("avx2" or "scalar"). Returns
/// false on anything else, leaving `out` untouched.
bool parse_simd_mode(const char* text, SimdMode& out) noexcept;

/// Best mode available on this build/CPU (kAvx2 when possible).
SimdMode default_simd_mode() noexcept;

/// Resolve the mode from ODIN_SIMD with the strict-env contract: unset
/// picks default_simd_mode(); garbage warns to stderr and picks the
/// default; "avx2" on a machine without AVX2 warns and degrades to
/// scalar.
SimdMode simd_mode_from_env() noexcept;

/// The mode every kernel dispatches to. Resolved from ODIN_SIMD on first
/// use and cached; override with set_simd_mode (tests).
SimdMode active_simd_mode() noexcept;

/// Force the dispatch mode. kAvx2 silently degrades to kScalar when
/// unavailable, so callers can request it unconditionally.
void set_simd_mode(SimdMode mode) noexcept;

}  // namespace odin::common
