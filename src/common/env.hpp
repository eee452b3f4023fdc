// Strict environment-variable parsing for the two environment knobs,
// ODIN_THREADS (common/parallel) and ODIN_SIMD (reram/batch_gemm). Both
// pick how the host computes, never a simulated number.
//
// std::strtol alone maps "abc" to 0 and "8cores" to 8, both silently — a
// typo in a deployment manifest would change behaviour without a trace.
// Each knob therefore parses strictly: the whole value must be well
// formed, anything else warns once to stderr and falls back to the
// built-in default.
#pragma once

namespace odin::common {

/// Strict integer env parse: the whole value must be a decimal number.
/// Returns false (and leaves `out` untouched) when the variable is unset
/// or empty; on garbage, warns to stderr and reports "unset" so the
/// caller's default applies.
bool env_long(const char* name, long long& out);

/// Raw value of `name`, or nullptr when unset or empty.
const char* env_string(const char* name);

}  // namespace odin::common
