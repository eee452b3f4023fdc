// Pinned reference kernel: a line-for-line port of the original per-cell
// Crossbar MVM path (device physics evaluated per access, no precomputed
// planes), rebuilt on top of the public state accessors. The plane-based
// kernel in reram/crossbar.cpp must stay bitwise identical to this —
// tests/test_mvm_kernel.cpp enforces it.
//
// The reference evaluates noise-free: it matches a noisy crossbar exactly
// only when every stochastic magnitude is zero (read_sigma = 0 makes the
// per-read draw multiply by exactly 1.0), which is how the tests cover the
// fault-injected and per-cell-drift configurations deterministically.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "reram/crossbar.hpp"
#include "reram/device.hpp"

namespace odin::testref {

inline double quantize_adc(double value, double full_scale, int adc_bits) {
  const double levels = static_cast<double>((1 << adc_bits) - 1);
  const double clamped = std::clamp(value, -full_scale, full_scale);
  const double code = std::round((clamped + full_scale) / (2 * full_scale) *
                                 levels);
  return code / levels * 2 * full_scale - full_scale;
}

inline double ideal_weight(const reram::Crossbar& x, int row, int col) {
  const std::size_t idx =
      static_cast<std::size_t>(row) * x.size() + col;
  const auto sign = x.signs();
  if (sign[idx] == 0) return 0.0;
  return sign[idx] *
         reram::conductance_to_weight(x.device(), x.conductances()[idx]);
}

inline double elapsed_since_program(const reram::Crossbar& x, double t_s) {
  return std::max(t_s - x.programmed_at_s(), x.device().t0_s);
}

inline double cell_drift_factor(const reram::Crossbar& x, std::size_t idx,
                                double elapsed_s) {
  const auto coeff = x.drift_coefficients();
  const double v =
      coeff.empty() ? x.device().drift_coefficient : coeff[idx];
  return std::pow(std::max(elapsed_s, x.device().t0_s) / x.device().t0_s,
                  -v);
}

inline double ir_factor(const reram::Crossbar& x, double t_s, int ou_rows,
                        int ou_cols) {
  const double elapsed = elapsed_since_program(x, t_s);
  return reram::effective_conductance(x.device(), elapsed, ou_rows,
                                      ou_cols) /
         reram::drift_conductance(x.device(), elapsed);
}

inline double ir_factor_at(const reram::Crossbar& x, double t_s,
                           int row_in_ou, int col_in_ou) {
  const double elapsed = elapsed_since_program(x, t_s);
  const double g_drift = reram::drift_conductance(x.device(), elapsed);
  const double series = x.device().r_wire_ohm *
                        static_cast<double>(row_in_ou + col_in_ou + 2);
  return (1.0 / (1.0 / g_drift + series)) / g_drift;
}

inline double effective_weight(const reram::Crossbar& x, int row, int col,
                               double t_s, int ou_rows, int ou_cols) {
  const std::size_t idx =
      static_cast<std::size_t>(row) * x.size() + col;
  const double elapsed = elapsed_since_program(x, t_s);
  const double ir = x.ir_model() == reram::IrModel::kSpatial
                        ? ir_factor_at(x, t_s, row % ou_rows, col % ou_cols)
                        : ir_factor(x, t_s, ou_rows, ou_cols);
  return ideal_weight(x, row, col) * cell_drift_factor(x, idx, elapsed) * ir;
}

/// The original per-cell OU kernel: conductance -> weight conversion, drift
/// and IR-drop evaluated per touched cell, zero-sign cells skipped.
inline std::vector<double> mvm_ou(const reram::Crossbar& x,
                                  std::span<const double> input, int row0,
                                  int ou_rows, int col0, int ou_cols,
                                  double t_s, int adc_bits) {
  const auto sign = x.signs();
  const auto g = x.conductances();
  const double elapsed = elapsed_since_program(x, t_s);
  const bool spatial = x.ir_model() == reram::IrModel::kSpatial;
  const double lumped_ir =
      spatial ? 1.0 : ir_factor(x, t_s, ou_rows, ou_cols);
  const bool uniform_drift = x.drift_coefficients().empty();
  const double nominal_drift =
      uniform_drift ? cell_drift_factor(x, 0, elapsed) : 1.0;
  std::vector<double> out(static_cast<std::size_t>(ou_cols), 0.0);
  for (int c = 0; c < ou_cols; ++c) {
    double acc = 0.0;
    for (int r = 0; r < ou_rows; ++r) {
      const std::size_t idx =
          static_cast<std::size_t>(row0 + r) * x.size() + (col0 + c);
      if (sign[idx] == 0) continue;
      double w = sign[idx] * reram::conductance_to_weight(x.device(), g[idx]);
      if (!uniform_drift) w *= cell_drift_factor(x, idx, elapsed);
      if (spatial) w *= ir_factor_at(x, t_s, r, c);
      acc += input[static_cast<std::size_t>(r)] * w;
    }
    acc *= lumped_ir * nominal_drift;
    out[static_cast<std::size_t>(c)] =
        quantize_adc(acc, static_cast<double>(ou_rows), adc_bits);
  }
  return out;
}

/// Full-array pass composed of reference OU kernels, r0-outer / c0-inner —
/// the original sequential tile order (per output column the partial sums
/// land in increasing-r0 order, same as any schedule of the new kernel).
inline std::vector<double> mvm(const reram::Crossbar& x,
                               std::span<const double> input, int ou_rows,
                               int ou_cols, double t_s, int adc_bits) {
  const int live_rows = x.programmed_rows();
  const int live_cols = x.programmed_cols();
  std::vector<double> out(static_cast<std::size_t>(live_cols), 0.0);
  for (int r0 = 0; r0 < live_rows; r0 += ou_rows) {
    const int rows = std::min(ou_rows, live_rows - r0);
    const std::span<const double> slice{input.data() + r0,
                                        static_cast<std::size_t>(rows)};
    for (int c0 = 0; c0 < live_cols; c0 += ou_cols) {
      const int cols = std::min(ou_cols, live_cols - c0);
      const auto part = mvm_ou(x, slice, r0, rows, c0, cols, t_s, adc_bits);
      for (int c = 0; c < cols; ++c)
        out[static_cast<std::size_t>(c0 + c)] +=
            part[static_cast<std::size_t>(c)];
    }
  }
  return out;
}

/// Batched OU reference: N independent single-query reference calls packed
/// into one tight panel (query b's inputs at inputs[b*ou_rows], outputs at
/// out[b*ou_cols]) — the sequential semantics the batched kernel must match
/// bit for bit.
inline std::vector<double> mvm_ou_batch(const reram::Crossbar& x,
                                        std::span<const double> inputs,
                                        int batch, int row0, int ou_rows,
                                        int col0, int ou_cols, double t_s,
                                        int adc_bits) {
  std::vector<double> out(static_cast<std::size_t>(batch) * ou_cols, 0.0);
  for (int b = 0; b < batch; ++b) {
    const std::span<const double> in{
        inputs.data() + static_cast<std::size_t>(b) * ou_rows,
        static_cast<std::size_t>(ou_rows)};
    const auto one =
        mvm_ou(x, in, row0, ou_rows, col0, ou_cols, t_s, adc_bits);
    std::copy(one.begin(), one.end(),
              out.begin() + static_cast<std::size_t>(b) * ou_cols);
  }
  return out;
}

/// Batched full-array reference: N sequential single-query full passes,
/// inputs strided by `in_stride`, outputs packed tight per query.
inline std::vector<double> mvm_batch(const reram::Crossbar& x,
                                     std::span<const double> inputs,
                                     int batch, std::size_t in_stride,
                                     int ou_rows, int ou_cols, double t_s,
                                     int adc_bits) {
  const int live_cols = x.programmed_cols();
  const int live_rows = x.programmed_rows();
  std::vector<double> out(
      static_cast<std::size_t>(batch) * live_cols, 0.0);
  for (int b = 0; b < batch; ++b) {
    const std::span<const double> in{
        inputs.data() + static_cast<std::size_t>(b) * in_stride,
        static_cast<std::size_t>(live_rows)};
    const auto one = mvm(x, in, ou_rows, ou_cols, t_s, adc_bits);
    std::copy(one.begin(), one.end(),
              out.begin() + static_cast<std::size_t>(b) * live_cols);
  }
  return out;
}

/// Original ideal MVM: row-outer accumulation with zero-input rows skipped.
inline std::vector<double> ideal_mvm(const reram::Crossbar& x,
                                     std::span<const double> input) {
  const int live_rows = x.programmed_rows();
  const int live_cols = x.programmed_cols();
  std::vector<double> out(static_cast<std::size_t>(live_cols), 0.0);
  for (int r = 0; r < live_rows; ++r) {
    const double v = input[static_cast<std::size_t>(r)];
    if (v == 0.0) continue;
    for (int c = 0; c < live_cols; ++c)
      out[static_cast<std::size_t>(c)] += v * ideal_weight(x, r, c);
  }
  return out;
}

/// Original RMS error: per-cell ideal/effective weights in row-major order.
inline double weight_rms_error(const reram::Crossbar& x, double t_s,
                               int ou_rows, int ou_cols) {
  const int live_rows = x.programmed_rows();
  const int live_cols = x.programmed_cols();
  if (live_rows == 0 || live_cols == 0) return 0.0;
  double acc = 0.0;
  std::int64_t n = 0;
  for (int r = 0; r < live_rows; ++r) {
    for (int c = 0; c < live_cols; ++c) {
      const double d = ideal_weight(x, r, c) -
                       effective_weight(x, r, c, t_s, ou_rows, ou_cols);
      acc += d * d;
      ++n;
    }
  }
  return std::sqrt(acc / static_cast<double>(n));
}

}  // namespace odin::testref
