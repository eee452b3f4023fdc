#include "reram/crossbar.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/parallel.hpp"
#include "reram/batch_gemm.hpp"

namespace odin::reram {

namespace {

/// Rough per-cell kernel cost in nanoseconds, used as the parallel_for
/// work hint: the plane kernel is a couple of fused multiply-adds per cell.
constexpr std::size_t kPlaneCellCostNs = 2;

}  // namespace

Crossbar::Crossbar(int size, DeviceParams device,
                   std::optional<NoiseModel> noise, IrModel ir_model)
    : size_(size),
      device_(device),
      noise_(std::move(noise)),
      ir_model_(ir_model),
      conductance_s_(static_cast<std::size_t>(size) * size, device.g_off_s),
      sign_(static_cast<std::size_t>(size) * size, 0),
      weight_plane_(static_cast<std::size_t>(size) * size, 0.0) {
  assert(size > 0);
}

void Crossbar::program(std::span<const double> weights, int rows, int cols,
                       double at_time_s) {
  assert(rows >= 0 && rows <= size_ && cols >= 0 && cols <= size_);
  assert(weights.size() == static_cast<std::size_t>(rows) * cols);
  programmed_cells_ = 0;
  if (noise_ && drift_coeff_.empty())
    drift_coeff_.assign(conductance_s_.size(), device_.drift_coefficient);
  // Stuck-at-faults are a property of the array, not of a write: sample
  // them once, on the first programming pass.
  const bool sample_faults = noise_ && fault_.empty() &&
                             (noise_->params().stuck_on_rate > 0.0 ||
                              noise_->params().stuck_off_rate > 0.0);
  if (sample_faults) {
    fault_.assign(conductance_s_.size(),
                  static_cast<std::int8_t>(CellFault::kNone));
    for (std::int8_t& f : fault_) {
      const CellFault cell = noise_->cell_fault();
      f = static_cast<std::int8_t>(cell);
      if (cell != CellFault::kNone) ++faulty_cells_;
    }
  }
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const double w = weights[static_cast<std::size_t>(r) * cols + c];
      const std::size_t idx = static_cast<std::size_t>(r) * size_ + c;
      double g = quantize_weight_to_conductance(device_, std::abs(w));
      if (noise_) {
        g = noise_->programmed(g);
        drift_coeff_[idx] = noise_->cell_drift_coefficient(device_);
      }
      std::int8_t sign =
          static_cast<std::int8_t>(w > 0.0 ? 1 : (w < 0.0 ? -1 : 0));
      if (!fault_.empty()) {
        const auto f = static_cast<CellFault>(fault_[idx]);
        if (f == CellFault::kStuckOn) {
          g = device_.g_on_s;
          if (sign == 0) sign = 1;  // the stuck filament conducts anyway
        } else if (f == CellFault::kStuckOff) {
          g = device_.g_off_s;
          sign = 0;
        }
      }
      conductance_s_[idx] = g;
      sign_[idx] = sign;
      // Fold sign * conductance_to_weight into the column-major plane —
      // exactly the product the kernel used to form per access.
      weight_plane_[static_cast<std::size_t>(c) * size_ + r] =
          sign == 0 ? 0.0
                    : static_cast<double>(sign) *
                          conductance_to_weight(device_, g);
      if (sign_[idx] != 0) ++programmed_cells_;
    }
  }
  programmed_at_s_ = at_time_s;
  live_rows_ = rows;
  live_cols_ = cols;
  // New weights / drift coefficients: every elapsed-keyed cache is stale.
  plane_elapsed_ = -1.0;
}

double Crossbar::ideal_weight(int row, int col) const {
  return weight_plane_[static_cast<std::size_t>(col) * size_ + row];
}

double Crossbar::cell_drift_factor(std::size_t idx, double elapsed_s) const {
  const double v = drift_coeff_.empty() ? device_.drift_coefficient
                                        : drift_coeff_[idx];
  return std::pow(std::max(elapsed_s, device_.t0_s) / device_.t0_s, -v);
}

double Crossbar::ensure_planes(double t_s) const {
  const double elapsed = std::max(t_s - programmed_at_s_, device_.t0_s);
  if (elapsed == plane_elapsed_) return elapsed;
  // Uniform (device-nominal) drift factor — the whole drift story when no
  // NoiseModel sampled per-cell exponents.
  uniform_drift_factor_ =
      std::pow(std::max(elapsed, device_.t0_s) / device_.t0_s,
               -device_.drift_coefficient);
  if (ir_model_ == IrModel::kSpatial) {
    // Cell (r, c) of the OU sees R_wire * (r + c + 2) wire segments, so the
    // IR factor depends only on r + c: one diagonal table covers every OU
    // shape, and the kernel indexes it at c + r, which is unit-stride along
    // the inner row loop.
    const double g_drift = drift_conductance(device_, elapsed);
    ir_table_.resize(static_cast<std::size_t>(2 * size_ - 1));
    for (int s = 0; s < 2 * size_ - 1; ++s) {
      const double series =
          device_.r_wire_ohm * static_cast<double>(s + 2);
      ir_table_[static_cast<std::size_t>(s)] =
          (1.0 / (1.0 / g_drift + series)) / g_drift;
    }
  } else {
    // Same diagonal trick for the lumped model: ir_factor depends only on
    // ou_rows + ou_cols, and recomputing it per OU call costs two pows —
    // which would dominate small-OU passes (a 4x4 sweep of a 128x128
    // array makes 1024 of them).
    const double g_drift = drift_conductance(device_, elapsed);
    lumped_ir_table_.resize(static_cast<std::size_t>(2 * size_ + 1));
    for (int s = 0; s <= 2 * size_; ++s) {
      const double series = device_.r_wire_ohm * static_cast<double>(s);
      lumped_ir_table_[static_cast<std::size_t>(s)] =
          (1.0 / (1.0 / g_drift + series)) / g_drift;
    }
  }
  if (!drift_coeff_.empty()) {
    // Per-cell drift: one pow per cell per *distinct timestamp* instead of
    // per access. eff_plane_ folds the factor into the weight plane so the
    // noiseless kernel stays a plain dot product.
    const std::size_t cells = conductance_s_.size();
    drift_plane_.resize(cells);
    eff_plane_.resize(cells);
    for (int c = 0; c < size_; ++c) {
      for (int r = 0; r < size_; ++r) {
        const std::size_t rm = static_cast<std::size_t>(r) * size_ + c;
        const std::size_t cm = static_cast<std::size_t>(c) * size_ + r;
        const double f = cell_drift_factor(rm, elapsed);
        drift_plane_[cm] = f;
        eff_plane_[cm] = weight_plane_[cm] * f;
      }
    }
  }
  plane_elapsed_ = elapsed;
  return elapsed;
}

double Crossbar::effective_weight(int row, int col, double t_s, int ou_rows,
                                  int ou_cols) const {
  ensure_planes(t_s);
  const std::size_t cm = static_cast<std::size_t>(col) * size_ + row;
  const double drift =
      drift_coeff_.empty() ? uniform_drift_factor_ : drift_plane_[cm];
  const double ir =
      ir_model_ == IrModel::kSpatial
          ? ir_table_[static_cast<std::size_t>(row % ou_rows +
                                               col % ou_cols)]
          : lumped_ir_table_[static_cast<std::size_t>(ou_rows + ou_cols)];
  return weight_plane_[cm] * drift * ir;
}

void Crossbar::ou_kernel(std::span<const double> input, int row0, int ou_rows,
                         int col0, int ou_cols, int adc_bits,
                         std::span<double> out, bool accumulate) {
  const bool spatial = ir_model_ == IrModel::kSpatial;
  const double lumped_ir =
      spatial ? 1.0
              : lumped_ir_table_[static_cast<std::size_t>(ou_rows + ou_cols)];
  const bool uniform_drift = drift_coeff_.empty();
  const double nominal_drift = uniform_drift ? uniform_drift_factor_ : 1.0;
  const double full_scale = static_cast<double>(ou_rows);
  if (!noise_) {
    // Dense branch-free path: the plane already holds sign * weight (and
    // the drift factor when it is per-cell); the inner row loop is a
    // unit-stride dot product. Zero-sign cells contribute exact zeros, so
    // the accumulator matches the old skip-if-zero walk bit for bit.
    const double* plane =
        (uniform_drift ? weight_plane_ : eff_plane_).data();
    for (int c = 0; c < ou_cols; ++c) {
      const double* col =
          plane + static_cast<std::size_t>(col0 + c) * size_ + row0;
      double acc = 0.0;
      if (spatial) {
        const double* irt = ir_table_.data() + c;  // irt[r] = ir(r + c)
        for (int r = 0; r < ou_rows; ++r) {
          const double w = col[r] * irt[r];
          acc += input[static_cast<std::size_t>(r)] * w;
        }
      } else {
        for (int r = 0; r < ou_rows; ++r)
          acc += input[static_cast<std::size_t>(r)] * col[r];
      }
      acc *= lumped_ir * nominal_drift;
      const double q = gemm::quantize_adc(acc, full_scale, adc_bits);
      if (accumulate)
        out[static_cast<std::size_t>(c)] += q;
      else
        out[static_cast<std::size_t>(c)] = q;
    }
    return;
  }
  // Noisy path: conductances are perturbed per access, so the weight
  // conversion cannot be precomputed — but the drift plane and IR table
  // still replace the per-cell pow / divisions.
  for (int c = 0; c < ou_cols; ++c) {
    const std::size_t col_base =
        static_cast<std::size_t>(col0 + c) * size_ + row0;
    const double* drift_col =
        uniform_drift ? nullptr : drift_plane_.data() + col_base;
    const double* irt = spatial ? ir_table_.data() + c : nullptr;
    double acc = 0.0;
    for (int r = 0; r < ou_rows; ++r) {
      const std::size_t idx =
          static_cast<std::size_t>(row0 + r) * size_ + (col0 + c);
      if (sign_[idx] == 0) continue;
      const double g = noise_->read(conductance_s_[idx]);
      double w = sign_[idx] * conductance_to_weight(device_, g);
      if (!uniform_drift) w *= drift_col[r];
      if (spatial) w *= irt[r];
      acc += input[static_cast<std::size_t>(r)] * w;
    }
    acc *= lumped_ir * nominal_drift;
    const double q = gemm::quantize_adc(acc, full_scale, adc_bits);
    if (accumulate)
      out[static_cast<std::size_t>(c)] += q;
    else
      out[static_cast<std::size_t>(c)] = q;
  }
}

void Crossbar::mvm_ou(std::span<const double> input, int row0, int ou_rows,
                      int col0, int ou_cols, double t_s, int adc_bits,
                      std::span<double> out) {
  assert(static_cast<int>(input.size()) == ou_rows);
  assert(static_cast<int>(out.size()) >= ou_cols);
  assert(row0 >= 0 && row0 + ou_rows <= size_);
  assert(col0 >= 0 && col0 + ou_cols <= size_);
  ensure_planes(t_s);
  ou_kernel(input, row0, ou_rows, col0, ou_cols, adc_bits, out,
            /*accumulate=*/false);
}

void Crossbar::mvm_ou(std::span<const double> inputs, int batch, int row0,
                      int ou_rows, int col0, int ou_cols, double t_s,
                      int adc_bits, std::span<double> out) {
  assert(batch >= 1);
  assert(inputs.size() >=
         static_cast<std::size_t>(batch) * static_cast<std::size_t>(ou_rows));
  assert(out.size() >=
         static_cast<std::size_t>(batch) * static_cast<std::size_t>(ou_cols));
  if (noise_) {
    // Perturbed conductances force a per-query walk; going through the
    // public single-query entry keeps each query's RNG draw order exactly
    // what a standalone call would have used.
    for (int b = 0; b < batch; ++b)
      mvm_ou(inputs.subspan(static_cast<std::size_t>(b) * ou_rows,
                            static_cast<std::size_t>(ou_rows)),
             row0, ou_rows, col0, ou_cols, t_s, adc_bits,
             out.subspan(static_cast<std::size_t>(b) * ou_cols,
                         static_cast<std::size_t>(ou_cols)));
    return;
  }
  assert(row0 >= 0 && row0 + ou_rows <= size_);
  assert(col0 >= 0 && col0 + ou_cols <= size_);
  ensure_planes(t_s);
  const std::size_t nb = static_cast<std::size_t>(batch);
  const std::size_t n = static_cast<std::size_t>(ou_cols) * nb;
  batch_scratch_.resize(static_cast<std::size_t>(ou_rows) * nb + n);
  double* in_t = batch_scratch_.data();
  double* acc = in_t + static_cast<std::size_t>(ou_rows) * nb;
  for (int b = 0; b < batch; ++b)
    for (int r = 0; r < ou_rows; ++r)
      in_t[static_cast<std::size_t>(r) * nb + b] =
          inputs[static_cast<std::size_t>(b) * ou_rows + r];
  const bool spatial = ir_model_ == IrModel::kSpatial;
  const bool uniform_drift = drift_coeff_.empty();
  const double* plane = (uniform_drift ? weight_plane_ : eff_plane_).data();
  gemm::ou_gemm(in_t, batch, ou_rows,
                plane + static_cast<std::size_t>(col0) * size_ + row0, size_,
                ou_cols, spatial ? ir_table_.data() : nullptr, acc);
  // Same epilogue as the single-query kernel: acc * (lumped_ir *
  // nominal_drift), then the bipolar ADC, quantized in place and then
  // transposed to query-major order.
  const double lumped_ir =
      spatial ? 1.0
              : lumped_ir_table_[static_cast<std::size_t>(ou_rows + ou_cols)];
  const double nominal_drift = uniform_drift ? uniform_drift_factor_ : 1.0;
  gemm::adc_epilogue(acc, n, lumped_ir * nominal_drift,
                     static_cast<double>(ou_rows), adc_bits, acc,
                     /*accumulate=*/false);
  for (int c = 0; c < ou_cols; ++c) {
    const double* q = acc + static_cast<std::size_t>(c) * nb;
    for (int b = 0; b < batch; ++b)
      out[static_cast<std::size_t>(b) * ou_cols + c] = q[b];
  }
}

std::vector<double> Crossbar::mvm_ou(std::span<const double> input, int row0,
                                     int ou_rows, int col0, int ou_cols,
                                     double t_s, int adc_bits) {
  std::vector<double> out(static_cast<std::size_t>(ou_cols), 0.0);
  mvm_ou(input, row0, ou_rows, col0, ou_cols, t_s, adc_bits,
         std::span<double>(out));
  return out;
}

void Crossbar::mvm(std::span<const double> input, int ou_rows, int ou_cols,
                   double t_s, int adc_bits, std::span<double> out) {
  assert(static_cast<int>(input.size()) >= live_rows_);
  assert(static_cast<int>(out.size()) >= live_cols_);
  std::fill(out.begin(), out.begin() + live_cols_, 0.0);
  ensure_planes(t_s);
  // Column blocks write disjoint output ranges, and each column's partial
  // sums accumulate in increasing-r0 order regardless of scheduling, so
  // results are bitwise identical to the sequential pass. With read noise
  // the shared RNG's draw order pins the OU visit order, so that path
  // stays sequential.
  const std::size_t col_blocks = static_cast<std::size_t>(
      (live_cols_ + ou_cols - 1) / std::max(ou_cols, 1));
  auto column_block = [&](std::size_t i) {
    const int c0 = static_cast<int>(i) * ou_cols;
    const int cols = std::min(ou_cols, live_cols_ - c0);
    for (int r0 = 0; r0 < live_rows_; r0 += ou_rows) {
      const int rows = std::min(ou_rows, live_rows_ - r0);
      const std::span<const double> slice{input.data() + r0,
                                          static_cast<std::size_t>(rows)};
      ou_kernel(slice, r0, rows, c0, cols, adc_bits,
                out.subspan(static_cast<std::size_t>(c0),
                            static_cast<std::size_t>(cols)),
                /*accumulate=*/true);
    }
  };
  if (noise_) {
    // Original OU visit order (r0 outer), which fixes the RNG draw order.
    for (int r0 = 0; r0 < live_rows_; r0 += ou_rows) {
      const int rows = std::min(ou_rows, live_rows_ - r0);
      const std::span<const double> slice{input.data() + r0,
                                          static_cast<std::size_t>(rows)};
      for (int c0 = 0; c0 < live_cols_; c0 += ou_cols) {
        const int cols = std::min(ou_cols, live_cols_ - c0);
        ou_kernel(slice, r0, rows, c0, cols, adc_bits,
                  out.subspan(static_cast<std::size_t>(c0),
                              static_cast<std::size_t>(cols)),
                  /*accumulate=*/true);
      }
    }
  } else {
    const std::size_t block_cost_ns =
        static_cast<std::size_t>(live_rows_) *
        static_cast<std::size_t>(std::max(ou_cols, 1)) * kPlaneCellCostNs;
    common::parallel_for(0, col_blocks, 1, column_block, block_cost_ns);
  }
}

void Crossbar::mvm(std::span<const double> in_t, int batch, int ou_rows,
                   int ou_cols, double t_s, int adc_bits,
                   std::span<double> out_t) {
  assert(batch >= 1);
  const std::size_t nb = static_cast<std::size_t>(batch);
  assert(in_t.size() >= static_cast<std::size_t>(live_rows_) * nb);
  assert(out_t.size() >= static_cast<std::size_t>(live_cols_) * nb);
  if (noise_) {
    // Per-query path (see the batched mvm_ou): query b's row is gathered
    // into scratch and run through the single-query mvm, in query order,
    // which preserves each query's RNG draw order exactly.
    const std::size_t rows = static_cast<std::size_t>(live_rows_);
    const std::size_t cols = static_cast<std::size_t>(live_cols_);
    batch_scratch_.resize(rows + cols);
    double* in = batch_scratch_.data();
    double* out = in + rows;
    for (std::size_t b = 0; b < nb; ++b) {
      for (std::size_t r = 0; r < rows; ++r) in[r] = in_t[r * nb + b];
      mvm({in, rows}, ou_rows, ou_cols, t_s, adc_bits, {out, cols});
      for (std::size_t c = 0; c < cols; ++c) out_t[c * nb + b] = out[c];
    }
    return;
  }
  ensure_planes(t_s);
  const bool spatial = ir_model_ == IrModel::kSpatial;
  const bool uniform_drift = drift_coeff_.empty();
  const double* plane = (uniform_drift ? weight_plane_ : eff_plane_).data();
  const double* irt = spatial ? ir_table_.data() : nullptr;
  const double nominal_drift = uniform_drift ? uniform_drift_factor_ : 1.0;
  const std::size_t col_blocks = static_cast<std::size_t>(
      (live_cols_ + ou_cols - 1) / std::max(ou_cols, 1));
  // Each column block owns a disjoint block of GEMM accumulators and a
  // disjoint slab of out_t, so blocks parallelize exactly like the
  // single-query path. The GEMM reads OU tile r0 of the panel in place at
  // in_t + r0 * batch. The running sum of column c for query b sits at
  // out_t[c * batch + b]; it starts at +0.0 and adds the quantized r0 tiles
  // in increasing order, the single-query path's ((0 + q0) + q1) + ...
  const std::size_t block_acc = static_cast<std::size_t>(ou_cols) * nb;
  batch_scratch_.resize(col_blocks * block_acc);
  auto column_block = [&](std::size_t i) {
    const int c0 = static_cast<int>(i) * ou_cols;
    const int cols = std::min(ou_cols, live_cols_ - c0);
    const std::size_t n = static_cast<std::size_t>(cols) * nb;
    double* acc = batch_scratch_.data() + i * block_acc;
    double* sum = out_t.data() + static_cast<std::size_t>(c0) * nb;
    std::fill(sum, sum + n, 0.0);
    for (int r0 = 0; r0 < live_rows_; r0 += ou_rows) {
      const int rows = std::min(ou_rows, live_rows_ - r0);
      gemm::ou_gemm(in_t.data() + static_cast<std::size_t>(r0) * nb, batch,
                    rows, plane + static_cast<std::size_t>(c0) * size_ + r0,
                    size_, cols, irt, acc);
      const double lumped_ir =
          spatial
              ? 1.0
              : lumped_ir_table_[static_cast<std::size_t>(rows + cols)];
      gemm::adc_epilogue(acc, n, lumped_ir * nominal_drift,
                         static_cast<double>(rows), adc_bits, sum,
                         /*accumulate=*/true);
    }
  };
  const std::size_t block_cost_ns = static_cast<std::size_t>(live_rows_) *
                                    static_cast<std::size_t>(ou_cols) * nb *
                                    kPlaneCellCostNs;
  common::parallel_for(0, col_blocks, 1, column_block, block_cost_ns);
}

std::vector<double> Crossbar::mvm(std::span<const double> input, int ou_rows,
                                  int ou_cols, double t_s, int adc_bits) {
  std::vector<double> out(static_cast<std::size_t>(live_cols_), 0.0);
  mvm(input, ou_rows, ou_cols, t_s, adc_bits, std::span<double>(out));
  return out;
}

std::vector<double> Crossbar::ideal_mvm(std::span<const double> input) const {
  assert(static_cast<int>(input.size()) >= live_rows_);
  std::vector<double> out(static_cast<std::size_t>(live_cols_), 0.0);
  // Column-major plane walk: per output column the accumulation order over
  // r is the same increasing-r order the row-major walk produced, so the
  // result is unchanged — but the inner loop is now a unit-stride dot
  // product with no per-cell conversion.
  for (int c = 0; c < live_cols_; ++c) {
    const double* col =
        weight_plane_.data() + static_cast<std::size_t>(c) * size_;
    double acc = 0.0;
    for (int r = 0; r < live_rows_; ++r)
      acc += input[static_cast<std::size_t>(r)] * col[r];
    out[static_cast<std::size_t>(c)] = acc;
  }
  return out;
}

double Crossbar::weight_rms_error(double t_s, int ou_rows, int ou_cols) const {
  if (live_rows_ == 0 || live_cols_ == 0) return 0.0;
  ensure_planes(t_s);
  const bool spatial = ir_model_ == IrModel::kSpatial;
  const bool uniform_drift = drift_coeff_.empty();
  const double lumped_ir =
      spatial ? 1.0
              : lumped_ir_table_[static_cast<std::size_t>(ou_rows + ou_cols)];
  double acc = 0.0;
  std::int64_t n = 0;
  // Row-major accumulation order preserved; the per-cell values come from
  // the planes instead of a pow + divisions per cell.
  for (int r = 0; r < live_rows_; ++r) {
    for (int c = 0; c < live_cols_; ++c) {
      const std::size_t cm = static_cast<std::size_t>(c) * size_ + r;
      const double ideal = weight_plane_[cm];
      const double driftw = uniform_drift
                                ? ideal * uniform_drift_factor_
                                : eff_plane_[cm];
      const double ir =
          spatial ? ir_table_[static_cast<std::size_t>(r % ou_rows +
                                                       c % ou_cols)]
                  : lumped_ir;
      const double eff = driftw * ir;
      const double d = ideal - eff;
      acc += d * d;
      ++n;
    }
  }
  return std::sqrt(acc / static_cast<double>(n));
}

}  // namespace odin::reram
