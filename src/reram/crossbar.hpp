// Behavioural ReRAM crossbar model.
//
// Stores a weight matrix as differentially encoded multi-level-cell
// conductances and evaluates analog matrix-vector products at Operation-Unit
// (OU) granularity, applying the deterministic non-idealities of
// reram/device.hpp (conductance drift, IR-drop) plus stochastic read noise,
// and quantizing each column output through an ADC of configurable
// precision. This is the substrate the Monte-Carlo accuracy evaluator and
// the micro-benchmarks exercise; the analytical cost models in src/ou do not
// need cell-level state.
//
// Hot-path layout (DESIGN.md §11): the MVM kernel never touches device
// physics per cell. program() folds sign * conductance_to_weight(g) into a
// contiguous column-major weight plane; per-cell drift factors and the
// IR-drop tile are tabulated once per distinct elapsed time and reused by
// every mvm / weight_rms_error / effective_weight call at that timestamp.
// The planes are arithmetically identical to what the per-cell walk
// computed, so kernel outputs are bitwise unchanged (pinned by
// tests/test_mvm_kernel.cpp against the reference kernel).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "reram/device.hpp"
#include "reram/noise.hpp"

namespace odin::reram {

/// How IR drop is applied across an activated OU.
enum class IrModel {
  /// Eq. 4 verbatim: one effective series resistance R_wire * (R + C) for
  /// every cell of the OU (the analytical models' view).
  kLumped,
  /// Position-dependent: cell (r, c) of the OU sees R_wire * (r + c + 2)
  /// wire segments — cells far from the drivers degrade more, and Eq. 4's
  /// lumped value is the far-corner worst case.
  kSpatial,
};

class Crossbar {
 public:
  /// A crossbar of `size` x `size` cells. If `noise` is provided, writes and
  /// reads are perturbed stochastically (including any stuck-at-faults its
  /// params enable); otherwise they are deterministic.
  Crossbar(int size, DeviceParams device,
           std::optional<NoiseModel> noise = std::nullopt,
           IrModel ir_model = IrModel::kLumped);

  int size() const noexcept { return size_; }
  const DeviceParams& device() const noexcept { return device_; }

  /// Program a row-major weight block (values in [-1, 1]) into the top-left
  /// corner of the array at absolute time `at_time_s`. Rows/cols beyond the
  /// block keep their previous contents. Resets the drift clock for the
  /// whole array (reprogramming is array-granular, as in the paper).
  /// Rebuilds the weight plane and invalidates the drift/IR caches.
  void program(std::span<const double> weights, int rows, int cols,
               double at_time_s);

  /// Wall-clock moment of the most recent (re)programming.
  double programmed_at_s() const noexcept { return programmed_at_s_; }

  /// Number of cells carrying live weights (for reprogramming energy).
  std::int64_t programmed_cells() const noexcept { return programmed_cells_; }

  /// Cells stuck at G_ON / G_OFF by permanent faults (0 without noise).
  std::int64_t faulty_cells() const noexcept { return faulty_cells_; }

  IrModel ir_model() const noexcept { return ir_model_; }

  /// Build (or refresh) the drift/IR caches for timestamp `t_s`. mvm and
  /// friends do this lazily; call it explicitly before handing the same
  /// crossbar to concurrent readers so the first touch does not race.
  void prepare(double t_s) const { ensure_planes(t_s); }

  /// The signed weight a cell would ideally contribute (post-quantization,
  /// no drift / IR-drop / noise).
  double ideal_weight(int row, int col) const;

  /// The signed weight the cell effectively contributes at absolute time
  /// `t_s` when read inside an OU activating `ou_rows` x `ou_cols` cells.
  /// With a NoiseModel attached, each cell drifts with its own sampled
  /// coefficient (cell-to-cell drift variation — the effect that erodes
  /// *relative* weight structure over time); without one, drift is the
  /// uniform device nominal.
  double effective_weight(int row, int col, double t_s, int ou_rows,
                          int ou_cols) const;

  /// Analog MVM of one OU window: output[c] = sum_r in[r] * W_eff[r][c],
  /// each column quantized by an ADC of `adc_bits` (full scale = ou_rows,
  /// the worst-case column current). `input` has `ou_rows` entries.
  std::vector<double> mvm_ou(std::span<const double> input, int row0,
                             int ou_rows, int col0, int ou_cols, double t_s,
                             int adc_bits);

  /// Allocation-free variant: writes the `ou_cols` column outputs into the
  /// caller-provided `out` (the steady-state path).
  void mvm_ou(std::span<const double> input, int row0, int ou_rows, int col0,
              int ou_cols, double t_s, int adc_bits, std::span<double> out);

  /// Batched OU pass: `batch` queries packed back to back (query b occupies
  /// inputs[b * ou_rows, (b+1) * ou_rows)); writes out[b * ou_cols + c].
  /// The drift/IR planes are refreshed once for the whole batch, the input
  /// panel is transposed once, and the inner loop is a register-blocked
  /// GEMM (reram/batch_gemm.hpp) — bitwise identical to `batch` sequential
  /// single-query calls (DESIGN.md §14). With a NoiseModel attached, falls
  /// back to the sequential per-query path (each query keeps its own
  /// read-noise draw order).
  void mvm_ou(std::span<const double> inputs, int batch, int row0,
              int ou_rows, int col0, int ou_cols, double t_s, int adc_bits,
              std::span<double> out);

  /// Full programmed-region MVM composed of (ou_rows x ou_cols) OU passes
  /// with partial sums accumulated digitally (shift-and-add path).
  std::vector<double> mvm(std::span<const double> input, int ou_rows,
                          int ou_cols, double t_s, int adc_bits);

  /// Allocation-free variant: zero-fills out[0, programmed_cols) and
  /// accumulates the OU partial sums there. `out` must have at least
  /// programmed_cols() entries.
  void mvm(std::span<const double> input, int ou_rows, int ou_cols,
           double t_s, int adc_bits, std::span<double> out);

  /// Batched full-region MVM over feature-major panels: row r of query b
  /// is in_t[r * batch + b] (r < programmed_rows), and column c of query b
  /// lands in out_t[c * batch + b] (c < programmed_cols). The GEMM reads
  /// the panel in place and each column block writes its running sums
  /// straight into out_t. Same per-query OU composition and accumulation
  /// order as the single-query path, so results are bitwise identical to
  /// `batch` sequential mvm calls; the batch amortizes the plane/IR-table
  /// walk and vectorizes across queries. With a NoiseModel attached, each
  /// query's row is gathered into scratch and run through the
  /// single-query mvm, in query order.
  void mvm(std::span<const double> in_t, int batch, int ou_rows, int ou_cols,
           double t_s, int adc_bits, std::span<double> out_t);

  /// Ideal (float) MVM over the programmed region, for error measurement.
  std::vector<double> ideal_mvm(std::span<const double> input) const;

  /// RMS error between ideal and effective weights over the programmed
  /// region at time t under an (ou_rows x ou_cols) activation pattern.
  double weight_rms_error(double t_s, int ou_rows, int ou_cols) const;

  int programmed_rows() const noexcept { return live_rows_; }
  int programmed_cols() const noexcept { return live_cols_; }

  /// Raw cell state, row-major (for the pinned reference kernel and
  /// introspection; the hot path reads the column-major planes instead).
  std::span<const double> conductances() const noexcept {
    return conductance_s_;
  }
  std::span<const std::int8_t> signs() const noexcept { return sign_; }
  /// Per-cell drift exponents; empty means the uniform device nominal.
  std::span<const double> drift_coefficients() const noexcept {
    return drift_coeff_;
  }

 private:
  /// Per-cell drift factor (t/t0)^(-v_i); uniform v without a NoiseModel.
  double cell_drift_factor(std::size_t idx, double elapsed_s) const;

  /// Refresh the per-timestamp caches (drift plane, effective plane, IR
  /// tile, nominal drift factor) if `t_s` maps to a different elapsed time
  /// than the cached one. Returns the elapsed time. Mutates only the
  /// `mutable` cache members; not safe against concurrent first touch (see
  /// prepare()).
  double ensure_planes(double t_s) const;

  /// The OU kernel proper. Caches must be valid for the read time
  /// (ensure_planes). Writes (accumulate = false) or adds (accumulate =
  /// true) the quantized column outputs into out[0, ou_cols).
  void ou_kernel(std::span<const double> input, int row0, int ou_rows,
                 int col0, int ou_cols, int adc_bits, std::span<double> out,
                 bool accumulate);

  int size_;
  DeviceParams device_;
  std::optional<NoiseModel> noise_;
  IrModel ir_model_;
  std::vector<double> conductance_s_;  ///< programmed magnitudes (siemens)
  std::vector<std::int8_t> sign_;      ///< -1 / 0 / +1 per cell
  std::vector<double> drift_coeff_;    ///< per-cell v (empty = uniform)
  std::vector<std::int8_t> fault_;     ///< CellFault per cell (empty = none)
  // Precomputed planes (DESIGN.md §11). weight_plane_ is column-major
  // (plane[c * size + r]) so the kernel's inner row loop is unit-stride; it
  // is rebuilt eagerly by program(). The drift-dependent caches are keyed
  // by elapsed-since-programming and rebuilt lazily (mutable: const readers
  // like weight_rms_error build them on first touch).
  std::vector<double> weight_plane_;  ///< sign * c2w(g), column-major
  mutable std::vector<double> drift_plane_;  ///< per-cell (t/t0)^-v, col-major
  mutable std::vector<double> eff_plane_;    ///< weight * drift, col-major
  mutable std::vector<double> ir_table_;     ///< IR factor by r+c (kSpatial)
  mutable std::vector<double> lumped_ir_table_;  ///< ir_factor by R+C
  mutable double uniform_drift_factor_ = 1.0;
  mutable double plane_elapsed_ = -1.0;  ///< cache key; < 0 = invalid

  // Batched-path scratch (grown on first use, reused afterwards so the
  // steady state allocates nothing): the full-array pass keeps one block of
  // pre-quantization GEMM accumulators per column block there, its noisy
  // fallback one query's gathered input and outputs, and the batched
  // mvm_ou its transposed input panel followed by its accumulators.
  std::vector<double> batch_scratch_;

  double programmed_at_s_ = 0.0;
  std::int64_t programmed_cells_ = 0;
  std::int64_t faulty_cells_ = 0;
  int live_rows_ = 0;
  int live_cols_ = 0;
};

}  // namespace odin::reram
