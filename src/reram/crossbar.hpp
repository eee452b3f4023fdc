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
#include "reram/endurance.hpp"
#include "reram/noise.hpp"
#include "reram/wear_leveling.hpp"

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
  /// Where stochastic read-noise draws come from when a NoiseModel is
  /// attached.
  enum class ReadNoiseStream {
    /// One shared sequential RNG; draw order is the kernel's cell visit
    /// order, so the noisy MVM must run its OU tiles sequentially. This is
    /// the legacy stream the seed-compat tests pin.
    kSequential,
    /// Counter-based: each draw is a pure function of (seed, cell index,
    /// mvm epoch), so draws are schedule-independent and the noisy path
    /// can use the same parallel column-block schedule as the noiseless
    /// one while staying seed-deterministic.
    kCounterBased,
  };

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

  /// Permanent fault state of one cell (kNone when no faults are modelled).
  CellFault cell_fault(int row, int col) const noexcept {
    if (fault_.empty()) return CellFault::kNone;
    return static_cast<CellFault>(
        fault_[static_cast<std::size_t>(row) * size_ + col]);
  }

  /// Attach a write-wear model: every subsequent program() counts as one
  /// write-verify campaign, and cells whose sampled Weibull lifetime the
  /// campaign count crosses become permanently stuck (polarity sampled per
  /// cell: an over-SET filament sticks on, a broken one sticks off). All
  /// lifetimes and polarities are drawn up front from `seed`, so wear is
  /// deterministic regardless of how reads interleave with writes.
  void attach_endurance(const EnduranceModel& model, std::uint64_t seed);

  /// Write campaigns applied so far (0 until the first program()).
  int program_campaigns() const noexcept { return program_campaigns_; }

  /// Enable wear leveling: subsequent program() calls rotate the
  /// logical→physical row map, accrue per-physical-row write counts, and
  /// retire rows whose wear crosses the budget onto the spare pool. The
  /// mapping never touches logical cell state, so MVM outputs are bitwise
  /// identical to an unleveled crossbar programmed with the same weights
  /// (tests/test_mvm_kernel.cpp pins this). Call before the first program().
  void enable_wear_leveling(const WearLevelingParams& params);
  bool wear_leveling_enabled() const noexcept { return leveling_.enabled; }

  /// Physical rows retired onto the spare pool so far.
  std::int64_t rows_remapped() const noexcept { return rows_remapped_; }
  /// Retirement budget left in the spare pool (0 when leveling is off —
  /// the next worn row then shows up as stuck cells instead of remapping).
  int spares_remaining() const noexcept {
    return leveling_.enabled
               ? spare_budget_ - static_cast<int>(rows_remapped_)
               : 0;
  }
  /// Row writes redirected to a non-identity physical row by rotation or
  /// remapping (the "spread" the leveling layer achieved).
  std::int64_t writes_leveled() const noexcept { return writes_leveled_; }

  /// Durable wear/remap state for the serving checkpoint.
  /// Empty (rows == 0) until leveling is enabled and the first campaign ran.
  WearMap wear_map() const;
  /// Restore checkpointed wear state. Leveling must already be enabled with
  /// the same geometry; returns false (state untouched) on a mismatch.
  bool restore_wear_map(const WearMap& map);

  IrModel ir_model() const noexcept { return ir_model_; }

  /// Select the read-noise stream (default kSequential, the legacy shared
  /// RNG). Only meaningful with a NoiseModel attached.
  void set_read_noise_stream(ReadNoiseStream mode) noexcept {
    read_stream_ = mode;
  }
  ReadNoiseStream read_noise_stream() const noexcept { return read_stream_; }

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
  /// read-noise epoch / draw order).
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

  /// Batched full-region MVM: query b reads inputs[b * in_stride,
  /// + programmed_rows) and its outputs land in out[b * out_stride,
  /// + programmed_cols) (zero-filled first). The strides let callers hand
  /// in 2-D activation panels directly. Same per-query OU composition and
  /// accumulation order as the single-query path, so results are bitwise
  /// identical to `batch` sequential mvm calls; the batch amortizes the
  /// plane/IR-table walk and vectorizes across queries.
  void mvm(std::span<const double> inputs, int batch, std::size_t in_stride,
           int ou_rows, int ou_cols, double t_s, int adc_bits,
           std::span<double> out, std::size_t out_stride);

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
  /// The leveled half of program(): retire physical rows whose accrued wear
  /// crossed the budget (while spares remain), advance the rotation, rebuild
  /// the logical→physical map over the surviving rows, charge this
  /// campaign's writes, and project physical faults (sampled + wear-out)
  /// into the logical fault_ map for rows [0, rows).
  void apply_wear_leveling(int rows);
  /// True when accrued writes (or measured wear-out) call for retiring
  /// physical row `p`.
  bool row_wear_exceeded(int p) const;

  /// Uniform (device-nominal) degradation: drift x IR-drop, as a factor.
  double degradation_factor(double t_s, int ou_rows, int ou_cols) const;
  /// IR-drop-only factor (G_eff / G_drift) for a specific cell position
  /// within the OU (kSpatial). The hot paths read the elapsed-keyed tables
  /// instead: ir_table_ (per cell position) and lumped_ir_table_ (per
  /// activated OU perimeter rows + cols).
  double ir_factor_at(double t_s, int row_in_ou, int col_in_ou) const;
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
  /// true) the quantized column outputs into out[0, ou_cols). `epoch` feeds
  /// the counter-based read-noise stream and is ignored otherwise.
  void ou_kernel(std::span<const double> input, int row0, int ou_rows,
                 int col0, int ou_cols, int adc_bits, std::uint64_t epoch,
                 std::span<double> out, bool accumulate);

  int size_;
  DeviceParams device_;
  std::optional<NoiseModel> noise_;
  IrModel ir_model_;
  ReadNoiseStream read_stream_ = ReadNoiseStream::kSequential;
  std::vector<double> conductance_s_;  ///< programmed magnitudes (siemens)
  std::vector<std::int8_t> sign_;      ///< -1 / 0 / +1 per cell
  std::vector<double> drift_coeff_;    ///< per-cell v (empty = uniform)
  std::vector<std::int8_t> fault_;     ///< CellFault per cell (empty = none)
  std::vector<double> wear_lifetime_;  ///< campaigns until wear-out (empty =
                                       ///< no endurance model attached)
  std::vector<std::int8_t> wear_polarity_;  ///< CellFault once worn out
  std::optional<EnduranceParams> endurance_params_;  ///< from attach_endurance

  // Wear-leveling state (enable_wear_leveling). The map is tracking-only:
  // logical cell state stays logical, physical rows accrue the wear. When
  // leveling is on, sampled stuck-at faults and wear-out both live on
  // physical cells (phys_fault_) and project into the logical fault_ map
  // through row_map_ on every program().
  WearLevelingParams leveling_{};
  int spare_budget_ = 0;                  ///< resolved retirement budget
  double row_cycle_budget_ = 0.0;         ///< campaigns per row before retire
  std::vector<std::int32_t> row_map_;     ///< logical → physical row
  std::vector<std::int64_t> row_writes_;  ///< campaigns per physical row
  std::vector<std::uint8_t> row_retired_;  ///< 1 = physical row retired
  std::vector<std::int8_t> phys_fault_;   ///< sampled faults, physical order
  std::int64_t rotation_ = 0;
  std::int64_t rows_remapped_ = 0;
  std::int64_t writes_leveled_ = 0;

  // Precomputed planes (DESIGN.md §11). weight_plane_ is column-major
  // (plane[c * size + r]) so the kernel's inner row loop is unit-stride; it
  // is rebuilt eagerly by program(). The drift-dependent caches are keyed
  // by elapsed-since-programming and rebuilt lazily (mutable: const readers
  // like weight_rms_error build them on first touch).
  std::vector<double> weight_plane_;  ///< sign * c2w(g), column-major
  mutable std::vector<double> drift_plane_;  ///< per-cell (t/t0)^-v, col-major
  mutable std::vector<double> eff_plane_;    ///< weight * drift, col-major
  mutable std::vector<double> ir_table_;     ///< ir_factor_at by r+c (kSpatial)
  mutable std::vector<double> lumped_ir_table_;  ///< ir_factor by R+C
  mutable double uniform_drift_factor_ = 1.0;
  mutable double plane_elapsed_ = -1.0;  ///< cache key; < 0 = invalid

  // Batched-path scratch (grown on first use, reused afterwards so the
  // steady state allocates nothing): the transposed input panel
  // (in_t[r * batch + b]) and, per column block, the pre-quantization GEMM
  // accumulators and the running sums of the quantized tiles.
  std::vector<double> batch_in_t_;
  std::vector<double> batch_acc_;

  std::uint64_t mvm_epoch_ = 0;  ///< counter-based read-noise epoch
  int program_campaigns_ = 0;
  double programmed_at_s_ = 0.0;
  std::int64_t programmed_cells_ = 0;
  std::int64_t faulty_cells_ = 0;
  int live_rows_ = 0;
  int live_cols_ = 0;
};

}  // namespace odin::reram
