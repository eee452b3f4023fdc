// Hardware-in-the-loop inference: execute a trained MultiHeadMlp on the
// behavioural ReRAM crossbar model, OU cycle by OU cycle.
//
// Each Dense layer's weight matrix is scaled into the cell range, tiled
// onto 128x128 crossbars and evaluated as analog OU MVMs with the
// reconfigurable ADC at clamp(ceil(log2 R), 3, 6) bits; partial sums merge
// digitally (the S+A path), biases and ReLU apply at the output register.
// Conductance drift applies between programming and inference time.
//
// This is the circuit-level counterpart of the analytical accuracy
// surrogate: tests/bench use it to confirm that accuracy measured through
// the actual analog datapath behaves the way the surrogate assumes
// (fine-OU + fresh cells ~ software accuracy; coarse OUs and drift erode
// it).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/train.hpp"
#include "ou/cost_model.hpp"
#include "ou/ou_config.hpp"
#include "reram/crossbar.hpp"

namespace odin::core {

class HardwareMlpRunner {
 public:
  /// Snapshots `model`'s current parameters; the model itself is not
  /// retained. `noise_seed` != 0 enables stochastic programming/read noise.
  HardwareMlpRunner(nn::MultiHeadMlp& model, reram::DeviceParams device,
                    int crossbar_size = 128, std::uint64_t noise_seed = 0);

  /// (Re)program every crossbar at absolute time `t_s`.
  void program(double t_s);

  /// Cells carrying weights across all layers.
  std::int64_t programmed_cells() const noexcept;

  /// Raw head-0 output logits of a forward pass at absolute time `t_s`
  /// with every layer using `ou` — the direct measure of analog-datapath
  /// fidelity (classification accuracy is much more forgiving: drift jitter
  /// preserves weight signs, which is often all argmax needs).
  std::vector<double> logits(std::span<const double> input, ou::OuConfig ou,
                             double t_s);

  /// Forward pass at absolute time `t_s` with every layer using `ou`.
  /// Returns the head-0 argmax class (the reference nets are single-head).
  int predict(std::span<const double> input, ou::OuConfig ou, double t_s);

  /// Classification accuracy over a dataset (labels from head 0).
  double accuracy(const nn::Dataset& data, ou::OuConfig ou, double t_s);

  /// Batched forward pass: query b reads inputs[b * in_stride,
  /// + layer-0 in_features) and its head-0 logits land in out[b * K, (b+1)
  /// * K) with K = head out_features. Runs every layer through the batched
  /// crossbar GEMM (plane walked once per batch), producing logits bitwise
  /// identical to `batch` single-query calls; zero heap allocation once
  /// the scratch has warmed up to `batch`.
  void logits(std::span<const double> inputs, int batch,
              std::size_t in_stride, ou::OuConfig ou, double t_s,
              std::span<double> out);

  /// Batched argmax predictions (head 0), one per query.
  void predict(std::span<const double> inputs, int batch,
               std::size_t in_stride, ou::OuConfig ou, double t_s,
               std::span<int> out);

  /// Classification accuracy evaluated `batch` dataset rows at a time.
  /// Identical result to the single-query overload.
  double accuracy(const nn::Dataset& data, ou::OuConfig ou, double t_s,
                  int batch);

 private:
  /// One Dense layer lowered onto a grid of crossbars.
  struct MappedLayer {
    std::size_t in_features = 0;
    std::size_t out_features = 0;
    double weight_scale = 1.0;  ///< max |w|; cells store w / scale
    std::vector<double> bias;
    std::vector<double> weights;  ///< row-major, scaled into [-1, 1]
    std::vector<std::unique_ptr<reram::Crossbar>> crossbars;  ///< row-major grid
    int grid_rows = 0;
    int grid_cols = 0;
  };

  /// Evaluate one layer into `out` (size = layer.out_features). Uses the
  /// member scratch buffers; no heap allocation in steady state.
  void forward_layer(const MappedLayer& layer, std::span<const double> input,
                     ou::OuConfig ou, double t_s, std::span<double> out);

  /// Batched layer evaluation over feature-major panels: feature f of
  /// query b is in[f * batch + b] and output c lands in out[c * batch + b],
  /// with ReLU applied when `relu` (every layer but the head).
  void forward_layer(const MappedLayer& layer, const double* in, int batch,
                     ou::OuConfig ou, double t_s, bool relu, double* out);

  /// Full forward pass; returns a span over the internal activation buffer
  /// holding the head-0 logits (valid until the next forward call).
  std::span<const double> forward_all(std::span<const double> input,
                                      ou::OuConfig ou, double t_s);

  /// Batched full forward pass: transposes the inputs once into a
  /// feature-major panel, runs every layer on it and transposes the logits
  /// back; returns the batch x head-out_features logits panel (query-major,
  /// tight stride) in the internal activation buffer.
  std::span<const double> forward_all(std::span<const double> inputs,
                                      int batch, std::size_t in_stride,
                                      ou::OuConfig ou, double t_s);

  /// Grow the forward scratch to hold `batch` queries (monotonic; called
  /// once per new high-water mark, so the steady state allocates nothing).
  void ensure_batch_scratch(int batch);

  reram::DeviceParams device_;
  int crossbar_size_;
  std::uint64_t noise_seed_;
  ou::CostParams adc_policy_;  ///< for the bits-from-R rule
  std::vector<MappedLayer> layers_;  ///< trunk denses then the single head

  // Reusable forward-pass scratch, sized to the widest layer times the
  // batch high-water mark (ensure_batch_scratch): the scaled input panel,
  // the activation ping-pong pair, one partial-sum slab per crossbar tile
  // of the largest grid (each parallel tile task owns its own slab), and
  // the per-query DAC scale factors. The batched pass keeps its panels and
  // slabs feature-major. No per-call heap allocation in steady state.
  std::size_t max_features_ = 1;
  int max_tiles_ = 1;
  int batch_capacity_ = 0;
  std::vector<double> scaled_scratch_;
  std::vector<double> act_a_;
  std::vector<double> act_b_;
  std::vector<double> partial_scratch_;  ///< tiles x batch x xbar_size
  std::vector<double> in_scale_;         ///< per-query input max magnitude
};

}  // namespace odin::core
