#include "arch/noc.hpp"

#include <cassert>
#include <cstdlib>

#include "common/math.hpp"

namespace odin::arch {

common::EnergyLatency intermesh_transfer(std::int64_t bytes,
                                         InterMeshLinkParams params) {
  if (bytes <= 0) return {};
  return common::EnergyLatency{
      .energy_j = params.energy_per_byte_j * static_cast<double>(bytes),
      .latency_s = params.setup_latency_s +
                   static_cast<double>(bytes) / params.bandwidth_bytes_per_s,
  };
}

NocModel::NocModel(int mesh_x, int mesh_y, NocParams params)
    : mesh_x_(mesh_x), mesh_y_(mesh_y), params_(params) {
  assert(mesh_x > 0 && mesh_y > 0);
}

int NocModel::hops(int src, int dst) const noexcept {
  assert(src >= 0 && src < nodes() && dst >= 0 && dst < nodes());
  const int sx = src % mesh_x_, sy = src / mesh_x_;
  const int dx = dst % mesh_x_, dy = dst / mesh_x_;
  return std::abs(sx - dx) + std::abs(sy - dy);
}

double NocModel::average_hops() const noexcept {
  // Exact mean Manhattan distance between two independent uniform nodes.
  double total = 0.0;
  for (int a = 0; a < nodes(); ++a)
    for (int b = 0; b < nodes(); ++b) total += hops(a, b);
  return total / (static_cast<double>(nodes()) * nodes());
}

common::EnergyLatency NocModel::transfer(std::int64_t bits,
                                         int hops) const noexcept {
  if (bits <= 0 || hops <= 0) return {};
  const std::int64_t flits = common::ceil_div(bits, params_.flit_bits);
  return common::EnergyLatency{
      .energy_j = params_.hop_energy_per_flit_j *
                  static_cast<double>(flits) * hops,
      .latency_s = params_.hop_latency_s *
                   static_cast<double>(hops + flits - 1),
  };
}

}  // namespace odin::arch
