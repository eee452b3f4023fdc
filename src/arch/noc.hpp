// Mesh network-on-chip model: XY dimension-order routing over the paper's
// 6x6 PE mesh, with per-hop flit energy/latency constants of conventional
// 32 nm mesh routers (Table I: 32-bit flits, 8-port routers).
#pragma once

#include <cstdint>

#include "common/units.hpp"

namespace odin::arch {

struct NocParams {
  int flit_bits = 32;
  /// 3-stage router pipeline + link traversal at 1.2 GHz.
  double hop_latency_s = 2.5 * units::ns;
  double hop_energy_per_flit_j = 0.15 * units::pJ;
};

/// Inter-mesh replication link (core/cluster): a serial chip-to-chip
/// channel carrying checkpoint replicas and failover restores between
/// meshes — orders of magnitude slower and costlier per byte than the
/// on-die NoC above, which is exactly why replication is asynchronous and
/// cadence-driven rather than per-serve.
struct InterMeshLinkParams {
  double bandwidth_bytes_per_s = 4.0e9;  ///< sustained payload rate
  double setup_latency_s = 1.0e-6;       ///< per-transfer serialization setup
  double energy_per_byte_j = 20.0 * units::pJ;
};

/// Cost of moving `bytes` across the inter-mesh link. Deterministic pure
/// function; zero or negative byte counts cost nothing.
common::EnergyLatency intermesh_transfer(std::int64_t bytes,
                                         InterMeshLinkParams params = {});

class NocModel {
 public:
  NocModel(int mesh_x, int mesh_y, NocParams params = {});

  int mesh_x() const noexcept { return mesh_x_; }
  int mesh_y() const noexcept { return mesh_y_; }
  int nodes() const noexcept { return mesh_x_ * mesh_y_; }
  const NocParams& params() const noexcept { return params_; }

  /// Manhattan hop count between PE indices (row-major node ids).
  int hops(int src, int dst) const noexcept;

  /// Mean hop count under uniform-random traffic — the standard
  /// (mesh_x + mesh_y) / 3 closed form, computed exactly here.
  double average_hops() const noexcept;

  /// Cost of moving `bits` of payload across `hops` hops. Flits pipeline
  /// through the network: latency = (hops + flits - 1) * hop_latency.
  common::EnergyLatency transfer(std::int64_t bits, int hops) const noexcept;

 private:
  int mesh_x_, mesh_y_;
  NocParams params_;
};

}  // namespace odin::arch
