// PIM tile component catalogue — paper Table I, verbatim.
//
// Tile: 1.2 GHz, 32 nm, 0.28 mm^2; 96 ReRAM crossbars of 128x128 2-bit
// cells; 96 reconfigurable 3-6 bit ADCs; eDRAM buffer; IR/OR registers;
// OU controller; sigmoid / shift-and-add / maxpool units; mesh router.
#pragma once

#include <string>
#include <vector>

#include "common/units.hpp"

namespace odin::arch {

struct ComponentSpec {
  std::string name;
  std::string spec;  ///< free-text specification column of Table I
  double area_mm2 = 0.0;
};

/// The rows of Table I, in paper order.
const std::vector<ComponentSpec>& tile_components();

/// Sum of component areas (paper headline: 0.28 mm^2).
double tile_area_mm2();

struct TileConfig {
  int crossbars = 96;
  int crossbar_size = 128;
  int adcs = 96;
  int bits_per_cell = 2;
  double frequency_hz = 1.2e9;
  double edram_bytes = 64 * units::KiB;
  int edram_bus_width = 384;

  /// Weight cells available in one tile.
  long long cell_capacity() const noexcept {
    return static_cast<long long>(crossbars) * crossbar_size * crossbar_size;
  }
};

struct PimConfig {
  int pes = 36;           ///< paper Sec. V-A: 36 PEs on a mesh NoC
  int tiles_per_pe = 4;
  int mesh_x = 6;
  int mesh_y = 6;
  TileConfig tile;

  long long total_crossbars() const noexcept {
    return static_cast<long long>(pes) * tiles_per_pe * tile.crossbars;
  }
  long long total_cells() const noexcept {
    return static_cast<long long>(pes) * tiles_per_pe *
           tile.cell_capacity();
  }
  double system_area_mm2() const;
};

}  // namespace odin::arch
