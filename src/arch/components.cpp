#include "arch/components.hpp"

namespace odin::arch {

const std::vector<ComponentSpec>& tile_components() {
  static const std::vector<ComponentSpec> kTable{
      {"eDRAM buffer", "size: 64KB", 0.083},
      {"eDRAM bus", "buswidth: 384", 0.09},
      {"Router", "flit: 32, port 8", 0.0375},
      {"Sigmoid, S+A, Maxpool", "number: 2, 96, 1", 0.0038},
      {"OR, IR", "size: 3KB, 2KB", 0.0282},
      {"OU Control", "number: 1", 0.0048},
      {"ADC (with control)", "number: 96; reconfigurable 3 to 6 bits", 0.03},
      {"DAC, S+H", "number: 96x128", 0.0025},
      {"Memristor array",
       "number: 96, size: 128x128, bits/cell: 2, OU size: varying", 0.0024},
  };
  return kTable;
}

double tile_area_mm2() {
  double total = 0.0;
  for (const auto& c : tile_components()) total += c.area_mm2;
  return total;
}

double PimConfig::system_area_mm2() const {
  return static_cast<double>(pes) * tiles_per_pe * tile_area_mm2();
}

}  // namespace odin::arch
