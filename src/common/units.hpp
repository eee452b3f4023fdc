// Physical unit conventions used throughout the library.
//
// All quantities are stored as doubles in SI base units:
//   time    -> seconds      energy -> joules      power -> watts
//   area    -> square millimetres (mm^2; the one deliberate exception,
//              because every accelerator paper reports mm^2)
//   conductance -> siemens  resistance -> ohms
//
// The constants below are multipliers: `3.5 * units::ns` is 3.5 nanoseconds
// expressed in seconds. Helper structs aggregate the (energy, latency) pairs
// that the cost models pass around.
#pragma once

#include "common/binary_io.hpp"

namespace odin::units {

inline constexpr double s = 1.0;
inline constexpr double ms = 1e-3;
inline constexpr double us = 1e-6;
inline constexpr double ns = 1e-9;
inline constexpr double ps = 1e-12;

inline constexpr double J = 1.0;
inline constexpr double mJ = 1e-3;
inline constexpr double uJ = 1e-6;
inline constexpr double nJ = 1e-9;
inline constexpr double pJ = 1e-12;
inline constexpr double fJ = 1e-15;

inline constexpr double W = 1.0;
inline constexpr double mW = 1e-3;
inline constexpr double uW = 1e-6;

inline constexpr double S = 1.0;      // siemens
inline constexpr double uS = 1e-6;
inline constexpr double ohm = 1.0;

inline constexpr double mm2 = 1.0;    // area unit of record
inline constexpr double KiB = 1024.0; // storage, bytes

}  // namespace odin::units

namespace odin::common {

/// An (energy, latency) pair; the currency of all cost models.
struct EnergyLatency {
  double energy_j = 0.0;   ///< joules
  double latency_s = 0.0;  ///< seconds

  constexpr EnergyLatency& operator+=(const EnergyLatency& o) noexcept {
    energy_j += o.energy_j;
    latency_s += o.latency_s;
    return *this;
  }
  friend constexpr EnergyLatency operator+(EnergyLatency a,
                                           const EnergyLatency& b) noexcept {
    a += b;
    return a;
  }
  /// Energy-delay product, the paper's headline metric.
  constexpr double edp() const noexcept { return energy_j * latency_s; }

  bool operator==(const EnergyLatency&) const = default;
};

/// Wire layout (common/binary_io.hpp).
template <typename S, MaybeConst<EnergyLatency> E>
void fields(S& s, E& e) {
  s.field(e.energy_j);
  s.field(e.latency_s);
}

}  // namespace odin::common
