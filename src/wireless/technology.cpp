#include "wireless/technology.hpp"

#include <algorithm>

namespace ownsim {

const char* to_string(WirelessTech tech) {
  switch (tech) {
    case WirelessTech::kCmos: return "CMOS";
    case WirelessTech::kBiCmos: return "BiCMOS";
    case WirelessTech::kSiGeHbt: return "SiGe";
  }
  return "?";
}

const char* to_string(Scenario scenario) {
  return scenario == Scenario::kIdeal ? "ideal" : "conservative";
}

EnergyPerBit base_efficiency(WirelessTech tech) {
  switch (tech) {
    case WirelessTech::kCmos: return 0.1_pj_per_bit;
    case WirelessTech::kBiCmos: return 0.3_pj_per_bit;
    case WirelessTech::kSiGeHbt: return 0.5_pj_per_bit;
  }
  return EnergyPerBit{};
}

EnergyPerBit efficiency_ramp(WirelessTech tech, Scenario scenario) {
  if (scenario == Scenario::kIdeal) {
    switch (tech) {
      case WirelessTech::kCmos: return 0.05_pj_per_bit;
      case WirelessTech::kBiCmos: return 0.07_pj_per_bit;
      case WirelessTech::kSiGeHbt: return 0.10_pj_per_bit;
    }
  } else {
    switch (tech) {
      case WirelessTech::kCmos: return 0.05_pj_per_bit;
      case WirelessTech::kBiCmos: return 0.06_pj_per_bit;
      case WirelessTech::kSiGeHbt: return 0.07_pj_per_bit;
    }
  }
  return EnergyPerBit{};
}

EnergyPerBit energy_per_bit(WirelessTech tech, Scenario scenario,
                            Frequency freq) {
  // (f - 100 GHz) / 100 GHz is a dimensionless ramp position.
  const double ramp_position = (freq - 100.0_ghz) / 100.0_ghz;
  const double above_anchor = std::max(0.0, ramp_position);
  return base_efficiency(tech) + efficiency_ramp(tech, scenario) * above_anchor;
}

Frequency channel_bandwidth(Scenario scenario) {
  return scenario == Scenario::kIdeal ? 32.0_ghz : 16.0_ghz;
}

Frequency guard_band(Scenario scenario) {
  return scenario == Scenario::kIdeal ? 8.0_ghz : 4.0_ghz;
}

}  // namespace ownsim
