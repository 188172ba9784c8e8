// Wireless transceiver technology model (paper §IV.B, Table III).
//
// Three device technologies implement the OWN transceivers:
//   CMOS     — lowest power, usable only at the lowest mm-wave bands
//   BiCMOS   — CMOS core with SiGe HBT PA/LNA, mid bands
//   SiGe HBT — full-HBT design, required above ~300 GHz, most power-hungry
//
// Energy per bit at a link's center frequency f is modeled as the paper's
// "base efficiency + efficiency ramp":
//
//   E(f) = base(tech) + ramp(tech, scenario) * (f - 100 GHz) / 100 GHz
//
// with base 0.1 pJ/bit (CMOS) and 0.5 pJ/bit (HBT) straight from §IV.B;
// BiCMOS takes the 0.3 pJ/bit midpoint (reconstruction, see DESIGN.md §4.3).
// Ramps: ideal scenario +0.05 / +0.07 / +0.10 pJ/bit per 100 GHz for
// CMOS / BiCMOS / HBT; conservative +0.05 / +0.06 / +0.07.
#pragma once

#include "common/quantity.hpp"

namespace ownsim {

enum class WirelessTech { kCmos, kBiCmos, kSiGeHbt };

/// Table III has two outlooks: ideal (32 GHz channels) and conservative
/// (16 GHz channels).
enum class Scenario { kIdeal, kConservative };

const char* to_string(WirelessTech tech);
const char* to_string(Scenario scenario);

/// Base efficiency at the 100 GHz anchor.
EnergyPerBit base_efficiency(WirelessTech tech);

/// Efficiency ramp per 100 GHz above the anchor.
EnergyPerBit efficiency_ramp(WirelessTech tech, Scenario scenario);

/// E(f): energy per bit for a transceiver of `tech` at `freq`.
EnergyPerBit energy_per_bit(WirelessTech tech, Scenario scenario,
                            Frequency freq);

/// Channel bandwidth per scenario: 32 GHz ideal / 16 GHz conservative.
Frequency channel_bandwidth(Scenario scenario);

/// Guard band between adjacent channels: 8 GHz ideal / 4 GHz conservative.
Frequency guard_band(Scenario scenario);

}  // namespace ownsim
