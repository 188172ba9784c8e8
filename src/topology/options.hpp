// Shared sizing/technology options for all topology builders.
//
// The defaults reproduce the paper's setup: 256 or 1024 cores, concentration
// 4, 4 VCs x 8-flit buffers, 5-stage routers at a 2 GHz core/router clock and
// 128-bit flits (4-flit, 64 B packets).
#pragma once

#include <string>

namespace ownsim {

struct TopologyOptions {
  int num_cores = 256;   ///< 256 or 1024 in the paper; any 4*k^2 for CMesh
  int concentration = 4; ///< cores per router / per tile
  int num_vcs = 4;
  int buffer_depth = 8;
  int max_packet_flits = 8;  ///< shared-medium staging capacity

  double clock_ghz = 2.0;
  int flit_bits = 128;

  /// Serialization overrides in cycles/flit; 0 = derive from the
  /// equal-bisection rule (topology/bisection.*).
  int electrical_cpf = 0;
  int photonic_cpf = 0;
  int wireless_cpf = 0;

  /// Replace token-ring arbitration on shared media with zero-cost ideal
  /// arbitration (ablation isolating the token's latency overhead).
  bool ideal_arbitration = false;

  /// CMesh only: O1TURN routing (each packet flips between XY and YX, with
  /// the VC set split between the two) instead of plain XY DOR. Removes
  /// DOR's pathological behavior on transpose-like permutations.
  bool cmesh_o1turn = false;

  /// File topology (topology=file:PATH) only. `topofile_text` is the file
  /// body; when empty the builder reads `topofile_path`. The driver loads
  /// the text at config-parse time so the canonical config JSON and the
  /// simulated network always come from the same bytes.
  std::string topofile_path;
  std::string topofile_text;
};

}  // namespace ownsim
