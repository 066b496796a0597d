// ipsc860.hpp — calibrated System Abstraction Graph for the Intel iPSC/860.
//
// The paper abstracts the iPSC/860 off-line "using a combination of
// assembly instruction counts, measured timings, and system specifications"
// (§4.4). Our parameter values come from the published machine
// specification (40 MHz i860XR nodes, 4 KB I-cache / 8 KB D-cache, 8 MB
// memory, ~75 us short-message latency, ~2.8 MB/s sustained link
// bandwidth) and from the usual compiled-Fortran derating of the i860's
// theoretical peak. README's `src/sim/` paragraph describes the simulated
// cube that stands in for the real one.
#pragma once

#include "machine/sag.hpp"

namespace hpf90d::machine {

/// Builds the abstraction of an iPSC/860 with `nodes` i860 processors
/// (8 in the paper's configuration) connected to an 80386-based SRM host.
[[nodiscard]] MachineModel make_ipsc860(int nodes = 8);

}  // namespace hpf90d::machine
