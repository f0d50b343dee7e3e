// Build MST (paper Section 3.3): synchronous Boruvka over fragments.
//
// Each phase is the shared Boruvka phase (core/boruvka.h) with FindMin-C as
// the fragment search: every fragment elects a leader, finds its minimum
// leaving edge and marks it with the Add-Edge handshake. Because augmented
// weights are distinct, the chosen edges never close a cycle and every
// chosen edge belongs to the MST. O(log n) phases suffice w.h.p. (Lemma 3),
// for O(n log^2 n / log log n) messages and time total.
//
// Phase i reads the fragments as of epoch i - 1 and marks at epoch i. The
// build stops once the forest spans (checked by the oracle, which charges
// the network nothing), or after the paper's (40c/C) lg n phases, with
// C = 1/2 charged conservatively for FindMin-C's >= 2/3 (Lemma 2).
#pragma once

#include "core/boruvka.h"
#include "core/find_min.h"
#include "graph/forest.h"
#include "sim/network.h"

namespace kkt::core {

// FindMin-C, the search the paper's Build MST runs.
inline constexpr FindMinConfig kBuildFindMin{.capped = true};

// Constructs the minimum spanning forest of net.graph() into `forest`
// (which must start empty). Returns per-phase statistics; message/round
// totals accumulate in net.metrics().
BuildStats build_mst(sim::Network& net, graph::MarkedForest& forest,
                     const FindMinConfig& cfg = kBuildFindMin);

}  // namespace kkt::core
