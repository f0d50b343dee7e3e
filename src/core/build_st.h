// Build ST (paper Section 4.2): spanning-tree construction with FindAny-C.
//
// Each phase is the shared Boruvka phase (core/boruvka.h) with FindAny-C as
// the fragment search, which saves Build MST's log n / log log n factor.
// Because the graph is (effectively) unweighted, the edges the fragments
// of one phase choose can close one cycle per merged component; the phase
// detects, breaks or removes it before the next phase starts. Total cost
// O(n log n) messages and time w.h.p. (Lemma 6).
//
// The phase loop is Build MST's: it stops once the forest spans, or after
// (40c/C_eff) lg n phases, with C_eff = 1/32 because FindAny-C succeeds
// with probability >= 1/16 (Lemma 5) and cycle breaking can undo up to
// half of a phase's progress.
#pragma once

#include "core/boruvka.h"
#include "core/find_any.h"
#include "graph/forest.h"
#include "sim/network.h"

namespace kkt::core {

// FindAny-C, the search the paper's Build ST runs.
inline constexpr FindAnyConfig kBuildFindAny{.capped = true};

// Constructs a spanning forest of net.graph() into `forest` (must start
// empty). Edge weights are ignored (the ST problem is unweighted).
BuildStats build_st(sim::Network& net, graph::MarkedForest& forest,
                    const FindAnyConfig& cfg = kBuildFindAny);

}  // namespace kkt::core
