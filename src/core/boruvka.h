// The Boruvka phase shared by Build MST (paper Section 3.3), Build ST
// (Section 4.2) and batched deletion repair (DynamicForest::delete_batch).
//
// One phase runs over the fragments of a MarkedForest that hold an active
// node:
//   1. The fragments are the components of the edges marked before the
//      phase's mark epoch. Edges marked during the phase join the tree
//      structure only from the next phase: the paper's step (d), in which
//      Add-Edge messages are absorbed while nodes wait out the phase clock.
//   2. Each fragment elects a leader (median-based election). The leader
//      searches for a leaving edge -- FindMin for an MST, FindAny for an
//      ST -- and the Add-Edge handshake marks it at the mark epoch.
//   3. For an ST only: unweighted choices can close one cycle per merged
//      component. Each merged component that holds an active node detects
//      it by re-running leader election (the echoes stall exactly at the
//      cycle nodes), breaks it by the randomized unmark protocol, and, if
//      the coin flips all disagree, removes it wholesale (every cycle node
//      unmarks its two cycle edges locally, a timeout decision costing no
//      messages).
// Fragment operations run logically in parallel (sim::ParallelPhase):
// messages sum, and elapsed rounds count the slowest fragment of step 2
// plus the slowest component of step 3.
//
// The callers' phase loops differ only in data: the phase budget, the base
// epoch (0 for a build), the active set (everything for a build, the
// orphaned nodes for a batch) and the stop rule (the forest spans, or no
// node is left active).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/find_any.h"
#include "core/find_min.h"
#include "graph/forest.h"
#include "proto/tree_ops.h"
#include "sim/network.h"

namespace kkt::core {

// Which invariant the maintained forest satisfies.
enum class ForestKind { kMst, kSt };

// The leaving-edge search a fragment runs: FindMin for an MST, FindAny for
// an ST.
struct SearchConfig {
  ForestKind kind = ForestKind::kMst;
  FindMinConfig find_min;
  FindAnyConfig find_any;
};

struct LeavingEdge {
  bool found = false;
  graph::EdgeNum edge_num = 0;
  // The search ran out of budget: "no leaving edge" is not certified.
  bool exhausted = false;
};

// Runs cfg's search from `root` over the tree of `ops`.
LeavingEdge find_leaving_edge(proto::TreeOps& ops, graph::NodeId root,
                              const SearchConfig& cfg);

struct PhaseInfo {
  std::size_t fragments = 0;          // fragments that ran the phase
  std::size_t merges = 0;             // Add-Edge handshakes that completed
  std::size_t cycles_detected = 0;    // ST: cycles closed by the merges
  std::size_t cycles_hard_reset = 0;  // ST: cycles removed wholesale
  std::uint64_t messages = 0;         // messages spent in the phase
  std::uint64_t rounds = 0;           // metrics().rounds spent in the phase
};

struct BuildStats {
  std::size_t phases = 0;
  bool spanning = false;
  std::vector<PhaseInfo> per_phase;
};

// Runs one phase whose marks carry `mark_epoch` over `fragments`, which
// must be forest.fragments() as of the phase start (no mark above
// mark_epoch - 1); the builds read them anyway for their stop rule. With
// `active` null every node is active and stays so (a build). Otherwise
// only fragments holding a node flagged in *active run, and a fragment
// whose search certifies that no edge leaves it has its nodes cleared; an
// exhausted search certifies nothing, so that fragment stays active and
// retries next phase. `scratch` is shared across phases.
PhaseInfo boruvka_phase(sim::Network& net, graph::MarkedForest& forest,
                        const SearchConfig& search, std::uint32_t mark_epoch,
                        std::span<const std::vector<graph::NodeId>> fragments,
                        std::vector<char>* active,
                        proto::ProtoScratch& scratch);

// A build's phase budget: ceil(per_lg_n * lg n) + 1 phases.
std::size_t phase_budget(std::size_t n, double per_lg_n);

}  // namespace kkt::core
