#include "core/boruvka.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>
#include <utility>

#include "proto/cycle_break.h"

namespace kkt::core {
namespace {

bool any_active(std::span<const graph::NodeId> nodes,
                const std::vector<char>* active) {
  return active == nullptr ||
         std::any_of(nodes.begin(), nodes.end(),
                     [active](graph::NodeId v) { return (*active)[v] != 0; });
}

// Resolves the one cycle a merged component may hold. Returns
// {cycle_detected, hard_reset}.
std::pair<bool, bool> resolve_st_cycle(sim::Network& net,
                                       graph::MarkedForest& forest,
                                       proto::TreeOps& ops,
                                       std::span<const graph::NodeId> nodes) {
  proto::ElectionResult el = ops.elect(nodes);
  if (el.leader != graph::kNoNode) return {false, false};
  assert(!el.cycle.empty());

  proto::CycleBreak breaker(forest, el.cycle);
  std::vector<graph::NodeId> members;
  members.reserve(el.cycle.size());
  for (const proto::CycleMember& m : el.cycle) members.push_back(m.node);
  net.run(breaker, members);

  if (breaker.half_unmarks() > 0) return {true, false};

  // "If there still is a cycle, all of the edges in the cycle are unmarked."
  // Verified by a second election; every cycle node then unmarks its two
  // cycle edges locally.
  el = ops.elect(nodes);
  if (el.leader != graph::kNoNode) return {true, false};
  for (const proto::CycleMember& m : el.cycle) {
    for (const graph::NodeId peer : m.cycle_neighbor) {
      const auto e = forest.graph().find_edge(m.node, peer);
      assert(e.has_value());
      forest.unmark_half(*e, m.node);
    }
  }
  return {true, true};
}

}  // namespace

LeavingEdge find_leaving_edge(proto::TreeOps& ops, graph::NodeId root,
                              const SearchConfig& cfg) {
  if (cfg.kind == ForestKind::kMst) {
    const FindMinResult res = find_min(ops, root, cfg.find_min);
    return {res.found, res.edge_num, res.stats.budget_exhausted};
  }
  const FindAnyResult res = find_any(ops, root, cfg.find_any);
  return {res.found, res.edge_num, res.stats.budget_exhausted};
}

PhaseInfo boruvka_phase(sim::Network& net, graph::MarkedForest& forest,
                        const SearchConfig& search, std::uint32_t mark_epoch,
                        std::span<const std::vector<graph::NodeId>> fragments,
                        std::vector<char>* active,
                        proto::ProtoScratch& scratch) {
  assert(mark_epoch > 0);
  PhaseInfo info;
  const sim::Metrics before = net.metrics();

  proto::TreeOps ops(net, graph::TreeView(forest, mark_epoch - 1), &scratch);
  sim::ParallelPhase par(net);
  for (const auto& frag : fragments) {
    if (!any_active(frag, active)) continue;
    ++info.fragments;
    const auto branch = par.branch();
    const proto::ElectionResult el = ops.elect(frag);
    assert(el.leader != graph::kNoNode && "fragments are trees at phase start");
    const LeavingEdge edge = find_leaving_edge(ops, el.leader, search);
    if (edge.found) {
      if (ops.add_edge(forest, el.leader, edge.edge_num, mark_epoch)) {
        ++info.merges;
      }
    } else if (!edge.exhausted && active != nullptr) {
      for (const graph::NodeId v : frag) (*active)[v] = 0;  // maximal
    }
  }
  par.finish();

  if (search.kind == ForestKind::kSt) {
    proto::TreeOps merged(net, graph::TreeView(forest, mark_epoch), &scratch);
    sim::ParallelPhase mpar(net);
    for (const auto& comp : forest.fragments()) {
      if (!any_active(comp, active)) continue;
      const auto branch = mpar.branch();
      const auto [detected, hard] = resolve_st_cycle(net, forest, merged, comp);
      info.cycles_detected += detected ? 1 : 0;
      info.cycles_hard_reset += hard ? 1 : 0;
    }
    mpar.finish();
  }

  info.messages = net.metrics().messages - before.messages;
  info.rounds = net.metrics().rounds - before.rounds;
  return info;
}

std::size_t phase_budget(std::size_t n, double per_lg_n) {
  const double lg_n =
      std::log2(static_cast<double>(std::max<std::size_t>(n, 2)));
  return static_cast<std::size_t>(std::ceil(per_lg_n * lg_n)) + 1;
}

}  // namespace kkt::core
