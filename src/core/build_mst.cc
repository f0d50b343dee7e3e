#include "core/build_mst.h"

#include <cassert>

#include "graph/mst_oracle.h"

namespace kkt::core {

BuildStats build_mst(sim::Network& net, graph::MarkedForest& forest,
                     const FindMinConfig& cfg) {
  assert(forest.marked_edges().empty() && "forest must start empty");
  const graph::Graph& g = net.graph();
  const std::size_t graph_components = graph::components(g).second;
  const std::size_t max_phases = phase_budget(g.node_count(), 80.0 * cfg.c);
  const SearchConfig search{ForestKind::kMst, cfg, {}};
  // One scratch bundle for the whole build: the per-node protocol arenas
  // persist across phases, so each per-fragment op costs O(fragment).
  proto::ProtoScratch scratch;

  BuildStats stats;
  for (;;) {
    const auto fragments = forest.fragments();
    stats.spanning = fragments.size() == graph_components;
    if (stats.spanning || stats.phases == max_phases) return stats;
    ++stats.phases;
    stats.per_phase.push_back(boruvka_phase(
        net, forest, search, static_cast<std::uint32_t>(stats.phases),
        fragments, /*active=*/nullptr, scratch));
  }
}

}  // namespace kkt::core
