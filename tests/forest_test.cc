// Tree rows (graph/forest.h) against the filtered incidence walk they
// replace.
//
// TreeView::neighbors(v) used to filter v's whole incidence list by mark;
// it now walks v's tree row -- an incident(v)-ordered index of the halves v
// has marked, kept current by the marking mutators and re-derived after a
// graph removal reorders v's list. The property pinned here is that the
// two walks agree element for element, at every epoch limit, after every
// step of a seeded random sequence of forest and graph mutations, on every
// backend and in sparse-mark mode. Send order in every tree protocol is
// the neighbors() order, so this equality is what keeps all model-cost
// counters bit-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "core/build_mst.h"
#include "graph/forest.h"
#include "graph/generators.h"
#include "graph/implicit.h"
#include "graph/mst_oracle.h"
#include "test_util.h"
#include "util/rng.h"

namespace kkt::graph {
namespace {

constexpr std::uint32_t kAnyEpoch = ~std::uint32_t{0};
constexpr std::uint32_t kEpochLimits[] = {0, 1, 2, kAnyEpoch};

// The pre-row definition of TreeView::neighbors: incident(v) filtered by
// is_marked_at.
std::vector<Incidence> filtered_walk(const MarkedForest& f, NodeId v,
                                     std::uint32_t limit) {
  std::vector<Incidence> out;
  for (const Incidence& inc : f.graph().incident(v)) {
    if (f.is_marked_at(inc.edge, limit)) out.push_back(inc);
  }
  return out;
}

std::vector<Incidence> row_walk(const TreeView& view, NodeId v) {
  std::vector<Incidence> out;
  for (const Incidence& inc : view.neighbors(v)) out.push_back(inc);
  return out;
}

// Asserts every read that goes through the rows against the filtered walk.
void expect_rows_match(const MarkedForest& f, const char* where) {
  const Graph& g = f.graph();
  for (const std::uint32_t limit : kEpochLimits) {
    const TreeView view(f, limit);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const std::vector<Incidence> want = filtered_walk(f, v, limit);
      const std::vector<Incidence> got = row_walk(view, v);
      ASSERT_EQ(got.size(), want.size())
          << where << ": node " << v << " epoch limit " << limit;
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i].peer, want[i].peer) << where << ": node " << v;
        ASSERT_EQ(got[i].edge, want[i].edge) << where << ": node " << v;
        ASSERT_EQ(view.edge_to(v, want[i].peer), want[i].edge) << where;
      }
      ASSERT_EQ(view.degree(v), want.size()) << where << ": node " << v;
    }
  }
  // The whole-forest reads that walk rows too.
  std::vector<std::uint32_t> label(g.node_count());
  std::size_t count = 0;
  {
    // Reference labels by BFS over the filtered walk.
    constexpr std::uint32_t kUnset = ~std::uint32_t{0};
    std::fill(label.begin(), label.end(), kUnset);
    for (NodeId s = 0; s < g.node_count(); ++s) {
      if (label[s] != kUnset) continue;
      std::vector<NodeId> stack{s};
      label[s] = static_cast<std::uint32_t>(count);
      while (!stack.empty()) {
        const NodeId v = stack.back();
        stack.pop_back();
        for (const Incidence& inc : filtered_walk(f, v, kAnyEpoch)) {
          if (label[inc.peer] == kUnset) {
            label[inc.peer] = static_cast<std::uint32_t>(count);
            stack.push_back(inc.peer);
          }
        }
      }
      ++count;
    }
  }
  const auto [got_label, got_count] = f.components();
  ASSERT_EQ(got_count, count) << where;
  ASSERT_EQ(got_label, label) << where;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const std::vector<Incidence> want = filtered_walk(f, v, kAnyEpoch);
    const std::vector<Incidence> got = f.marked_incident(v);
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].edge, want[i].edge) << where;
    }
    ASSERT_EQ(f.marked_degree(v), want.size()) << where;
  }
  const std::vector<NodeId> comp = f.component_of(0);
  ASSERT_EQ(comp.size(), static_cast<std::size_t>(std::count(
                             label.begin(), label.end(), label[0])))
      << where;
}

// A random alive edge (kNoEdge when the graph has none left).
EdgeIdx random_alive_edge(const Graph& g, util::Rng& rng) {
  for (int tries = 0; tries < 64; ++tries) {
    const auto v = static_cast<NodeId>(rng.below(g.node_count()));
    const auto row = g.incident(v);
    if (!row.empty()) return row[rng.below(row.size())].edge;
  }
  return kNoEdge;
}

// Removes a non-tree edge of some node v that sits ahead of one of v's tree
// edges, while v's last incidence is another tree edge: the swap-with-last
// then moves that tree edge ahead of the first, reordering v's row.
bool reorder_ahead(Graph& g, MarkedForest& f, util::Rng& rng) {
  for (int tries = 0; tries < 32; ++tries) {
    const auto v = static_cast<NodeId>(rng.below(g.node_count()));
    // Copy the indices out: implicit rows live in a recycled buffer.
    const auto row = g.incident(v);
    if (row.size() < 3) continue;
    const std::size_t last = row.size() - 1;
    const EdgeIdx victim = row[0].edge;
    const EdgeIdx kept = row[1 + rng.below(last - 1)].edge;
    const EdgeIdx mover = row[last].edge;
    f.mark_edge(kept, 0);
    f.mark_edge(mover, 0);
    f.clear_edge(victim);
    g.remove_edge(victim);
    return true;
  }
  return false;
}

struct Backend {
  const char* name;
  bool mutable_topology;  // add_edge / set_weight supported
  std::size_t dense_slot_limit;
  std::unique_ptr<Graph> (*make)(std::uint64_t seed);
};

std::unique_ptr<Graph> make_adjacency(std::uint64_t seed) {
  util::Rng rng(seed);
  return std::make_unique<Graph>(
      random_connected_gnm(24, 70, WeightSpec{}, rng));
}

std::unique_ptr<Graph> make_csr(std::uint64_t seed) {
  return std::make_unique<Graph>(Graph::freeze_csr(*make_adjacency(seed)));
}

std::unique_ptr<Graph> make_implicit(std::uint64_t seed) {
  ImplicitSpec spec;
  spec.family = ImplicitFamily::kGridLong;
  spec.n = 25;
  spec.seed = seed;
  return std::make_unique<Graph>(make_implicit_graph(spec));
}

const Backend kBackends[] = {
    {"adjacency", true, kForestDenseSlotLimit, make_adjacency},
    {"csr", false, kForestDenseSlotLimit, make_csr},
    {"implicit", false, kForestDenseSlotLimit, make_implicit},
    {"sparse", true, 0, make_adjacency},
};

class ForestRows
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(ForestRows, MatchFilteredWalkUnderRandomMutations) {
  const Backend& be = kBackends[std::get<0>(GetParam())];
  const std::uint64_t seed = std::get<1>(GetParam());
  SCOPED_TRACE(be.name);
  std::unique_ptr<Graph> g = be.make(seed);
  MarkedForest forest(*g, be.dense_slot_limit);
  ASSERT_EQ(forest.sparse(), be.dense_slot_limit == 0);
  // Never marked: nothing to walk.
  expect_rows_match(forest, "fresh");
  util::Rng rng(seed * 7919 + 1);

  for (int step = 0; step < 300; ++step) {
    const EdgeIdx e = random_alive_edge(*g, rng);
    if (e == kNoEdge) break;
    const Edge ed = g->edge(e);
    const NodeId end = rng.coin() ? ed.u : ed.v;
    const auto epoch = static_cast<std::uint32_t>(rng.below(4));
    switch (rng.below(12)) {
      case 0:
      case 1:
      case 2:
        forest.mark_half(e, end, epoch);
        break;
      case 3:
        forest.unmark_half(e, end);
        break;
      case 4:
      case 5:
        forest.mark_edge(e, epoch);
        break;
      case 6:
        forest.clear_edge(e);
        break;
      case 7:
        if (rng.below(8) == 0) forest.clear_all();
        break;
      case 8:
        // Removal with the forest told (clear_edge), or not told at all:
        // the stale row must then read as the filtered walk anyway.
        if (rng.coin()) forest.clear_edge(e);
        g->remove_edge(e);
        break;
      case 9:
        reorder_ahead(*g, forest, rng);
        break;
      case 10:
        if (be.mutable_topology) {
          const auto u = static_cast<NodeId>(rng.below(g->node_count()));
          const auto v = static_cast<NodeId>(rng.below(g->node_count()));
          if (u != v && !g->find_edge(u, v).has_value()) {
            g->add_edge(u, v, 1 + rng.below(1000));
            forest.sync_capacity();
          }
        } else {
          forest.sync_capacity();
        }
        break;
      case 11:
        if (be.mutable_topology || g->backend() == Graph::Backend::kCsr) {
          g->set_weight(e, 1 + rng.below(1000));
        }
        break;
    }
    expect_rows_match(forest, "step");
    if (HasFatalFailure()) {
      ADD_FAILURE() << "seed " << seed << " step " << step;
      return;
    }
    if (step % 50 == 0) {
      // Copies (kkt_bench's core probe copies a built forest) keep their
      // rows: a node whose row fits is still served from it, not from its
      // incidence list.
      const MarkedForest copy = forest;
      expect_rows_match(copy, "copy");
      for (NodeId v = 0; v < g->node_count(); ++v) {
        EXPECT_EQ(copy.tree_row(v).row.size(), forest.tree_row(v).row.size());
        EXPECT_EQ(copy.tree_row(v).list.size(),
                  forest.tree_row(v).list.size());
      }
    }
  }
  forest.sync_capacity();
  expect_rows_match(forest, "synced");
  // After a sync every row is current again: only overflowed nodes (more
  // than kTreeRowSlots marked halves) read their incidence list.
  for (NodeId v = 0; v < g->node_count(); ++v) {
    std::size_t own = 0;
    for (const Incidence& inc : g->incident(v)) {
      if (forest.half_marked(inc.edge, v)) ++own;
    }
    EXPECT_EQ(forest.tree_row(v).list.empty(), own <= kTreeRowSlots)
        << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndSeeds, ForestRows,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values(1u, 17u, 2024u)));

TEST(ForestRows, NeverMarkedForestHoldsNoRows) {
  auto g = make_adjacency(3);
  const MarkedForest forest(*g);
  for (NodeId v = 0; v < g->node_count(); ++v) {
    EXPECT_TRUE(forest.tree_row(v).row.empty());
    EXPECT_TRUE(forest.tree_row(v).list.empty());
  }
}

// A tree edge that moves ahead of another in v's incidence list must move
// ahead in v's row too -- with or without the forest being told.
TEST(ForestRows, RemovalReorderIsFollowed) {
  Graph g(std::vector<ExtId>{10, 20, 30, 40});
  const EdgeIdx e01 = g.add_edge(0, 1, 5);
  const EdgeIdx e02 = g.add_edge(0, 2, 6);
  const EdgeIdx e03 = g.add_edge(0, 3, 7);
  for (const bool told : {true, false}) {
    Graph h = g.clone();
    MarkedForest f(h);
    f.mark_edge(e02);
    f.mark_edge(e03);
    // incident(0) = [e01, e02, e03]; removing e01 swaps e03 into slot 0.
    if (told) f.clear_edge(e01);
    h.remove_edge(e01);
    const std::vector<Incidence> walk = row_walk(TreeView(f), 0);
    ASSERT_EQ(walk.size(), 2u);
    EXPECT_EQ(walk[0].edge, e03);
    EXPECT_EQ(walk[1].edge, e02);
    expect_rows_match(f, told ? "told" : "untold");
  }
}

// Build MST marks every tree edge from Add-Edge handlers; the rows they
// leave must equal the filtered walk.
TEST(ForestRows, BuildMstLeavesExactRows) {
  test::World w = test::make_gnm_world(96, 400, 11);
  EXPECT_TRUE(core::build_mst(*w.net, *w.forest).spanning);
  EXPECT_TRUE(same_edge_set(w.forest->marked_edges(), kruskal_msf(*w.g)));
  expect_rows_match(*w.forest, "build");
}

}  // namespace
}  // namespace kkt::graph
