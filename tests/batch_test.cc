// Batched deletion repair (the paper's "simultaneous edge changes" future
// work; see DynamicForest::delete_batch).
#include <gtest/gtest.h>

#include "core/build_st.h"
#include "core/repair.h"
#include "graph/mst_oracle.h"
#include "test_util.h"

namespace kkt::core {
namespace {

using graph::EdgeIdx;
using graph::NodeId;
using test::World;

World make_repair_world(std::size_t n, std::size_t m, std::uint64_t seed) {
  World w = test::make_gnm_world(n, m, seed, test::NetKind::kAsync);
  test::mark_msf(w);
  return w;
}

// Picks k distinct alive edges, preferring tree edges.
std::vector<EdgeIdx> pick_batch(const World& w, std::size_t k,
                                std::uint64_t seed, bool tree_only) {
  util::Rng rng(seed);
  std::vector<EdgeIdx> pool =
      tree_only ? w.forest->marked_edges() : w.g->alive_edge_indices();
  std::vector<EdgeIdx> out;
  while (out.size() < k && !pool.empty()) {
    const std::size_t i = rng.below(pool.size());
    out.push_back(pool[i]);
    pool[i] = pool.back();
    pool.pop_back();
  }
  return out;
}

class BatchSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(BatchSweep, MstBatchDeletionStaysExact) {
  const auto [k, seed] = GetParam();
  World w = make_repair_world(32, 160, seed);
  DynamicForest dyn(*w.g, *w.forest, *w.net, ForestKind::kMst);
  const auto batch = pick_batch(w, k, seed * 7, /*tree_only=*/true);
  const auto out = dyn.delete_batch(batch);
  EXPECT_EQ(out.tree_edges_removed, batch.size());
  EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                   graph::kruskal_msf(*w.g)));
  EXPECT_GE(out.replacements, 1u);
  EXPECT_GE(out.phases, 1u);
}

TEST_P(BatchSweep, StBatchDeletionStaysSpanning) {
  const auto [k, seed] = GetParam();
  World w = make_repair_world(32, 160, seed + 50);
  DynamicForest dyn(*w.g, *w.forest, *w.net, ForestKind::kSt);
  const auto batch = pick_batch(w, k, seed * 11, /*tree_only=*/true);
  dyn.delete_batch(batch);
  EXPECT_TRUE(w.forest->properly_marked());
  EXPECT_TRUE(w.forest->is_spanning_forest());
}

INSTANTIATE_TEST_SUITE_P(KSweep, BatchSweep,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(1u, 2u, 3u)));

TEST(Batch, MixedTreeAndNonTreeEdges) {
  World w = make_repair_world(24, 120, 9);
  DynamicForest dyn(*w.g, *w.forest, *w.net, ForestKind::kMst);
  const auto batch = pick_batch(w, 10, 9, /*tree_only=*/false);
  const auto out = dyn.delete_batch(batch);
  EXPECT_LE(out.tree_edges_removed, batch.size());
  EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                   graph::kruskal_msf(*w.g)));
}

TEST(Batch, NonTreeOnlyBatchIsFree) {
  World w = make_repair_world(20, 100, 10);
  DynamicForest dyn(*w.g, *w.forest, *w.net, ForestKind::kMst);
  std::vector<EdgeIdx> batch;
  for (EdgeIdx e : w.g->alive_edge_indices()) {
    if (!w.forest->is_marked(e)) batch.push_back(e);
    if (batch.size() == 6) break;
  }
  const auto out = dyn.delete_batch(batch);
  EXPECT_EQ(out.tree_edges_removed, 0u);
  EXPECT_EQ(out.messages, 0u);
  EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                   graph::kruskal_msf(*w.g)));
}

TEST(Batch, DisconnectingBatchLeavesCleanForest) {
  // Delete every edge incident to one node: it becomes isolated; the rest
  // must be repaired exactly.
  World w = make_repair_world(16, 40, 11);
  DynamicForest dyn(*w.g, *w.forest, *w.net, ForestKind::kMst);
  std::vector<EdgeIdx> batch;
  for (const auto& inc : w.g->incident(3)) batch.push_back(inc.edge);
  dyn.delete_batch(batch);
  EXPECT_EQ(w.g->degree(3), 0u);
  EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                   graph::kruskal_msf(*w.g)));
}

TEST(Batch, WholeTreeDeletion) {
  // Deleting every tree edge at once is a full rebuild restricted to the
  // surviving edges.
  World w = make_repair_world(20, 120, 12);
  DynamicForest dyn(*w.g, *w.forest, *w.net, ForestKind::kMst);
  const auto out = dyn.delete_batch(w.forest->marked_edges());
  EXPECT_EQ(out.tree_edges_removed, 19u);
  EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                   graph::kruskal_msf(*w.g)));
}

TEST(Batch, TimeIsSublinearInBatchSize) {
  // The point of batching: fragments repair in parallel phases, so elapsed
  // time grows much slower than k sequential repairs.
  const std::size_t k = 8;
  std::uint64_t batch_rounds = 0, seq_rounds = 0;
  {
    World w = make_repair_world(48, 380, 13);
    DynamicForest dyn(*w.g, *w.forest, *w.net, ForestKind::kMst);
    const auto batch = pick_batch(w, k, 13, true);
    batch_rounds = dyn.delete_batch(batch).rounds;
    EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                     graph::kruskal_msf(*w.g)));
  }
  {
    World w = make_repair_world(48, 380, 13);
    DynamicForest dyn(*w.g, *w.forest, *w.net, ForestKind::kMst);
    const auto batch = pick_batch(w, k, 13, true);
    for (EdgeIdx e : batch) seq_rounds += dyn.delete_edge(e).rounds;
  }
  EXPECT_LT(batch_rounds, seq_rounds);
}

// FindAny-C makes one isolation attempt, which can fail on a fragment that
// does have a leaving edge. Such a fragment is not maximal: it retries in
// the next phase, and dirty nodes left when the phase cap runs out are
// reported. A batch never returns a non-spanning forest silently.
TEST(Batch, ExhaustedSearchRetriesOrIsReported) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    World w = test::make_gnm_world(128, 1024, seed, test::NetKind::kAsync);
    ASSERT_TRUE(build_st(*w.net, *w.forest).spanning);
    DynamicForest dyn(*w.g, *w.forest, *w.net, ForestKind::kSt);
    dyn.find_any_config.capped = true;
    const auto out = dyn.delete_batch(pick_batch(w, 8, seed, true));
    EXPECT_TRUE(w.forest->is_spanning_forest() || out.unresolved > 0)
        << "seed " << seed;
  }
}

// A search that can never finish (one FindMin iteration over the full
// weight range) leaves its fragments active until the phase cap runs out,
// and the batch reports them instead of returning a forest that looks
// repaired.
TEST(Batch, UnfinishedRepairIsReported) {
  World w = make_repair_world(32, 160, 4);
  DynamicForest dyn(*w.g, *w.forest, *w.net, ForestKind::kMst);
  dyn.find_min_config.c = 0;  // budget: one iteration
  dyn.find_min_config.capped = true;
  const auto out = dyn.delete_batch(pick_batch(w, 4, 4, true));
  EXPECT_EQ(out.replacements, 0u);
  EXPECT_EQ(out.phases, 2 * 4 + 4u);
  EXPECT_GT(out.unresolved, 0u);
  EXPECT_FALSE(w.forest->is_spanning_forest());
}

// Exact model costs of batch repair at fixed seeds, for both forest kinds:
// delete_batch runs the Boruvka phase that Build MST and Build ST run, so a
// counter that moves here is a change to that phase and must say why.
TEST(Batch, CostsPinnedAtFixedSeeds) {
  struct Pin {
    ForestKind kind;
    std::size_t n, m, k;
    std::uint64_t seed;
    std::size_t phases, replacements;
    std::uint64_t messages, message_bits, rounds, broadcast_echoes;
  };
  const Pin pins[] = {
      {ForestKind::kMst, 48, 380, 8, 13, 3, 11, 4221, 1533520, 5313, 233},
      {ForestKind::kMst, 32, 160, 4, 2, 2, 5, 1364, 473088, 3383, 98},
      {ForestKind::kSt, 48, 380, 8, 13, 7, 21, 4057, 841360, 5317, 103},
      {ForestKind::kSt, 32, 160, 4, 2, 2, 5, 468, 91264, 1212, 24},
  };
  for (const Pin& p : pins) {
    World w = make_repair_world(p.n, p.m, p.seed);
    DynamicForest dyn(*w.g, *w.forest, *w.net, p.kind);
    const auto out = dyn.delete_batch(pick_batch(w, p.k, p.seed, true));
    const sim::Metrics& c = w.net->metrics();  // the batch is the only cost
    const auto kind = p.kind == ForestKind::kMst ? "mst" : "st";
    EXPECT_TRUE(w.forest->is_spanning_forest()) << kind;
    EXPECT_EQ(out.phases, p.phases) << kind;
    EXPECT_EQ(out.replacements, p.replacements) << kind;
    EXPECT_EQ(out.messages, c.messages) << kind;
    EXPECT_EQ(out.rounds, c.rounds) << kind;
    EXPECT_EQ(c.messages, p.messages) << kind;
    EXPECT_EQ(c.message_bits, p.message_bits) << kind;
    EXPECT_EQ(c.rounds, p.rounds) << kind;
    EXPECT_EQ(c.broadcast_echoes, p.broadcast_echoes) << kind;
  }
}

}  // namespace
}  // namespace kkt::core
