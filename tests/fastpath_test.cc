// The timing wheel against an independent order reference.
//
// sim::Network delivers through one timing wheel (sim/network.h) that must
// reproduce the (timestamp, send sequence) order exactly, for every policy.
// These pins check it against a reference that shares no code with it: a
// test-only DeliveryPolicy decorator records every timestamp the wrapped
// policy hands out, in send order, and std::stable_sort of those records by
// timestamp predicts the delivery sequence of each operation.
//
//  * A gossip protocol written here records its own on_message sequence,
//    which must equal the prediction exactly.
//  * Whole algorithms (Build MST, Build ST, GHS, repair) run protocols this
//    file cannot instrument, and Network has no delivery hook. Their
//    deliveries are observed through the sends they cause: a handler for a
//    delivery to v at time t sends from v at time t, so the sequence of
//    (send time, sender) pairs must walk the predicted deliveries in order.
//    The decorated run's counters must also equal an undecorated run's bit
//    for bit (the decorator only watches).
//
// The policies are FifoSync, RandomDelay, and Adversarial with per-edge
// bounds and reordering jitter -- plus seeded duplicates in the gossip case;
// the algorithms assume at-most-once delivery.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "baseline/ghs.h"
#include "core/build_mst.h"
#include "core/build_st.h"
#include "core/repair.h"
#include "graph/mst_oracle.h"
#include "test_util.h"

namespace kkt::sim {
namespace {

using test::NetKind;
using test::World;

// One delivery_time call: the envelope {from, to} sent at `now`, due `at`.
struct Sched {
  std::uint64_t at;
  std::uint64_t now;
  NodeId from;
  NodeId to;
};

// Test-only decorator: forwards every call to the wrapped policy and
// records each timestamp it hands out, one list per operation.
class RecordingPolicy final : public DeliveryPolicy {
 public:
  explicit RecordingPolicy(std::unique_ptr<DeliveryPolicy> inner)
      : inner_(std::move(inner)) {}

  void begin_op() override {
    inner_->begin_op();
    ops_.emplace_back();
  }
  std::uint64_t delivery_time(NodeId from, NodeId to,
                              std::uint64_t now) override {
    const std::uint64_t at = inner_->delivery_time(from, to, now);
    ops_.back().push_back(Sched{at, now, from, to});
    return at;
  }
  unsigned duplicates(NodeId from, NodeId to) override {
    return inner_->duplicates(from, to);
  }
  std::uint64_t max_delay() const noexcept override {
    return inner_->max_delay();
  }
  bool lossy() const noexcept override { return inner_->lossy(); }
  bool drop(NodeId from, NodeId to, std::uint64_t now) override {
    return inner_->drop(from, to, now);
  }

  const std::vector<std::vector<Sched>>& ops() const { return ops_; }

 private:
  std::unique_ptr<DeliveryPolicy> inner_;
  std::vector<std::vector<Sched>> ops_;
};

// The reference queue: indices into `op` in predicted delivery order --
// timestamp order, ties in send order.
std::vector<std::size_t> predicted_order(const std::vector<Sched>& op) {
  std::vector<std::size_t> order(op.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&op](std::size_t a, std::size_t b) {
                     return op[a].at < op[b].at;
                   });
  return order;
}

// Checks one operation's sends against its predicted delivery sequence.
// Bootstrap sends (on_start, t = 0) come first; every later send must come
// from the handler of a predicted delivery -- same time, same node -- that
// is not earlier than the one the previous send came from, and that was
// itself scheduled before this send was made.
void expect_sends_follow_prediction(const std::vector<Sched>& op,
                                    std::size_t op_index) {
  const std::vector<std::size_t> order = predicted_order(op);
  std::size_t k = 0;  // predicted delivery whose handler may be running
  bool delivering = false;
  for (std::size_t i = 0; i < op.size(); ++i) {
    const Sched& s = op[i];
    if (s.now == 0) {
      ASSERT_FALSE(delivering)
          << "op " << op_index << ": bootstrap send after a delivery";
      continue;
    }
    delivering = true;
    while (k < order.size() &&
           !(op[order[k]].at == s.now && op[order[k]].to == s.from &&
             order[k] < i)) {
      ++k;
    }
    ASSERT_LT(k, order.size())
        << "op " << op_index << ": send " << i << " from node " << s.from
        << " at t=" << s.now << " matches no remaining predicted delivery";
  }
}

struct Worlds {
  World plain;                       // undecorated policy
  World recorded;                    // same policy behind the recorder
  const RecordingPolicy* recorder;   // owned by recorded.net
};

// Two identical worlds whose networks run the same policy (same seed),
// one of them behind the recorder. kAdversarial adds per-edge bounds,
// reordering jitter and, when `duplicates`, seeded duplicate delivery.
Worlds make_worlds(std::size_t n, std::size_t m, std::uint64_t seed,
                   NetKind kind, bool duplicates) {
  const std::uint64_t net_seed = seed ^ test::kTestNetSeedSalt;
  Worlds w{test::make_gnm_world(n, m, seed, kind),
           test::make_gnm_world(n, m, seed, kind), nullptr};
  const graph::Graph& g = *w.plain.g;
  const auto make_policy = [&]() -> std::unique_ptr<DeliveryPolicy> {
    switch (kind) {
      case NetKind::kSync:
        return std::make_unique<FifoSyncPolicy>();
      case NetKind::kAsync:
        return std::make_unique<RandomDelayPolicy>(
            net_seed, AsyncNetwork::Config{}.max_delay);
      case NetKind::kAdversarial:
        break;
    }
    AdversarialConfig cfg;
    cfg.reorder_window = 3;
    if (duplicates) {
      cfg.duplicate_num = 1;
      cfg.duplicate_den = 8;
    }
    auto adv = std::make_unique<AdversarialPolicy>(net_seed, cfg);
    const auto alive = g.alive_edge_indices();
    for (std::size_t i = 0; i < alive.size(); i += 5) {
      const graph::Edge& e = g.edge(alive[i]);
      adv->set_edge_bounds(e.u, e.v, 2 + i % 7, 12 + i % 11);
    }
    return adv;
  };
  w.plain.net = std::make_unique<Network>(g, net_seed, make_policy());
  auto recorder = std::make_unique<RecordingPolicy>(make_policy());
  w.recorder = recorder.get();
  w.recorded.net =
      std::make_unique<Network>(*w.recorded.g, net_seed, std::move(recorder));
  return w;
}

// Runs `body` on both worlds; the counters must agree and every operation
// of the recorded run must follow its predicted delivery order (reported
// for the first operation that does not).
template <typename Body>
Metrics expect_wheel_matches_reference(Worlds& w, Body&& body) {
  body(w.plain);
  body(w.recorded);
  EXPECT_EQ(w.plain.net->metrics(), w.recorded.net->metrics());
  EXPECT_FALSE(w.recorder->ops().empty());
  for (std::size_t i = 0; i < w.recorder->ops().size(); ++i) {
    expect_sends_follow_prediction(w.recorder->ops()[i], i);
    if (::testing::Test::HasFatalFailure()) break;
  }
  return w.recorded.net->metrics();
}

class FastPathSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, NetKind>> {};

TEST_P(FastPathSweep, BuildMstCountersBitIdentical) {
  const auto [seed, kind] = GetParam();
  Worlds w = make_worlds(64, 256, seed, kind, /*duplicates=*/false);
  const Metrics m = expect_wheel_matches_reference(w, [](World& x) {
    EXPECT_TRUE(core::build_mst(*x.net, *x.forest).spanning);
    EXPECT_TRUE(graph::same_edge_set(x.forest->marked_edges(),
                                     graph::kruskal_msf(*x.g)));
  });
  EXPECT_GT(m.messages, 0u);
}

TEST_P(FastPathSweep, BuildStCountersBitIdentical) {
  const auto [seed, kind] = GetParam();
  Worlds w = make_worlds(48, 160, seed, kind, /*duplicates=*/false);
  expect_wheel_matches_reference(w, [](World& x) {
    EXPECT_TRUE(core::build_st(*x.net, *x.forest).spanning);
  });
}

TEST_P(FastPathSweep, GhsCountersBitIdentical) {
  const auto [seed, kind] = GetParam();
  Worlds w = make_worlds(48, 160, seed, kind, /*duplicates=*/false);
  expect_wheel_matches_reference(w, [](World& x) {
    EXPECT_TRUE(baseline::ghs_build_mst(*x.net, *x.forest).spanning);
  });
}

// Gossip with a hop budget: every delivery forwards to all other
// neighbours, so many envelopes share timestamps and duplicates are
// harmless. Records its own on_message sequence.
class Gossip final : public Protocol {
 public:
  explicit Gossip(std::uint64_t hops) : hops_(hops) {}

  void on_start(Network& net, NodeId self) override {
    forward(net, self, graph::kNoNode, hops_);
  }
  void on_message(Network& net, NodeId self, NodeId from,
                  const Message& msg) override {
    seen_.emplace_back(from, self);
    const std::uint64_t left = msg.words.at(0);
    if (left > 0) forward(net, self, from, left - 1);
  }

  const std::vector<std::pair<NodeId, NodeId>>& seen() const { return seen_; }

 private:
  static void forward(Network& net, NodeId self, NodeId skip,
                      std::uint64_t left) {
    for (const graph::Incidence& inc : net.graph().incident(self)) {
      if (inc.peer != skip) {
        net.send(self, inc.peer, Message(Tag::kNone, {left}));
      }
    }
  }

  std::uint64_t hops_;
  std::vector<std::pair<NodeId, NodeId>> seen_;
};

TEST_P(FastPathSweep, GossipOnMessageSequenceMatchesReference) {
  const auto [seed, kind] = GetParam();
  Worlds w = make_worlds(16, 32, seed, kind, /*duplicates=*/true);
  Gossip gossip(3);
  const NodeId participants[] = {0, 5};
  w.recorded.net->run(gossip, participants);
  ASSERT_EQ(w.recorder->ops().size(), 1u);
  const std::vector<Sched>& op = w.recorder->ops()[0];
  std::vector<std::pair<NodeId, NodeId>> expected;
  for (const std::size_t i : predicted_order(op)) {
    expected.emplace_back(op[i].from, op[i].to);
  }
  EXPECT_GT(expected.size(), 32u);
  EXPECT_EQ(gossip.seen(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FastPathSweep,
    ::testing::Combine(::testing::Values(1u, 7u, 1234u),
                       ::testing::Values(NetKind::kSync, NetKind::kAsync,
                                         NetKind::kAdversarial)));

TEST(FastPath, RepairCountersBitIdentical) {
  for (const std::uint64_t seed : {1u, 7u, 1234u}) {
    for (const NetKind kind :
         {NetKind::kSync, NetKind::kAsync, NetKind::kAdversarial}) {
      Worlds w = make_worlds(40, 160, seed, kind, /*duplicates=*/false);
      expect_wheel_matches_reference(w, [seed](World& x) {
        test::mark_msf(x);
        core::DynamicForest dyn(*x.g, *x.forest, *x.net,
                                core::ForestKind::kMst);
        util::Rng pick(seed * 31);
        for (int i = 0; i < 8; ++i) {
          const auto alive = x.g->alive_edge_indices();
          dyn.delete_edge(alive[pick.below(alive.size())]);
        }
        EXPECT_TRUE(graph::same_edge_set(x.forest->marked_edges(),
                                         graph::kruskal_msf(*x.g)));
      });
    }
  }
}

}  // namespace
}  // namespace kkt::sim
