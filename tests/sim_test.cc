#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>

#include "graph/generators.h"
#include "sim/adversarial_network.h"
#include "sim/async_network.h"
#include "sim/sync_network.h"
#include "test_util.h"

namespace kkt::sim {
namespace {

using graph::NodeId;

// Ping-pong: node A sends `hops` messages back and forth with node B.
class PingPong final : public Protocol {
 public:
  PingPong(NodeId a, NodeId b, int hops) : a_(a), b_(b), hops_(hops) {}

  void on_start(Network& net, NodeId self) override {
    if (hops_ > 0) net.send(self, self == a_ ? b_ : a_, Message(Tag::kNone));
  }

  void on_message(Network& net, NodeId self, NodeId from,
                  const Message&) override {
    ++received_;
    if (received_ < hops_) net.send(self, from, Message(Tag::kNone));
  }

  int received() const { return received_; }

 private:
  NodeId a_, b_;
  int hops_;
  int received_ = 0;
};

std::unique_ptr<graph::Graph> path_graph(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  auto g = std::make_unique<graph::Graph>(n, rng);
  for (NodeId v = 0; v + 1 < n; ++v) g->add_edge(v, v + 1, 1);
  return g;
}

TEST(SyncNetwork, CountsMessagesAndRounds) {
  auto g = path_graph(2, 1);
  SyncNetwork net(*g, 7);
  PingPong proto(0, 1, 5);
  const NodeId participants[] = {0};
  const std::uint64_t rounds = net.run(proto, participants);
  EXPECT_EQ(proto.received(), 5);
  EXPECT_EQ(net.metrics().messages, 5u);
  EXPECT_EQ(rounds, 5u);  // one hop per round
  EXPECT_EQ(net.metrics().rounds, 5u);
}

TEST(SyncNetwork, MessageBitsAccounted) {
  auto g = path_graph(2, 2);
  SyncNetwork net(*g, 7);

  class OneShot final : public Protocol {
   public:
    void on_start(Network& net, NodeId self) override {
      net.send(self, 1, Message(Tag::kNone, {1, 2, 3}));
    }
    void on_message(Network&, NodeId, NodeId, const Message&) override {}
  } proto;

  const NodeId participants[] = {0};
  net.run(proto, participants);
  EXPECT_EQ(net.metrics().messages, 1u);
  EXPECT_EQ(net.metrics().message_bits, 16 + 3 * 64u);
}

TEST(SyncNetwork, SequentialRunsAccumulate) {
  auto g = path_graph(2, 3);
  SyncNetwork net(*g, 7);
  const NodeId participants[] = {0};
  for (int i = 0; i < 3; ++i) {
    PingPong proto(0, 1, 2);
    net.run(proto, participants);
  }
  EXPECT_EQ(net.metrics().messages, 6u);
  EXPECT_EQ(net.metrics().rounds, 6u);
}

TEST(AsyncNetwork, DeliversEverythingEventually) {
  auto g = path_graph(2, 4);
  AsyncNetwork net(*g, 99);
  PingPong proto(0, 1, 50);
  const NodeId participants[] = {0};
  net.run(proto, participants);
  EXPECT_EQ(proto.received(), 50);
  EXPECT_EQ(net.metrics().messages, 50u);
  EXPECT_GT(net.metrics().rounds, 0u);
}

TEST(AsyncNetwork, DeterministicGivenSeed) {
  auto g = path_graph(2, 5);
  std::uint64_t rounds[2];
  for (int i = 0; i < 2; ++i) {
    AsyncNetwork net(*g, 1234);
    PingPong proto(0, 1, 20);
    const NodeId participants[] = {0};
    rounds[i] = net.run(proto, participants);
  }
  EXPECT_EQ(rounds[0], rounds[1]);
}

TEST(AsyncNetwork, DifferentSeedsDifferentSchedules) {
  auto g = path_graph(2, 6);
  std::uint64_t totals[2];
  for (int i = 0; i < 2; ++i) {
    AsyncNetwork net(*g, 1000 + i);
    PingPong proto(0, 1, 40);
    const NodeId participants[] = {0};
    totals[i] = net.run(proto, participants);
  }
  EXPECT_NE(totals[0], totals[1]);
}

TEST(ParallelPhase, RoundsAreMaxOverBranches) {
  auto g = path_graph(3, 7);
  SyncNetwork net(*g, 7);
  ParallelPhase phase(net);

  const NodeId participants0[] = {0};
  phase.begin_branch();
  {
    PingPong proto(0, 1, 3);
    net.run(proto, participants0);
  }
  phase.end_branch();

  phase.begin_branch();
  {
    PingPong proto(1, 2, 7);
    const NodeId participants1[] = {1};
    net.run(proto, participants1);
  }
  phase.end_branch();
  phase.finish();

  EXPECT_EQ(net.metrics().messages, 10u);       // messages sum
  EXPECT_EQ(net.metrics().rounds, 7u);          // time is the max branch
  EXPECT_EQ(phase.max_branch_rounds(), 7u);
}

TEST(Network, NodeRngsAreIndependentStreams) {
  auto g = path_graph(3, 8);
  SyncNetwork net(*g, 42);
  const std::uint64_t a = net.node_rng(0).next();
  const std::uint64_t b = net.node_rng(1).next();
  EXPECT_NE(a, b);
  // Same seed reproduces the same streams.
  SyncNetwork net2(*g, 42);
  EXPECT_EQ(net2.node_rng(0).next(), a);
  EXPECT_EQ(net2.node_rng(1).next(), b);
}

TEST(AdversarialNetwork, DeliversEverythingEventually) {
  auto g = path_graph(2, 14);
  AdversarialNetwork net(*g, 99);
  PingPong proto(0, 1, 50);
  const NodeId participants[] = {0};
  net.run(proto, participants);
  EXPECT_EQ(proto.received(), 50);
  EXPECT_EQ(net.metrics().messages, 50u);
  EXPECT_GT(net.metrics().rounds, 0u);
}

TEST(AdversarialNetwork, DeterministicGivenSeed) {
  auto g = path_graph(2, 15);
  std::uint64_t rounds[2];
  for (int i = 0; i < 2; ++i) {
    AdversarialNetwork net(*g, 4321);
    PingPong proto(0, 1, 20);
    const NodeId participants[] = {0};
    rounds[i] = net.run(proto, participants);
  }
  EXPECT_EQ(rounds[0], rounds[1]);
}

TEST(AdversarialNetwork, PerEdgeDelayBoundsAreHonored) {
  // Pin the single edge to an exact delay: one hop must take exactly that
  // long once jitter is disabled.
  auto g = path_graph(2, 16);
  AdversarialNetwork::Config cfg;
  cfg.reorder_window = 0;
  AdversarialNetwork net(*g, 5, cfg);
  net.adversary().set_edge_bounds(0, 1, 9, 9);
  PingPong proto(0, 1, 4);
  const NodeId participants[] = {0};
  const std::uint64_t elapsed = net.run(proto, participants);
  EXPECT_EQ(elapsed, 4 * 9u);
}

TEST(AdversarialNetwork, EdgeBoundsAreInsertionOrderIndependent) {
  // Unordered-container audit pin: per-edge bounds now live in a sorted
  // flat map keyed by the edge id, so the schedule depends only on which
  // bounds are set -- never on the order the caller installed them in.
  auto g = path_graph(3, 16);
  std::uint64_t elapsed[2];
  for (int i = 0; i < 2; ++i) {
    AdversarialNetwork::Config cfg;
    cfg.reorder_window = 0;
    AdversarialNetwork net(*g, 5, cfg);
    if (i == 0) {
      net.adversary().set_edge_bounds(0, 1, 3, 3);
      net.adversary().set_edge_bounds(1, 2, 7, 7);
    } else {
      net.adversary().set_edge_bounds(1, 2, 7, 7);
      net.adversary().set_edge_bounds(0, 1, 3, 3);
    }
    PingPong proto(1, 2, 4);
    const NodeId participants[] = {1};
    elapsed[i] = net.run(proto, participants);
  }
  EXPECT_EQ(elapsed[0], elapsed[1]);
  EXPECT_EQ(elapsed[0], 4 * 7u);
}

TEST(AdversarialNetwork, SeededDuplicatesAreCountedSeparately) {
  // A sink that tolerates duplicate delivery (most protocols do not, which
  // is exactly what this fault-injection knob is for).
  class Sink final : public Protocol {
   public:
    void on_start(Network& net, NodeId self) override {
      for (int i = 0; i < 100; ++i) net.send(self, 1, Message(Tag::kNone));
    }
    void on_message(Network&, NodeId, NodeId, const Message&) override {
      ++deliveries;
    }
    int deliveries = 0;
  };

  auto g = path_graph(2, 17);
  AdversarialNetwork::Config cfg;
  cfg.duplicate_num = 1;
  cfg.duplicate_den = 1;  // duplicate every message
  AdversarialNetwork net(*g, 6, cfg);
  Sink proto;
  const NodeId participants[] = {0};
  net.run(proto, participants);
  EXPECT_EQ(net.metrics().messages, 100u);  // protocol cost is what was sent
  EXPECT_EQ(net.metrics().duplicate_deliveries, 100u);
  EXPECT_EQ(proto.deliveries, 200);
}

TEST(Tag, NameRoundTripCoversEveryEnumerator) {
  std::set<std::string> seen;
  for (std::uint16_t i = 0; i < static_cast<std::uint16_t>(Tag::kTagCount);
       ++i) {
    const Tag t = static_cast<Tag>(i);
    const std::string name = tag_name(t);
    EXPECT_NE(name, "?") << "tag " << i << " has no name";
    EXPECT_TRUE(seen.insert(name).second)
        << "duplicate tag name '" << name << "'";
    const auto back = tag_from_name(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, t) << name;
  }
  EXPECT_FALSE(tag_from_name("?").has_value());
  EXPECT_FALSE(tag_from_name("no-such-tag").has_value());
}

TEST(Metrics, PerTagBitsAccounted) {
  auto g = path_graph(2, 18);
  SyncNetwork net(*g, 7);

  class TwoTags final : public Protocol {
   public:
    void on_start(Network& net, NodeId self) override {
      net.send(self, 1, Message(Tag::kBroadcast, {1, 2}));
      net.send(self, 1, Message(Tag::kEcho, {3}));
      net.send(self, 1, Message(Tag::kEcho));
    }
    void on_message(Network&, NodeId, NodeId, const Message&) override {}
  } proto;

  const NodeId participants[] = {0};
  net.run(proto, participants);
  const Metrics& m = net.metrics();
  EXPECT_EQ(m.tag_count(Tag::kBroadcast), 1u);
  EXPECT_EQ(m.tag_bits(Tag::kBroadcast), 16 + 2 * 64u);
  EXPECT_EQ(m.tag_count(Tag::kEcho), 2u);
  EXPECT_EQ(m.tag_bits(Tag::kEcho), (16 + 64u) + 16u);
  EXPECT_EQ(m.message_bits,
            m.tag_bits(Tag::kBroadcast) + m.tag_bits(Tag::kEcho));
}

TEST(InlineWords, VectorSubsetBehaviour) {
  InlineWords<8> w;
  EXPECT_TRUE(w.empty());
  w.push_back(5);
  w.push_back(7);
  EXPECT_EQ(w.size(), 2u);
  EXPECT_EQ(w.at(0), 5u);
  EXPECT_EQ(w[1], 7u);
  w[1] = 9;
  EXPECT_EQ(w.back(), 9u);

  const InlineWords<8> filled(3, 42);
  EXPECT_EQ(filled.size(), 3u);
  std::uint64_t sum = 0;
  for (std::uint64_t v : filled) sum += v;
  EXPECT_EQ(sum, 3 * 42u);

  InlineWords<8> copy = filled;
  EXPECT_TRUE(copy == filled);
  copy.push_back(1);
  EXPECT_FALSE(copy == filled);

  w.assign(filled.span());
  EXPECT_TRUE(w == filled);

  const std::span<const std::uint64_t> view = filled;
  EXPECT_EQ(view.size(), 3u);
  EXPECT_EQ(view[2], 42u);
}

TEST(InlineWords, ReleaseOverflowIsRememberedNotStored) {
#ifdef NDEBUG
  InlineWords<2> w{1, 2};
  w.push_back(3);  // over budget: dropped, flagged
  EXPECT_EQ(w.size(), 2u);
  EXPECT_TRUE(w.overflowed());
  w.clear();
  EXPECT_FALSE(w.overflowed());
#else
  GTEST_SKIP() << "overflow asserts in debug builds";
#endif
}

TEST(ParallelPhase, BranchScopeRecordsMaxOverBranches) {
  auto g = path_graph(3, 19);
  SyncNetwork net(*g, 7);
  ParallelPhase phase(net);
  {
    const auto branch = phase.branch();
    PingPong proto(0, 1, 2);
    const NodeId participants[] = {0};
    net.run(proto, participants);
  }
  {
    const auto branch = phase.branch();
    PingPong proto(1, 2, 6);
    const NodeId participants[] = {1};
    net.run(proto, participants);
  }
  phase.finish();
  EXPECT_EQ(net.metrics().messages, 8u);
  EXPECT_EQ(net.metrics().rounds, 6u);
  EXPECT_EQ(phase.max_branch_rounds(), 6u);
}

TEST(Metrics, PlusEquals) {
  Metrics a;
  a.messages = 10;
  a.rounds = 5;
  a.peak_node_state_bits = 100;
  a.per_tag_bits[1] = 64;
  a.duplicate_deliveries = 2;
  a.dropped_deliveries = 4;
  Metrics b;
  b.messages = 3;
  b.rounds = 2;
  b.peak_node_state_bits = 50;
  b.per_tag_bits[1] = 16;
  b.duplicate_deliveries = 1;
  b.dropped_deliveries = 2;
  a += b;
  EXPECT_EQ(a.messages, 13u);
  EXPECT_EQ(a.rounds, 7u);
  EXPECT_EQ(a.peak_node_state_bits, 100u);  // high-water mark, not a sum
  EXPECT_EQ(a.per_tag_bits[1], 80u);
  EXPECT_EQ(a.duplicate_deliveries, 3u);
  EXPECT_EQ(a.dropped_deliveries, 6u);
  a.reset();
  EXPECT_EQ(a.messages, 0u);
  EXPECT_EQ(a.dropped_deliveries, 0u);
}

// A rally of `balls` messages bouncing between the two ends of one edge:
// every delivery sends exactly one message back, so exactly `balls`
// envelopes are pending at every instant and the rally never ends on its
// own -- only the max_rounds backstop stops it.
class Rally final : public Protocol {
 public:
  explicit Rally(int balls) : balls_(balls) {}

  void on_start(Network& net, NodeId self) override {
    for (int i = 0; i < balls_; ++i) net.send(self, 1, Message(Tag::kNone));
  }

  void on_message(Network& net, NodeId self, NodeId from,
                  const Message&) override {
    ++delivered_;
    net.send(self, from, Message(Tag::kNone));
  }

  std::uint64_t delivered() const { return delivered_; }

 private:
  int balls_;
  std::uint64_t delivered_ = 0;
};

struct BackstopCase {
  const char* name;
  std::function<std::unique_ptr<Network>(const graph::Graph&)> make;
  int balls;
  std::uint64_t max_rounds;
};

// Names the case in test listings (the default would print raw bytes).
void PrintTo(const BackstopCase& c, std::ostream* os) { *os << c.name; }

class MaxRoundsBackstop : public ::testing::TestWithParam<BackstopCase> {};

// The max_rounds backstop discards whatever is still in flight. Those
// discards must surface in dropped_deliveries -- not vanish silently --
// under every policy: the count is exactly the number of envelopes pending
// when the backstop trips, and the operation reports max_rounds elapsed.
TEST_P(MaxRoundsBackstop, CountsEveryPendingEnvelopeAsDropped) {
  const BackstopCase& c = GetParam();
  auto g = path_graph(2, 20);
  const std::unique_ptr<Network> net = c.make(*g);
  Rally proto(c.balls);
  const NodeId participants[] = {0};
  const std::uint64_t rounds = net->run(proto, participants, c.max_rounds);
  EXPECT_EQ(rounds, c.max_rounds);
  EXPECT_EQ(net->metrics().rounds, c.max_rounds);
  EXPECT_GT(proto.delivered(), 0u);
  EXPECT_EQ(net->metrics().dropped_deliveries,
            static_cast<std::uint64_t>(c.balls));
  EXPECT_EQ(net->metrics().messages,
            proto.delivered() + net->metrics().dropped_deliveries);

  // The transport is clean afterwards: the next operation starts at t = 0.
  PingPong again(0, 1, 3);
  net->run(again, participants);
  EXPECT_EQ(again.received(), 3);
  EXPECT_EQ(net->metrics().dropped_deliveries,
            static_cast<std::uint64_t>(c.balls));
}

AdversarialConfig fixed_delay(std::uint64_t d) {
  AdversarialConfig cfg;
  cfg.min_delay = d;
  cfg.max_delay = d;
  cfg.reorder_window = 0;
  return cfg;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, MaxRoundsBackstop,
    ::testing::Values(
        BackstopCase{"sync",
                     [](const graph::Graph& g) -> std::unique_ptr<Network> {
                       return std::make_unique<SyncNetwork>(g, 7);
                     },
                     2, 10},
        BackstopCase{"async",
                     [](const graph::Graph& g) -> std::unique_ptr<Network> {
                       return std::make_unique<AsyncNetwork>(g, 7);
                     },
                     4, 50},
        BackstopCase{"adversarial",
                     [](const graph::Graph& g) -> std::unique_ptr<Network> {
                       return std::make_unique<AdversarialNetwork>(g, 7);
                     },
                     3, 40},
        // Deliveries land at t = 5 and 10; the next one is due at 15, past
        // the bound of 12, so the scan crosses the empty slots 11..14
        // before the backstop trips -- and still reports 12 rounds.
        BackstopCase{"adversarial_empty_slots",
                     [](const graph::Graph& g) -> std::unique_ptr<Network> {
                       return std::make_unique<AdversarialNetwork>(
                           g, 7, fixed_delay(5));
                     },
                     1, 12}),
    [](const auto& info) { return std::string(info.param.name); });

// Every policy states a bound on the delays it draws; the wheel is sized
// from it, so a draw beyond it would be delivered early.
TEST(DeliveryPolicy, MaxDelayBoundsEveryDraw) {
  FifoSyncPolicy sync;
  RandomDelayPolicy random(3, 16);
  AdversarialConfig cfg;
  cfg.max_delay = 6;
  cfg.reorder_window = 3;
  AdversarialPolicy adversarial(3, cfg);
  adversarial.set_edge_bounds(0, 1, 2, 11);
  EXPECT_EQ(sync.max_delay(), 1u);
  EXPECT_EQ(random.max_delay(), 16u);
  EXPECT_EQ(adversarial.max_delay(), 11u + 3u);
  std::uint64_t seen[3] = {0, 0, 0};
  for (std::uint64_t now = 0; now < 2000; ++now) {
    seen[0] = std::max(seen[0], sync.delivery_time(0, 1, now) - now);
    seen[1] = std::max(seen[1], random.delivery_time(0, 1, now) - now);
    seen[2] = std::max(seen[2], adversarial.delivery_time(0, 1, now) - now);
  }
  EXPECT_EQ(seen[0], sync.max_delay());
  EXPECT_EQ(seen[1], random.max_delay());
  EXPECT_EQ(seen[2], adversarial.max_delay());
}

// Raising an edge's delay bounds from inside a handler outgrows the wheel
// sized at run start. The next send along that edge must fail the run --
// in Release builds too -- instead of aliasing into an earlier slot and
// arriving early; the network stays usable afterwards.
TEST(AdversarialNetwork, MidRunBoundRaiseFailsTheRunVisibly) {
  class Raiser final : public Protocol {
   public:
    void on_start(Network& net, NodeId self) override {
      net.send(self, 1, Message(Tag::kNone));
    }
    void on_message(Network& net, NodeId self, NodeId from,
                    const Message&) override {
      static_cast<AdversarialPolicy&>(net.policy())
          .set_edge_bounds(self, from, 40, 40);
      net.send(self, from, Message(Tag::kNone));
    }
  } raiser;

  auto g = path_graph(2, 23);
  AdversarialNetwork net(*g, 7, fixed_delay(1));
  const NodeId participants[] = {0};
  EXPECT_THROW(net.run(raiser, participants), std::logic_error);

  // The next run sizes the wheel for the raised bound.
  PingPong proto(0, 1, 2);
  EXPECT_EQ(net.run(proto, participants), 80u);
  EXPECT_EQ(proto.received(), 2);
}

// Bounds raised between runs grow the wheel at the next run() and the
// message arrives at exactly the configured time.
TEST(AdversarialNetwork, BoundsRaisedBetweenRunsGrowTheWheel) {
  auto g = path_graph(2, 24);
  AdversarialNetwork net(*g, 7, fixed_delay(1));
  const NodeId participants[] = {0};
  PingPong warm(0, 1, 3);
  EXPECT_EQ(net.run(warm, participants), 3u);
  net.adversary().set_edge_bounds(0, 1, 40, 40);
  EXPECT_EQ(net.policy().max_delay(), 40u);
  PingPong one(0, 1, 1);
  EXPECT_EQ(net.run(one, participants), 40u);
  EXPECT_EQ(one.received(), 1);
  PingPong three(0, 1, 3);
  EXPECT_EQ(net.run(three, participants), 120u);
  EXPECT_EQ(net.metrics().dropped_deliveries, 0u);
}

}  // namespace
}  // namespace kkt::sim
