#include "proto/tree_ops.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace kkt::proto {

Words TreeOps::broadcast_echo(NodeId root, Words payload, LocalRef local,
                              CombineRef combine) {
  BroadcastEcho proto(tree_, root, std::move(payload), local, combine,
                      &scratch_->echo);
  const NodeId participants[] = {root};
  net_->run(proto, participants);
  assert(proto.done() && "broadcast-and-echo did not converge");
  net_->metrics().broadcast_echoes += 1;
  return proto.result();
}

void TreeOps::broadcast(NodeId root, Words payload,
                        const Broadcast::ReceiveFn& on_receive) {
  Broadcast proto(tree_, root, std::move(payload), on_receive,
                  &scratch_->seen);
  const NodeId participants[] = {root};
  net_->run(proto, participants);
}

bool TreeOps::add_edge(graph::MarkedForest& forest, NodeId root,
                       graph::EdgeNum edge_num, std::uint32_t epoch) {
  AddEdgeHandshake proto(forest, tree_, root, edge_num, epoch,
                         &scratch_->seen);
  const NodeId participants[] = {root};
  net_->run(proto, participants);
  return proto.completed();
}

ElectionResult TreeOps::elect(std::span<const NodeId> fragment) {
  LeaderElection proto(tree_, &scratch_->elect);
  net_->run(proto, fragment);
  ElectionResult res;
  res.leader = proto.leader();
  if (res.leader == graph::kNoNode) {
    res.cycle = proto.stalled_cycle(fragment);
  }
  return res;
}

namespace {

void xor_words(NodeId, NodeId, graph::EdgeIdx, Words& acc,
               std::span<const std::uint64_t> child) {
  assert(acc.size() == child.size());
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] ^= child[i];
}

void sum_words(NodeId, NodeId, graph::EdgeIdx, Words& acc,
               std::span<const std::uint64_t> child) {
  assert(acc.size() == child.size());
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += child[i];
}

void max_words(NodeId, NodeId, graph::EdgeIdx, Words& acc,
               std::span<const std::uint64_t> child) {
  assert(acc.size() == child.size());
  for (std::size_t i = 0; i < acc.size(); ++i) {
    acc[i] = std::max(acc[i], child[i]);
  }
}

}  // namespace

CombineRef combine_xor() { return xor_words; }
CombineRef combine_sum() { return sum_words; }
CombineRef combine_max() { return max_words; }

}  // namespace kkt::proto
