#include "sim/network.h"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace kkt::sim {

Network::Network(const graph::Graph& g, std::uint64_t seed,
                 std::unique_ptr<DeliveryPolicy> policy)
    : graph_(&g), policy_(std::move(policy)) {
  assert(policy_ != nullptr);
  util::Rng master(seed);
  node_rngs_.reserve(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    node_rngs_.push_back(master.fork(v));
  }
}

// --- timing wheel -----------------------------------------------------------

void Network::clear_wheel() {
  for (std::vector<Envelope>& slot : wheel_) slot.clear();
  pending_ = 0;
  now_ = 0;
}

namespace {

[[noreturn]] void throw_delay_out_of_range() {
  throw std::logic_error(
      "DeliveryPolicy::delivery_time outside [now + 1, now + max_delay()]");
}

}  // namespace

// Inline: every send runs it; the failure path stays out of line.
inline void Network::schedule(const Envelope& env) {
  const std::uint64_t at = policy_->delivery_time(env.from, env.to, now_);
  // Unsigned: at <= now_ wraps to a delay far beyond the wheel. Beyond
  // mask_ the envelope would alias into the slot of an earlier timestamp
  // and be delivered early -- a plausible but wrong schedule -- so the run
  // fails instead (Release builds too).
  const std::uint64_t delay = at - now_;
  if (delay == 0 || delay > mask_) throw_delay_out_of_range();
  wheel_[at & mask_].push_back(env);
  ++pending_;
}

void Network::send(NodeId from, NodeId to, const Message& msg) {
  assert(active_ != nullptr && "send outside of Network::run");
  assert(from < graph_->node_count() && to < graph_->node_count());
  assert(graph_->find_edge(from, to).has_value() &&
         "message sent along a non-existent edge");
  metrics_.messages += 1;
  metrics_.message_bits += msg.bits();
  const auto tag_idx = static_cast<std::size_t>(msg.tag);
  metrics_.per_tag[tag_idx] += 1;
  metrics_.per_tag_bits[tag_idx] += msg.bits();
  if (msg.words.overflowed()) {
    ++metrics_.oversized_messages;
    assert(false && "CONGEST message budget exceeded");
  }
  // Transport faults, checked in severity order: a down link swallows the
  // send for every protocol (and spends no loss draw -- the link state is
  // deterministic on its own); otherwise a lossy policy may drop it, which
  // also forfeits the send's duplicates. The send was still counted above:
  // the protocol paid for it, the network just never delivers it.
  if (links_.is_down(from, to) ||
      (loss_active_ && policy_->drop(from, to, now_))) {
    ++metrics_.dropped_deliveries;
    return;
  }
  const Envelope env{from, to, msg};
  schedule(env);
  // Adversarial duplicates: the same bits arrive again at an independently
  // drawn time. They are transport faults, not protocol cost, so they are
  // accounted separately from `messages`.
  for (unsigned d = policy_->duplicates(from, to); d > 0; --d) {
    ++metrics_.duplicate_deliveries;
    schedule(env);
  }
}

std::uint64_t Network::drain(Protocol& proto, std::uint64_t max_rounds) {
  // The clock starts every operation at 0; pending timestamps lie in
  // (now_, now_ + mask_], so the scan below meets each non-empty slot
  // exactly at its own timestamp.
  for (std::uint64_t t = 1; pending_ > 0; ++t) {
    std::vector<Envelope>& slot = wheel_[t & mask_];
    if (slot.empty()) continue;
    if (t > max_rounds) {
      // Backstop hit: the earliest pending delivery is past the bound.
      // Everything still in the wheel is undelivered -- count the discards
      // as transport drops (tests/sim_test.cc pins the count) and leave a
      // clean transport for the next operation.
      metrics_.dropped_deliveries += pending_;
      clear_wheel();
      return max_rounds;
    }
    now_ = t;
    pending_ -= slot.size();
    // Handlers schedule into (t, t + mask_], never into this slot, so
    // iterating it is stable; clear() keeps its capacity.
    for (const Envelope& env : slot) {
      proto.on_message(*this, env.to, env.from, env.msg);
    }
    slot.clear();
  }
  const std::uint64_t elapsed = now_;
  now_ = 0;  // virtual clock is per-operation
  return elapsed;
}

std::uint64_t Network::run(Protocol& proto,
                           std::span<const NodeId> participants,
                           std::uint64_t max_rounds) {
  assert(active_ == nullptr && "nested Network::run");
  // Size the wheel for the policy as configured now; it only grows, so
  // its slots keep their capacity across operations.
  const std::size_t slots = std::bit_ceil(policy_->max_delay() + 1);
  if (slots > wheel_.size()) wheel_.resize(slots);
  mask_ = wheel_.size() - 1;
  active_ = &proto;
  // Loss engages only when the policy is lossy AND the protocol declares it
  // can tolerate dropped messages; otherwise loss degrades to plain delay
  // (drop() is never consulted, so the loss rng stream is never advanced
  // and the schedule is bit-identical to the lossless configuration) and
  // the downgrade is counted.
  const bool lossy_policy = policy_->lossy();
  loss_active_ = lossy_policy && proto.loss_safe();
  if (lossy_policy && !loss_active_) ++loss_degrades_;
  std::uint64_t elapsed = 0;
  try {
    policy_->begin_op();
    for (NodeId v : participants) proto.on_start(*this, v);
    elapsed = drain(proto, max_rounds);
  } catch (...) {
    clear_wheel();
    active_ = nullptr;
    loss_active_ = false;
    throw;
  }
  active_ = nullptr;
  loss_active_ = false;
  metrics_.rounds += elapsed;
  return elapsed;
}

}  // namespace kkt::sim
