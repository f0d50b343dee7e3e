#include "graph/forest.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>

#include "graph/dsu.h"
#include "graph/mst_oracle.h"

namespace kkt::graph {

void MarkedForest::grow(EdgeIdx e) {
  assert(!sparse_);
  const std::size_t want = 2 * (static_cast<std::size_t>(e) + 1);
  if (half_marks_.size() < want) half_marks_.resize(want, 0);
}

void MarkedForest::grow_marks() {
  if (sparse_) return;  // the map needs no pre-sizing
  const std::size_t slots = graph_->edge_slots();
  if (slots > 0) grow(static_cast<EdgeIdx>(slots - 1));
}

void MarkedForest::allocate_rows() {
  // Nothing is marked yet, so empty rows are exact for the current order.
  rows_.resize(graph_->node_count());
  for (NodeId v = 0; v < rows_.size(); ++v) {
    rows_[v].stamp = graph_->incidence_stamp(v);
  }
  synced_removals_ = graph_->removals();
}

void MarkedForest::sync_capacity() {
  grow_marks();
  ensure_rows();
  if (synced_removals_ == graph_->removals()) return;
  for (NodeId v = 0; v < rows_.size(); ++v) {
    if (!row_current(v)) refresh_row(v);
  }
  synced_removals_ = graph_->removals();
}

void MarkedForest::refresh_row(NodeId v) {
  TreeRow& row = rows_[v];
  row.clear();
  row.stamp = graph_->incidence_stamp(v);
  std::uint32_t k = 0;
  for (const Incidence& inc : graph_->incident(v)) {
    if (!half_marked(inc.edge, v)) continue;
    if (k == kTreeRowSlots || inc.edge >= kRowEdgeLimit) {
      row.set_overflow();
      return;
    }
    row.slots[k++] = RowEntry{inc.peer, static_cast<std::uint32_t>(inc.edge)};
  }
}

void MarkedForest::row_insert(NodeId v, EdgeIdx e) {
  TreeRow& row = rows_[v];
  if (!row_current(v)) {
    refresh_row(v);
    return;
  }
  if (row.overflowed() || !graph_->alive(e)) return;
  const std::uint32_t size = row.size();
  if (size == kTreeRowSlots || e >= kRowEdgeLimit) {
    row.set_overflow();
    return;
  }
  // Merge e into the stored entries in incident(v) order. Compares edge
  // indices only -- no mark reads -- and stops once every entry is placed.
  const auto in_row = [&row, size](EdgeIdx x) {
    for (std::uint32_t i = 0; i < size; ++i) {
      if (row.slots[i].edge == x) return true;
    }
    return false;
  };
  RowEntry merged[kTreeRowSlots];
  std::uint32_t k = 0;
  for (const Incidence& inc : graph_->incident(v)) {
    if (inc.edge != e && !in_row(inc.edge)) continue;
    merged[k++] = RowEntry{inc.peer, static_cast<std::uint32_t>(inc.edge)};
    if (k == size + 1) break;
  }
  if (k != size + 1) {
    // Unreachable while the entries and e are alive incidences of v;
    // re-derive rather than store a partial merge.
    refresh_row(v);
    return;
  }
  std::copy(merged, merged + k, row.slots);
}

void MarkedForest::row_erase(NodeId v, EdgeIdx e) {
  TreeRow& row = rows_[v];
  if (!row_current(v) || row.overflowed()) {
    // Stale, or overflowed (the entries that move inline are not stored).
    refresh_row(v);
    return;
  }
  RowEntry* const end = row.slots + row.size();
  RowEntry* const it = std::find_if(
      row.slots, end, [e](const RowEntry& r) { return r.edge == e; });
  if (it == end) return;
  std::copy(it + 1, end, it);
  *(end - 1) = RowEntry{kNoNode, kRowEmpty};
}

int MarkedForest::slot(EdgeIdx e, NodeId endpoint) const {
  const Edge ed = graph_->edge(e);
  assert(endpoint == ed.u || endpoint == ed.v);
  return endpoint == ed.u ? 0 : 1;
}

bool MarkedForest::sparse_marked_at(EdgeIdx e,
                                    std::uint32_t epoch_limit) const {
  const auto it = sparse_marks_.find(e);
  return it != sparse_marks_.end() && it->second.marks[0] != 0 &&
         it->second.marks[1] != 0 &&
         std::max(it->second.epochs[0], it->second.epochs[1]) <= epoch_limit;
}

void MarkedForest::mark_half(EdgeIdx e, NodeId endpoint, std::uint32_t epoch) {
  assert(epoch < ~std::uint32_t{0} && "epoch + 1 must fit a half word");
  const int s = slot(e, endpoint);
  ensure_rows();
  bool was_marked = false;
  if (sparse_) {
    SparseMarks& sm = sparse_marks_[e];
    was_marked = sm.marks[s] != 0;
    sm.marks[s] = 1;
    sm.epochs[s] = epoch;
  } else {
    ensure_size(e);
    const std::size_t i = 2 * static_cast<std::size_t>(e) + s;
    was_marked = half_marks_[i] != 0;
    half_marks_[i] = epoch + 1;
  }
  // A re-mark only moves the epoch; the row holds the incidence already.
  if (!was_marked && !rows_.empty()) row_insert(endpoint, e);
}

std::uint32_t MarkedForest::mark_epoch(EdgeIdx e) const {
  if (sparse_) {
    const auto it = sparse_marks_.find(e);
    if (it == sparse_marks_.end()) return 0;
    return std::max(it->second.epochs[0], it->second.epochs[1]);
  }
  const std::size_t i = 2 * static_cast<std::size_t>(e);
  if (i + 1 >= half_marks_.size()) return 0;
  const std::uint32_t h = std::max(half_marks_[i], half_marks_[i + 1]);
  return h == 0 ? 0 : h - 1;
}

std::uint32_t MarkedForest::max_mark_epoch() const {
  std::uint32_t best = 0;
  if (sparse_) {
    for (const auto& [e, sm] : sparse_marks_) {
      if (is_marked(e)) best = std::max(best, mark_epoch(e));
    }
    return best;
  }
  for (EdgeIdx e = 0; e < edge_slots_grown(); ++e) {
    if (is_marked(e)) best = std::max(best, mark_epoch(e));
  }
  return best;
}

void MarkedForest::unmark_half(EdgeIdx e, NodeId endpoint) {
  const int s = slot(e, endpoint);
  bool was_marked = false;
  if (sparse_) {
    const auto it = sparse_marks_.find(e);
    if (it == sparse_marks_.end()) return;
    was_marked = it->second.marks[s] != 0;
    it->second.marks[s] = 0;
    it->second.epochs[s] = 0;
  } else {
    ensure_size(e);
    const std::size_t i = 2 * static_cast<std::size_t>(e) + s;
    was_marked = half_marks_[i] != 0;
    half_marks_[i] = 0;
  }
  if (was_marked && !rows_.empty()) row_erase(endpoint, e);
}

bool MarkedForest::half_marked(EdgeIdx e, NodeId endpoint) const {
  const int s = slot(e, endpoint);
  if (sparse_) {
    const auto it = sparse_marks_.find(e);
    return it != sparse_marks_.end() && it->second.marks[s] != 0;
  }
  const std::size_t i = 2 * static_cast<std::size_t>(e) + s;
  return i < half_marks_.size() && half_marks_[i] != 0;
}

void MarkedForest::mark_edge(EdgeIdx e, std::uint32_t epoch) {
  const Edge ed = graph_->edge(e);
  mark_half(e, ed.u, epoch);
  mark_half(e, ed.v, epoch);
}

void MarkedForest::unmark_edge(EdgeIdx e) { clear_edge(e); }

// Also the hook after Graph::remove_edge(e): re-deriving both endpoints'
// rows picks up the swap-with-last reorder of their incidence lists.
void MarkedForest::clear_edge(EdgeIdx e) {
  const Edge ed = graph_->edge(e);
  unmark_half(e, ed.u);
  unmark_half(e, ed.v);
  if (sparse_) sparse_marks_.erase(e);
  if (rows_.empty()) return;
  for (const NodeId x : {ed.u, ed.v}) {
    if (!row_current(x)) refresh_row(x);
  }
}

void MarkedForest::clear_all() {
  sparse_marks_.clear();
  std::fill(half_marks_.begin(), half_marks_.end(), 0);
  for (NodeId v = 0; v < rows_.size(); ++v) {
    rows_[v].clear();
    rows_[v].stamp = graph_->incidence_stamp(v);
  }
}

bool MarkedForest::properly_marked() const {
  if (sparse_) {
    for (const auto& [e, sm] : sparse_marks_) {
      if (sm.marks[0] != sm.marks[1]) return false;
    }
    return true;
  }
  for (EdgeIdx e = 0; e < edge_slots_grown(); ++e) {
    const std::size_t i = 2 * static_cast<std::size_t>(e);
    if ((half_marks_[i] != 0) != (half_marks_[i + 1] != 0)) return false;
  }
  return true;
}

std::vector<EdgeIdx> MarkedForest::marked_edges() const {
  std::vector<EdgeIdx> out;
  if (sparse_) {
    for (const auto& [e, sm] : sparse_marks_) {
      if (is_marked(e)) out.push_back(e);
    }
    return out;
  }
  for (EdgeIdx e = 0; e < edge_slots_grown(); ++e) {
    if (is_marked(e)) out.push_back(e);
  }
  return out;
}

std::vector<Incidence> MarkedForest::marked_incident(NodeId v) const {
  std::vector<Incidence> out;
  for (const Incidence& inc : TreeView(*this).neighbors(v)) out.push_back(inc);
  return out;
}

std::size_t MarkedForest::marked_degree(NodeId v) const {
  return TreeView(*this).degree(v);
}

std::pair<std::vector<std::uint32_t>, std::size_t> MarkedForest::components()
    const {
  const std::size_t n = graph_->node_count();
  constexpr std::uint32_t kUnset = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> label(n, kUnset);
  std::uint32_t next = 0;
  const TreeView tree(*this);
  std::deque<NodeId> queue;
  for (NodeId s = 0; s < n; ++s) {
    if (label[s] != kUnset) continue;
    label[s] = next;
    queue.push_back(s);
    while (!queue.empty()) {
      const NodeId v = queue.front();
      queue.pop_front();
      for (const Incidence& inc : tree.neighbors(v)) {
        if (label[inc.peer] == kUnset) {
          label[inc.peer] = next;
          queue.push_back(inc.peer);
        }
      }
    }
    ++next;
  }
  return {std::move(label), next};
}

std::vector<std::vector<NodeId>> MarkedForest::fragments() const {
  const auto [label, count] = components();
  std::vector<std::vector<NodeId>> out(count);
  for (NodeId v = 0; v < label.size(); ++v) out[label[v]].push_back(v);
  return out;
}

std::vector<NodeId> MarkedForest::component_of(NodeId root) const {
  std::vector<NodeId> out{root};
  std::vector<char> seen(graph_->node_count(), 0);
  seen[root] = 1;
  const TreeView tree(*this);
  std::deque<NodeId> queue{root};
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    for (const Incidence& inc : tree.neighbors(v)) {
      if (!seen[inc.peer]) {
        seen[inc.peer] = 1;
        out.push_back(inc.peer);
        queue.push_back(inc.peer);
      }
    }
  }
  return out;
}

bool MarkedForest::is_forest() const {
  Dsu dsu(graph_->node_count());
  for (EdgeIdx e : marked_edges()) {
    if (!dsu.unite(graph_->edge(e).u, graph_->edge(e).v)) return false;
  }
  return true;
}

bool MarkedForest::is_spanning_forest() const {
  return properly_marked() &&
         graph::is_spanning_forest(*graph_, marked_edges());
}

}  // namespace kkt::graph
