// The maintained forest: per-endpoint edge marks.
//
// Paper, Definitions: "A network is properly marked if every edge is marked
// by both or neither of its endpoints. A tree T is maintained by a network
// if the network is properly marked and T is a maximal tree in the subgraph
// of marked edges."
//
// Each endpoint's mark bit is that node's local state; protocols set the two
// halves via messages (the Add-Edge handshake). The audit methods let tests
// assert the properly-marked invariant and the impromptu discipline (between
// updates a node stores nothing but its incident edges and these bits).
//
// Node-local storage: each endpoint's half-mark (with its epoch) lives in
// its own array element, written only by that endpoint's handlers. Read
// accessors are bounds-checked and never grow storage; growth happens only
// in mutators and in sync_capacity(). Marking protocols sync capacity in
// their constructors, before Network::run, so that no delivery allocates
// (the zero-allocation steady state, tests/alloc_test.cc).
// Storage: a dense interleaved array of half words indexed by 2e +
// endpoint-slot, 8 bytes per edge slot. Graphs whose edge-slot count
// exceeds a limit (implicit K_n at n = 10^6 has ~5*10^11 slots) switch to a
// sparse std::map keyed by edge index -- a maintained forest holds < n
// marked edges regardless of m, so the map stays O(n).
//
// Tree rows: a node only needs its 2-3 marked edges, but its incidence
// list holds every incident edge (~128 on the dense benchmark graph). So
// each node also keeps a *tree row*: the incidences whose own half it has
// marked, in incident(v) order, as {peer, edge} entries -- an index over
// the node's own mark bits, kept current as they change (mark_half /
// unmark_half update the marking node's row, mark_edge / clear_edge /
// clear_all both endpoints'), in the manner of an incrementally maintained
// tree propagator rather than a per-read filter of the graph. The row
// holds up to kTreeRowSlots entries inline; a node with more marked halves
// (or whose incidence list a removal reordered since its row was derived,
// see Graph::incidence_stamp; clear_edge and sync_capacity re-derive such
// rows) reads its whole incidence list instead, so tree_row(v) is always an
// incident(v)-ordered superset of v's marked incidences and filtering it
// yields exactly the old filtered walk. Row entries carry 32-bit edge
// indices (28 bytes a node); a graph with more edge slots than that keeps
// no rows and always reads incident(v). Rows follow the half-mark rule: a
// node's row is written only when that node's own half changes (i.e. by
// its own handler), and row storage is allocated by sync_capacity() or by
// a mutator running outside Network::run. A forest that is never marked
// allocates no rows.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace kkt::graph {

// Edge-slot count above which MarkedForest stores marks sparsely (dense
// arrays would exceed ~10 GB).
inline constexpr std::size_t kForestDenseSlotLimit = std::size_t{1} << 30;

// Inline entries per tree row (see the class comment).
inline constexpr std::uint32_t kTreeRowSlots = 3;

// A tree-row entry: an Incidence whose edge index fits 32 bits.
struct RowEntry {
  NodeId peer;
  std::uint32_t edge;
};

// What MarkedForest::tree_row hands out: v's row, or -- when the row is
// stale, overflowed or absent on a marked forest -- v's whole incidence
// list. At most one part is non-empty.
struct TreeRowSpan {
  std::span<const RowEntry> row;
  std::span<const Incidence> list;
};

class MarkedForest {
 public:
  // `dense_slot_limit` is a test seam; the default keeps every materialised
  // graph dense and flips only web-scale implicit families to sparse.
  explicit MarkedForest(const Graph& g,
                        std::size_t dense_slot_limit = kForestDenseSlotLimit)
      : graph_(&g),
        sparse_(g.edge_slots() > dense_slot_limit),
        rows_fit_(g.edge_slots() < kRowEdgeLimit) {
    grow_marks();
  }

  // --- per-endpoint marking (what protocols do) ---------------------------
  // `epoch` records when the mark was placed; construction phases use it to
  // query the fragment structure "as of the start of phase i" (edges marked
  // in phase i become part of the tree only from phase i+1 on), matching the
  // paper's synchronized-phase semantics in Build MST step (d).
  void mark_half(EdgeIdx e, NodeId endpoint, std::uint32_t epoch = 0);
  void unmark_half(EdgeIdx e, NodeId endpoint);
  bool half_marked(EdgeIdx e, NodeId endpoint) const;
  std::uint32_t mark_epoch(EdgeIdx e) const;
  // Largest epoch among currently marked edges (0 if none) -- lets a new
  // phased operation pick fresh epochs above everything already placed.
  std::uint32_t max_mark_epoch() const;

  // Grows the half-mark array to cover every current edge slot of
  // the graph, allocates the tree rows, and re-derives every row a graph
  // removal made stale. Outside Network::run only (it may reallocate);
  // protocols whose handlers mark or unmark halves call this in their
  // constructors so that no delivery allocates or reads a stale row.
  void sync_capacity();

  // --- symmetric convenience (driver/test use) ----------------------------
  void mark_edge(EdgeIdx e, std::uint32_t epoch = 0);
  void unmark_edge(EdgeIdx e);
  // Clears both halves, e.g. when the edge is deleted from the graph.
  void clear_edge(EdgeIdx e);
  void clear_all();

  // An edge is in the maintained forest iff both halves are marked.
  // Inline: with halves_marked_at this is the filter predicate of every
  // TreeView neighbor walk, the hottest call in the protocol layer. Pure
  // read: edges beyond the grown range are simply unmarked.
  bool is_marked(EdgeIdx e) const {
    return is_marked_at(e, ~std::uint32_t{0});
  }

  // Marked and placed no later than the given epoch.
  bool is_marked_at(EdgeIdx e, std::uint32_t epoch_limit) const {
    return halves_marked_at(e, epoch_limit) && graph_->alive(e);
  }

  // is_marked_at for an edge the caller knows is alive (an entry of a
  // current tree row): one read of the edge's two half words, no graph
  // access.
  bool halves_marked_at(EdgeIdx e, std::uint32_t epoch_limit) const {
    if (sparse_) return sparse_marked_at(e, epoch_limit);
    const std::size_t i = 2 * static_cast<std::size_t>(e);
    if (i + 1 >= half_marks_.size()) return false;
    const std::uint32_t hu = half_marks_[i];
    const std::uint32_t hv = half_marks_[i + 1];
    return hu != 0 && hv != 0 && (hu > hv ? hu : hv) - 1 <= epoch_limit;
  }

  // Whether marks live in the sparse map (see class comment).
  bool sparse() const noexcept { return sparse_; }

  // The incidences of v to filter for its marked edges: v's tree row when
  // it is current and fits inline, else v's whole incidence list (see the
  // class comment). Either way an incident(v)-ordered superset of the
  // incidences whose own half v has marked. Pure read.
  TreeRowSpan tree_row(NodeId v) const {
    if (rows_.empty()) {
      // Never marked -- or a graph too large for rows (see ensure_rows).
      return rows_fit_ ? TreeRowSpan{} : TreeRowSpan{{}, graph_->incident(v)};
    }
    const TreeRow& r = rows_[v];
    if (r.overflowed() || !row_current(v)) return {{}, graph_->incident(v)};
    return {{r.slots, r.size()}, {}};
  }

  // Every edge has zero or two marked halves.
  bool properly_marked() const;

  // Marked alive edges, ascending.
  std::vector<EdgeIdx> marked_edges() const;

  // Marked alive incident edges of v, in incident(v) order.
  std::vector<Incidence> marked_incident(NodeId v) const;
  std::size_t marked_degree(NodeId v) const;

  // Component label per node of the marked subgraph, plus component count.
  std::pair<std::vector<std::uint32_t>, std::size_t> components() const;

  // Node list per component of the marked subgraph: in components() label
  // order (by smallest node), each list ascending. The fragments of a
  // Boruvka phase, of verification and of the GHS baseline.
  std::vector<std::vector<NodeId>> fragments() const;

  // All nodes in the marked-subgraph component containing root.
  std::vector<NodeId> component_of(NodeId root) const;

  // True if the marked subgraph is acyclic.
  bool is_forest() const;

  // True if the marked subgraph is a spanning forest of the alive graph
  // (acyclic, and connects exactly the graph's components).
  bool is_spanning_forest() const;

  const Graph& graph() const noexcept { return *graph_; }

 private:
  // One edge's marks in sparse mode; same slot convention as the arrays.
  struct SparseMarks {
    std::uint8_t marks[2] = {0, 0};
    std::uint32_t epochs[2] = {0, 0};
  };

  // One node's tree row: its own-marked incidences packed at the front,
  // unused slots holding kRowEmpty, or -- when there are more than
  // kTreeRowSlots of them -- kRowOverflow in slots[0] and nothing else;
  // plus the Graph::incidence_stamp(v) the row was derived at. 28 bytes.
  static constexpr std::uint32_t kRowEmpty = ~std::uint32_t{0};
  static constexpr std::uint32_t kRowOverflow = kRowEmpty - 1;
  // Edge indices at or above this do not fit a row entry.
  static constexpr EdgeIdx kRowEdgeLimit = kRowOverflow;
  struct TreeRow {
    RowEntry slots[kTreeRowSlots];
    std::uint32_t stamp = 0;
    TreeRow() { clear(); }
    void clear() {
      for (RowEntry& s : slots) s = RowEntry{kNoNode, kRowEmpty};
    }
    void set_overflow() {
      clear();
      slots[0].edge = kRowOverflow;
    }
    bool overflowed() const { return slots[0].edge == kRowOverflow; }
    std::uint32_t size() const {
      std::uint32_t k = 0;
      while (k < kTreeRowSlots && slots[k].edge != kRowEmpty) ++k;
      return k;
    }
  };

  // Whether v's row was derived from v's current incidence order.
  bool row_current(NodeId v) const {
    return rows_[v].stamp == graph_->incidence_stamp(v);
  }

  void grow_marks();  // half array only; the constructor's sync
  // Allocates the rows (sequential context) unless the graph's edge indices
  // outgrow RowEntry. Mutators call it, so code marking outside any
  // protocol (tests, sequential callers) needs no explicit sync.
  void ensure_rows() {
    if (rows_.empty() && rows_fit_) allocate_rows();
  }
  void allocate_rows();
  // Row upkeep for one node. Each touches only v's row and reads only v's
  // own half-marks (never the peer's), so a handler may call it for its
  // own node.
  // refresh_row re-derives the row from incident(v); row_insert/row_erase
  // apply one own-half change to a current row (a stale or overflowed one
  // is re-derived instead).
  void refresh_row(NodeId v);
  void row_insert(NodeId v, EdgeIdx e);
  void row_erase(NodeId v, EdgeIdx e);

  // Mutator-only growth: reads never resize (see class comment).
  void ensure_size(EdgeIdx e) {
    if (!sparse_ && half_marks_.size() <= 2 * static_cast<std::size_t>(e) + 1) {
      grow(e);
    }
  }
  void grow(EdgeIdx e);  // out-of-line slow path of ensure_size
  // Returns 0 or 1 for the endpoint's slot in the interleaved arrays.
  int slot(EdgeIdx e, NodeId endpoint) const;
  std::size_t edge_slots_grown() const noexcept {
    return half_marks_.size() / 2;
  }
  // Out-of-line sparse read of halves_marked_at.
  bool sparse_marked_at(EdgeIdx e, std::uint32_t epoch_limit) const;

  const Graph* graph_;
  bool sparse_ = false;
  // Interleaved per-endpoint half words: element 2e + slot is endpoint
  // slot's half of edge e -- 0 if unmarked, else 1 + the epoch at which it
  // was marked, so one read answers both "marked?" and "since when?".
  // Each word is written only by its endpoint's handlers. An edge's epoch
  // is the max over its two halves (both halves carry the same value in
  // every marking flow, so this matches the historical single-epoch
  // semantics).
  std::vector<std::uint32_t> half_marks_;
  // Sparse mode: marks keyed by edge index (ascending iteration order keeps
  // marked_edges / audits deterministic and identical to the dense walk).
  std::map<EdgeIdx, SparseMarks> sparse_marks_;
  // Tree rows, one per node; empty until the first mark (see ensure_rows).
  std::vector<TreeRow> rows_;
  bool rows_fit_ = true;  // edge indices fit RowEntry (fixed at construction)
  // Graph::removals() when sync_capacity last re-derived stale rows.
  std::uint64_t synced_removals_ = 0;
};

// A node-local lens on the maintained tree: the marked incident edges as of
// a given epoch. Protocols take a TreeView so that construction phases can
// operate on the fragment structure at phase start while Add-Edge marks for
// the next phase accumulate concurrently.
class TreeView {
 public:
  explicit TreeView(const MarkedForest& forest,
                    std::uint32_t epoch_limit = ~std::uint32_t{0})
      : forest_(&forest), epoch_limit_(epoch_limit) {}

  bool contains(EdgeIdx e) const {
    return forest_->is_marked_at(e, epoch_limit_);
  }

  // Lazy, allocation-free range over the marked incident edges of `v`:
  // protocols walk tree neighbors in their hottest loops, so the filter is
  // applied during iteration instead of materializing a vector per visit.
  // It walks the two parts of a TreeRowSpan in turn (at most one is
  // non-empty) and yields Incidence values. It copies the view's forest
  // and epoch limit, so it may outlive a temporary TreeView.
  class NeighborRange {
   public:
    class iterator {
     public:
      using value_type = Incidence;
      using difference_type = std::ptrdiff_t;

      iterator(const MarkedForest* forest, std::uint32_t epoch_limit,
               TreeRowSpan part)
          : forest_(forest),
            epoch_limit_(epoch_limit),
            row_(part.row.data()),
            row_end_(part.row.data() + part.row.size()),
            list_(part.list.data()),
            list_end_(part.list.data() + part.list.size()) {
        skip_unmarked();
      }

      Incidence operator*() const {
        if (row_ != row_end_) return Incidence{row_->peer, row_->edge};
        return *list_;
      }
      iterator& operator++() {
        if (row_ != row_end_) {
          ++row_;
        } else {
          ++list_;
        }
        skip_unmarked();
        return *this;
      }
      bool operator==(const iterator& o) const {
        return row_ == o.row_ && list_ == o.list_;
      }
      bool operator!=(const iterator& o) const { return !(*this == o); }

     private:
      void skip_unmarked() {
        // Row entries are alive (a removal would have staled the row).
        while (row_ != row_end_ &&
               !forest_->halves_marked_at(row_->edge, epoch_limit_)) {
          ++row_;
        }
        if (row_ != row_end_) return;
        while (list_ != list_end_ &&
               !forest_->is_marked_at(list_->edge, epoch_limit_)) {
          ++list_;
        }
      }

      const MarkedForest* forest_;
      std::uint32_t epoch_limit_;
      const RowEntry* row_;
      const RowEntry* row_end_;
      const Incidence* list_;
      const Incidence* list_end_;
    };

    NeighborRange(const MarkedForest* forest, std::uint32_t epoch_limit,
                  TreeRowSpan part)
        : forest_(forest), epoch_limit_(epoch_limit), part_(part) {}

    iterator begin() const { return {forest_, epoch_limit_, part_}; }
    iterator end() const {
      return {forest_, epoch_limit_,
              TreeRowSpan{part_.row.subspan(part_.row.size()),
                          part_.list.subspan(part_.list.size())}};
    }
    std::size_t size() const {
      std::size_t d = 0;
      for ([[maybe_unused]] const Incidence inc : *this) ++d;
      return d;
    }

   private:
    const MarkedForest* forest_;
    std::uint32_t epoch_limit_;
    TreeRowSpan part_;
  };

  // Walks v's tree row (MarkedForest::tree_row) through the epoch filter:
  // O(tree degree) per visit, in incident(v) order.
  NeighborRange neighbors(NodeId v) const {
    return {forest_, epoch_limit_, forest_->tree_row(v)};
  }

  std::size_t degree(NodeId v) const { return neighbors(v).size(); }

  // The tree edge from v to its tree neighbor `peer`, or kNoEdge.
  EdgeIdx edge_to(NodeId v, NodeId peer) const {
    for (const Incidence& inc : neighbors(v)) {
      if (inc.peer == peer) return inc.edge;
    }
    return kNoEdge;
  }

  const MarkedForest& forest() const noexcept { return *forest_; }
  const Graph& graph() const noexcept { return forest_->graph(); }
  std::uint32_t epoch_limit() const noexcept { return epoch_limit_; }

 private:
  const MarkedForest* forest_;
  std::uint32_t epoch_limit_;
};

}  // namespace kkt::graph
