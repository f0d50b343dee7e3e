// kkt_bench: the repository's benchmark.
//
//   kkt_bench --workload build_dense|build_sparse|churn_async --seed N
//             --seconds S --trace 0|1 [--trace-out FILE] [--heldout-seed N]
//
// Builds the workload's inputs from --seed, runs it single-threaded for
// about S seconds, checks every result against the centralized oracle and
// prints one JSON object as the last line of standard output:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones (README.md in this directory has the table). The
// traced run records spans around the benchmark's calls into each module,
// runs one probe per layer on the workload's own state after the timed
// loop, and writes the spans to --trace-out.
//
// Workloads (one op = one BuildMST on the builds, one update on churn):
//   build_dense   core::build_mst on gnm n=4096 m=262144, FifoSync.
//   build_sparse  core::build_mst on igridlong n=8192, implicit backend.
//   churn_async   MaintenanceSession (kMst) replaying a uniform trace on gnm
//                 n=512 m=4096 over the RandomDelay (async) transport.
// Every build of a run is the same build (fresh forest and network, same
// seeds), and every churn pass replays the same trace on a fresh world, so
// the model-cost counters are exact per seed. Wall metrics are refused from
// anything but a Release build with assertions off.
#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/build_mst.h"
#include "core/find_min.h"
#include "core/session.h"
#include "core/test_out.h"
#include "graph/mst_oracle.h"
#include "hashing/odd_hash.h"
#include "hashing/set_equality.h"
#include "proto/tree_ops.h"
#include "scenario/scenario.h"
#include "sim/metrics.h"
#include "spans.h"
#include "util/rng.h"
#include "util/rusage.h"
#include "workload/generators.h"

#ifndef KKT_BENCH_BUILD_TYPE
#define KKT_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef KKT_BENCH_COMPILER
#define KKT_BENCH_COMPILER "unknown"
#endif

namespace {

using namespace kkt;
using kkt_bench::now_ns;
using kkt_bench::Tracer;
using Scope = Tracer::Scope;

// kkt_lab's network-seed derivation (examples/kkt_lab.cpp), so the builds
// reproduce `kkt_lab build` bills at equal seeds.
constexpr std::uint64_t kLabNetSalt = 0xbeef;
// Distinct inputs per run. A round runs one input (a build, or a churn pass
// replaying a whole trace) and a run cycles through all of them at least
// once, so its model counters average over this many graphs: one graph's
// bill swings with the algorithm's random phase count.
constexpr int kDenseInputs = 24;
constexpr int kSparseInputs = 16;  // its builds are the slowest
constexpr int kChurnInputs = 16;
// Update ops per churn trace.
constexpr int kChurnOps = 1000;
constexpr int kActions = static_cast<int>(core::RepairAction::kActionCount);

// Seed of input i of a run: input 0 is the run seed itself, so build_dense's
// input 0 is kkt_lab's scenario at that seed.
std::uint64_t input_seed(std::uint64_t seed, int i) {
  return i == 0 ? seed : util::mix_seeds(seed, static_cast<std::uint64_t>(i));
}

// ---------------------------------------------------------------------------
// Small statistics helpers
// ---------------------------------------------------------------------------

// Nearest-rank percentile (q in [0, 1]) of a sample; 0 for an empty one.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * double(v.size()))), 1, v.size());
  return v[rank - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Median wall time (ns) of `reps` calls of f.
template <typename F>
double median_call_ns(int reps, F&& f) {
  std::vector<double> ns;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = now_ns();
    f();
    ns.push_back(double(now_ns() - t0));
  }
  return median(std::move(ns));
}

// ---------------------------------------------------------------------------
// Host and build stamp
// ---------------------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      std::string v = colon == std::string::npos ? "" : line.substr(colon + 1);
      v.erase(0, v.find_first_not_of(' '));
      return v;
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

// Peak resident set of this program image in MiB: VmHWM, which exec resets.
// getrusage's ru_maxrss would also count the parent process this one was
// forked from (run.py's Python interpreter).
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return double(util::peak_rss_kb()) / 1024.0;
}

bool release_build() {
#ifndef NDEBUG
  return false;
#else
  return std::string_view(KKT_BENCH_BUILD_TYPE) == "Release";
#endif
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::optional<std::uint64_t> heldout_seed;
};

std::optional<scenario::Scenario> make_scenario(const std::string& w,
                                                std::uint64_t seed) {
  scenario::Scenario sc;
  sc.seed = seed;
  if (w == "build_dense" || w == "build_sparse") {
    sc.graph = w == "build_dense" ? scenario::GraphSpec::gnm(4096, 262144)
                                  : scenario::GraphSpec::igridlong(8192);
    sc.net = scenario::NetSpec::sync();
    sc.net_seed = seed ^ kLabNetSalt;
  } else if (w == "churn_async") {
    sc.graph = scenario::GraphSpec::gnm(512, 4096);
    sc.net = scenario::NetSpec::async();
    sc.premark_msf = true;  // repair starts from a correct tree
    sc.workload =
        workload::WorkloadSpec::of(workload::WorkloadKind::kUniform, kChurnOps);
  } else {
    return std::nullopt;
  }
  sc.net.shards.shards = 1;
  return sc;
}

// One input's model cost, from its first run. Every repeat of the input
// must reproduce it exactly; a mismatch counts as a failed op.
struct Bill {
  sim::Metrics cost;
  std::size_t ops = 0;
  std::size_t phases = 0, fragments = 0, merges = 0;  // builds
  std::array<std::size_t, kActions> actions{};       // churn
  friend bool operator==(const Bill&, const Bill&) = default;
};

// Everything one run accumulates; the metrics are computed from it.
struct Tally {
  std::vector<double> op_ms;    // untraced ops
  std::vector<double> setup_s;  // every world set up
  // Traced run: traced / untraced op wall of each round's two executions.
  std::vector<double> overhead;
  // Traced churn ops' apply time (us), by op kind and by action name.
  std::map<std::string, std::vector<double>> apply_us;
  std::vector<std::optional<Bill>> bills;  // per input
  std::size_t rounds = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void note(int input, const Bill& b) {
    std::optional<Bill>& first = bills[static_cast<std::size_t>(input)];
    if (!first) {
      first = b;
    } else if (!(*first == b)) {
      ++failed;
    }
  }
  // The bills of all inputs, summed.
  Bill total() const {
    Bill sum;
    for (const std::optional<Bill>& b : bills) {
      if (!b) continue;
      sum.cost += b->cost;
      sum.ops += b->ops;
      sum.phases += b->phases;
      sum.fragments += b->fragments;
      sum.merges += b->merges;
      for (int a = 0; a < kActions; ++a) sum.actions[a] += b->actions[a];
    }
    return sum;
  }
};

scenario::World set_up(const scenario::Scenario& sc, Tracer& tr, Tally& t,
                       workload::UpdateTrace* trace_out) {
  Scope setup(tr, "setup");
  scenario::World w = [&] {
    Scope s(tr, "scenario.make_world");
    return scenario::make_world(sc);
  }();
  {
    // Lazy set-up the first op would otherwise pay: the aug-sorted
    // incidence index.
    Scope s(tr, "graph.sorted_incident");
    for (graph::NodeId v = 0; v < w.graph().node_count(); ++v) {
      (void)w.graph().sorted_incident(v);
    }
  }
  if (trace_out != nullptr) {
    Scope s(tr, "workload.generate_trace");
    *trace_out = workload::generate_trace(
        w.graph(), *sc.workload,
        util::mix_seeds(sc.seed, workload::kTraceSeedSalt));
  }
  t.setup_s.push_back(double(setup.close()) / 1e9);
  return w;
}

// Runs one round: once(traced) executes the round's input and returns its
// bill and op wall (ms); it switches recording to `traced` for the op. The
// traced run executes every input twice, traced and untraced in
// alternating order, and keeps the wall ratio.
template <typename Once>
void run_round(const Options& o, Tracer& tr, Tally& t, int input,
               Once&& once) {
  if (!o.trace) {
    t.note(input, once(false).first);
  } else {
    double ms[2] = {0, 0};
    for (int k = 0; k < 2; ++k) {
      const bool traced = (k == 0) == (t.rounds % 2 == 0);
      tr.set_recording(true);  // set-up inside once() is always traced
      const auto [bill, wall] = once(traced);
      t.note(input, bill);
      ms[traced ? 1 : 0] = wall;
    }
    t.overhead.push_back(ratio(ms[1], ms[0]));
  }
  tr.set_recording(o.trace);
  ++t.rounds;
}

// Cycles through the workload's inputs, at least once and until the run's
// seconds are spent.
template <typename Round>
void run_rounds(const Options& o, int inputs, Tally& t, Round&& round) {
  t.bills.assign(static_cast<std::size_t>(inputs), std::nullopt);
  const std::uint64_t t0 = now_ns();
  while (t.rounds < static_cast<std::size_t>(inputs) ||
         double(now_ns() - t0) / 1e9 < o.seconds) {
    round(static_cast<int>(t.rounds % static_cast<std::size_t>(inputs)));
  }
}

// Build rounds: set up the input's world, then build its MST on a fresh
// forest and network, timing core::build_mst alone and checking the forest
// against the oracle outside the clock. The probes get the last world, with
// its built forest.
scenario::World run_builds(const Options& o, Tracer& tr, Tally& t) {
  std::optional<scenario::World> last;
  const int inputs =
      o.workload == "build_dense" ? kDenseInputs : kSparseInputs;
  run_rounds(o, inputs, t, [&](int input) {
    const scenario::Scenario sc =
        *make_scenario(o.workload, input_seed(o.seed, input));
    scenario::World w = set_up(sc, tr, t, nullptr);
    run_round(o, tr, t, input, [&](bool traced) {
      tr.set_recording(traced);
      auto forest = std::make_unique<graph::MarkedForest>(w.graph());
      const auto net = scenario::make_network(w.graph(), sc.net, *sc.net_seed);
      core::BuildStats stats;
      std::uint64_t ns = 0;
      {
        Scope op(tr, "core.build_mst");
        stats = core::build_mst(*net, *forest);
        ns = op.close();
      }
      Bill bill;
      bill.cost = net->metrics();
      bill.ops = 1;
      bill.phases = stats.phases;
      for (const core::PhaseInfo& ph : stats.per_phase) {
        bill.fragments += ph.fragments;
        bill.merges += ph.merges;
      }
      bool ok = stats.spanning && bill.cost.oversized_messages == 0 &&
                bill.cost.dropped_deliveries == 0;
      {
        Scope s(tr, "graph.mst_oracle");
        ok = ok && graph::same_edge_set(forest->marked_edges(),
                                        graph::kruskal_msf(w.graph()));
      }
      ++t.attempted;
      if (!ok) ++t.failed;
      if (!traced) t.op_ms.push_back(double(ns) / 1e6);
      w.forest = std::move(forest);
      return std::pair{bill, double(ns) / 1e6};
    });
    last = std::move(w);
  });
  return std::move(*last);
}

// Churn rounds: a fresh world and session replaying the input's trace; each
// op is timed alone and checked against the oracle outside its clock. The
// probes get the last world as the trace left it.
scenario::World run_churn(const Options& o, Tracer& tr, Tally& t) {
  std::optional<scenario::World> last;
  run_rounds(o, kChurnInputs, t, [&](int input) {
    const scenario::Scenario sc =
        *make_scenario(o.workload, input_seed(o.seed, input));
    run_round(o, tr, t, input, [&](bool traced) {
      workload::UpdateTrace trace;
      scenario::World w = set_up(sc, tr, t, &trace);
      tr.set_recording(traced);
      core::SessionOptions so;
      so.check_oracle = false;  // checked below, outside the op's clock
      so.keep_log = false;
      core::MaintenanceSession session(w.graph(), w.trees(), w.network(),
                                       core::ForestKind::kMst, so);
      Bill bill;
      double wall_ms = 0;
      for (const core::UpdateOp& op : trace.ops) {
        std::uint64_t ns = 0;
        core::OpRecord rec;
        {
          Scope s(tr, "core.apply");
          rec = session.apply(op);
          ns = s.close();
        }
        bool ok =
            rec.applied && rec.action != core::RepairAction::kSearchFailed;
        {
          Scope s(tr, "core.oracle_consistent");
          ok = session.oracle_consistent() && ok;
        }
        const double ms = double(ns) / 1e6;
        wall_ms += ms;
        if (traced) {
          t.apply_us[core::op_kind_name(op.kind)].push_back(ms * 1e3);
          t.apply_us[core::action_name(rec.action)].push_back(ms * 1e3);
        } else {
          t.op_ms.push_back(ms);
        }
        bill.cost += rec.cost;
        ++bill.ops;
        ++bill.actions[static_cast<int>(rec.action)];
        ++t.attempted;
        if (!ok) ++t.failed;
      }
      last = std::move(w);
      return std::pair{bill, wall_ms};
    });
  });
  return std::move(*last);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void end_to_end(const Tally& t, std::vector<Metric>& out) {
  const Bill b = t.total();
  const double ops = double(b.ops);
  double wall_ms = 0;
  for (double ms : t.op_ms) wall_ms += ms;
  out.push_back({"setup_s", median(t.setup_s), "s"});
  out.push_back({"op_ms_p50", median(t.op_ms), "ms"});
  out.push_back({"op_ms_p99", percentile(t.op_ms, 0.99), "ms"});
  out.push_back({"ops_per_s", ratio(double(t.op_ms.size()), wall_ms / 1e3),
                 "1/s"});
  out.push_back({"messages_per_op", ratio(double(b.cost.messages), ops),
                 "count"});
  out.push_back({"rounds_per_op", ratio(double(b.cost.rounds), ops), "count"});
  out.push_back({"bits_per_op", ratio(double(b.cost.message_bits), ops),
                 "bits"});
  out.push_back({"peak_rss_mb", peak_rss_mib(), "MiB"});
}

// Edge numbers of every alive edge: the keys TestOut hashes and HP-TestOut
// multiplies.
std::vector<std::uint64_t> edge_numbers(const graph::Graph& g) {
  std::vector<std::uint64_t> keys;
  for (graph::EdgeIdx e : g.alive_edge_indices()) {
    keys.push_back(g.edge_num(e));
  }
  return keys;
}

// The tree edge of root's component whose removal leaves the most even
// split, and the endpoint on the side away from root (kNoEdge if the
// component is a single node).
std::pair<graph::NodeId, graph::EdgeIdx> balanced_cut(
    const graph::MarkedForest& forest, graph::NodeId root) {
  // BFS order with parents, then subtree sizes bottom-up.
  const graph::Graph& g = forest.graph();
  std::vector<graph::NodeId> order{root};
  std::vector<graph::NodeId> parent(g.node_count(), graph::kNoNode);
  std::vector<graph::EdgeIdx> up(g.node_count(), graph::kNoEdge);
  parent[root] = root;
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (const graph::Incidence& inc : forest.marked_incident(order[i])) {
      if (parent[inc.peer] != graph::kNoNode) continue;
      parent[inc.peer] = order[i];
      up[inc.peer] = inc.edge;
      order.push_back(inc.peer);
    }
  }
  std::vector<std::size_t> size(g.node_count(), 1);
  std::pair<graph::NodeId, graph::EdgeIdx> best{root, graph::kNoEdge};
  std::size_t best_gap = order.size();
  for (std::size_t i = order.size(); i-- > 1;) {
    const graph::NodeId v = order[i];
    size[parent[v]] += size[v];
    const std::size_t rest = order.size() - size[v];
    const std::size_t gap = size[v] > rest ? size[v] - rest : rest - size[v];
    if (gap < best_gap) {
      best_gap = gap;
      best = {v, up[v]};
    }
  }
  return best;
}

// Floods the maintained tree from a root: every node forwards the first
// copy it receives to its other tree neighbours. Used to time the
// simulator's delivery path on the workload's own policy.
class TreeFlood final : public sim::Protocol {
 public:
  TreeFlood(graph::TreeView tree, graph::NodeId root)
      : tree_(std::move(tree)), root_(root),
        seen_(tree_.graph().node_count(), 0) {}
  void reset() { std::fill(seen_.begin(), seen_.end(), 0); }
  void on_start(sim::Network& net, graph::NodeId self) override {
    seen_[self] = 1;
    forward(net, self, graph::kNoNode);
  }
  void on_message(sim::Network& net, graph::NodeId self, graph::NodeId from,
                  const sim::Message&) override {
    if (seen_[self] != 0) return;
    seen_[self] = 1;
    forward(net, self, from);
  }

 private:
  void forward(sim::Network& net, graph::NodeId self, graph::NodeId from) {
    for (const graph::Incidence& inc : tree_.neighbors(self)) {
      if (inc.peer != from) {
        net.send(self, inc.peer, sim::Message(sim::Tag::kBroadcast, {root_}));
      }
    }
  }
  graph::TreeView tree_;
  graph::NodeId root_;
  std::vector<char> seen_;
};

// The per-layer metrics: counters and span statistics from the traced run,
// then one probe per layer on the workload's own state.
void per_layer(const Options& o, const scenario::Scenario& sc,
               const Tally& t, scenario::World& w, Tracer& tr,
               std::vector<Metric>& out) {
  const graph::Graph& g = w.graph();
  graph::MarkedForest& forest = w.trees();
  const Bill b = t.total();
  const double ops = double(b.ops);
  const std::uint64_t salt = util::mix_seeds(o.seed, 0x9b0be);
  std::uint64_t sink = 0;  // keeps probe results observable
  constexpr int kReps = 7;

  // scenario / workload: setup spans.
  out.push_back({"scenario.make_world_ms",
                 median(tr.durations_ms("scenario.make_world")), "ms"});
  out.push_back({"workload.generate_trace_ms",
                 median(tr.durations_ms("workload.generate_trace")), "ms"});

  // graph
  {
    Scope s(tr, "probe.graph");
    out.push_back({"graph.generate_ms", median_call_ns(3, [&] {
                     Scope c(tr, "graph.build_graph");
                     sink += scenario::build_graph(sc.graph, sc.seed)
                                 .edge_count();
                   }) / 1e6,
                   "ms"});
    std::size_t entries = 0;
    const double inc_ns = median_call_ns(kReps, [&] {
      entries = 0;
      for (graph::NodeId v = 0; v < g.node_count(); ++v) {
        const auto row = g.incident(v);
        entries += row.size();
        for (const graph::Incidence& inc : row) sink += inc.edge;
      }
    });
    out.push_back({"graph.incident_ns", ratio(inc_ns, double(entries)), "ns"});
    const graph::AugWeight top = ~graph::AugWeight{0};
    const double sorted_ns = median_call_ns(kReps, [&] {
      entries = 0;
      for (graph::NodeId v = 0; v < g.node_count(); ++v) {
        const auto row = g.sorted_incident_range(v, 0, top);
        entries += row.size();
        if (!row.empty()) sink += row.front().edge;
      }
    });
    out.push_back({"graph.sorted_range_ns", ratio(sorted_ns, double(entries)),
                   "ns"});
    out.push_back({"graph.oracle_ms", median_call_ns(5, [&] {
                     Scope c(tr, "graph.mst_oracle");
                     sink += graph::kruskal_msf(g).size();
                   }) / 1e6,
                   "ms"});
  }

  // hashing: the per-key kernels of TestOut and HP-TestOut over the
  // workload's own edge numbers.
  {
    Scope s(tr, "probe.hashing");
    const std::vector<std::uint64_t> keys = edge_numbers(g);
    const hashing::OddHash h = hashing::OddHash::from_seed(salt, 0);
    const double odd_ns = median_call_ns(kReps, [&] {
      sink += h.parity(keys.begin(), keys.end()) ? 1 : 0;
    });
    out.push_back({"hashing.odd_hash_ns", ratio(odd_ns, double(keys.size())),
                   "ns"});
    util::Rng rng(salt);
    const hashing::SetPolynomial poly = hashing::SetPolynomial::random(rng);
    const double poly_ns =
        median_call_ns(kReps, [&] { sink += poly.evaluate(keys); });
    out.push_back({"hashing.set_poly_ns", ratio(poly_ns, double(keys.size())),
                   "ns"});
  }

  // sim: delivery cost on the workload's own policy, and transport faults
  // over the measured ops.
  const graph::NodeId root = 0;
  {
    Scope s(tr, "probe.sim");
    const auto net = scenario::make_network(g, sc.net, salt);
    TreeFlood flood{graph::TreeView(forest), root};
    const graph::NodeId starts[] = {root};
    std::vector<double> per_msg;
    for (int i = 0; i < kReps; ++i) {
      flood.reset();
      const std::uint64_t m0 = net->metrics().messages;
      const std::uint64_t t0 = now_ns();
      net->run(flood, starts);
      const double ns = double(now_ns() - t0);
      per_msg.push_back(ratio(ns, double(net->metrics().messages - m0)));
    }
    out.push_back({"sim.deliver_ns", median(per_msg), "ns"});
  }
  out.push_back({"sim.dropped_deliveries", double(b.cost.dropped_deliveries),
                 "count"});
  out.push_back({"sim.duplicate_deliveries",
                 double(b.cost.duplicate_deliveries), "count"});
  out.push_back({"sim.oversized_messages", double(b.cost.oversized_messages),
                 "count"});

  // proto: whole-tree broadcast-and-echo and leader election.
  const auto net = scenario::make_network(g, sc.net, salt ^ 1);
  {
    Scope s(tr, "probe.proto");
    proto::TreeOps ops(*net, graph::TreeView(forest));
    const std::vector<graph::NodeId> component = forest.component_of(root);
    std::uint64_t msgs = 0;
    const double be_ns = median_call_ns(kReps, [&] {
      const std::uint64_t m0 = net->metrics().messages;
      const proto::Words r = ops.broadcast_echo(
          root, proto::Words{1},
          [](graph::NodeId, std::span<const std::uint64_t>) {
            return proto::Words{1};
          },
          proto::combine_sum());
      sink += r.at(0);
      msgs = net->metrics().messages - m0;
    });
    out.push_back({"proto.bcast_echo_us", be_ns / 1e3, "us"});
    out.push_back({"proto.bcast_echo_ns_per_msg", ratio(be_ns, double(msgs)),
                   "ns"});
    const double elect_ns = median_call_ns(kReps, [&] {
      sink += ops.elect(component).leader;
    });
    out.push_back({"proto.elect_ns_per_node",
                   ratio(elect_ns, double(component.size())), "ns"});
  }

  // core: TestOut and FindMin from the root's fragment after cutting the
  // tree edge that splits its component most evenly -- the search a
  // deletion repair runs.
  {
    Scope s(tr, "probe.core");
    graph::MarkedForest cut = forest;
    const auto [start, e] = balanced_cut(forest, root);
    if (e != graph::kNoEdge) cut.unmark_edge(e);
    proto::TreeOps ops(*net, graph::TreeView(cut));
    const core::Interval range =
        core::full_range(core::max_incident_aug(ops, start));
    int call = 0;
    const double to_ns = median_call_ns(kReps, [&] {
      const auto h = hashing::OddHash::from_seed(salt, ++call);
      sink += core::test_out(ops, start, h, range) ? 1 : 0;
    });
    out.push_back({"core.test_out_us", to_ns / 1e3, "us"});
    const double fm_ns = median_call_ns(kReps, [&] {
      sink += core::find_min(ops, start).found ? 1 : 0;
    });
    out.push_back({"core.find_min_us", fm_ns / 1e3, "us"});
  }
  // Builds: mean phases per build, and useful Add-Edge handshakes per
  // fragment attempt over all phases (0 on churn, which builds nothing).
  out.push_back({"core.phases", ratio(double(b.phases), ops), "count"});
  out.push_back({"core.merges_per_fragment",
                 ratio(double(b.merges), double(b.fragments)), "ratio"});
  out.push_back({"core.bcast_echoes_per_op",
                 ratio(double(b.cost.broadcast_echoes), ops), "count"});

  // Churn: median apply time of the traced ops by op kind and by action,
  // and exact action counts over the run's distinct passes (0 on builds).
  for (const char* key : {"insert", "delete", "reweigh", "no-op", "rejected",
                          "replaced", "swapped"}) {
    const auto it = t.apply_us.find(key);
    out.push_back({std::string("core.apply_us_p50.") + key,
                   it == t.apply_us.end() ? 0.0 : median(it->second), "us"});
  }
  for (int a = 0; a < kActions; ++a) {
    out.push_back({std::string("core.actions.") +
                       core::action_name(static_cast<core::RepairAction>(a)),
                   double(b.actions[a]), "count"});
  }

  // msgs.<tag>: messages per op by protocol tag, for the tags the KKT
  // stack sends on these workloads.
  for (sim::Tag tag :
       {sim::Tag::kBroadcast, sim::Tag::kEcho, sim::Tag::kElectEcho,
        sim::Tag::kLeaderAnnounce, sim::Tag::kAddEdge}) {
    out.push_back({std::string("msgs.") + sim::tag_name(tag),
                   ratio(double(b.cost.tag_count(tag)), ops), "count"});
  }

  // trace.overhead_pct: traced against untraced op wall of the same input.
  out.push_back({"trace.overhead_pct", 100.0 * (median(t.overhead) - 1.0),
                 "%"});
  out.push_back({"fail_rate", ratio(double(t.failed), double(t.attempted)),
                 "ratio"});
  std::printf("probe checksum %" PRIu64 "\n", sink);
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: kkt_bench --workload "
               "build_dense|build_sparse|churn_async --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--heldout-seed N]\n",
               why);
  return 2;
}

std::optional<std::uint64_t> parse_u64(const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return std::nullopt;
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (i + 1 >= argc) return usage("missing value for an option");
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      const auto s = parse_u64(v);
      if (!s) return usage("--seed wants an unsigned integer");
      o.seed = *s;
      have_seed = true;
    } else if (a == "--seconds") {
      char* end = nullptr;
      o.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(o.seconds >= 0)) {
        return usage("--seconds wants a non-negative number");
      }
    } else if (a == "--trace") {
      if (std::string_view(v) != "0" && std::string_view(v) != "1") {
        return usage("--trace wants 0 or 1");
      }
      o.trace = v[0] == '1';
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else if (a == "--heldout-seed") {
      o.heldout_seed = parse_u64(v);
      if (!o.heldout_seed) return usage("--heldout-seed wants an integer");
    } else {
      return usage("unknown option");
    }
  }
  const std::optional<scenario::Scenario> sc =
      make_scenario(o.workload, o.seed);
  if (!sc) return usage("unknown or missing --workload");
  if (!have_seed) return usage("--seed is required");
  if (!release_build()) {
    std::fprintf(stderr,
                 "error: kkt_bench is a '%s' build (assertions must be off); "
                 "wall metrics are only reported from a Release build\n",
                 KKT_BENCH_BUILD_TYPE);
    return 3;
  }

  std::printf("stamp {\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"heldout_seed\": %s, \"nproc\": %u, \"cpu\": \"%s\", "
              "\"compiler\": \"%s\", \"build_type\": \"%s\", \"trace\": %d}\n",
              o.workload.c_str(), o.seed,
              o.heldout_seed ? std::to_string(*o.heldout_seed).c_str() : "null",
              std::thread::hardware_concurrency(),
              json_escape(cpu_model()).c_str(), KKT_BENCH_COMPILER,
              KKT_BENCH_BUILD_TYPE, o.trace ? 1 : 0);

  Tracer tr;
  tr.set_recording(o.trace);
  Tally t;
  scenario::World last =
      o.workload == "churn_async" ? run_churn(o, tr, t) : run_builds(o, tr, t);

  std::vector<Metric> metrics;
  if (o.trace) {
    per_layer(o, *sc, t, last, tr, metrics);
    for (const auto& [name, ms] : tr.self_ms()) {
      std::printf("self_ms %s %.3f\n", name.c_str(), ms);
    }
    if (!o.trace_out.empty()) {
      const std::string header = "\"workload\": \"" + o.workload +
                                 "\", \"seed\": " + std::to_string(o.seed);
      if (!tr.write_json(o.trace_out, header)) {
        std::fprintf(stderr, "error: cannot write %s\n", o.trace_out.c_str());
        return 1;
      }
    }
  } else {
    end_to_end(t, metrics);
  }

  // Exact model counters per input and in total (identical across runs at
  // one seed), then the run's size.
  const auto print_bill = [](const char* label, const Bill& b) {
    std::printf("%s messages=%" PRIu64 " rounds=%" PRIu64 " bits=%" PRIu64
                " bcast_echoes=%" PRIu64 " ops=%zu\n",
                label, b.cost.messages, b.cost.rounds, b.cost.message_bits,
                b.cost.broadcast_echoes, b.ops);
  };
  for (std::size_t i = 0; i < t.bills.size(); ++i) {
    const std::string label = "input " + std::to_string(i) + " seed=" +
                              std::to_string(input_seed(o.seed, int(i)));
    if (t.bills[i]) print_bill(label.c_str(), *t.bills[i]);
  }
  print_bill("counters", t.total());
  std::printf("run rounds=%zu timed_ops=%zu setups=%zu\n", t.rounds,
              t.op_ms.size(), t.setup_s.size());
  std::printf("fail_rate %.6f (%zu of %zu ops failed)\n",
              ratio(double(t.failed), double(t.attempted)), t.failed,
              t.attempted);

  std::string json = "{\"correct\": ";
  json += t.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(t.attempted);
  json += ", \"failed\": " + std::to_string(t.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
