// Experiment E3 (Theorem 1.1, Lemma 6): ST construction, O(n log n)
// messages vs the Theta(m) flooding baseline.
#include "baseline/flood_st.h"
#include "bench_util.h"
#include "core/build_st.h"

namespace kkt::bench {
namespace {

void BM_BuildSt_Kkt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = n * (n - 1) / 2;  // complete: worst for flooding
  for (auto _ : state) {
    World w = make_gnm_world(n, m, 60);
    const core::BuildStats stats = core::build_st(*w.net, *w.forest);
    if (!stats.spanning) state.SkipWithError("did not span");
    report(state, w.net->metrics(), n, m);
    state.counters["phases"] = static_cast<double>(stats.phases);
    std::size_t cycles = 0;
    for (const auto& ph : stats.per_phase) cycles += ph.cycles_detected;
    state.counters["cycles_detected"] = static_cast<double>(cycles);
  }
}
BENCHMARK(BM_BuildSt_Kkt)
    ->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_BuildSt_Flooding(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = n * (n - 1) / 2;
  for (auto _ : state) {
    World w = make_gnm_world(n, m, 60);
    const auto stats = baseline::flood_build_st(*w.net, *w.forest);
    if (!stats.spanning) state.SkipWithError("did not span");
    report(state, w.net->metrics(), n, m);
  }
}
BENCHMARK(BM_BuildSt_Flooding)
    ->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

// Density sweep at fixed n: KKT-ST flat in m, flooding linear in m.
void BM_BuildSt_Kkt_DensitySweep(benchmark::State& state) {
  const std::size_t n = 256;
  const auto m = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    World w = make_gnm_world(n, m, 61);
    core::build_st(*w.net, *w.forest);
    report(state, w.net->metrics(), n, m);
  }
}
BENCHMARK(BM_BuildSt_Kkt_DensitySweep)
    ->Arg(512)->Arg(2048)->Arg(8192)->Arg(32640)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_BuildSt_Flooding_DensitySweep(benchmark::State& state) {
  const std::size_t n = 256;
  const auto m = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    World w = make_gnm_world(n, m, 61);
    baseline::flood_build_st(*w.net, *w.forest);
    report(state, w.net->metrics(), n, m);
  }
}
BENCHMARK(BM_BuildSt_Flooding_DensitySweep)
    ->Arg(512)->Arg(2048)->Arg(8192)->Arg(32640)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kkt::bench

KKT_BENCH_MAIN();
