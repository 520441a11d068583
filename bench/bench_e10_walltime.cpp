// Experiment E10 — engine wall time at scale, and thread scaling.
//
// Every other committed bench table is model time (global clock ticks),
// which is exact and machine-independent. E10 is the repo's committed
// wall-clock experiment: ticks/second and ns per node step on flood
// workloads from 10^3 up to 10^5 nodes (10^6 in non-quick mode), where
// memory layout — not algorithm — dominates. Rows time a fixed steady-state
// window after a warmup that saturates the active set and warms the
// engine's arena capacities, so the window runs allocation-free (the
// steady_allocs column pins that to 0 for the pure-engine rows).
//
// Three tables:
//   walltime       — the historical per-size rows, run at bench_threads()
//                    (default 1, so committed baselines stay comparable).
//   thread_scaling — the dense flood at 1/2/4/8 engine threads with a
//                    speedup column (wall_1 / wall_T). node_steps and
//                    steady_allocs are identical across rows — that's the
//                    determinism contract made visible in the table.
//   calibration    — the same workload across parallel_grain settings,
//                    justifying EngineOptions' default grain.
//
// Column discipline for the CI gate (tools/bench_compare.py --tol-col):
// N/E/threads/grain/window_ticks/node_steps/steady_allocs are deterministic
// functions of the model and diff at tolerance 0; wall_ms/ticks_per_s/
// ns_per_node_step are hardware-dependent and gate at a generous relative
// tolerance; speedup depends on the runner's core count (a single-core CI
// box measures ~1.0 regardless of thread count) and gates as skip;
// peak_rss_kb is history-dependent and is reported but never gated.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "support/alloc_hook.hpp"

namespace {

using namespace dtop;
using namespace dtop::bench;

// The smallest machine the engine concept admits: the root emits one
// character when first scheduled; every node forwards the max hop count it
// received on all out-ports. On a de Bruijn graph the flood saturates in
// diameter ticks and every node then stays active forever — a pure
// engine-throughput workload with no protocol or transcript cost. On a
// ring, a single one-node wavefront circulates — the per-tick overhead
// workload.
struct FloodMessage {
  std::uint32_t hops = 0;
};

class FloodMachine {
 public:
  using Message = FloodMessage;
  struct Config {};

  FloodMachine(const MachineEnv& env, const Config&) : env_(env) {}

  void step(StepContext<Message>& ctx) {
    std::uint32_t best = 0;
    bool got = false;
    for (Port p = 0; p < env_.delta; ++p) {
      if (const Message* m = ctx.input(p)) {
        got = true;
        best = std::max(best, m->hops);
      }
    }
    if (!got) {
      if (!env_.is_root || started_) return;
      started_ = true;  // out-of-band initiation: seed the flood
    }
    for (Port p = 0; p < env_.delta; ++p) {
      if (ctx.out_connected(p)) ctx.out(p).hops = best + 1;
    }
  }

  bool idle() const { return true; }
  bool terminated() const { return false; }

 private:
  MachineEnv env_;
  bool started_ = false;
};

using FloodEngine = SyncEngine<FloodMachine>;

struct WindowSample {
  Tick window_ticks = 0;
  std::uint64_t node_steps = 0;
  std::uint64_t steady_allocs = 0;
  double wall_ms = 0.0;
};

// Runs `warmup` ticks, then times a `window`-tick steady-state slice.
template <typename Engine>
WindowSample time_window(Engine& engine, Tick warmup, Tick window) {
  engine.schedule(engine.root());
  engine.run(warmup);
  const EngineStats before = engine.stats();
  const auto t0 = std::chrono::steady_clock::now();
  engine.run(warmup + window);
  const auto t1 = std::chrono::steady_clock::now();
  const EngineStats& after = engine.stats();
  WindowSample s;
  s.window_ticks = after.ticks - before.ticks;
  s.node_steps = after.node_steps - before.node_steps;
  s.steady_allocs = after.allocs - before.allocs;
  s.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return s;
}

constexpr int kRepeats = 5;

// Calls `one` (which builds a fresh engine and returns its time_window)
// kRepeats times and keeps the median wall time. The model columns are
// deterministic, so a repeat that disagrees on them is a bug, not noise.
template <typename One>
WindowSample median_window(const One& one) {
  std::vector<WindowSample> runs;
  for (int r = 0; r < kRepeats; ++r) runs.push_back(one());
  for (const WindowSample& s : runs) {
    DTOP_CHECK(s.window_ticks == runs[0].window_ticks &&
                   s.node_steps == runs[0].node_steps &&
                   s.steady_allocs == runs[0].steady_allocs,
               "E10: model columns differ across repeats of one row");
  }
  std::sort(runs.begin(), runs.end(),
            [](const WindowSample& a, const WindowSample& b) {
              return a.wall_ms < b.wall_ms;
            });
  return runs[kRepeats / 2];
}

void add_row(Table& table, const std::string& label, const PortGraph& g,
             const WindowSample& s) {
  const double secs = s.wall_ms / 1e3;
  const double ticks_per_s =
      secs > 0 ? static_cast<double>(s.window_ticks) / secs : 0.0;
  const double ns_per_step =
      s.node_steps > 0 ? s.wall_ms * 1e6 / static_cast<double>(s.node_steps)
                       : 0.0;
  table.row()
      .cell(label)
      .cell(static_cast<std::uint64_t>(g.num_nodes()))
      .cell(static_cast<std::uint64_t>(g.num_wires()))
      .cell(static_cast<std::uint64_t>(s.window_ticks))
      .cell(s.node_steps)
      .cell(s.steady_allocs)
      .cell(s.wall_ms, 3)
      .cell(ticks_per_s, 1)
      .cell(ns_per_step, 2)
      .cell(dtop::peak_rss_kb());
}

Table walltime_table(bool quick) {
  Table table({"workload", "N", "E", "window_ticks", "node_steps",
               "steady_allocs", "wall_ms", "ticks_per_s", "ns_per_node_step",
               "peak_rss_kb"});
  table.set_caption(
      "E10: steady-state wall time (flood = pure engine, gtd = truncated "
      "protocol run with transcript; engine threads = bench_threads())");

  const int threads = runner::bench_threads();

  // Pure-engine dense floods: every node active every tick once the flood
  // saturates (warmup >> diameter). 2^17 = 131072 covers the 10^5 target in
  // quick mode; 2^20 = 1048576 covers 10^6 in full mode.
  std::vector<int> ks = {12, 15, 17};
  if (!quick) ks.push_back(20);
  for (const int k : ks) {
    const PortGraph g = de_bruijn(k);
    const WindowSample s = median_window([&] {
      FloodEngine engine(g, 0, {}, threads);
      return time_window(engine, /*warmup=*/64, /*window=*/64);
    });
    add_row(table, "flood-debruijn-" + std::to_string(g.num_nodes()), g, s);
  }

  // Sparse wavefront: one active node per tick — measures fixed per-tick
  // engine overhead rather than per-node throughput.
  {
    const PortGraph g = directed_ring(4096);
    const WindowSample s = median_window([&] {
      FloodEngine engine(g, 0, {}, threads);
      return time_window(engine, /*warmup=*/64, /*window=*/2048);
    });
    add_row(table, "flood-ring-4096", g, s);
  }

  // Protocol realism: truncated GTD snake floods (the E8 dense workload at
  // scale). Transcript emission rides along, so steady_allocs here is the
  // transcript's deterministic amortized growth, not engine churn.
  const std::vector<int> gtd_ks = quick ? std::vector<int>{9, 12}
                                        : std::vector<int>{9, 12, 15};
  for (const int k : gtd_ks) {
    const PortGraph g = de_bruijn(k);
    const WindowSample s = median_window([&] {
      Transcript t;
      GtdMachine::Config cfg;
      cfg.transcript = &t;
      GtdEngine engine(g, 0, cfg, threads);
      return time_window(engine, /*warmup=*/2048, /*window=*/256);
    });
    add_row(table, "gtd-debruijn-" + std::to_string(g.num_nodes()), g, s);
  }
  return table;
}

Table thread_scaling_table(bool quick) {
  Table table({"workload", "threads", "N", "window_ticks", "node_steps",
               "steady_allocs", "wall_ms", "ticks_per_s", "speedup"});
  table.set_caption(
      "E10: dense-flood thread scaling (speedup = wall_1 / wall_T; "
      "model columns are identical across thread counts by construction)");

  std::vector<int> ks = {17};
  if (!quick) ks.push_back(20);
  for (const int k : ks) {
    const PortGraph g = de_bruijn(k);
    const std::string label = "flood-debruijn-" + std::to_string(g.num_nodes());
    double wall_1 = 0.0;
    for (const int threads : {1, 2, 4, 8}) {
      const WindowSample s = median_window([&] {
        FloodEngine engine(g, 0, {}, threads);
        return time_window(engine, /*warmup=*/64, /*window=*/64);
      });
      if (threads == 1) wall_1 = s.wall_ms;
      const double secs = s.wall_ms / 1e3;
      const double ticks_per_s =
          secs > 0 ? static_cast<double>(s.window_ticks) / secs : 0.0;
      const double speedup = s.wall_ms > 0 ? wall_1 / s.wall_ms : 0.0;
      table.row()
          .cell(label)
          .cell(static_cast<std::uint64_t>(threads))
          .cell(static_cast<std::uint64_t>(g.num_nodes()))
          .cell(static_cast<std::uint64_t>(s.window_ticks))
          .cell(s.node_steps)
          .cell(s.steady_allocs)
          .cell(s.wall_ms, 3)
          .cell(ticks_per_s, 1)
          .cell(speedup, 2);
    }
  }
  return table;
}

Table metrics_overhead_table() {
  Table table({"workload", "metrics", "N", "window_ticks", "node_steps",
               "steady_allocs", "wall_ms", "ticks_per_s"});
  table.set_caption(
      "E10: dense flood with the obs::EngineMetrics hook detached vs "
      "attached (model columns identical by construction; steady_allocs "
      "stays 0 with metrics on — recording never allocates)");

  const PortGraph g = de_bruijn(15);
  const std::string label = "flood-debruijn-" + std::to_string(g.num_nodes());
  obs::Registry registry;
  const obs::EngineMetrics hook = obs::EngineMetrics::create(registry);
  for (const bool with_metrics : {false, true}) {
    EngineOptions opt;
    opt.num_threads = runner::bench_threads();
    if (with_metrics) opt.metrics = &hook;
    const WindowSample s = median_window([&] {
      FloodEngine engine(g, 0, {}, opt);
      return time_window(engine, /*warmup=*/64, /*window=*/64);
    });
    const double secs = s.wall_ms / 1e3;
    const double ticks_per_s =
        secs > 0 ? static_cast<double>(s.window_ticks) / secs : 0.0;
    table.row()
        .cell(label)
        .cell(with_metrics ? "on" : "off")
        .cell(static_cast<std::uint64_t>(g.num_nodes()))
        .cell(static_cast<std::uint64_t>(s.window_ticks))
        .cell(s.node_steps)
        .cell(s.steady_allocs)
        .cell(s.wall_ms, 3)
        .cell(ticks_per_s, 1);
  }
  return table;
}

Table calibration_table() {
  Table table({"workload", "threads", "grain", "default", "wall_ms",
               "ns_per_node_step"});
  table.set_caption(
      "E10: parallel_grain calibration at 2 threads (the default grain "
      "should sit at or near the minimum of this curve on multi-core "
      "hardware; on one core the curve is flat)");

  const PortGraph g = de_bruijn(15);
  const std::string label = "flood-debruijn-" + std::to_string(g.num_nodes());
  for (const std::size_t grain : {std::size_t{32}, std::size_t{96},
                                  std::size_t{256}, std::size_t{1024}}) {
    EngineOptions opt;
    opt.num_threads = 2;
    opt.parallel_grain = grain;
    const WindowSample s = median_window([&] {
      FloodEngine engine(g, 0, {}, opt);
      return time_window(engine, /*warmup=*/64, /*window=*/64);
    });
    const double ns_per_step =
        s.node_steps > 0 ? s.wall_ms * 1e6 / static_cast<double>(s.node_steps)
                         : 0.0;
    table.row()
        .cell(label)
        .cell(std::uint64_t{2})
        .cell(static_cast<std::uint64_t>(grain))
        .cell(grain == FloodEngine::kDefaultParallelGrain ? "*" : "")
        .cell(s.wall_ms, 3)
        .cell(ns_per_step, 2);
  }
  return table;
}

}  // namespace

int main() {
  const bool quick = [] {
    const char* q = std::getenv("DTOP_BENCH_QUICK");
    return q && *q;
  }();

  std::cout << "E10: engine wall time at scale. node_steps/steady_allocs are "
               "model-exact; wall columns are hardware-dependent (CI gates "
               "them at a relative tolerance; speedup is gated as skip "
               "because it measures the runner's core count).\n";

  const Table walltime = walltime_table(quick);
  const Table scaling = thread_scaling_table(quick);
  const Table overhead = metrics_overhead_table();
  const Table calibration = calibration_table();

  walltime.print(std::cout);
  scaling.print(std::cout);
  overhead.print(std::cout);
  calibration.print(std::cout);

  dtop::bench::BenchJson json("E10");
  json.add("walltime", walltime);
  json.add("thread_scaling", scaling);
  json.add("metrics_overhead", overhead);
  json.add("calibration", calibration);
  json.write(std::cout);
  return 0;
}
