// BSP parallel engine: bit-identical behaviour across thread counts (the
// determinism claim of DESIGN.md S2), on the real protocol.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "core/gtd.hpp"
#include "core/verify.hpp"
#include "graph/families.hpp"
#include "graph/random_graph.hpp"
#include "obs/engine_metrics.hpp"
#include "obs/registry.hpp"
#include "trace/container.hpp"
#include "trace/span_collector.hpp"
#include "trace/trace_io.hpp"

namespace dtop {
namespace {

void expect_identical_runs(const PortGraph& g, NodeId root) {
  GtdOptions seq_opt;
  seq_opt.num_threads = 1;
  const GtdResult seq = run_gtd(g, root, seq_opt);
  ASSERT_EQ(seq.status, RunStatus::kTerminated);

  for (int threads : {2, 4, 8}) {
    GtdOptions par_opt;
    par_opt.num_threads = threads;
    const GtdResult par = run_gtd(g, root, par_opt);
    ASSERT_EQ(par.status, RunStatus::kTerminated) << threads;
    EXPECT_EQ(par.stats.ticks, seq.stats.ticks) << threads;
    EXPECT_EQ(par.stats.messages, seq.stats.messages) << threads;
    ASSERT_EQ(par.transcript.events().size(), seq.transcript.events().size())
        << threads;
    for (std::size_t i = 0; i < seq.transcript.events().size(); ++i) {
      const auto& a = seq.transcript.events()[i];
      const auto& b = par.transcript.events()[i];
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.tick, b.tick);
      EXPECT_EQ(a.out, b.out);
      EXPECT_EQ(a.in, b.in);
    }
    const VerifyResult v = verify_map(g, root, par.map);
    EXPECT_TRUE(v.ok) << v.detail;
    EXPECT_TRUE(par.end_state_clean);
  }
}

TEST(ParallelEngine, DeBruijnIdentical) { expect_identical_runs(de_bruijn(4), 0); }

TEST(ParallelEngine, TreeLoopIdentical) {
  expect_identical_runs(tree_loop_random(3, 7), 0);
}

TEST(ParallelEngine, RandomGraphsIdentical) {
  for (std::uint64_t seed : {4ull, 9ull}) {
    const PortGraph g = random_strongly_connected(
        {.nodes = 22, .delta = 3, .avg_out_degree = 2.2, .seed = seed});
    expect_identical_runs(g, 0);
  }
}

TEST(ParallelEngine, TombstonedWiresIdentical) {
  // Degraded grids carry tombstoned wire slots (disconnect() leaves holes
  // in the wire-id space); buffer indexing must stay correct under threads.
  expect_identical_runs(degraded_grid(4, 4, 0.2, 5), 0);
}

TEST(ParallelEngine, ManyThreadsMoreThanNodes) {
  // More workers than active nodes must still be correct.
  const PortGraph g = directed_ring(4);
  GtdOptions opt;
  opt.num_threads = 8;
  const GtdResult r = run_gtd(g, 0, opt);
  ASSERT_EQ(r.status, RunStatus::kTerminated);
  EXPECT_TRUE(verify_map(g, 0, r.map).ok);
}

// The committed --spans recording of torus-9, made with `dtopctl trace
// record --family torus --nodes 9 --spans --codec dlz`. Span events travel
// through the engine's per-worker note lists, so every thread count must
// write this very file — also when grain 1 forks every tick with >= 2
// active nodes.
TEST(ParallelEngine, SpanTraceMatchesFixtureAtAnyThreadCount) {
  std::ifstream in(DTOP_TEST_DATA_DIR "/torus-9-spans.dtr2", std::ios::binary);
  ASSERT_TRUE(in.is_open());
  const std::string fixture((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  ASSERT_EQ(fixture.size(), 32440u);
  std::istringstream fs(fixture);
  const trace::RecordedTrace golden = trace::read_trace(fs);
  EXPECT_EQ(golden.events.size(), 15703u);
  const trace::SpanCollector spans = trace::collect_spans(golden.events);
  EXPECT_EQ(spans.rca().size(), 32u);
  EXPECT_EQ(spans.erasures().size(), 466u);

  const PortGraph g = directed_torus(3, 3);
  for (const int threads : {1, 2, 8}) {
    obs::Registry registry;
    const obs::EngineMetrics metrics = obs::EngineMetrics::create(registry);
    trace::TraceRecorder rec;
    GtdOptions opt;
    opt.num_threads = threads;
    opt.parallel_grain = 1;
    opt.trace = &rec;
    opt.spans = true;
    opt.metrics = &metrics;
    ASSERT_EQ(run_gtd(g, 0, opt).status, RunStatus::kTerminated);
    if (threads > 1) {
      EXPECT_GT(metrics.forked_ticks->total(), 0u) << threads << " threads";
    }
    std::ostringstream os;
    trace::write_trace_dtr2(os, rec.take(),
                            trace::Dtr2Options{trace::TraceCodec::kDlz});
    EXPECT_TRUE(os.str() == fixture) << threads << " threads";
  }
}

// DTR2 bytes of a full recording at `threads` engine threads; `grain` is
// forwarded to GtdOptions::parallel_grain and `metrics` (optional) is
// attached to the run's engine.
std::string record_dtr2_bytes(const PortGraph& g, NodeId root, int threads,
                              std::size_t grain = 0,
                              const obs::EngineMetrics* metrics = nullptr) {
  trace::TraceRecorder rec;
  GtdOptions opt;
  opt.num_threads = threads;
  opt.parallel_grain = grain;
  opt.trace = &rec;
  opt.metrics = metrics;
  const GtdResult r = run_gtd(g, root, opt);
  EXPECT_EQ(r.status, RunStatus::kTerminated) << threads << " threads";
  std::ostringstream os;
  trace::write_trace_dtr2(os, rec.take());
  return os.str();
}

// The serialized dtop-trace capture — not just the model-time stats — must
// be byte-for-byte identical at any thread count. This is the strongest
// form of the determinism contract: every on_step/on_send/on_schedule event
// lands in the same order with the same payload.
TEST(ParallelEngine, TraceBytesIdenticalAcrossThreadCounts) {
  const std::pair<const char*, PortGraph> families[] = {
      {"debruijn-16", de_bruijn(4)},
      {"tree-loop", tree_loop_random(3, 7)},
      {"degraded-grid", degraded_grid(4, 4, 0.2, 5)},
  };
  for (const auto& [label, g] : families) {
    const std::string base = record_dtr2_bytes(g, 0, 1);
    EXPECT_FALSE(base.empty()) << label;
    for (const int threads : {2, 8}) {
      EXPECT_EQ(record_dtr2_bytes(g, 0, threads), base)
          << label << " at " << threads << " threads";
    }
  }
}

TEST(ParallelEngine, MixedForkedAndInlineTicksKeepDtr2BytesIdentical) {
  // Inline ticks stage wires with plain stores, forked ticks with relaxed
  // atomics. At 4 threads a grain of 2 forks the ticks with >= 4 active
  // nodes and runs the rest inline, so one run interleaves both staging
  // paths — and its DTR2 file must still equal the 1-thread recording.
  const PortGraph g = de_bruijn(4);
  const std::string base = record_dtr2_bytes(g, 0, 1);
  ASSERT_FALSE(base.empty());

  obs::Registry registry;
  const obs::EngineMetrics metrics = obs::EngineMetrics::create(registry);
  const std::string mixed = record_dtr2_bytes(g, 0, 4, 2, &metrics);
  const std::uint64_t ticks = metrics.ticks->total();
  const std::uint64_t forked = metrics.forked_ticks->total();
  ASSERT_GT(ticks, 0u);
  EXPECT_GT(forked, 0u) << "no tick forked";
  EXPECT_LT(forked, ticks) << "every tick forked";
  EXPECT_EQ(mixed, base);
}

TEST(ParallelEngine, GrainOneForcesForkAndStaysIdentical) {
  // parallel_grain = 1 makes every tick with >= 2 active nodes fork across
  // the pool — the degenerate maximum-parallelism setting. Results must not
  // move.
  const PortGraph g = de_bruijn(4);
  const GtdResult seq = run_gtd(g, 0);
  ASSERT_EQ(seq.status, RunStatus::kTerminated);

  GtdOptions opt;
  opt.num_threads = 4;
  opt.parallel_grain = 1;
  const GtdResult par = run_gtd(g, 0, opt);
  ASSERT_EQ(par.status, RunStatus::kTerminated);
  EXPECT_EQ(par.stats.ticks, seq.stats.ticks);
  EXPECT_EQ(par.stats.messages, seq.stats.messages);
  EXPECT_EQ(par.stats.node_steps, seq.stats.node_steps);
  EXPECT_EQ(par.transcript.to_string(), seq.transcript.to_string());
}

}  // namespace
}  // namespace dtop
