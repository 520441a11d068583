// End-to-end integration: run the full GTD protocol and check Theorem 4.1
// (the recovered map equals the network) plus the end-state cleanliness of
// Lemma 4.2, on hand-built and family networks; and judge(), the one
// verdict every caller reads those properties through.
#include <gtest/gtest.h>

#include "core/gtd.hpp"
#include "core/verify.hpp"
#include "graph/analysis.hpp"
#include "graph/families.hpp"
#include "graph/random_graph.hpp"

namespace dtop {
namespace {

void expect_exact_map(const PortGraph& g, NodeId root) {
  const GtdResult r = run_gtd(g, root);
  ASSERT_EQ(r.status, RunStatus::kTerminated)
      << "protocol did not terminate within budget; ticks=" << r.stats.ticks;
  EXPECT_TRUE(r.map_complete);
  const VerifyResult v = verify_map(g, root, r.map);
  EXPECT_TRUE(v.ok) << v.detail;
  EXPECT_TRUE(r.end_state_clean);
}

TEST(GtdIntegration, TwoNodeCycle) {
  PortGraph g(2, 2);
  g.connect(0, 0, 1, 0);
  g.connect(1, 0, 0, 0);
  expect_exact_map(g, 0);
}

TEST(GtdIntegration, TwoNodeCycleHighPorts) {
  // Same topology on different port numbers: port labels must be recovered
  // exactly, not just adjacency.
  PortGraph g(2, 3);
  g.connect(0, 2, 1, 1);
  g.connect(1, 2, 0, 0);
  expect_exact_map(g, 0);
}

TEST(GtdIntegration, TriangleCycle) { expect_exact_map(directed_ring(3), 0); }

TEST(GtdIntegration, DirectedRing8) { expect_exact_map(directed_ring(8), 0); }

TEST(GtdIntegration, BidirectionalRing6) {
  expect_exact_map(bidirectional_ring(6), 0);
}

TEST(GtdIntegration, SelfLoopAtRoot) {
  PortGraph g(2, 2);
  g.connect(0, 0, 0, 0);  // self loop at the root
  g.connect(0, 1, 1, 0);
  g.connect(1, 0, 0, 1);
  expect_exact_map(g, 0);
}

TEST(GtdIntegration, SelfLoopAtNonRoot) {
  PortGraph g(2, 2);
  g.connect(0, 0, 1, 0);
  g.connect(1, 0, 0, 0);
  g.connect(1, 1, 1, 1);  // self loop away from the root
  expect_exact_map(g, 0);
}

TEST(GtdIntegration, ParallelEdges) {
  PortGraph g(2, 3);
  g.connect(0, 0, 1, 0);
  g.connect(0, 1, 1, 2);  // parallel edge on different ports
  g.connect(1, 0, 0, 0);
  expect_exact_map(g, 0);
}

TEST(GtdIntegration, SingleNodeSelfLoop) {
  PortGraph g(1, 2);
  g.connect(0, 0, 0, 0);
  expect_exact_map(g, 0);
}

TEST(GtdIntegration, DeBruijn8) { expect_exact_map(de_bruijn(3), 0); }

TEST(GtdIntegration, ShuffleExchange8) {
  expect_exact_map(shuffle_exchange(3), 0);
}

TEST(GtdIntegration, WrappedButterfly8) {
  expect_exact_map(wrapped_butterfly(2), 0);
}

TEST(GtdIntegration, Kautz12) { expect_exact_map(kautz(3), 0); }

TEST(GtdIntegration, Ccc24) { expect_exact_map(cube_connected_cycles(3), 0); }

TEST(GtdIntegration, SatelliteRings) {
  expect_exact_map(satellite_rings(3, 4), 0);
}

TEST(GtdIntegration, DegradedGrid) {
  expect_exact_map(degraded_grid(4, 4, 0.25, 11), 0);
}

TEST(GtdIntegration, MaxDegreeSaturated) {
  // Every port of every node wired (delta = kMaxDegree): the densest legal
  // network stresses the per-tick character merging.
  const PortGraph g = random_strongly_connected({.nodes = 10,
                                                 .delta = kMaxDegree,
                                                 .avg_out_degree = 7.9,
                                                 .seed = 5});
  expect_exact_map(g, 0);
}

TEST(GtdIntegration, TreeLoopDepth2) {
  expect_exact_map(tree_loop_random(2, 42), 0);
}

TEST(GtdIntegration, Torus3x3) { expect_exact_map(directed_torus(3, 3), 0); }

TEST(GtdIntegration, NonZeroRoot) {
  const PortGraph g = de_bruijn(3);
  expect_exact_map(g, 5);
}

TEST(GtdIntegration, SmallRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const PortGraph g = random_strongly_connected(
        {.nodes = 12, .delta = 3, .avg_out_degree = 2.0, .seed = seed});
    expect_exact_map(g, 0);
  }
}

TEST(GtdIntegration, DirectedRingClosedForm) {
  // The protocol is fully deterministic, so on the directed N-ring its
  // running time has an exact closed form: every one of the N forward
  // traversals costs one FORWARD RCA + one BCA + one BACK RCA, each on a
  // loop of length exactly N at 11 ticks/hop (see E2/E3), i.e.
  //     T(N) = 33*N^2 - 31*N + 7.
  // Any protocol change that alters a single residence tick breaks this pin.
  for (NodeId n : {2u, 3u, 5u, 8u, 13u, 21u}) {
    const GtdResult r = run_gtd(directed_ring(n), 0);
    ASSERT_EQ(r.status, RunStatus::kTerminated);
    const auto expected = static_cast<Tick>(33ll * n * n - 31ll * n + 7);
    EXPECT_EQ(r.stats.ticks, expected) << "N=" << n;
  }
}

TEST(GtdIntegration, TickCountWithinLinearBound) {
  // Lemma 4.4: O(N*D). Check a concrete generous constant on a family.
  const PortGraph g = de_bruijn(4);
  const GtdResult r = run_gtd(g, 0);
  ASSERT_EQ(r.status, RunStatus::kTerminated);
  const auto n = static_cast<double>(g.num_nodes());
  const auto d = static_cast<double>(diameter(g));
  // 2E forward RCAs + E BCAs + E back RCAs, each a small multiple of D.
  const double bound = 200.0 * n * (d + 2.0) + 1000.0;
  EXPECT_LT(static_cast<double>(r.stats.ticks), bound);
}

TEST(GtdIntegration, TranscriptReplayIsDeterministic) {
  const PortGraph g = tree_loop_random(2, 9);
  const GtdResult a = run_gtd(g, 0);
  const GtdResult b = run_gtd(g, 0);
  ASSERT_EQ(a.status, RunStatus::kTerminated);
  ASSERT_EQ(b.status, RunStatus::kTerminated);
  ASSERT_EQ(a.transcript.events().size(), b.transcript.events().size());
  for (std::size_t i = 0; i < a.transcript.events().size(); ++i) {
    const auto& ea = a.transcript.events()[i];
    const auto& eb = b.transcript.events()[i];
    EXPECT_EQ(ea.kind, eb.kind);
    EXPECT_EQ(ea.tick, eb.tick);
    EXPECT_EQ(ea.out, eb.out);
    EXPECT_EQ(ea.in, eb.in);
  }
}

TEST(GtdIntegration, EveryEdgeMappedExactlyOnce) {
  const PortGraph g = random_strongly_connected(
      {.nodes = 15, .delta = 3, .avg_out_degree = 2.2, .seed = 77});
  const GtdResult r = run_gtd(g, 0);
  ASSERT_EQ(r.status, RunStatus::kTerminated);
  EXPECT_EQ(r.map.edge_count(), g.num_wires());
  // FORWARD records == number of edges (each forward traversal reports one).
  std::size_t forwards = 0;
  for (const RcaRecord& rec : r.records) forwards += rec.forward ? 1 : 0;
  EXPECT_EQ(forwards, g.num_wires());
}

TEST(Verdict, NamesEachOutcomeWithItsText) {
  const PortGraph g = directed_torus(3, 3);
  const GtdResult clean = run_gtd(g, 0);
  const Verdict exact = judge(g, 0, clean);
  EXPECT_TRUE(exact.ok());
  EXPECT_EQ(exact.outcome, Outcome::kExact);
  EXPECT_EQ(exact.detail, "");

  // An exact map on a network left with protocol residue.
  GtdResult residue = clean;
  residue.end_state_clean = false;
  const Verdict r = judge(g, 0, residue);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.outcome, Outcome::kResidue);
  EXPECT_EQ(r.detail, "end state not pristine (Lemma 4.2)");

  // A transcript that never completed the map: a mismatch, even though
  // the (stale) map would verify, and ahead of the residue.
  GtdResult incomplete = residue;
  incomplete.map_complete = false;
  const Verdict i = judge(g, 0, incomplete);
  EXPECT_EQ(i.outcome, Outcome::kMismatch);
  EXPECT_EQ(i.detail, "transcript did not yield a complete map");

  // A complete but wrong map carries verify_map's explanation.
  GtdResult wrong = clean;
  wrong.map = TopologyMap(g.delta());
  const VerifyResult v = verify_map(g, 0, wrong.map);
  ASSERT_FALSE(v.ok);
  const Verdict m = judge(g, 0, wrong);
  EXPECT_EQ(m.outcome, Outcome::kMismatch);
  EXPECT_EQ(m.detail, v.detail);

  GtdOptions strangled;
  strangled.max_ticks = 50;
  GtdResult cut = run_gtd(g, 0, strangled);
  cut.end_state_clean = false;
  const Verdict b = judge(g, 0, cut);
  EXPECT_EQ(b.outcome, Outcome::kBudget);
  EXPECT_EQ(b.detail, "tick budget exhausted after 50 ticks");

  const Verdict x = judge(Error("loop token at unmarked processor"));
  EXPECT_EQ(x.outcome, Outcome::kViolation);
  EXPECT_EQ(x.detail, "loop token at unmarked processor");

  EXPECT_STREQ(to_cstr(Outcome::kExact), "exact");
  EXPECT_STREQ(to_cstr(Outcome::kResidue), "residue");
  EXPECT_STREQ(to_cstr(Outcome::kMismatch), "mismatch");
  EXPECT_STREQ(to_cstr(Outcome::kBudget), "budget");
  EXPECT_STREQ(to_cstr(Outcome::kViolation), "violation");
}

}  // namespace
}  // namespace dtop
