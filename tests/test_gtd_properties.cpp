// Parameterized property sweep: across random strongly-connected networks
// of varying size, degree bound, density and seed, the protocol must
// (a) terminate, (b) recover the exact port-labelled topology (Theorem 4.1),
// (c) leave the network pristine (Lemma 4.2), (d) name processors by
// canonical paths (Lemma 4.1), and (e) stay within the O(N*D) budget with a
// concrete constant.
#include <gtest/gtest.h>

#include <tuple>

#include "core/gtd.hpp"
#include "core/verify.hpp"
#include "graph/analysis.hpp"
#include "graph/canonical.hpp"
#include "graph/random_graph.hpp"

namespace dtop {
namespace {

struct Params {
  NodeId nodes;
  Port delta;
  double avg_out;
  std::uint64_t seed;
};

std::string param_name(const testing::TestParamInfo<Params>& info) {
  const Params& p = info.param;
  // Appended piecewise: a chained `"n" + ... + "_s" + ...` trips GCC 12's
  // -Wrestrict in optimized builds.
  std::string name;
  name.reserve(32);
  name += 'n';
  name += std::to_string(p.nodes);
  name += "_d";
  name += std::to_string(static_cast<int>(p.delta));
  name += "_a";
  name += std::to_string(static_cast<int>(p.avg_out * 10));
  name += "_s";
  name += std::to_string(p.seed);
  return name;
}

class GtdRandomSweep : public testing::TestWithParam<Params> {};

TEST_P(GtdRandomSweep, ExactMapCleanStateCanonicalNames) {
  const Params& p = GetParam();
  const PortGraph g = random_strongly_connected({.nodes = p.nodes,
                                                 .delta = p.delta,
                                                 .avg_out_degree = p.avg_out,
                                                 .seed = p.seed});
  const NodeId root = static_cast<NodeId>(p.seed % p.nodes);
  const GtdResult r = run_gtd(g, root);

  ASSERT_EQ(r.status, RunStatus::kTerminated);
  ASSERT_TRUE(r.map_complete);

  const VerifyResult v = verify_map(g, root, r.map);
  EXPECT_TRUE(v.ok) << v.detail;
  EXPECT_TRUE(r.end_state_clean);

  // O(N*D) with a concrete generous constant (per-edge RCAs+BCA, each a
  // small multiple of the loop length <= 2D+2).
  const double n = g.num_nodes();
  const double d = diameter(g);
  const double e = g.num_wires();
  EXPECT_LT(static_cast<double>(r.stats.ticks),
            40.0 * (3.0 * e + 2.0) * (2.0 * d + 8.0) + 2000.0)
      << "N=" << n << " D=" << d << " E=" << e;

  // Canonical naming of every record.
  const CanonicalTree tree = canonical_bfs_tree(g, root);
  for (const RcaRecord& rec : r.records) {
    if (rec.self) continue;
    const NodeId a = walk_path(g, root, rec.down);
    EXPECT_EQ(rec.down, canonical_path(g, tree, a));
    EXPECT_EQ(walk_path(g, a, rec.up), root);
  }
}

std::vector<Params> sweep() {
  std::vector<Params> ps;
  for (NodeId n : {3u, 5u, 8u, 13u, 21u, 34u}) {
    for (Port delta : {Port{2}, Port{3}, Port{4}}) {
      const double avg = delta == 2 ? 1.5 : 2.0;
      for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        ps.push_back(Params{n, delta, avg, seed});
      }
    }
  }
  // A few denser configurations.
  ps.push_back(Params{16, 4, 3.5, 11});
  ps.push_back(Params{24, 4, 3.0, 12});
  ps.push_back(Params{40, 3, 2.5, 13});
  return ps;
}

INSTANTIATE_TEST_SUITE_P(RandomNetworks, GtdRandomSweep,
                         testing::ValuesIn(sweep()), param_name);

// Message complexity stays polynomial: at most O(E * D) characters per RCA
// means O(E^2 * D) overall; sanity-check a generous cap so regressions that
// spam the network get caught.
TEST(GtdMessageComplexity, BoundedByCubicBudget) {
  const PortGraph g = random_strongly_connected(
      {.nodes = 20, .delta = 3, .avg_out_degree = 2.0, .seed = 3});
  const GtdResult r = run_gtd(g, 0);
  ASSERT_EQ(r.status, RunStatus::kTerminated);
  const double e = g.num_wires();
  const double d = diameter(g);
  EXPECT_LT(static_cast<double>(r.stats.messages),
            40.0 * 3.0 * e * e * (2.0 * d + 8.0));
}

// Stepping idle machines with blank inputs must be a perfect no-op: running
// the engine longer after termination changes nothing.
TEST(GtdQuiescence, PostTerminationStepsAreNoOps) {
  const PortGraph g = random_strongly_connected(
      {.nodes = 10, .delta = 3, .avg_out_degree = 2.0, .seed = 9});
  Transcript transcript;
  GtdMachine::Config cfg;
  cfg.transcript = &transcript;
  GtdEngine engine(g, 0, cfg);
  engine.schedule(0);
  ASSERT_EQ(engine.run(default_tick_budget(g)), RunStatus::kTerminated);
  for (int i = 0; i < 16; ++i) engine.step();
  const std::uint64_t messages_then = engine.stats().messages;
  const std::size_t events_then = transcript.events().size();
  for (int i = 0; i < 64; ++i) engine.step();
  EXPECT_EQ(engine.stats().messages, messages_then);
  EXPECT_EQ(transcript.events().size(), events_then);
}

}  // namespace
}  // namespace dtop
