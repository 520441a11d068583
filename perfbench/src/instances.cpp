#include <cstdio>

#include "graph/analysis.hpp"
#include "graph/families.hpp"
#include "graph/graph_io.hpp"
#include "graph/permute.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

std::vector<Instance> make_instances(
    const std::vector<std::pair<std::string, dtop::NodeId>>& specs,
    std::uint64_t seed) {
  dtop::Rng rng(seed);
  std::vector<Instance> out;
  for (const auto& [family, size] : specs) {
    // The family instance is fixed; the seed picks only the relabelling and
    // the root.
    const dtop::FamilyInstance fi = dtop::make_family(family, size, 1);
    const dtop::PortGraph g =
        dtop::permute_nodes_random(fi.graph, rng.next_u64());
    Instance in;
    in.label = family + "-" + std::to_string(size);
    in.text = dtop::graph_to_string(g);
    in.nodes = g.num_nodes();
    in.root = static_cast<dtop::NodeId>(rng.next_below(in.nodes));
    in.diameter = dtop::diameter(g);
    out.push_back(std::move(in));
  }
  return out;
}

dtop::PortGraph build_graph(const std::string& text) {
  dtop::PortGraph g = dtop::graph_from_string(text);
  g.validate();
  DTOP_CHECK(dtop::is_strongly_connected(g),
             "network must be strongly connected");
  return g;
}

void note_ledger(const Instance& in, const Ledger& l,
                 const std::vector<double>& latency_s) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "ledger %-14s n=%llu d=%llu root=%u ticks=%lld messages=%llu "
                "node_steps=%llu ticks_per_nd=%.6f median_ms=%.3f",
                in.label.c_str(), static_cast<unsigned long long>(in.nodes),
                static_cast<unsigned long long>(in.diameter), in.root,
                static_cast<long long>(l.ticks),
                static_cast<unsigned long long>(l.messages),
                static_cast<unsigned long long>(l.node_steps),
                static_cast<double>(l.ticks) /
                    static_cast<double>(in.nodes * in.diameter),
                median(latency_s) * 1e3);
  note(buf);
}

void report_model_counts(Result& r, const std::vector<Instance>& inst,
                         const std::vector<Ledger>& ledger) {
  Ledger sum;
  double nd = 0.0;
  for (std::size_t i = 0; i < ledger.size(); ++i) {
    sum.ticks += ledger[i].ticks;
    sum.messages += ledger[i].messages;
    sum.node_steps += ledger[i].node_steps;
    nd += static_cast<double>(inst[i].nodes * inst[i].diameter);
  }
  r.metric("engine.ticks", static_cast<double>(sum.ticks), "count");
  r.metric("engine.messages", static_cast<double>(sum.messages), "count");
  r.metric("engine.node_steps", static_cast<double>(sum.node_steps), "count");
  r.metric("proto.ticks_per_nd", static_cast<double>(sum.ticks) / nd, "ratio");
}

void report_end_to_end(Result& r, const HostGauge& gauge, double setup_s,
                       const std::vector<double>& rounds_s,
                       const std::vector<double>& latency_s,
                       double ops_per_round) {
  const double k = gauge.scale();
  const double wall = median(rounds_s);
  const double p50 = quantile(latency_s, 0.50);
  const double p99 = quantile(latency_s, 0.99);
  r.metric("setup_s", setup_s * k, "s");
  r.metric("wall_s", wall * k, "s");
  r.metric("ops_per_s", wall > 0 ? ops_per_round / (wall * k) : 0.0, "1/s");
  r.metric("latency_ms_p99", p99 * k * 1e3, "ms");
  r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  char buf[400];
  std::snprintf(buf, sizeof buf,
                "rounds=%zu latency samples=%zu ops/round=%.0f; host gauge "
                "median %.4f ms over %zu samples, scale %.4f; measured: "
                "setup %.6f s, wall %.6f s, p50 %.4f ms, p99 %.4f ms",
                rounds_s.size(), latency_s.size(), ops_per_round,
                gauge.median_s() * 1e3, gauge.samples().size(), k, setup_s,
                wall, p50 * 1e3, p99 * 1e3);
  note(buf);
}

}  // namespace perfbench
