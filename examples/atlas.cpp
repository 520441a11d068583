// Example/tool: `atlas` — run the protocol on any family and emit artefacts.
//
// Usage:
//   ./atlas <family> <size_hint> [seed] [--dot out.dot] [--graph out.txt]
//           [--map out.map] [--trace N]
//   families: dering biring debruijn kautz ccc torus treeloop grid
//             satellite random3
//
// Prints a run report (ticks, messages, RCA statistics); optionally writes
// the recovered topology as Graphviz DOT / dtop graph text / dtop map text,
// and with --trace N prints the wire sends of the run's first N ticks, as
// the run's recording holds them (watch the snakes crawl).
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "core/gtd.hpp"
#include "core/map_io.hpp"
#include "core/verify.hpp"
#include "graph/analysis.hpp"
#include "graph/families.hpp"
#include "graph/graph_io.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "trace/span_collector.hpp"

int main(int argc, char** argv) {
  using namespace dtop;

  if (argc < 3) {
    std::cerr << "usage: atlas <family> <size_hint> [seed] [--dot FILE] "
                 "[--graph FILE] [--map FILE] [--trace N]\nfamilies:";
    for (const auto& f : family_names()) std::cerr << " " << f;
    std::cerr << "\n";
    return 2;
  }
  const std::string family = argv[1];
  const NodeId size = static_cast<NodeId>(std::atoi(argv[2]));
  std::uint64_t seed = 1;
  std::string dot_file, graph_file, map_file;
  Tick trace_ticks = 0;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dot" && i + 1 < argc) dot_file = argv[++i];
    else if (arg == "--graph" && i + 1 < argc) graph_file = argv[++i];
    else if (arg == "--map" && i + 1 < argc) map_file = argv[++i];
    else if (arg == "--trace" && i + 1 < argc)
      trace_ticks = std::atoll(argv[++i]);
    else seed = static_cast<std::uint64_t>(std::atoll(argv[i]));
  }

  const FamilyInstance fi = make_family(family, size, seed);
  const PortGraph& net = fi.graph;
  std::cout << "atlas: " << fi.label << " N=" << net.num_nodes()
            << " E=" << net.num_wires() << " delta="
            << static_cast<int>(net.delta()) << " D=" << diameter(net)
            << "\n";

  trace::TraceRecorder rec;
  GtdOptions opt;
  opt.trace = &rec;
  opt.spans = true;
  const GtdResult r = run_gtd(net, 0, opt);
  if (r.status != RunStatus::kTerminated) {
    std::cerr << "protocol did not terminate\n";
    return 1;
  }

  if (trace_ticks > 0) {
    std::cout << "wire activity, first " << trace_ticks << " ticks:\n";
    Tick shown = -1;
    for (const trace::TraceEvent& ev : rec.events()) {
      if (ev.tick > trace_ticks) break;
      if (ev.kind != trace::TraceEventKind::kWireSend) continue;
      if (ev.tick != shown) {
        std::cout << "--- tick " << ev.tick << " ---\n";
        shown = ev.tick;
      }
      const Wire& w = net.wire(ev.a);
      std::cout << "  " << w.from << "[" << static_cast<int>(w.out_port)
                << "] -> " << w.to << "[" << static_cast<int>(w.in_port)
                << "]  " << to_string(ev.payload) << "\n";
    }
    std::cout << "\n";
  }
  const VerifyResult v = verify_map(net, 0, r.map);
  std::cout << "ticks=" << r.stats.ticks << " messages=" << r.stats.messages
            << " verdict=" << (v.ok ? "exact" : v.detail) << "\n";

  const trace::SpanCollector spans = trace::collect_spans(rec.events());
  Accumulator rca, bca;
  for (const auto& s : spans.rca()) rca.add(static_cast<double>(s.duration()));
  for (const auto& s : spans.bca()) bca.add(static_cast<double>(s.duration()));
  if (rca.count() > 0)
    std::cout << "RCAs: " << rca.count() << " (ticks mean "
              << format_double(rca.mean(), 1) << ", max "
              << format_double(rca.max(), 0) << ")\n";
  if (bca.count() > 0)
    std::cout << "BCAs: " << bca.count() << " (ticks mean "
              << format_double(bca.mean(), 1) << ", max "
              << format_double(bca.max(), 0) << ")\n";

  const PortGraph map = r.map.to_port_graph();
  if (!dot_file.empty()) {
    std::ofstream out(dot_file);
    write_dot(out, map, r.map.root());
    std::cout << "wrote " << dot_file << "\n";
  }
  if (!graph_file.empty()) {
    std::ofstream out(graph_file);
    write_graph(out, map);
    std::cout << "wrote " << graph_file << "\n";
  }
  if (!map_file.empty()) {
    std::ofstream out(map_file);
    write_map(out, r.map);
    std::cout << "wrote " << map_file << "\n";
  }
  return v.ok ? 0 : 1;
}
