// Experiment E8 — substrate honesty: the simulator itself.
//
// The paper's complexity measure is global clock ticks, which our lockstep
// engine reproduces exactly and deterministically at any thread count
// (tested). This bench records the exact tick, message and node-step counts
// of the engine's substrate workloads (a full de Bruijn run, sparse ring
// runs and a truncated dense flood), so the simulation work behind every
// other experiment is on the record. Wall-clock engine throughput,
// sequential vs parallel, is E10's thread_scaling table.
#include <iostream>

#include "bench_common.hpp"

namespace {

using namespace dtop;
using namespace dtop::bench;

void print_header() {
  std::cout << "E8: engine substrate workloads. Model time is exact and "
               "thread-count-invariant; see ParallelEngine tests. Wall-clock "
               "throughput is E10's.\n";
}

// The exact tick/message/step counts of the engine workloads. These are
// deterministic functions of the model, so they feed BENCH_E8.json and the
// committed baseline the bench-json CI job diffs at tolerance 0.
void print_model_time_table(BenchJson& json) {
  Table table({"workload", "N", "D", "E", "ticks", "messages", "node_steps",
               "avg_active"});
  table.set_caption("E8: engine substrate workloads (model time)");

  const std::pair<const char*, PortGraph> full_runs[] = {
      {"debruijn-64", de_bruijn(6)},
      {"ring-32", directed_ring(32)},
      {"ring-64", directed_ring(64)},
  };
  for (const auto& [label, g] : full_runs) {
    const ProtocolRun run = run_verified(label, g, /*root=*/0);
    table.row()
        .cell(label)
        .cell(static_cast<std::uint64_t>(run.n))
        .cell(static_cast<std::uint64_t>(run.d))
        .cell(static_cast<std::uint64_t>(run.e))
        .cell(static_cast<std::uint64_t>(run.result.stats.ticks))
        .cell(run.result.stats.messages)
        .cell(run.result.stats.node_steps)
        .cell(run.result.stats.avg_active(), 3);
  }

  // The dense-active-set workload, where nearly all nodes are active every
  // tick: a truncated ccc-160 flood — a throughput sample, not a map, so
  // its row reports the engine stats at the 20000-tick cutoff.
  {
    const PortGraph g = cube_connected_cycles(5);
    GtdMachine::Config cfg;
    Transcript t;
    cfg.transcript = &t;
    GtdEngine engine(g, 0, cfg, /*threads=*/1);
    engine.schedule(0);
    engine.run(20000);
    table.row()
        .cell("ccc-160-dense@20000")
        .cell(static_cast<std::uint64_t>(g.num_nodes()))
        .cell(static_cast<std::uint64_t>(diameter(g)))
        .cell(static_cast<std::uint64_t>(g.num_wires()))
        .cell(static_cast<std::uint64_t>(engine.stats().ticks))
        .cell(engine.stats().messages)
        .cell(engine.stats().node_steps)
        .cell(engine.stats().avg_active(), 3);
  }

  table.print(std::cout);
  json.add("engine_workloads", table);
}

}  // namespace

int main() {
  print_header();
  dtop::bench::BenchJson json("E8");
  print_model_time_table(json);
  json.write(std::cout);
  return 0;
}
