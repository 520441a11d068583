// Experiment E7 — the generality-vs-efficiency discussion of Section 1.2.2:
// "our solution might not be the most efficient from a practical point of
// view for these other specific network types".
//
// We quantify that: against the same networks we run (a) the ideal gather
// (unique IDs + unbounded messages, an O(D) information floor) and (b) a
// link-state flood (unique IDs + word-sized messages, O(E+D)), and report
// the finite-state protocol's slowdown factors. The point the table makes:
// the GTD protocol pays a factor ~N for using identical constant-memory
// processors — and it is the only one of the three that works in that
// model at all.
#include <iostream>

#include "baseline/baseline.hpp"
#include "bench_common.hpp"
#include "support/stats.hpp"

namespace {

using namespace dtop;
using namespace dtop::bench;

void check_baseline_exact(const PortGraph& truth, const BaselineResult& r,
                          const std::string& label) {
  DTOP_CHECK(r.complete, "baseline incomplete: " + label);
  DTOP_CHECK(truth.num_wires() == r.map.num_wires(),
             "baseline map wrong: " + label);
}

void print_table() {
  Table table({"family", "N", "D", "E", "GTD ticks", "link-state ticks",
               "ideal ticks", "GTD/LS", "GTD/ideal"});
  table.set_caption(
      "E7: finite-state GTD vs unique-ID baselines (model ticks to a "
      "complete map at the root)");

  // The GTD runs go through the campaign runner (concurrent, deterministic);
  // the unique-ID baselines are cheap and run inline per retained row, on a
  // graph regenerated from the same (family, size hint, seed) triple.
  const std::vector<std::string> families = {"dering", "biring", "debruijn",
                                             "treeloop", "torus", "random3"};
  for (const runner::JobResult& run :
       run_family_sweep(families, {32, 64, 128})) {
    const std::string& fam = run.spec.family;
    const FamilyInstance fi = make_family(fam, run.spec.nodes, run.spec.seed);
    const BaselineResult ls = run_link_state(fi.graph, 0);
    const BaselineResult ideal = run_ideal_gather(fi.graph, 0);
    check_baseline_exact(fi.graph, ls, fam + "/link-state");
    check_baseline_exact(fi.graph, ideal, fam + "/ideal");

    const double gtd = static_cast<double>(run.ticks);
    table.row()
        .cell(fam)
        .cell(static_cast<std::uint64_t>(run.n))
        .cell(static_cast<std::uint64_t>(run.d))
        .cell(static_cast<std::uint64_t>(run.e))
        .cell(static_cast<std::uint64_t>(run.ticks))
        .cell(static_cast<std::uint64_t>(ls.completion_tick))
        .cell(static_cast<std::uint64_t>(ideal.completion_tick))
        .cell(gtd / static_cast<double>(ls.completion_tick), 1)
        .cell(gtd / static_cast<double>(ideal.completion_tick), 1);
  }
  table.print(std::cout);
  BenchJson json("E7");
  json.add("baselines", table);
  json.write(std::cout);
  std::cout << "\nThe GTD/ideal factor grows ~linearly in N (O(N*D) vs "
               "O(D)): exactly the cost the paper accepts for anonymous "
               "finite-state processors on arbitrary directed networks.\n";
}

}  // namespace

int main() {
  print_table();
  return 0;
}
