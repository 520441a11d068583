// Experiment E1 — Lemma 4.4: the Global Topology Determination Algorithm
// terminates in O(N*D).
//
// For each family and size we report the measured tick count T, N*D, and
// the ratio T/(N*D); the ratio staying bounded (and roughly flat per
// family) across the sweep is the paper's claim. A power-law fit of T
// against N*D is printed per family.
#include <iostream>
#include <map>

#include "bench_common.hpp"
#include "support/stats.hpp"

namespace {

using namespace dtop;
using namespace dtop::bench;

void print_table() {
  BenchJson json("E1");
  const std::vector<std::string> families = {
      "dering", "biring",   "debruijn", "shufflex", "butterfly",
      "kautz",  "treeloop", "ccc",      "torus",    "random3"};
  Table table({"family", "N", "D", "E", "ticks", "N*D", "ticks/(N*D)",
               "messages"});
  table.set_caption(
      "E1 (Lemma 4.4): protocol running time vs the O(N*D) bound");

  // The whole sweep runs concurrently through the campaign runner; each row
  // is one deterministic job, so the model-time numbers are unchanged.
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      fit_data;
  for (const runner::JobResult& run :
       run_family_sweep(families, default_sizes())) {
    const std::string& fam = run.spec.family;
    const double nd = static_cast<double>(run.n) * run.d;
    table.row()
        .cell(fam)
        .cell(static_cast<std::uint64_t>(run.n))
        .cell(static_cast<std::uint64_t>(run.d))
        .cell(static_cast<std::uint64_t>(run.e))
        .cell(static_cast<std::uint64_t>(run.ticks))
        .cell(nd, 0)
        .cell(static_cast<double>(run.ticks) / nd, 2)
        .cell(run.messages);
    fit_data[fam].first.push_back(nd);
    fit_data[fam].second.push_back(static_cast<double>(run.ticks));
  }
  table.print(std::cout);
  json.add("scaling", table);

  std::cout << "\nPer-family fits of ticks = a * (N*D)^b  (b ~= 1 supports "
               "the O(N*D) claim):\n";
  Table fits({"family", "exponent b", "prefactor a", "R^2"});
  for (const auto& [fam, xy] : fit_data) {
    if (xy.first.size() < 2) continue;
    const LinearFit f = fit_power_law(xy.first, xy.second);
    fits.row().cell(fam).cell(f.slope, 3).cell(f.intercept, 2).cell(f.r2, 4);
  }
  fits.print(std::cout);
  json.add("fits", fits);
  json.write(std::cout);
}

}  // namespace

int main() {
  print_table();
  return 0;
}
