// Experiment E4 — Section 5: the Omega(N log N) lower bound and the
// asymptotic optimality claim.
//
// For the Lemma 5.1 family (binary tree + permuted leaf loop) we tabulate:
//   log2 G(N)        the counting bound on distinct topologies,
//   capacity/tick    delta * log2|I| (Lemma 5.2) for our actual alphabet,
//   T_min            the implied minimum ticks (Theorem 5.1),
//   T_measured       our protocol's running time,
//   ratio            T_measured / T_min.
// The family has D = Theta(log N), so O(N*D) = O(N log N): the ratio must
// stay bounded as N grows — that is the paper's "asymptotically
// time-optimal for many large networks". We also print N log2 N columns to
// exhibit both curves' shape.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "bound/lower_bound.hpp"
#include "support/stats.hpp"

namespace {

using namespace dtop;
using namespace dtop::bench;

void print_table() {
  BenchJson json("E4");
  const Port delta = 3;  // the family's degree bound
  std::cout << "Alphabet: log2|I| = " << format_double(log2_alphabet_size(delta), 2)
            << " bits; transcript capacity "
            << format_double(transcript_bits_per_tick(delta), 2)
            << " bits/tick (Lemma 5.2)\n\n";

  Table table({"depth", "N", "D", "log2 G(N)", "N*log2N", "T_min", "T_meas",
               "T_meas/T_min", "T_meas/(N*log2N)"});
  table.set_caption(
      "E4 (Theorem 5.1): measured time vs the counting lower bound on the "
      "tree+loop family");

  std::vector<double> ratios;
  for (int depth = 2; depth <= 6; ++depth) {
    const PortGraph g = tree_loop_random(depth, 1);
    const ProtocolRun run = run_verified("treeloop", g, 0);
    const double n = static_cast<double>(run.n);
    const double nlogn = n * std::log2(n);
    const double tmin = lower_bound_ticks(depth, delta);
    const double tmeas = static_cast<double>(run.result.stats.ticks);
    table.row()
        .cell(depth)
        .cell(static_cast<std::uint64_t>(run.n))
        .cell(static_cast<std::uint64_t>(run.d))
        .cell(log2_topology_count(depth), 1)
        .cell(nlogn, 1)
        .cell(tmin, 1)
        .cell(tmeas, 0)
        .cell(tmeas / tmin, 1)
        .cell(tmeas / nlogn, 2);
    ratios.push_back(tmeas / nlogn);
  }
  table.print(std::cout);
  json.add("bound", table);

  std::cout << "\nShape check: T_meas/(N log2 N) should approach a constant "
               "(measured spread "
            << format_double(*std::min_element(ratios.begin(), ratios.end()), 2)
            << " .. "
            << format_double(*std::max_element(ratios.begin(), ratios.end()), 2)
            << "); the gap T_meas/T_min is a constant factor, i.e. the "
               "protocol is asymptotically optimal on this family.\n";

  // Extrapolated lower bound for large N (no simulation; pure counting).
  Table extrap({"depth", "N", "log2 G(N)", "T_min", "T_min/(N*log2N)"});
  extrap.set_caption("\nCounting-bound extrapolation (Lemma 5.1/5.2 only)");
  for (int depth : {8, 12, 16, 20}) {
    const double n = static_cast<double>(tree_loop_nodes(depth));
    extrap.row()
        .cell(depth)
        .cell(static_cast<std::uint64_t>(tree_loop_nodes(depth)))
        .cell(log2_topology_count(depth), 0)
        .cell(lower_bound_ticks(depth, delta), 0)
        .cell(lower_bound_ticks(depth, delta) / (n * std::log2(n)), 4);
  }
  extrap.print(std::cout);
  json.add("extrapolation", extrap);
  json.write(std::cout);
}

}  // namespace

int main() {
  print_table();
  return 0;
}
