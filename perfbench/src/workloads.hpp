// The four workloads and the seeded inputs they share.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "graph/port_graph.hpp"

namespace perfbench {

// One network as the program receives it: dtop-graph v1 text of a family
// instance whose nodes were relabelled by the seed, and a seed-picked root.
struct Instance {
  std::string label;  // family-size hint, e.g. "debruijn-256"
  std::string text;
  dtop::NodeId root = 0;
  std::uint64_t nodes = 0;
  std::uint64_t diameter = 0;
};

// Input generation (not part of the program's set-up).
std::vector<Instance> make_instances(
    const std::vector<std::pair<std::string, dtop::NodeId>>& specs,
    std::uint64_t seed);

// The program's graph build for one instance: parse, validate, and demand
// strong connectivity, as dtopd does for an inline graph.
dtop::PortGraph build_graph(const std::string& text);

// Exact model counts of one determination; equal on every repeat.
struct Ledger {
  std::int64_t ticks = 0;
  std::uint64_t messages = 0;
  std::uint64_t node_steps = 0;
  bool operator==(const Ledger&) const = default;
};
// Prints the instance's model counts and its median operation latency.
void note_ledger(const Instance& in, const Ledger& l,
                 const std::vector<double>& latency_s);

// Runs `round_body(round, traced)` until opt.seconds have passed, always
// finishing the round in progress; a smoke run stops after the minimum. A
// traced run alternates traced and untraced rounds, so tracing overhead is
// measured under the same machine conditions, and runs at least one of
// each. Samples `gauge` before every round, outside the round's timing.
// Appends each round's wall time to `traced` or `untraced` and returns the
// elapsed seconds.
template <typename F>
double run_rounds(const Options& opt, Tracer& tr, HostGauge& gauge,
                  std::vector<double>& traced, std::vector<double>& untraced,
                  F&& round_body) {
  const Clock::time_point start = Clock::now();
  for (int round = 0;; ++round) {
    gauge.sample();
    gauge.sample();
    const bool on = opt.trace && round % 2 == 0;
    tr.set_on(on);
    const Clock::time_point r0 = Clock::now();
    {
      Scope span(tr, kRound, "round");
      round_body(round, on);
    }
    (on ? traced : untraced).push_back(seconds_between(r0, Clock::now()));
    const bool enough = !opt.trace || round >= 1;
    if (enough && (opt.smoke ||
                   seconds_between(start, Clock::now()) >= opt.seconds)) {
      return seconds_between(start, Clock::now());
    }
  }
}

// Writes the traced run's per-round model counts: ledger sums and
// ticks / (N·D) over the instance set.
void report_model_counts(Result& r, const std::vector<Instance>& inst,
                         const std::vector<Ledger>& ledger);

void run_solve(const Options& opt, int threads, Result& res);
void run_serve(const Options& opt, Result& res);
void run_trace_roundtrip(const Options& opt, Result& res);

// Fills the end-to-end metrics shared by every workload, in reference
// seconds (see HostGauge). `latency_s` holds one sample per operation,
// `rounds_s` one per round; every round is `ops_per_round` operations.
// The measured figures are printed beside them.
void report_end_to_end(Result& r, const HostGauge& gauge, double setup_s,
                       const std::vector<double>& rounds_s,
                       const std::vector<double>& latency_s,
                       double ops_per_round);

}  // namespace perfbench
