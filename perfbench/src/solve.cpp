// solve-serial / solve-parallel: full determinations — run_gtd to
// termination, the map's text form, and verify_map — over a fixed instance
// set, round after round until the run's seconds are spent.
#include <string>
#include <vector>

#include "core/gtd.hpp"
#include "core/map_io.hpp"
#include "core/verify.hpp"
#include "support/arena.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

// A low-diameter instance with the largest active set (debruijn-256), a
// high-diameter one with a ~3-node median active set (torus-144), and three
// more shapes between them. Sizes keep one round near 2.5 s at 1 thread.
const std::vector<std::pair<std::string, dtop::NodeId>> kInstances = {
    {"debruijn", 256}, {"kautz", 96},  {"butterfly", 64},
    {"treeloop", 127}, {"torus", 144}};
const std::vector<std::pair<std::string, dtop::NodeId>> kSmokeInstances = {
    {"debruijn", 16}, {"kautz", 12}, {"butterfly", 24},
    {"treeloop", 15}, {"torus", 16}};

constexpr int kSetupReps = 101;

}  // namespace

void run_solve(const Options& opt, int threads, Result& res) {
  const std::vector<Instance> inst =
      make_instances(opt.smoke ? kSmokeInstances : kInstances, opt.seed);

  HostGauge gauge;
  for (int i = 0; i < 3; ++i) gauge.sample();
  std::vector<dtop::PortGraph> graphs;
  const double setup_s = median_setup(kSetupReps, [&](int) {
    graphs.clear();
    for (const Instance& in : inst) graphs.push_back(build_graph(in.text));
  });

  Tracer tr;
  EngineProbe probe;
  EnginePhases phases;
  dtop::Arena arena;  // reused across runs, as a long-lived caller would
  std::vector<Ledger> ledger;
  std::vector<double> latency, traced_rounds, untraced_rounds;
  std::vector<std::vector<double>> inst_latency(inst.size());

  const auto round_body = [&](int round, bool traced) {
    for (std::size_t i = 0; i < inst.size(); ++i) {
      const Instance& in = inst[i];
      const dtop::PortGraph& g = graphs[i];
      const Clock::time_point t0 = Clock::now();

      dtop::GtdOptions gopt;
      gopt.num_threads = threads;
      arena.reset();
      gopt.arena = &arena;
      if (traced) gopt.metrics = probe.hook();
      dtop::GtdResult r;
      const int run_id = tr.open(kCore, "run_gtd");
      try {
        r = dtop::run_gtd(g, in.root, gopt);
      } catch (const std::exception& e) {
        tr.close(run_id);
        if (round == 0) ledger.push_back({});
        res.attempt(false, in.label + ": " + e.what());
        continue;
      }
      tr.close(run_id);
      std::string text;
      {
        Scope s(tr, kCore, "map_text");
        text = dtop::map_to_string(r.map);
      }
      dtop::VerifyResult v;
      {
        Scope s(tr, kCore, "verify_map");
        v = dtop::verify_map(g, in.root, r.map);
      }
      latency.push_back(seconds_between(t0, Clock::now()));
      inst_latency[i].push_back(latency.back());

      if (traced) {
        const EnginePhases e = probe.delta();
        tr.child(run_id, kSim, "engine", e.total_ns());
        phases.add(e);
      }
      const Ledger l{r.stats.ticks, r.stats.messages, r.stats.node_steps};
      if (round == 0) ledger.push_back(l);
      const bool same = round == 0 || ledger[i] == l;
      res.attempt(r.status == dtop::RunStatus::kTerminated &&
                      r.map_complete && r.end_state_clean && v.ok &&
                      !text.empty() && same,
                  in.label + ": status/clean/verify/ledger mismatch " +
                      v.detail);
    }
  };
  run_rounds(opt, tr, gauge, traced_rounds, untraced_rounds, round_body);

  for (std::size_t i = 0; i < inst.size() && i < ledger.size(); ++i) {
    note_ledger(inst[i], ledger[i], inst_latency[i]);
  }

  if (!opt.trace) {
    report_end_to_end(res, gauge, setup_s, untraced_rounds, latency,
                      static_cast<double>(inst.size()));
    return;
  }

  const double rounds = static_cast<double>(traced_rounds.size());
  report_engine(res, phases, rounds);
  report_model_counts(res, inst, ledger);
  const double run_s = tr.total_seconds("run_gtd") / rounds;
  res.metric("core.run_gtd_s", run_s, "s");
  res.metric("core.self_s", run_s - phases.total_ns() * 1e-9 / rounds, "s");
  res.metric("core.verify_s", tr.total_seconds("verify_map") / rounds, "s");
  res.metric("core.map_text_s", tr.total_seconds("map_text") / rounds, "s");
  res.metric("graph.build_s", setup_s, "s");
  report_spans(res, tr, rounds, traced_rounds, untraced_rounds);
  res.metric("client.latency_ms_p50", median(latency) * 1e3, "ms");
  res.metric("host.ref_kernel_ms", gauge.median_s() * 1e3, "ms");
}

}  // namespace perfbench
