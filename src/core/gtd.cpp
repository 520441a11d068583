#include "core/gtd.hpp"

#include <algorithm>

#include "core/drive.hpp"
#include "core/verify.hpp"

namespace dtop {

Tick default_tick_budget(const PortGraph& g) {
  // Very generous: each of the <= 2E RCAs and E BCAs costs O(D) with a
  // small constant; we substitute N for D and pad. This is a watchdog, not
  // an estimate.
  const auto n = static_cast<Tick>(g.num_nodes());
  const auto e = static_cast<Tick>(g.num_wires());
  return 1024 + 64 * (3 * e + 2) * (n + 2);
}

bool end_state_clean(GtdEngine& engine) {
  const PortGraph& g = engine.graph();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const GtdMachine& m = engine.machine(v);
    if (!m.pristine()) return false;
    const DfsState& dfs = m.state().dfs;
    if (v == engine.root()) {
      if (dfs.phase != DfsPhase::kDone) return false;
    } else {
      if (dfs.phase != DfsPhase::kIdle) return false;
      if (!dfs.visited) return false;
    }
  }
  for (WireId w : g.wire_ids())
    if (engine.wire_pending(w)) return false;
  return true;
}

void drive_gtd(GtdEngine& engine, const ProtocolConfig& protocol,
               std::span<const trace::TraceInjection> injections, Tick budget,
               trace::TraceRecorder* trace, GtdResult& out) {
  const NodeId root = engine.root();
  if (trace) {
    trace->begin(engine.graph(), root, protocol);
    engine.set_trace_sink(trace);
  }
  engine.schedule(root);

  // Injections fire when the engine clock reads their tick (delivery at
  // tick + 1), interleaved with stepping, in the order given.
  std::size_t next_inj = 0;
  while (engine.now() < budget) {
    while (next_inj < injections.size() &&
           injections[next_inj].at == engine.now()) {
      engine.inject(injections[next_inj].wire, injections[next_inj].rogue);
      ++next_inj;
      ++out.injections_applied;
    }
    engine.step();
    if (engine.machine(root).terminated()) {
      out.status = RunStatus::kTerminated;
      break;
    }
  }
  out.stats = engine.stats();
  out.stats.peak_rss_kb = peak_rss_kb();

  if (out.status == RunStatus::kTerminated) {
    // The root terminates the moment its last out-port finishes; at that
    // tick the final BCA's BUNMARK is still one hop from its initiator (by
    // design — see DESIGN.md 3d). Give the O(1) residue a few pulses to
    // drain before auditing.
    for (int i = 0; i < 8; ++i) engine.step();
    out.end_state_clean = end_state_clean(engine);
  }

  // Seal the recording; the drain steps above are part of the trace, so a
  // replay reproduces them too. (On a protocol violation an exception has
  // already unwound past this point and the recorder keeps its partial
  // stream — that, plus never reaching finish(), is the trace of a crash.)
  if (trace) trace->finish(engine.now(), out.status);
}

GtdResult run_gtd(const PortGraph& g, NodeId root, const GtdOptions& opt) {
  DTOP_REQUIRE(opt.num_threads >= 1, "num_threads >= 1");

  GtdResult result;

  GtdMachine::Config cfg;
  cfg.protocol = opt.protocol;
  cfg.transcript = &result.transcript;
  cfg.spans = opt.spans;

  EngineOptions eopt;
  eopt.num_threads = opt.num_threads;
  eopt.arena = opt.arena;
  eopt.parallel_grain = opt.parallel_grain;
  eopt.metrics = opt.metrics;
  eopt.metrics_shard = opt.metrics_shard;
  GtdEngine engine(g, root, cfg, eopt);

  // A stable sort keeps same-tick injections in caller order.
  std::vector<trace::TraceInjection> injections = opt.injections;
  std::stable_sort(injections.begin(), injections.end(),
                   [](const trace::TraceInjection& x,
                      const trace::TraceInjection& y) { return x.at < y.at; });
  drive_gtd(engine, opt.protocol, injections,
            opt.max_ticks > 0 ? opt.max_ticks : default_tick_budget(g),
            opt.trace, result);

  MapBuilder builder(g.delta());
  builder.consume_all(result.transcript);
  result.map_complete = builder.complete();
  result.map = builder.map();
  result.records = builder.records();
  return result;
}

const char* to_cstr(Outcome o) {
  switch (o) {
    case Outcome::kExact: return "exact";
    case Outcome::kResidue: return "residue";
    case Outcome::kMismatch: return "mismatch";
    case Outcome::kBudget: return "budget";
    case Outcome::kViolation: return "violation";
  }
  return "?";
}

Verdict judge(const PortGraph& g, NodeId root, const GtdResult& r) {
  if (r.status != RunStatus::kTerminated) {
    return {Outcome::kBudget, "tick budget exhausted after " +
                                  std::to_string(r.stats.ticks) + " ticks"};
  }
  if (!r.map_complete) {
    return {Outcome::kMismatch, "transcript did not yield a complete map"};
  }
  VerifyResult v = verify_map(g, root, r.map);
  if (!v.ok) return {Outcome::kMismatch, std::move(v.detail)};
  if (!r.end_state_clean) {
    return {Outcome::kResidue, "end state not pristine (Lemma 4.2)"};
  }
  return {Outcome::kExact, ""};
}

Verdict judge(const std::exception& thrown) {
  return {Outcome::kViolation, thrown.what()};
}

}  // namespace dtop
