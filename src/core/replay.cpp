// Trace replay: re-execute a recorded run and hard-fail on the first
// divergence from the recorded event stream.
//
// The trace is both the script of the run's external inputs (the kInject
// events, re-applied at their recorded ticks by run_gtd's own tick loop) and
// the oracle for its outputs (every event the re-execution produces, the
// injections included). Because the engine is deterministic, the produced
// stream either matches the recording event-for-event or the first mismatch
// localizes the problem to a tick.
#include "core/drive.hpp"
#include "core/gtd.hpp"
#include "trace/span_collector.hpp"
#include "trace/surgery.hpp"

namespace dtop {

ReplayResult replay_gtd(const trace::RecordedTrace& rec, int num_threads,
                        Arena* arena) {
  DTOP_REQUIRE(num_threads >= 1, "num_threads >= 1");
  ReplayResult rr;

  const trace::TraceHeader& h = rec.header;
  h.graph.validate();
  DTOP_REQUIRE(h.root < h.graph.num_nodes(), "replay: root out of range");

  // A trace recorded with span events must be replayed with them, or
  // every span event would read as a divergence. The live recorder checks
  // each produced event against the recording as it arrives and keeps only
  // the first mismatch, so replay holds no second copy of the stream.
  trace::TraceRecorder live(rec.events);
  GtdMachine::Config cfg;
  cfg.protocol = h.config;
  cfg.transcript = &rr.transcript;
  cfg.spans = trace::has_span_events(rec);
  // An engine of replay's own, so its stats survive a violation.
  GtdEngine engine(h.graph, h.root, cfg, num_threads, arena);

  // A recording that ends in kRunEnd was cut by termination (plus the
  // drain) or by its budget, which is then the run-end tick. A recorded
  // violation run stops mid-tick, possibly a few quiet ticks after its last
  // event; allow some slack so the re-execution reaches (and reproduces)
  // the fatal step.
  const Tick end_tick = rec.events.empty() ? 0 : rec.events.back().tick;
  const bool has_end = !rec.events.empty() &&
                       rec.events.back().kind == trace::TraceEventKind::kRunEnd;

  std::string violation;
  GtdResult run;
  try {
    drive_gtd(engine, h.config, trace::injections_in_range(rec, {}),
              has_end ? end_tick : end_tick + 8, &live, run);
    rr.stats = run.stats;
  } catch (const Error& e) {
    // A protocol violation during replay is legitimate iff the recording is
    // itself a violation trace and everything up to the crash matched.
    violation = e.what();
    rr.stats = engine.stats();
  }

  // Events a fatal tick emitted before the throw (e.g. the root's
  // transcript entries) were checked on arrival, so a faithful reproduction
  // of a violation trace counts them as produced.
  const std::size_t produced = live.produced();
  if (const auto& m = live.mismatch()) {
    rr.diverged = true;
    rr.event_index = m->index;
    if (m->index >= rec.events.size()) {
      rr.tick = m->produced.tick;
      rr.detail = "replay produced an event past the end of the recording: " +
                  to_string(m->produced);
    } else {
      const trace::TraceEvent& want = rec.events[m->index];
      rr.tick = want.tick;
      rr.detail = "first divergence at event " + std::to_string(m->index) +
                  " (tick " + std::to_string(rr.tick) + "): recorded " +
                  to_string(want) + ", replay produced " +
                  to_string(m->produced);
    }
  } else if (produced < rec.events.size()) {
    rr.diverged = true;
    rr.event_index = produced;
    rr.tick = rec.events[produced].tick;
    rr.detail = "recording continues past the replay: recorded " +
                to_string(rec.events[produced]) + " was never produced" +
                (violation.empty() ? "" : " (replay raised: " + violation +
                                              ")");
  } else if (!violation.empty() && has_end) {
    rr.detail = "replay raised a violation the recording does not contain: " +
                violation;
  } else {
    rr.ok = true;
  }
  return rr;
}

}  // namespace dtop
