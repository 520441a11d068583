// Record -> replay round trips (the acceptance contract of the trace
// subsystem): traces are bit-identical at any engine thread count, replay
// reproduces a recording exactly, and perturbed traces are caught with the
// first divergent tick pinpointed.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/gtd.hpp"
#include "graph/families.hpp"
#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "trace/container.hpp"
#include "trace/trace_diff.hpp"
#include "trace/trace_io.hpp"

namespace dtop {
namespace {

trace::RecordedTrace record_run(const PortGraph& g, int threads,
                                const GtdOptions& base = {}) {
  trace::TraceRecorder rec;
  GtdOptions opt = base;
  opt.num_threads = threads;
  opt.trace = &rec;
  const GtdResult res = run_gtd(g, 0, opt);
  EXPECT_EQ(res.status, RunStatus::kTerminated);
  return rec.take();
}

std::string serialize(const trace::RecordedTrace& t) {
  std::stringstream ss;
  trace::write_trace_dtr2(ss, t);
  return ss.str();
}

// The headline acceptance criterion: record at --threads 1 and --threads 8
// on several graph families; the traces must serialize byte-identically,
// and replay must reproduce them event-for-event.
TEST(Replay, RecordReplayRoundTripsAcrossFamiliesAndThreadCounts) {
  const PortGraph graphs[] = {directed_torus(3, 3), de_bruijn(3), kautz(3)};
  for (const PortGraph& g : graphs) {
    const trace::RecordedTrace t1 = record_run(g, 1);
    const trace::RecordedTrace t8 = record_run(g, 8);

    const std::string bytes1 = serialize(t1);
    EXPECT_EQ(bytes1, serialize(t8))
        << "trace bytes differ between --threads 1 and --threads 8";
    EXPECT_TRUE(trace::diff_traces(t1, t8).identical);

    // Round trip through the binary format, then replay at both thread
    // counts; the replay must be divergence-free.
    std::stringstream ss(bytes1);
    const trace::RecordedTrace back = trace::read_trace(ss);
    for (const int threads : {1, 8}) {
      const ReplayResult r = replay_gtd(back, threads);
      EXPECT_TRUE(r.ok) << "threads=" << threads << ": " << r.detail;
      EXPECT_FALSE(r.diverged);
    }
  }
}

TEST(Replay, StatsMatchTheRecordedRunAtTerminationAndBudget) {
  // run_gtd and replay_gtd share one tick loop: both take their stats at
  // the termination tick (not after the 8 drain ticks the trace also
  // holds), or at the budget tick of a budget@T run.
  const PortGraph g = directed_torus(3, 3);
  for (const Tick budget : {Tick{0}, Tick{300}}) {
    SCOPED_TRACE("max_ticks " + std::to_string(budget));
    trace::TraceRecorder rec;
    GtdOptions opt;
    opt.max_ticks = budget;
    opt.trace = &rec;
    const GtdResult run = run_gtd(g, 0, opt);
    EXPECT_EQ(run.status,
              budget ? RunStatus::kTickBudget : RunStatus::kTerminated);
    const trace::RecordedTrace t = rec.take();
    const ReplayResult r = replay_gtd(t);
    ASSERT_TRUE(r.ok) << r.detail;
    EXPECT_EQ(r.stats.ticks, run.stats.ticks);
    EXPECT_EQ(r.stats.messages, run.stats.messages);
    EXPECT_EQ(r.stats.node_steps, run.stats.node_steps);
    EXPECT_EQ(t.events.back().tick, run.stats.ticks + (budget ? 0 : 8));
  }
}

TEST(Replay, ReplayRebuildsTheTranscript) {
  const PortGraph g = directed_torus(3, 3);
  const trace::RecordedTrace t = record_run(g, 1);
  const ReplayResult r = replay_gtd(t);
  ASSERT_TRUE(r.ok) << r.detail;
  // The trace's kRootEvent projection is exactly the replayed transcript.
  const Transcript from_trace = trace::transcript_from_trace(t.events);
  EXPECT_EQ(r.transcript.events(), from_trace.events());
  EXPECT_FALSE(from_trace.events().empty());
}

TEST(Replay, DetectsPerturbedPayloadAtItsTick) {
  const PortGraph g = de_bruijn(3);
  trace::RecordedTrace t = record_run(g, 1);

  // Flip one recorded wire send in the middle of the run.
  std::size_t victim = t.events.size();
  for (std::size_t i = t.events.size() / 2; i < t.events.size(); ++i) {
    if (t.events[i].kind == trace::TraceEventKind::kWireSend) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, t.events.size());
  t.events[victim].payload.kill = !t.events[victim].payload.kill;

  const ReplayResult r = replay_gtd(t);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.diverged);
  EXPECT_EQ(r.event_index, victim);
  EXPECT_EQ(r.tick, t.events[victim].tick);
  EXPECT_NE(r.detail.find("tick " + std::to_string(r.tick)),
            std::string::npos);
}

TEST(Replay, DetectsDroppedEvent) {
  const PortGraph g = directed_ring(6);
  trace::RecordedTrace t = record_run(g, 1);
  const std::size_t victim = t.events.size() / 2;
  t.events.erase(t.events.begin() + static_cast<std::ptrdiff_t>(victim));
  const ReplayResult r = replay_gtd(t);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.diverged);
  EXPECT_LE(r.event_index, victim + 1);
}

TEST(Replay, RecordingCutShortIsOutrunByTheReplay) {
  // A recording truncated mid-run has no run-end, so replay runs a few
  // ticks past its last event; the first event it produces past the cut is
  // the divergence, reported at the produced event's tick.
  const PortGraph g = directed_torus(3, 3);
  const trace::RecordedTrace full = record_run(g, 1);
  const std::size_t cut = full.events.size() / 2;
  // Cut where the next event is still inside the replay's slack window.
  ASSERT_EQ(full.events[cut].tick, full.events[cut - 1].tick);
  trace::RecordedTrace t = full;
  t.events.resize(cut);
  for (const int threads : {1, 4}) {
    const ReplayResult r = replay_gtd(t, threads);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.diverged);
    EXPECT_EQ(r.event_index, cut);
    EXPECT_EQ(r.tick, full.events[cut].tick);
    EXPECT_EQ(r.detail.rfind(
                  "replay produced an event past the end of the recording: " +
                      trace::to_string(full.events[cut]),
                  0),
              0u)
        << r.detail;
  }
}

TEST(Replay, RecordingWithAnExtraTrailingEventIsNeverReached) {
  // A second run-end after the real one, at the same tick: replay
  // reproduces the whole run, then finds the recording still going.
  const PortGraph g = directed_torus(3, 3);
  trace::RecordedTrace t = record_run(g, 1);
  const std::size_t extra = t.events.size();
  const trace::TraceEvent tail = t.events.back();
  ASSERT_EQ(tail.kind, trace::TraceEventKind::kRunEnd);
  t.events.push_back(tail);
  for (const int threads : {1, 4}) {
    const ReplayResult r = replay_gtd(t, threads);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.diverged);
    EXPECT_EQ(r.event_index, extra);
    EXPECT_EQ(r.tick, tail.tick);
    EXPECT_EQ(r.detail.rfind("recording continues past the replay: recorded " +
                                 trace::to_string(tail) + " was never produced",
                             0),
              0u)
        << r.detail;
  }
}

TEST(Replay, CheckingRecorderCountsButStoresNothing) {
  // Replay's oracle: a recorder built over the recording checks each event
  // as it is produced and keeps no copy of the stream.
  const PortGraph g = de_bruijn(4);
  const trace::RecordedTrace t = record_run(g, 1);
  ASSERT_GT(t.events.size(), 5000u);
  for (const int threads : {1, 4}) {
    trace::TraceRecorder check(t.events);
    GtdOptions opt;
    opt.num_threads = threads;
    opt.trace = &check;
    ASSERT_EQ(run_gtd(g, 0, opt).status, RunStatus::kTerminated);
    EXPECT_EQ(check.produced(), t.events.size());
    EXPECT_TRUE(check.events().empty());
    EXPECT_FALSE(check.mismatch().has_value());
    EXPECT_THROW((void)check.take(), Error);
  }
}

TEST(Replay, CheckingRecorderKeepsTheFirstMismatch) {
  // Two perturbed sends: the run goes on past the first (run_gtd does not
  // stop at a divergence), and the second must not overwrite it.
  const PortGraph g = de_bruijn(3);
  trace::RecordedTrace t = record_run(g, 1);
  std::vector<std::size_t> sends;
  for (std::size_t i = t.events.size() / 3; i < t.events.size(); ++i) {
    if (t.events[i].kind == trace::TraceEventKind::kWireSend) sends.push_back(i);
  }
  ASSERT_GE(sends.size(), 2u);
  const trace::TraceEvent original = t.events[sends.front()];
  for (const std::size_t i : {sends.front(), sends.back()}) {
    t.events[i].payload.kill = !t.events[i].payload.kill;
  }
  trace::TraceRecorder check(t.events);
  GtdOptions opt;
  opt.trace = &check;
  ASSERT_EQ(run_gtd(g, 0, opt).status, RunStatus::kTerminated);
  EXPECT_EQ(check.produced(), t.events.size());
  ASSERT_TRUE(check.mismatch().has_value());
  EXPECT_EQ(check.mismatch()->index, sends.front());
  EXPECT_EQ(check.mismatch()->produced, original);
  EXPECT_TRUE(check.events().empty());
}

TEST(Replay, ReproducesInjectedFaultRuns) {
  // A recorded run with a fault injection replays through the same
  // injection path: the kInject event is both script and oracle.
  const PortGraph g = de_bruijn(3);
  const runner::FaultScenario sc = runner::make_scenario("kill@40");
  GtdOptions base;
  base.injections.push_back(runner::make_injection(g, /*seed=*/1, sc));
  base.max_ticks = 4000;  // keep the watchdog case fast

  trace::TraceRecorder rec;
  GtdOptions opt = base;
  opt.trace = &rec;
  (void)run_gtd(g, 0, opt);
  const trace::RecordedTrace t = rec.take();

  bool has_inject = false;
  for (const trace::TraceEvent& ev : t.events) {
    if (ev.kind == trace::TraceEventKind::kInject) has_inject = true;
  }
  EXPECT_TRUE(has_inject);

  const ReplayResult r = replay_gtd(t);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(Replay, ReproducesViolationTraces) {
  // A rogue UNMARK kills the run with a protocol violation; the partial
  // trace (no run-end record) must replay cleanly — the replay reproduces
  // the violation rather than outliving the recording. A failing tick
  // keeps the notes of the nodes stepped before the failure in active
  // order, so the partial trace is the same at 4 threads with every
  // multi-node tick forked. The tick-11 injection's fatal tick forks with
  // notes in a chunk after the throwing node's, which a 4-thread recording
  // must drop.
  const PortGraph g = directed_ring(5);
  struct Case {
    Tick at;
    WireId wire;
    bool spans;
  };
  for (const Case& c : {Case{3, g.out_wire(3, 0), false},
                        Case{11, g.out_wire(0, 0), true}}) {
    SCOPED_TRACE("injection at tick " + std::to_string(c.at));
    const auto record = [&](int threads) {
      trace::TraceRecorder rec;
      GtdOptions opt;
      opt.num_threads = threads;
      opt.parallel_grain = 1;
      opt.trace = &rec;
      opt.spans = c.spans;
      Character rogue;
      rogue.rloop = RcaToken{RcaToken::Kind::kUnmark, kNoPort, kNoPort};
      opt.injections.push_back(trace::TraceInjection{c.at, c.wire, rogue});
      EXPECT_THROW(run_gtd(g, 0, opt), Error);
      return rec.take();
    };
    const trace::RecordedTrace t = record(1);
    ASSERT_FALSE(t.events.empty());
    EXPECT_NE(t.events.back().kind, trace::TraceEventKind::kRunEnd);
    EXPECT_EQ(serialize(record(4)), serialize(t));

    for (const int threads : {1, 4}) {
      const ReplayResult r = replay_gtd(t, threads);
      EXPECT_TRUE(r.ok) << threads << " threads: " << r.detail;
    }
  }
}

TEST(Replay, ReplaysSpanTracesByAttachingTheObserverFacet) {
  // A --spans recording interleaves RCA/BCA span events; replay must
  // record span events too, or every span event would read as a
  // divergence. Span traces replay at any thread count.
  const PortGraph g = directed_ring(6);
  trace::TraceRecorder rec;
  GtdOptions opt;
  opt.trace = &rec;
  opt.spans = true;
  ASSERT_EQ(run_gtd(g, 0, opt).status, RunStatus::kTerminated);
  const trace::RecordedTrace t = rec.take();

  bool has_span = false;
  for (const trace::TraceEvent& ev : t.events) {
    if (ev.kind == trace::TraceEventKind::kRcaStart) has_span = true;
  }
  ASSERT_TRUE(has_span);

  for (const int threads : {1, 8}) {
    const ReplayResult r = replay_gtd(t, threads);
    EXPECT_TRUE(r.ok) << threads << " threads: " << r.detail;
  }
}

TEST(Replay, CatchesCodeBehaviourViaConfigMismatch) {
  // Same run recorded under ratio3, replayed with the header doctored to
  // ratio1: the re-execution behaves differently and must diverge (this is
  // the "code changed behaviour" detection path, simulated via config).
  const PortGraph g = directed_torus(3, 3);
  trace::RecordedTrace t = record_run(g, 1);
  t.header.config.snake_delay = 0;
  t.header.config.loop_delay = 0;
  const ReplayResult r = replay_gtd(t);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.diverged);
}

TEST(RunnerTraceCapture, FailedJobsGetReplayableTraces) {
  runner::CampaignSpec spec;
  spec.families = {"torus"};
  spec.sizes = {9};
  spec.scenarios = {runner::make_scenario("none"),
                    runner::make_scenario("budget@50")};

  runner::RunnerOptions opt;
  opt.threads = 2;
  opt.trace_dir = ::testing::TempDir();
  const runner::CampaignResult result = runner::run_campaign(spec, opt);
  ASSERT_EQ(result.jobs.size(), 2u);

  // The clean job records nothing; the budget-failed job gets a capture.
  EXPECT_TRUE(result.jobs[0].ok());
  EXPECT_TRUE(result.jobs[0].trace_file.empty());
  EXPECT_EQ(result.jobs[1].status, Outcome::kBudget);
  ASSERT_FALSE(result.jobs[1].trace_file.empty());

  std::ifstream in(result.jobs[1].trace_file, std::ios::binary);
  ASSERT_TRUE(in.is_open());
  const trace::RecordedTrace t = trace::read_trace(in);
  ASSERT_FALSE(t.events.empty());
  EXPECT_EQ(t.events.back().kind, trace::TraceEventKind::kRunEnd);
  EXPECT_EQ(t.events.back().tick, 50);

  const ReplayResult r = replay_gtd(t);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(RunnerTraceCapture, ViolationJobsGetPartialTraces) {
  // unmark@3 on a 5-ring reliably hits an unmarked processor (same setup
  // as tests/test_faults.cpp); its capture is a partial trace that still
  // replays to the same violation.
  runner::CampaignSpec spec;
  spec.families = {"dering"};
  spec.sizes = {5};
  spec.scenarios = {runner::make_scenario("unmark@3")};

  runner::RunnerOptions opt;
  opt.trace_dir = ::testing::TempDir();
  const runner::CampaignResult result = runner::run_campaign(spec, opt);
  ASSERT_EQ(result.jobs.size(), 1u);
  const runner::JobResult& job = result.jobs[0];
  if (job.status != Outcome::kViolation) {
    GTEST_SKIP() << "injection happened to be harmless: " << job.detail;
  }
  ASSERT_FALSE(job.trace_file.empty());
  std::ifstream in(job.trace_file, std::ios::binary);
  ASSERT_TRUE(in.is_open());
  const trace::RecordedTrace t = trace::read_trace(in);
  const ReplayResult r = replay_gtd(t);
  EXPECT_TRUE(r.ok) << r.detail;
}

}  // namespace
}  // namespace dtop
