// TraceRecorder: the one object that turns a live run into a RecordedTrace.
//
// It is the engine's EngineTraceSink<Character>, and that one sink sees
// everything: engine events (schedules, steps, sends, injections) and the
// notes the machines make during their updates — the root's transcript
// entries and, when the run sets GtdOptions::spans, the RCA/BCA span
// events. Notes reach the sink in active-set order at any thread count, so
// every recording, spans included, is bit-identical at any num_threads.
//
// run_gtd wires it up when GtdOptions::trace is set.
//
// Built over an expected stream instead, the recorder is replay's oracle:
// each event is compared against the expected one at its index as the sink
// receives it, and only the count of events produced and the first mismatch
// are kept. Recording and checking share one event construction.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "sim/trace_sink.hpp"
#include "trace/trace_io.hpp"

namespace dtop::trace {

class TraceRecorder final : public EngineTraceSink<Character> {
 public:
  TraceRecorder() = default;

  // Check mode: compare against `expected` (which must outlive the
  // recorder) rather than store. events() stays empty and take() refuses.
  explicit TraceRecorder(const std::vector<TraceEvent>& expected)
      : expected_(&expected) {}

  // The first produced event that differs from the expected one at its
  // index, or that runs past the end of the expected stream.
  struct Mismatch {
    std::size_t index = 0;
    TraceEvent produced;
  };

  // Captures the run's identity (network, root, protocol config) into the
  // trace header. Must be called exactly once, before any event arrives.
  void begin(const PortGraph& g, NodeId root, const ProtocolConfig& config);

  // Appends (in check mode: compares) the terminal kRunEnd record. Call
  // once, when the run ended cleanly; a recorder abandoned mid-run
  // (protocol violation) simply keeps its partial event list.
  void finish(Tick final_tick, RunStatus status);

  bool started() const { return started_; }
  bool finished() const { return finished_; }
  const TraceHeader& header() const;
  const std::vector<TraceEvent>& events() const { return events_; }
  // Events received since begin(), stored or checked.
  std::size_t produced() const { return produced_; }
  // Check mode: the first mismatch; later ones never overwrite it.
  const std::optional<Mismatch>& mismatch() const { return mismatch_; }

  // Moves the capture out as a self-contained trace.
  RecordedTrace take();

  // EngineTraceSink.
  void on_schedule(Tick now, NodeId v) override;
  // A GtdNote becomes the trace event of the same name (kRootEvent,
  // kRcaStart, ... kGrowErased) with the note's a/b/c fields.
  void on_note(Tick tick, const StepNote& n) override;
  void on_step(Tick tick, NodeId v) override;
  void on_send(Tick tick, WireId w, const Character& m) override;
  void on_inject(Tick now, WireId w, const Character& m,
                 bool overwrote) override;

 private:
  void push(const TraceEvent& ev);

  bool started_ = false;
  bool finished_ = false;
  TraceHeader header_;
  std::vector<TraceEvent> events_;
  const std::vector<TraceEvent>* expected_ = nullptr;  // check mode
  std::size_t produced_ = 0;
  std::optional<Mismatch> mismatch_;
};

}  // namespace dtop::trace
