#include "trace/recorder.hpp"

#include "proto/gtd_machine.hpp"

namespace dtop::trace {

void TraceRecorder::begin(const PortGraph& g, NodeId root,
                          const ProtocolConfig& config) {
  DTOP_REQUIRE(!started_, "TraceRecorder::begin called twice");
  started_ = true;
  header_.root = root;
  header_.config = config;
  header_.graph = g;
}

void TraceRecorder::finish(Tick final_tick, RunStatus status) {
  DTOP_REQUIRE(started_ && !finished_, "TraceRecorder::finish out of order");
  TraceEvent ev;
  ev.kind = TraceEventKind::kRunEnd;
  ev.tick = final_tick;
  ev.a = static_cast<std::uint32_t>(status);
  push(ev);
  finished_ = true;
}

const TraceHeader& TraceRecorder::header() const {
  DTOP_REQUIRE(started_, "TraceRecorder: no header before begin()");
  return header_;
}

RecordedTrace TraceRecorder::take() {
  DTOP_REQUIRE(started_, "TraceRecorder: nothing recorded");
  DTOP_REQUIRE(!expected_, "TraceRecorder: a checking recorder stores nothing");
  RecordedTrace out;
  out.header = std::move(header_);
  out.events = std::move(events_);
  started_ = false;
  finished_ = false;
  header_ = TraceHeader{};
  events_.clear();
  produced_ = 0;
  return out;
}

void TraceRecorder::push(const TraceEvent& ev) {
  DTOP_CHECK(started_ && !finished_,
             "trace event outside the begin()..finish() window");
  if (!expected_) {
    events_.push_back(ev);
  } else if (!mismatch_ && (produced_ >= expected_->size() ||
                            !(ev == (*expected_)[produced_]))) {
    mismatch_ = Mismatch{produced_, ev};
  }
  ++produced_;
}

void TraceRecorder::on_schedule(Tick now, NodeId v) {
  TraceEvent ev;
  ev.kind = TraceEventKind::kSchedule;
  ev.tick = now;
  ev.a = v;
  push(ev);
}

void TraceRecorder::on_step(Tick tick, NodeId v) {
  TraceEvent ev;
  ev.kind = TraceEventKind::kNodeStep;
  ev.tick = tick;
  ev.a = v;
  push(ev);
}

void TraceRecorder::on_send(Tick tick, WireId w, const Character& m) {
  TraceEvent ev;
  ev.kind = TraceEventKind::kWireSend;
  ev.tick = tick;
  ev.a = w;
  ev.payload = m;
  push(ev);
}

void TraceRecorder::on_inject(Tick now, WireId w, const Character& m,
                              bool overwrote) {
  TraceEvent ev;
  ev.kind = TraceEventKind::kInject;
  ev.tick = now;
  ev.a = w;
  ev.b = overwrote ? 1 : 0;
  ev.payload = m;
  push(ev);
}

void TraceRecorder::on_note(Tick tick, const StepNote& n) {
  // GtdNote order is TraceEventKind order from kRootEvent on.
  static constexpr TraceEventKind kKinds[kNumGtdNotes] = {
      TraceEventKind::kRootEvent,   TraceEventKind::kRcaStart,
      TraceEventKind::kRcaPhase,    TraceEventKind::kRcaComplete,
      TraceEventKind::kBcaStart,    TraceEventKind::kBcaComplete,
      TraceEventKind::kGrowErased,
  };
  DTOP_CHECK(n.kind < kNumGtdNotes, "unknown machine note kind");
  TraceEvent ev;
  ev.kind = kKinds[n.kind];
  ev.tick = tick;
  ev.a = n.a;
  ev.b = n.b;
  ev.c = n.c;
  push(ev);
}

}  // namespace dtop::trace
