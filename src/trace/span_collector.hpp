// Derives per-RCA / per-BCA spans (and growing-state erasures) from a trace
// event stream. Doubles as a serialization audit: the GTD protocol
// guarantees at most one RCA and one BCA in flight at any time, so
// overlapping spans are a hard error.
//
// This is the single home of the span bookkeeping: the benches (E2, E3,
// E5), the tests and `dtopctl trace inspect` all record a run with
// GtdOptions::spans and read its spans back through here, so a span
// computed from a trace file is bit-for-bit the span a live run measures.
#pragma once

#include <vector>

#include "proto/machine_state.hpp"
#include "support/error.hpp"
#include "trace/trace_event.hpp"
#include "trace/trace_io.hpp"

namespace dtop::trace {

class SpanCollector {
 public:
  struct Span {
    NodeId node = kNoNode;
    Tick start = 0, end = 0;
    bool forward = false;
    // False for a span still in flight when the stream ended (a violation
    // or budget-cut trace): its end/duration are meaningless and consumers
    // must not fold it into duration statistics.
    bool closed = false;
    // RCAs only: the ticks of the initiator's three phase transitions
    // (kRcaPhase), 0 until seen — the first OG head surviving to A
    // (kWaitOdt), the bare ODT arriving (kWaitToken), and the FORWARD/BACK
    // token returning (kWaitUnmark). They split the per-loop-hop constant
    // of Lemma 4.3 (experiment E2).
    Tick og_head = 0, odt = 0, token_back = 0;

    Tick duration() const { return end - start; }
  };

  struct Erasure {
    NodeId node;
    Tick tick;
    bool bca_lane;
  };

  // Consumes one event; kinds without span semantics are ignored, so a full
  // mixed trace can be streamed through unfiltered.
  void consume(const TraceEvent& ev) {
    switch (ev.kind) {
      case TraceEventKind::kRcaStart:
        DTOP_CHECK(!rca_open_, "overlapping RCAs observed");
        rca_open_ = true;
        rca_.push_back(Span{ev.a, ev.tick, 0, ev.b != 0});
        break;
      case TraceEventKind::kRcaPhase: {
        DTOP_CHECK(rca_open_ && rca_.back().node == ev.a,
                   "RCA phase without a start");
        Span& s = rca_.back();
        switch (static_cast<RcaPhase>(ev.b)) {
          case RcaPhase::kWaitOdt: s.og_head = ev.tick; break;
          case RcaPhase::kWaitToken: s.odt = ev.tick; break;
          case RcaPhase::kWaitUnmark: s.token_back = ev.tick; break;
          default: break;
        }
        break;
      }
      case TraceEventKind::kRcaComplete:
        DTOP_CHECK(rca_open_ && !rca_.empty() && rca_.back().node == ev.a,
                   "RCA completion without a start");
        rca_open_ = false;
        rca_.back().end = ev.tick;
        rca_.back().closed = true;
        break;
      case TraceEventKind::kBcaStart:
        DTOP_CHECK(!bca_open_, "overlapping BCAs observed");
        bca_open_ = true;
        bca_.push_back(Span{ev.a, ev.tick, 0, false});
        break;
      case TraceEventKind::kBcaComplete:
        DTOP_CHECK(bca_open_ && !bca_.empty() && bca_.back().node == ev.a,
                   "BCA completion without a start");
        bca_open_ = false;
        bca_.back().end = ev.tick;
        bca_.back().closed = true;
        break;
      case TraceEventKind::kGrowErased:
        erasures_.push_back(Erasure{ev.a, ev.tick, ev.b != 0});
        break;
      default:
        break;
    }
  }

  const std::vector<Span>& rca() const { return rca_; }
  const std::vector<Span>& bca() const { return bca_; }
  const std::vector<Erasure>& erasures() const { return erasures_; }

 private:
  std::vector<Span> rca_, bca_;
  std::vector<Erasure> erasures_;
  bool rca_open_ = false, bca_open_ = false;
};

// Streams every event of a recorded trace through a fresh collector.
inline SpanCollector collect_spans(const std::vector<TraceEvent>& events) {
  SpanCollector c;
  for (const TraceEvent& ev : events) c.consume(ev);
  return c;
}

// True when `t` was recorded with span events (GtdOptions::spans): a
// re-execution that must reproduce it has to record them too.
inline bool has_span_events(const RecordedTrace& t) {
  for (const TraceEvent& ev : t.events) {
    if (ev.kind >= TraceEventKind::kRcaStart &&
        ev.kind <= TraceEventKind::kGrowErased) {
      return true;
    }
  }
  return false;
}

}  // namespace dtop::trace
