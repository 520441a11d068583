#include "trace/trace_event.hpp"

#include "support/error.hpp"

namespace dtop::trace {

const char* to_cstr(TraceEventKind k) {
  switch (k) {
    case TraceEventKind::kSchedule: return "schedule";
    case TraceEventKind::kNodeStep: return "step";
    case TraceEventKind::kWireSend: return "send";
    case TraceEventKind::kInject: return "inject";
    case TraceEventKind::kRootEvent: return "root";
    case TraceEventKind::kRcaStart: return "rca-start";
    case TraceEventKind::kRcaPhase: return "rca-phase";
    case TraceEventKind::kRcaComplete: return "rca-complete";
    case TraceEventKind::kBcaStart: return "bca-start";
    case TraceEventKind::kBcaComplete: return "bca-complete";
    case TraceEventKind::kGrowErased: return "grow-erased";
    case TraceEventKind::kRunEnd: return "run-end";
  }
  return "?";
}

std::string to_string(const TraceEvent& ev) {
  std::string s = "t=" + std::to_string(ev.tick) + " " + to_cstr(ev.kind);
  switch (ev.kind) {
    case TraceEventKind::kSchedule:
    case TraceEventKind::kNodeStep:
      s += " node=" + std::to_string(ev.a);
      break;
    case TraceEventKind::kWireSend:
      s += " wire=" + std::to_string(ev.a) + " [" + dtop::to_string(ev.payload) +
           "]";
      break;
    case TraceEventKind::kInject:
      s += " wire=" + std::to_string(ev.a) +
           (ev.b ? " (overwrote in-flight)" : "") + " [" +
           dtop::to_string(ev.payload) + "]";
      break;
    case TraceEventKind::kRootEvent:
      s += ' ';
      s += dtop::to_string(to_transcript_event(ev));
      break;
    case TraceEventKind::kRcaStart:
      s += " node=" + std::to_string(ev.a) +
           (ev.b ? " forward" : " backward");
      break;
    case TraceEventKind::kRcaPhase:
      s += " node=" + std::to_string(ev.a) + " phase=" + std::to_string(ev.b);
      break;
    case TraceEventKind::kRcaComplete:
    case TraceEventKind::kBcaStart:
    case TraceEventKind::kBcaComplete:
      s += " node=" + std::to_string(ev.a);
      break;
    case TraceEventKind::kGrowErased:
      s += " node=" + std::to_string(ev.a) + (ev.b ? " bca-lane" : " rca-lane");
      break;
    case TraceEventKind::kRunEnd:
      s += (ev.a == static_cast<std::uint32_t>(RunStatus::kTerminated)
                ? " status=terminated"
                : " status=tick-budget");
      break;
  }
  return s;
}

TranscriptEvent to_transcript_event(const TraceEvent& ev) {
  DTOP_REQUIRE(ev.kind == TraceEventKind::kRootEvent,
               "to_transcript_event: not a root event");
  TranscriptEvent out;
  out.kind = static_cast<TranscriptEvent::Kind>(ev.a);
  out.tick = ev.tick;
  out.out = ev.b;
  out.in = ev.c;
  return out;
}

Transcript transcript_from_trace(const std::vector<TraceEvent>& events) {
  Transcript t;
  for (const TraceEvent& ev : events) {
    if (ev.kind == TraceEventKind::kRootEvent) t.emit(to_transcript_event(ev));
  }
  return t;
}

}  // namespace dtop::trace
