// The root's computational transcript.
//
// "At each step of the protocol, the root is piping its computational
// transcript to the computer to which it is attached" (Section 1.2.1). The
// events below are exactly the observations that computer can make:
//  - the characters of the IG snake as the root converts it to an OG snake
//    (the canonical path A -> root, one kUpStep per edge, then kUpEnd);
//  - the characters of the ID snake as it is converted to an OD snake
//    (the canonical path root -> A: kDownStep / kDownEnd);
//  - the FORWARD(i,j) or BACK loop token passing through the root;
//  - the degenerate self-events when the DFS token enters or returns to the
//    root itself (DESIGN.md section 3c);
//  - initiation and termination.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "proto/alphabet.hpp"
#include "sim/machine.hpp"

namespace dtop {

struct TranscriptEvent {
  enum class Kind : std::uint8_t {
    kInit,
    kUpStep,       // one edge of the canonical path A -> root
    kUpEnd,
    kDownStep,     // one edge of the canonical path root -> A
    kDownEnd,
    kForward,      // FORWARD(out, in) observed on the loop
    kBack,
    kSelfForward,  // DFS token entered the root through a forward edge
    kSelfBack,     // DFS token returned to the root through its BCA
    kTerminated,
  };

  Kind kind{};
  Tick tick = 0;
  Port out = kNoPort;  // kUpStep/kDownStep/kForward/kSelfForward payloads
  Port in = kNoPort;

  bool operator==(const TranscriptEvent&) const = default;
};

const char* to_cstr(TranscriptEvent::Kind k);
std::string to_string(const TranscriptEvent& ev);

// Append-only event stream written by the root machine and read by the
// master computer (core/map_builder). The root also notes every entry to
// the engine (GtdNote::kRootEvent), which is how a run trace mirrors it.
class Transcript {
 public:
  void emit(const TranscriptEvent& ev) { events_.push_back(ev); }
  const std::vector<TranscriptEvent>& events() const { return events_; }
  std::string to_string() const;

 private:
  std::vector<TranscriptEvent> events_;
};

}  // namespace dtop
