// The dtop-trace event encoding (DTR1, version 1): the record and header
// codecs DTR2 frames carry, and the legacy DTR1 stream they came from.
//
// Layout (all multi-byte integers are LEB128 varints; single bytes are raw):
//
//   header:
//     magic   "DTR1" (4 bytes)
//     version u8 (= 1)
//     root    varint
//     delta   u8
//     nodes   varint
//     slots   varint                  wire-id space incl. tombstones
//     per slot: u8 live? then         from varint, out_port u8,
//               (live only)           to varint, in_port u8
//     snake_delay / loop_delay / token_delay   varints
//
//   events, until EOF:
//     kind       u8 (TraceEventKind)
//     tick_delta varint               tick - previous event's tick
//     fields per kind (see trace_event.hpp), characters encoded as a
//     presence-bitmap varint followed by the bytes of each present lane
//
// The header embeds the full network, so a trace file is self-contained:
// replay needs nothing but the file. Ticks are non-decreasing by
// construction, which is what makes delta coding valid — the reader rejects
// nothing else about ordering. A trace may end without a kRunEnd record:
// that is the on-disk shape of a run that died mid-tick (protocol
// violation), and the reader treats any event boundary as a clean EOF.
// Truncation *inside* an event raises TraceError.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "graph/port_graph.hpp"
#include "support/error.hpp"
#include "trace/trace_event.hpp"

namespace dtop::trace {

// Thrown on malformed trace bytes: bad magic, unknown version, truncated
// event, out-of-range field.
class TraceError : public Error {
 public:
  explicit TraceError(std::string what) : Error(std::move(what)) {}
};

inline constexpr char kTraceMagic[4] = {'D', 'T', 'R', '1'};
inline constexpr std::uint8_t kTraceVersion = 1;

struct TraceHeader {
  std::uint8_t version = kTraceVersion;
  NodeId root = 0;
  ProtocolConfig config;
  PortGraph graph{1, 1};

  bool operator==(const TraceHeader&) const = default;
};

// A fully materialized trace: everything `dtopctl trace` subcommands and the
// replay driver operate on.
struct RecordedTrace {
  TraceHeader header;
  std::vector<TraceEvent> events;

  bool operator==(const RecordedTrace&) const = default;
};

// Buffer-side codecs. The put_* functions append encoded bytes to `out`;
// the take_* functions decode the item at buf[pos], advance `pos` past it,
// and throw TraceError on a buffer that ends inside the item or on bytes no
// writer produces. Varints are support/frame.hpp's put_varint/take_varint.

// Character codec, exposed for the format tests.
void put_character(std::string& out, const Character& c);
Character take_character(std::string_view buf, std::size_t& pos);

// Single-event record codec, exposed for the DTR2 container
// (trace/container.hpp): an event record is byte-identical in a DTR1 stream
// and inside a DTR2 block. `last_tick` is the tick-delta baseline and is
// advanced to ev.tick; a DTR2 block resets it to 0, which is what makes a
// block independently decodable. take_event_record returns false when `pos`
// is at the end of `buf` (a record boundary) and throws TraceError on
// truncation inside a record.
void put_event_record(std::string& out, const TraceEvent& ev,
                      Tick& last_tick);
bool take_event_record(std::string_view buf, std::size_t& pos,
                       TraceEvent& ev, Tick& last_tick);

// Header serialization minus the 4-byte magic (version byte + fields),
// shared verbatim by DTR1 and the DTR2 header block.
void put_header_tail(std::string& out, const TraceHeader& h);
TraceHeader take_header_tail(std::string_view buf, std::size_t& pos);

// Reads a whole trace, DTR1 or DTR2 (by magic): TraceFile(is).read_all().
// Only DTR2 is written (trace/container.hpp: write_trace_dtr2); DTR1 is a
// read-only legacy format.
RecordedTrace read_trace(std::istream& is);

}  // namespace dtop::trace
