#include "trace/trace_io.hpp"

#include <istream>
#include <limits>
#include <ostream>

#include "support/frame.hpp"
#include "trace/container.hpp"

namespace dtop::trace {
namespace {

// Character presence-bitmap bits, low to high.
enum : std::uint32_t {
  kBitGrow0 = 1u << 0,  // grow[0..2] at bits 0..2
  kBitDie0 = 1u << 3,   // die[0..2] at bits 3..5
  kBitKill = 1u << 6,
  kBitBkill = 1u << 7,
  kBitRloop = 1u << 8,
  kBitBloop = 1u << 9,
  kBitDfs = 1u << 10,
};

void put_u8(std::ostream& os, std::uint8_t b) {
  os.put(static_cast<char>(b));
}

std::uint8_t get_u8(std::istream& is) {
  const int c = is.get();
  if (c == std::char_traits<char>::eof()) {
    throw TraceError("trace truncated: unexpected end of stream");
  }
  return static_cast<std::uint8_t>(c);
}

void write_snake_char(std::ostream& os, const SnakeChar& c) {
  put_u8(os, static_cast<std::uint8_t>(c.part));
  put_u8(os, c.out);
  put_u8(os, c.in);
}

SnakeChar read_snake_char(std::istream& is) {
  SnakeChar c;
  const std::uint8_t part = get_u8(is);
  if (part > static_cast<std::uint8_t>(SnakePart::kTail)) {
    throw TraceError("trace corrupt: bad snake part " + std::to_string(part));
  }
  c.part = static_cast<SnakePart>(part);
  c.out = get_u8(is);
  c.in = get_u8(is);
  return c;
}

}  // namespace

void write_varint(std::ostream& os, std::uint64_t v) {
  std::string buf;
  put_varint(buf, v);
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

std::uint64_t read_varint(std::istream& is) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const std::uint8_t b = get_u8(is);
    // At shift 63 only bit 0 of the final byte still fits in the result;
    // shifting a wider payload would silently drop its bits 1..6 and decode
    // a crafted 10-byte varint to the wrong value instead of failing.
    if (shift == 63 && (b & 0x7E)) {
      throw TraceError("trace corrupt: varint overflows 64 bits");
    }
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if (!(b & 0x80)) return v;
  }
  throw TraceError("trace corrupt: varint longer than 10 bytes");
}

void write_character(std::ostream& os, const Character& c) {
  std::uint32_t bits = 0;
  for (int i = 0; i < kNumSnakeKinds; ++i) {
    if (c.grow[i]) bits |= kBitGrow0 << i;
    if (c.die[i]) bits |= kBitDie0 << i;
  }
  if (c.kill) bits |= kBitKill;
  if (c.bkill) bits |= kBitBkill;
  if (c.rloop) bits |= kBitRloop;
  if (c.bloop) bits |= kBitBloop;
  if (c.dfs) bits |= kBitDfs;
  write_varint(os, bits);
  for (int i = 0; i < kNumSnakeKinds; ++i)
    if (c.grow[i]) write_snake_char(os, *c.grow[i]);
  for (int i = 0; i < kNumSnakeKinds; ++i)
    if (c.die[i]) write_snake_char(os, *c.die[i]);
  if (c.rloop) {
    put_u8(os, static_cast<std::uint8_t>(c.rloop->kind));
    put_u8(os, c.rloop->out);
    put_u8(os, c.rloop->in);
  }
  if (c.bloop) {
    put_u8(os, static_cast<std::uint8_t>(c.bloop->kind));
    put_u8(os, c.bloop->payload);
  }
  if (c.dfs) {
    put_u8(os, c.dfs->last_out);
    put_u8(os, c.dfs->last_in);
  }
}

Character read_character(std::istream& is) {
  Character c;
  const std::uint64_t bits = read_varint(is);
  if (bits >> 11) {
    throw TraceError("trace corrupt: unknown character lane bits");
  }
  for (int i = 0; i < kNumSnakeKinds; ++i)
    if (bits & (kBitGrow0 << i)) c.grow[i] = read_snake_char(is);
  for (int i = 0; i < kNumSnakeKinds; ++i)
    if (bits & (kBitDie0 << i)) c.die[i] = read_snake_char(is);
  c.kill = (bits & kBitKill) != 0;
  c.bkill = (bits & kBitBkill) != 0;
  if (bits & kBitRloop) {
    RcaToken t;
    const std::uint8_t kind = get_u8(is);
    if (kind > static_cast<std::uint8_t>(RcaToken::Kind::kUnmark)) {
      throw TraceError("trace corrupt: bad rloop kind");
    }
    t.kind = static_cast<RcaToken::Kind>(kind);
    t.out = get_u8(is);
    t.in = get_u8(is);
    c.rloop = t;
  }
  if (bits & kBitBloop) {
    BcaToken t;
    const std::uint8_t kind = get_u8(is);
    if (kind > static_cast<std::uint8_t>(BcaToken::Kind::kBUnmark)) {
      throw TraceError("trace corrupt: bad bloop kind");
    }
    t.kind = static_cast<BcaToken::Kind>(kind);
    t.payload = get_u8(is);
    c.bloop = t;
  }
  if (bits & kBitDfs) {
    DfsToken t;
    t.last_out = get_u8(is);
    t.last_in = get_u8(is);
    c.dfs = t;
  }
  return c;
}

void write_header_tail(std::ostream& os, const TraceHeader& h) {
  put_u8(os, h.version);
  write_varint(os, h.root);
  put_u8(os, h.graph.delta());
  write_varint(os, h.graph.num_nodes());
  const WireId slots = h.graph.wire_slots();
  write_varint(os, slots);
  // Tombstoned slots must round-trip so recorded wire ids stay valid.
  std::vector<std::uint8_t> is_live(slots, 0);
  for (WireId lw : h.graph.wire_ids()) is_live[lw] = 1;
  for (WireId w = 0; w < slots; ++w) {
    const bool live = is_live[w] != 0;
    put_u8(os, live ? 1 : 0);
    if (live) {
      const Wire& wr = h.graph.wire(w);
      write_varint(os, wr.from);
      put_u8(os, wr.out_port);
      write_varint(os, wr.to);
      put_u8(os, wr.in_port);
    }
  }
  write_varint(os, static_cast<std::uint64_t>(h.config.snake_delay));
  write_varint(os, static_cast<std::uint64_t>(h.config.loop_delay));
  write_varint(os, static_cast<std::uint64_t>(h.config.token_delay));
}

TraceHeader read_header_tail(std::istream& is) {
  TraceHeader h;
  h.version = get_u8(is);
  if (h.version != kTraceVersion) {
    throw TraceError("unsupported trace version " + std::to_string(h.version));
  }
  const std::uint64_t root = read_varint(is);
  const std::uint8_t delta = get_u8(is);
  if (delta < 1 || delta > kMaxDegree) {
    throw TraceError("trace corrupt: delta out of range");
  }
  // Hard ceiling on the node count before any allocation happens: the
  // header is untrusted bytes, and a ~20-byte crafted file must not be able
  // to demand a multi-gigabyte PortGraph. 2^22 nodes at delta 8 is ~270 MB
  // of port tables — far beyond any workload in this repo, small enough to
  // be harmless.
  constexpr std::uint64_t kMaxTraceNodes = 1u << 22;
  const std::uint64_t nodes = read_varint(is);
  if (nodes < 1 || nodes > kMaxTraceNodes) {
    throw TraceError("trace corrupt: node count out of range");
  }
  if (root >= nodes) throw TraceError("trace corrupt: root out of range");
  h.root = static_cast<NodeId>(root);
  h.graph = PortGraph(static_cast<NodeId>(nodes), delta);

  // Anti-DoS sanity bound only: tombstone churn can legitimately push the
  // slot count past the live-wire maximum of nodes * delta, but not by much
  // in any trace this repo writes (degraded_grid disconnects each wire at
  // most once).
  const std::uint64_t slots = read_varint(is);
  if (slots > 4 * nodes * static_cast<std::uint64_t>(delta) + 64) {
    throw TraceError("trace corrupt: wire slot count out of range");
  }
  // Cached free port pair for tombstone reconstruction. A connect followed
  // by a disconnect frees its own ports again, so consecutive tombstones
  // reuse the cached pair in O(1); a rescan is needed only after a live
  // wire consumes it.
  NodeId ts_from = kNoNode, ts_to = kNoNode;
  Port ts_out = 0, ts_in = 0;
  for (std::uint64_t s = 0; s < slots; ++s) {
    const std::uint8_t live = get_u8(is);
    if (live > 1) throw TraceError("trace corrupt: bad wire slot tag");
    if (live) {
      const std::uint64_t from = read_varint(is);
      const std::uint8_t out_port = get_u8(is);
      const std::uint64_t to = read_varint(is);
      const std::uint8_t in_port = get_u8(is);
      if (from >= nodes || to >= nodes || out_port >= delta ||
          in_port >= delta) {
        throw TraceError("trace corrupt: wire endpoint out of range");
      }
      const WireId id =
          h.graph.connect(static_cast<NodeId>(from), out_port,
                          static_cast<NodeId>(to), in_port);
      if (id != s) throw TraceError("trace corrupt: wire slot mismatch");
    } else {
      // Reproduce the tombstone: connect any currently free port pair and
      // disconnect it again, which burns exactly this slot id. A free pair
      // always exists here — the slot's original ports are either free in
      // the final graph or reused by a wire with a higher id, which has not
      // been connected yet.
      if (ts_from == kNoNode || h.graph.out_connected(ts_from, ts_out)) {
        ts_from = kNoNode;
        for (NodeId v = 0; v < h.graph.num_nodes() && ts_from == kNoNode;
             ++v) {
          for (Port p = 0; p < delta; ++p) {
            if (!h.graph.out_connected(v, p)) {
              ts_from = v;
              ts_out = p;
              break;
            }
          }
        }
      }
      if (ts_to == kNoNode || h.graph.in_connected(ts_to, ts_in)) {
        ts_to = kNoNode;
        for (NodeId v = 0; v < h.graph.num_nodes() && ts_to == kNoNode; ++v) {
          for (Port p = 0; p < delta; ++p) {
            if (!h.graph.in_connected(v, p)) {
              ts_to = v;
              ts_in = p;
              break;
            }
          }
        }
      }
      if (ts_from == kNoNode || ts_to == kNoNode) {
        throw TraceError("trace corrupt: tombstone slot in a saturated graph");
      }
      const WireId id = h.graph.connect(ts_from, ts_out, ts_to, ts_in);
      if (id != s) throw TraceError("trace corrupt: wire slot mismatch");
      h.graph.disconnect(id);
    }
  }

  const auto read_delay = [&is]() {
    const std::uint64_t v = read_varint(is);
    if (v > 255) throw TraceError("trace corrupt: delay out of range");
    return static_cast<int>(v);
  };
  h.config.snake_delay = read_delay();
  h.config.loop_delay = read_delay();
  h.config.token_delay = read_delay();
  return h;
}

void write_event_record(std::ostream& os, const TraceEvent& ev,
                        Tick& last_tick) {
  DTOP_REQUIRE(ev.tick >= last_tick, "trace events must be tick-ordered");
  put_u8(os, static_cast<std::uint8_t>(ev.kind));
  write_varint(os, static_cast<std::uint64_t>(ev.tick - last_tick));
  last_tick = ev.tick;
  switch (ev.kind) {
    case TraceEventKind::kSchedule:
    case TraceEventKind::kNodeStep:
    case TraceEventKind::kRcaComplete:
    case TraceEventKind::kBcaStart:
    case TraceEventKind::kBcaComplete:
      write_varint(os, ev.a);
      break;
    case TraceEventKind::kWireSend:
      write_varint(os, ev.a);
      write_character(os, ev.payload);
      break;
    case TraceEventKind::kInject:
      write_varint(os, ev.a);
      put_u8(os, ev.b);
      write_character(os, ev.payload);
      break;
    case TraceEventKind::kRootEvent:
      write_varint(os, ev.a);
      put_u8(os, ev.b);
      put_u8(os, ev.c);
      break;
    case TraceEventKind::kRcaStart:
    case TraceEventKind::kRcaPhase:
    case TraceEventKind::kGrowErased:
      write_varint(os, ev.a);
      put_u8(os, ev.b);
      break;
    case TraceEventKind::kRunEnd:
      write_varint(os, ev.a);
      break;
  }
}

bool read_event_record(std::istream& is, TraceEvent& ev, Tick& last_tick) {
  const int first = is.get();
  if (first == std::char_traits<char>::eof()) return false;  // clean EOF
  if (first >= kNumTraceEventKinds) {
    throw TraceError("trace corrupt: unknown event kind " +
                     std::to_string(first));
  }
  ev = TraceEvent{};
  ev.kind = static_cast<TraceEventKind>(first);
  const std::uint64_t delta = read_varint(is);
  if (delta > static_cast<std::uint64_t>(std::numeric_limits<Tick>::max() -
                                         last_tick)) {
    throw TraceError("trace corrupt: tick overflow");
  }
  last_tick += static_cast<Tick>(delta);
  ev.tick = last_tick;

  const auto read_a = [&is] {
    const std::uint64_t v = read_varint(is);
    if (v > std::numeric_limits<std::uint32_t>::max()) {
      throw TraceError("trace corrupt: field out of range");
    }
    return static_cast<std::uint32_t>(v);
  };
  switch (ev.kind) {
    case TraceEventKind::kSchedule:
    case TraceEventKind::kNodeStep:
    case TraceEventKind::kRcaComplete:
    case TraceEventKind::kBcaStart:
    case TraceEventKind::kBcaComplete:
    case TraceEventKind::kRunEnd:
      ev.a = read_a();
      break;
    case TraceEventKind::kWireSend:
      ev.a = read_a();
      ev.payload = read_character(is);
      break;
    case TraceEventKind::kInject:
      ev.a = read_a();
      ev.b = get_u8(is);
      ev.payload = read_character(is);
      break;
    case TraceEventKind::kRootEvent:
      ev.a = read_a();
      ev.b = get_u8(is);
      ev.c = get_u8(is);
      break;
    case TraceEventKind::kRcaStart:
    case TraceEventKind::kRcaPhase:
    case TraceEventKind::kGrowErased:
      ev.a = read_a();
      ev.b = get_u8(is);
      break;
  }
  return true;
}

RecordedTrace read_trace(std::istream& is) {
  return TraceFile(is).read_all();
}

}  // namespace dtop::trace
