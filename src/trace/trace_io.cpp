#include "trace/trace_io.hpp"

#include <limits>

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

// The fields each kind carries after its tick delta and `a`, always in the
// order b, c, payload (trace_event.hpp gives their meaning).
enum : std::uint8_t { kFieldB = 1, kFieldC = 2, kFieldPayload = 4 };
constexpr std::uint8_t kKindFields[kNumTraceEventKinds] = {
    0,                        // kSchedule
    0,                        // kNodeStep
    kFieldPayload,            // kWireSend
    kFieldB | kFieldPayload,  // kInject
    kFieldB | kFieldC,        // kRootEvent
    kFieldB,                  // kRcaStart
    kFieldB,                  // kRcaPhase
    0,                        // kRcaComplete
    0,                        // kBcaStart
    0,                        // kBcaComplete
    kFieldB,                  // kGrowErased
    0,                        // kRunEnd
};

void put_u8(std::string& out, std::uint8_t b) {
  out.push_back(static_cast<char>(b));
}

// Bounds-checked reads over untrusted bytes: a short buffer or a malformed
// varint throws, so no decoder below ever sees a partial value.
class Cursor {
 public:
  Cursor(std::string_view buf, std::size_t& pos) : buf_(buf), pos_(pos) {}

  std::uint8_t u8() {
    if (pos_ >= buf_.size()) truncated();
    return static_cast<std::uint8_t>(buf_[pos_++]);
  }

  std::uint64_t varint() {
    // Almost every varint in a trace is one byte.
    if (pos_ < buf_.size() && !(buf_[pos_] & 0x80)) {
      return static_cast<std::uint8_t>(buf_[pos_++]);
    }
    std::uint64_t v = 0;
    const FrameStatus s = take_varint(buf_, pos_, v);
    if (s == FrameStatus::kTorn) truncated();
    if (s == FrameStatus::kCorrupt) {
      throw TraceError("trace corrupt: varint overflows 64 bits");
    }
    return v;
  }

 private:
  [[noreturn]] static void truncated() {
    throw TraceError("trace truncated: unexpected end of stream");
  }

  std::string_view buf_;
  std::size_t& pos_;
};

void put_snake_char(std::string& out, const SnakeChar& c) {
  put_u8(out, static_cast<std::uint8_t>(c.part));
  put_u8(out, c.out);
  put_u8(out, c.in);
}

SnakeChar take_snake_char(Cursor& in) {
  SnakeChar c;
  const std::uint8_t part = in.u8();
  if (part > static_cast<std::uint8_t>(SnakePart::kTail)) {
    throw TraceError("trace corrupt: bad snake part " + std::to_string(part));
  }
  c.part = static_cast<SnakePart>(part);
  c.out = in.u8();
  c.in = in.u8();
  return c;
}

}  // namespace

Character take_character(std::string_view buf, std::size_t& pos) {
  Cursor in(buf, pos);
  Character c;
  const std::uint64_t bits = in.varint();
  if (bits >> 11) {
    throw TraceError("trace corrupt: unknown character lane bits");
  }
  for (int i = 0; i < kNumSnakeKinds; ++i)
    if (bits & (kBitGrow0 << i)) c.grow[i] = take_snake_char(in);
  for (int i = 0; i < kNumSnakeKinds; ++i)
    if (bits & (kBitDie0 << i)) c.die[i] = take_snake_char(in);
  c.kill = (bits & kBitKill) != 0;
  c.bkill = (bits & kBitBkill) != 0;
  if (bits & kBitRloop) {
    RcaToken t;
    const std::uint8_t kind = in.u8();
    if (kind > static_cast<std::uint8_t>(RcaToken::Kind::kUnmark)) {
      throw TraceError("trace corrupt: bad rloop kind");
    }
    t.kind = static_cast<RcaToken::Kind>(kind);
    t.out = in.u8();
    t.in = in.u8();
    c.rloop = t;
  }
  if (bits & kBitBloop) {
    BcaToken t;
    const std::uint8_t kind = in.u8();
    if (kind > static_cast<std::uint8_t>(BcaToken::Kind::kBUnmark)) {
      throw TraceError("trace corrupt: bad bloop kind");
    }
    t.kind = static_cast<BcaToken::Kind>(kind);
    t.payload = in.u8();
    c.bloop = t;
  }
  if (bits & kBitDfs) {
    DfsToken t;
    t.last_out = in.u8();
    t.last_in = in.u8();
    c.dfs = t;
  }
  return c;
}

void put_character(std::string& out, const Character& c) {
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
  put_varint(out, bits);
  for (int i = 0; i < kNumSnakeKinds; ++i)
    if (c.grow[i]) put_snake_char(out, *c.grow[i]);
  for (int i = 0; i < kNumSnakeKinds; ++i)
    if (c.die[i]) put_snake_char(out, *c.die[i]);
  if (c.rloop) {
    put_u8(out, static_cast<std::uint8_t>(c.rloop->kind));
    put_u8(out, c.rloop->out);
    put_u8(out, c.rloop->in);
  }
  if (c.bloop) {
    put_u8(out, static_cast<std::uint8_t>(c.bloop->kind));
    put_u8(out, c.bloop->payload);
  }
  if (c.dfs) {
    put_u8(out, c.dfs->last_out);
    put_u8(out, c.dfs->last_in);
  }
}

void put_header_tail(std::string& out, const TraceHeader& h) {
  put_u8(out, h.version);
  put_varint(out, h.root);
  put_u8(out, h.graph.delta());
  put_varint(out, h.graph.num_nodes());
  const WireId slots = h.graph.wire_slots();
  put_varint(out, slots);
  // Tombstoned slots must round-trip so recorded wire ids stay valid.
  std::vector<std::uint8_t> is_live(slots, 0);
  for (WireId lw : h.graph.wire_ids()) is_live[lw] = 1;
  for (WireId w = 0; w < slots; ++w) {
    const bool live = is_live[w] != 0;
    put_u8(out, live ? 1 : 0);
    if (live) {
      const Wire& wr = h.graph.wire(w);
      put_varint(out, wr.from);
      put_u8(out, wr.out_port);
      put_varint(out, wr.to);
      put_u8(out, wr.in_port);
    }
  }
  put_varint(out, static_cast<std::uint64_t>(h.config.snake_delay));
  put_varint(out, static_cast<std::uint64_t>(h.config.loop_delay));
  put_varint(out, static_cast<std::uint64_t>(h.config.token_delay));
}

TraceHeader take_header_tail(std::string_view buf, std::size_t& pos) {
  Cursor in(buf, pos);
  TraceHeader h;
  h.version = in.u8();
  if (h.version != kTraceVersion) {
    throw TraceError("unsupported trace version " + std::to_string(h.version));
  }
  const std::uint64_t root = in.varint();
  const std::uint8_t delta = in.u8();
  if (delta < 1 || delta > kMaxDegree) {
    throw TraceError("trace corrupt: delta out of range");
  }
  // Hard ceiling on the node count before any allocation happens: the
  // header is untrusted bytes, and a ~20-byte crafted file must not be able
  // to demand a multi-gigabyte PortGraph. 2^22 nodes at delta 8 is ~270 MB
  // of port tables — far beyond any workload in this repo, small enough to
  // be harmless.
  constexpr std::uint64_t kMaxTraceNodes = 1u << 22;
  const std::uint64_t nodes = in.varint();
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
  const std::uint64_t slots = in.varint();
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
    const std::uint8_t live = in.u8();
    if (live > 1) throw TraceError("trace corrupt: bad wire slot tag");
    if (live) {
      const std::uint64_t from = in.varint();
      const std::uint8_t out_port = in.u8();
      const std::uint64_t to = in.varint();
      const std::uint8_t in_port = in.u8();
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

  const auto take_delay = [&in]() {
    const std::uint64_t v = in.varint();
    if (v > 255) throw TraceError("trace corrupt: delay out of range");
    return static_cast<int>(v);
  };
  h.config.snake_delay = take_delay();
  h.config.loop_delay = take_delay();
  h.config.token_delay = take_delay();
  return h;
}

void put_event_record(std::string& out, const TraceEvent& ev,
                      Tick& last_tick) {
  DTOP_REQUIRE(ev.tick >= last_tick, "trace events must be tick-ordered");
  put_u8(out, static_cast<std::uint8_t>(ev.kind));
  put_varint(out, static_cast<std::uint64_t>(ev.tick - last_tick));
  last_tick = ev.tick;
  put_varint(out, ev.a);
  const std::uint8_t fields = kKindFields[static_cast<std::size_t>(ev.kind)];
  if (fields & kFieldB) put_u8(out, ev.b);
  if (fields & kFieldC) put_u8(out, ev.c);
  if (fields & kFieldPayload) put_character(out, ev.payload);
}

bool take_event_record(std::string_view buf, std::size_t& pos,
                       TraceEvent& ev, Tick& last_tick) {
  if (pos >= buf.size()) return false;  // clean EOF at a record boundary
  Cursor in(buf, pos);
  const std::uint8_t first = in.u8();
  if (first >= kNumTraceEventKinds) {
    throw TraceError("trace corrupt: unknown event kind " +
                     std::to_string(first));
  }
  ev = TraceEvent{};
  ev.kind = static_cast<TraceEventKind>(first);
  const std::uint64_t delta = in.varint();
  if (delta > static_cast<std::uint64_t>(std::numeric_limits<Tick>::max() -
                                         last_tick)) {
    throw TraceError("trace corrupt: tick overflow");
  }
  last_tick += static_cast<Tick>(delta);
  ev.tick = last_tick;
  const std::uint64_t a = in.varint();
  if (a > std::numeric_limits<std::uint32_t>::max()) {
    throw TraceError("trace corrupt: field out of range");
  }
  ev.a = static_cast<std::uint32_t>(a);
  const std::uint8_t fields = kKindFields[first];
  if (fields & kFieldB) ev.b = in.u8();
  if (fields & kFieldC) ev.c = in.u8();
  if (fields & kFieldPayload) ev.payload = take_character(buf, pos);
  return true;
}

RecordedTrace read_trace(std::istream& is) {
  return TraceFile(is).read_all();
}

}  // namespace dtop::trace
