// The dtop-trace binary format: varint, character and record codecs on
// byte buffers (every cut inside a record is loud), header/graph round-trips
// (tombstones included), the writer's tick-order check, DTR1 corruption
// detection, the committed golden DTR2 fixtures, and event-level diff.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>

#include "core/gtd.hpp"
#include "graph/families.hpp"
#include "support/frame.hpp"
#include "trace/container.hpp"
#include "trace/trace_diff.hpp"
#include "trace/trace_io.hpp"

namespace dtop::trace {
namespace {

TEST(TraceVarint, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  300,
                                  16383,
                                  16384,
                                  0xFFFFFFFFull,
                                  0x100000000ull,
                                  0x7FFFFFFFFFFFFFFFull,
                                  0xFFFFFFFFFFFFFFFFull};
  std::string buf;
  for (const std::uint64_t v : values) put_varint(buf, v);
  std::size_t pos = 0;
  for (const std::uint64_t v : values) {
    std::uint64_t got = 0;
    ASSERT_EQ(take_varint(buf, pos, got), FrameStatus::kOk);
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(TraceVarint, EncodingIsMinimalForSmallValues) {
  std::string buf;
  put_varint(buf, 0);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  put_varint(buf, 127);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  put_varint(buf, 128);
  EXPECT_EQ(buf.size(), 2u);
}

TEST(TraceVarint, TruncationThrows) {
  const std::string cut(1, static_cast<char>(0x80));  // continuation, then end
  std::size_t pos = 0;
  std::uint64_t v = 0;
  EXPECT_EQ(take_varint(cut, pos, v), FrameStatus::kTorn);
  // Inside a record (a kNodeStep whose tick delta is cut) that is loud.
  const std::string rec = std::string(1, '\x01') + cut;
  pos = 0;
  TraceEvent ev;
  Tick last_tick = 0;
  EXPECT_THROW(take_event_record(rec, pos, ev, last_tick), TraceError);
}

Character full_character() {
  Character c;
  c.grow[0] = SnakeChar{SnakePart::kHead, 1, kStarPort};
  c.grow[2] = SnakeChar{SnakePart::kTail, kNoPort, kNoPort};
  c.die[1] = SnakeChar{SnakePart::kBody, 0, 3};
  c.kill = true;
  c.bkill = true;
  c.rloop = RcaToken{RcaToken::Kind::kForward, 2, 1};
  c.bloop = BcaToken{BcaToken::Kind::kData, 0x5A};
  c.dfs = DfsToken{1, 0};
  return c;
}

TEST(TraceCharacterCodec, RoundTripsAllLanes) {
  std::string buf;
  put_character(buf, full_character());
  put_character(buf, Character{});  // blank
  std::size_t pos = 0;
  EXPECT_EQ(take_character(buf, pos), full_character());
  EXPECT_EQ(take_character(buf, pos), Character{});
  EXPECT_EQ(pos, buf.size());
}

TEST(TraceCharacterCodec, BlankIsOneByte) {
  std::string buf;
  put_character(buf, Character{});
  EXPECT_EQ(buf.size(), 1u);
}

RecordedTrace sample_trace() {
  RecordedTrace t;
  t.header.root = 1;
  t.header.config.snake_delay = 1;
  t.header.graph = directed_ring(4);

  TraceEvent ev;
  ev.kind = TraceEventKind::kSchedule;
  ev.tick = 0;
  ev.a = 1;
  t.events.push_back(ev);

  ev = TraceEvent{};
  ev.kind = TraceEventKind::kNodeStep;
  ev.tick = 1;
  ev.a = 1;
  t.events.push_back(ev);

  ev = TraceEvent{};
  ev.kind = TraceEventKind::kWireSend;
  ev.tick = 1;
  ev.a = 2;
  ev.payload = full_character();
  t.events.push_back(ev);

  ev = TraceEvent{};
  ev.kind = TraceEventKind::kInject;
  ev.tick = 5;
  ev.a = 0;
  ev.b = 1;
  ev.payload.kill = true;
  t.events.push_back(ev);

  ev = TraceEvent{};
  ev.kind = TraceEventKind::kRootEvent;
  ev.tick = 7;
  ev.a = static_cast<std::uint32_t>(TranscriptEvent::Kind::kForward);
  ev.b = 1;
  ev.c = 0;
  t.events.push_back(ev);

  ev = TraceEvent{};
  ev.kind = TraceEventKind::kRcaStart;
  ev.tick = 7;
  ev.a = 3;
  ev.b = 1;
  t.events.push_back(ev);

  ev = TraceEvent{};
  ev.kind = TraceEventKind::kRunEnd;
  ev.tick = 9;
  ev.a = static_cast<std::uint32_t>(RunStatus::kTerminated);
  t.events.push_back(ev);
  return t;
}

TEST(TraceIo, RoundTripsHeaderAndEvents) {
  const RecordedTrace t = sample_trace();
  std::stringstream ss;
  write_trace_dtr2(ss, t);
  const RecordedTrace back = read_trace(ss);
  EXPECT_EQ(back.header, t.header);
  EXPECT_EQ(back.events, t.events);
  EXPECT_TRUE(back == t);
}

TEST(TraceIo, RoundTripsTombstonedGraph) {
  // disconnect() leaves a tombstoned wire slot; recorded wire ids must
  // survive the round trip, so the slot structure has to be preserved.
  PortGraph g(4, 2);
  const WireId w0 = g.connect(0, 0, 1, 0);
  g.connect(1, 0, 2, 0);
  g.connect(2, 0, 3, 0);
  g.connect(3, 0, 0, 0);
  g.disconnect(w0);
  g.connect(0, 1, 1, 1);  // lives in a *new* slot after the tombstone

  RecordedTrace t;
  t.header.graph = g;
  std::stringstream ss;
  write_trace_dtr2(ss, t);
  const RecordedTrace back = read_trace(ss);
  EXPECT_EQ(back.header.graph, g);
  EXPECT_EQ(back.header.graph.wire_slots(), g.wire_slots());
  EXPECT_EQ(back.header.graph.num_wires(), g.num_wires());
}

TEST(TraceIo, BadMagicThrows) {
  std::stringstream ss("not a trace file");
  EXPECT_THROW(read_trace(ss), TraceError);
}

TEST(TraceIo, RejectsAbsurdNodeCountBeforeAllocating) {
  // A ~20-byte crafted header must not be able to demand a multi-gigabyte
  // graph allocation: the node count is bounded before PortGraph is built.
  std::string bytes(kTraceMagic, sizeof kTraceMagic);
  bytes.push_back(static_cast<char>(kTraceVersion));
  put_varint(bytes, 0);              // root
  bytes.push_back(8);                // delta
  put_varint(bytes, 1ull << 30);     // nodes: absurd
  put_varint(bytes, 0);              // slots
  std::stringstream ss(bytes);
  EXPECT_THROW(read_trace(ss), TraceError);
}

TEST(TraceIo, RejectsAbsurdSlotCount) {
  std::string bytes(kTraceMagic, sizeof kTraceMagic);
  bytes.push_back(static_cast<char>(kTraceVersion));
  put_varint(bytes, 0);              // root
  bytes.push_back(2);                // delta
  put_varint(bytes, 4);              // nodes
  put_varint(bytes, 1ull << 40);     // slots: absurd
  std::stringstream ss(bytes);
  EXPECT_THROW(read_trace(ss), TraceError);
}

std::string fixture_bytes(const char* name) {
  std::ifstream in(std::string(DTOP_TEST_DATA_DIR "/") + name,
                   std::ios::binary);
  EXPECT_TRUE(in.is_open()) << name;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(TraceIo, TruncatedEventThrows) {
  // A DTR1 file (no framing to catch the cut) ending in kRunEnd: kind +
  // tick delta + status, 3 bytes. Chop inside it; a mid-event EOF must be
  // loud, not a silent short read.
  const std::string bytes = fixture_bytes("torus-4.dtr1");
  ASSERT_GT(bytes.size(), 3u);
  std::size_t pos = sizeof kTraceMagic;
  (void)take_header_tail(bytes, pos);
  const std::string_view cut(bytes.data(), bytes.size() - 1);
  TraceEvent ev;
  Tick last_tick = 0;
  std::size_t events = 0;
  EXPECT_THROW(
      while (take_event_record(cut, pos, ev, last_tick)) ++events,
      TraceError);
  EXPECT_EQ(events, 2112u);  // every record before the cut one decoded
  std::stringstream whole(bytes);
  EXPECT_EQ(read_trace(whole).events.back().kind, TraceEventKind::kRunEnd);
  std::stringstream cut_stream{std::string(cut)};
  EXPECT_THROW(read_trace(cut_stream), TraceError);
}

TEST(TraceIo, EveryCutInsideARecordThrowsAndBoundariesEndCleanly) {
  // One record of every kind, plus a send carrying every character lane:
  // decoding a prefix cut at a record boundary stops cleanly there, and a
  // cut anywhere inside a record throws.
  std::vector<TraceEvent> events;
  for (int k = 0; k < kNumTraceEventKinds; ++k) {
    TraceEvent ev;
    ev.kind = static_cast<TraceEventKind>(k);
    ev.tick = 200 + 3 * k;  // the first tick delta takes two bytes
    ev.a = 300 + static_cast<std::uint32_t>(k);  // so does every `a`
    switch (ev.kind) {
      case TraceEventKind::kWireSend:
        ev.payload.kill = true;
        break;
      case TraceEventKind::kInject:
        ev.b = 1;
        ev.payload.kill = true;
        break;
      case TraceEventKind::kRootEvent:
        ev.b = 1;
        ev.c = 1;
        break;
      case TraceEventKind::kRcaStart:
      case TraceEventKind::kRcaPhase:
      case TraceEventKind::kGrowErased:
        ev.b = 1;
        break;
      default:
        break;
    }
    events.push_back(ev);
  }
  TraceEvent full;
  full.kind = TraceEventKind::kWireSend;
  full.tick = events.back().tick;
  full.a = 7;
  full.payload = full_character();
  events.push_back(full);

  std::string buf;
  std::vector<std::size_t> boundaries = {0};
  Tick last_tick = 0;
  for (const TraceEvent& ev : events) {
    put_event_record(buf, ev, last_tick);
    boundaries.push_back(buf.size());
  }
  for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
    const std::string_view prefix(buf.data(), cut);
    const bool at_boundary =
        std::find(boundaries.begin(), boundaries.end(), cut) !=
        boundaries.end();
    std::size_t pos = 0;
    Tick lt = 0;
    TraceEvent ev;
    std::vector<TraceEvent> got;
    if (at_boundary) {
      while (take_event_record(prefix, pos, ev, lt)) got.push_back(ev);
      EXPECT_EQ(pos, cut);
      EXPECT_EQ(got, std::vector<TraceEvent>(
                         events.begin(),
                         events.begin() + static_cast<std::ptrdiff_t>(
                                              got.size())))
          << "cut=" << cut;
      EXPECT_EQ(boundaries[got.size()], cut);
    } else {
      EXPECT_THROW(
          while (take_event_record(prefix, pos, ev, lt)) got.push_back(ev),
          TraceError)
          << "cut=" << cut;
    }
  }
}

TEST(TraceIo, EventStreamMayEndWithoutRunEnd) {
  // A violation trace just stops; any event boundary is a clean EOF.
  RecordedTrace t = sample_trace();
  t.events.pop_back();  // drop kRunEnd
  std::stringstream ss;
  write_trace_dtr2(ss, t);
  const RecordedTrace back = read_trace(ss);
  EXPECT_EQ(back.events.size(), t.events.size());
}

TEST(TraceIo, WriterRejectsTickRegression) {
  std::stringstream ss;
  Dtr2Writer w(ss, TraceHeader{});
  TraceEvent ev;
  ev.kind = TraceEventKind::kNodeStep;
  ev.tick = 5;
  w.write(ev);
  ev.tick = 4;
  EXPECT_THROW(w.write(ev), Error);
}

// Golden DTR2/dlz recordings of torus-4 (one block) and torus-9 (four
// blocks), made with `dtopctl trace record --family torus --nodes N
// --codec dlz`. The writer must reproduce them byte for byte.
TEST(TraceGolden, DlzFixturesReencodeByteForByte) {
  for (const char* name : {"torus-4.dtr2", "torus-9.dtr2"}) {
    const std::string bytes = fixture_bytes(name);
    std::stringstream in(bytes);
    TraceFile f(in);
    EXPECT_EQ(f.file_codec(), TraceCodec::kDlz) << name;
    EXPECT_TRUE(f.indexed()) << name;
    std::stringstream out;
    write_trace_dtr2(out, f.read_all(), Dtr2Options{TraceCodec::kDlz});
    EXPECT_TRUE(out.str() == bytes) << name << " re-encoding differs";
  }
  std::stringstream nine(fixture_bytes("torus-9.dtr2"));
  EXPECT_EQ(TraceFile(nine).num_blocks(), 4u);
}

TEST(TraceGolden, Dtr2FixtureReadsAsTheDtr1Recording) {
  std::stringstream d2(fixture_bytes("torus-4.dtr2"));
  std::stringstream d1(fixture_bytes("torus-4.dtr1"));
  const RecordedTrace a = read_trace(d2);
  EXPECT_EQ(a.events.size(), 2113u);
  EXPECT_TRUE(a == read_trace(d1));
}

TEST(TraceDiffTest, IdenticalTraces) {
  const TraceDiff d = diff_traces(sample_trace(), sample_trace());
  EXPECT_TRUE(d.headers_match);
  EXPECT_TRUE(d.identical);
}

TEST(TraceDiffTest, PinpointsFirstDivergentEventAndTick) {
  const RecordedTrace a = sample_trace();
  RecordedTrace b = a;
  b.events[3].payload.kill = false;
  b.events[3].payload.bkill = true;
  const TraceDiff d = diff_traces(a, b);
  EXPECT_TRUE(d.headers_match);
  EXPECT_FALSE(d.identical);
  EXPECT_EQ(d.event_index, 3u);
  EXPECT_EQ(d.tick, 5);
  EXPECT_NE(d.detail.find("tick 5"), std::string::npos);
}

TEST(TraceDiffTest, DetectsTruncatedStream) {
  const RecordedTrace a = sample_trace();
  RecordedTrace b = a;
  b.events.pop_back();
  const TraceDiff d = diff_traces(a, b);
  EXPECT_FALSE(d.identical);
  EXPECT_EQ(d.event_index, b.events.size());
  EXPECT_NE(d.detail.find("has ended"), std::string::npos);
}

TEST(TraceDiffTest, HeaderMismatchIsFlagged) {
  const RecordedTrace a = sample_trace();
  RecordedTrace b = a;
  b.header.root = 0;
  const TraceDiff d = diff_traces(a, b);
  EXPECT_FALSE(d.headers_match);
  EXPECT_FALSE(d.identical);
}

TEST(TraceEventTest, TranscriptEventsRoundTrip) {
  // The root notes each transcript entry it emits; the recorded kRootEvent
  // records decode back to the very transcript the run built.
  const PortGraph g = directed_ring(4);
  TraceRecorder rec;
  GtdOptions opt;
  opt.trace = &rec;
  const GtdResult r = run_gtd(g, 0, opt);
  ASSERT_FALSE(r.transcript.events().empty());
  EXPECT_EQ(transcript_from_trace(rec.events()).events(),
            r.transcript.events());
}

}  // namespace
}  // namespace dtop::trace
