// The dtop-trace binary format: varint and character codecs, header/graph
// round-trips (tombstones included), the writer's tick-order check, DTR1
// corruption detection, and event-level diff.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>

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
  std::stringstream ss;
  for (const std::uint64_t v : values) write_varint(ss, v);
  for (const std::uint64_t v : values) EXPECT_EQ(read_varint(ss), v);
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
  std::stringstream ss;
  ss.put(static_cast<char>(0x80));  // continuation bit set, then EOF
  EXPECT_THROW(read_varint(ss), TraceError);
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
  std::stringstream ss;
  write_character(ss, full_character());
  write_character(ss, Character{});  // blank
  EXPECT_EQ(read_character(ss), full_character());
  EXPECT_EQ(read_character(ss), Character{});
}

TEST(TraceCharacterCodec, BlankIsOneByte) {
  std::stringstream ss;
  write_character(ss, Character{});
  EXPECT_EQ(ss.str().size(), 1u);
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

TEST(TraceIo, TruncatedEventThrows) {
  // A DTR1 file (no framing to catch the cut) ending in kRunEnd: kind +
  // tick delta + status, 3 bytes. Chop inside it; a mid-event EOF must be
  // loud, not a silent short read.
  std::ifstream in(DTOP_TEST_DATA_DIR "/torus-4.dtr1", std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), 3u);
  std::stringstream whole(bytes);
  EXPECT_EQ(read_trace(whole).events.back().kind, TraceEventKind::kRunEnd);
  std::stringstream cut(bytes.substr(0, bytes.size() - 1));
  EXPECT_THROW(read_trace(cut), TraceError);
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
  TranscriptEvent tev;
  tev.kind = TranscriptEvent::Kind::kUpStep;
  tev.tick = 42;
  tev.out = 1;
  tev.in = 0;
  EXPECT_EQ(to_transcript_event(make_root_event(tev)), tev);
}

}  // namespace
}  // namespace dtop::trace
