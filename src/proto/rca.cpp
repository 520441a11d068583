// The Root Communication Algorithm (paper Section 4.2.1).
//
// Initiator side (processor A):
//  step 1  flood IG snakes;
//  step 2  (root side) the first IG snake is converted to an OG snake;
//  step 3  the first OG head to reach A is eaten — its labels give A's
//          successor out-port — and the rest of the stream is converted to
//          an ID snake that marks the path A -> root; the root converts it
//          to an OD snake marking root -> A; A finally receives the bare
//          ODT tail;
//  step 4  A releases the speed-3 KILL flood and the speed-1 FORWARD/BACK
//          loop token simultaneously;
//  step 5  when the token returns, A releases the speed-3 UNMARK token one
//          tick later; when UNMARK returns, A reopens to OG snakes and the
//          RCA is complete.
#include "proto/gtd_machine.hpp"

namespace dtop {

void GtdMachine::start_rca(Ctx& ctx, const RcaToken& token) {
  DTOP_CHECK(st_.rca_phase == RcaPhase::kIdle, "RCA already running here");
  DTOP_CHECK(!env_.is_root, "the root never runs a network RCA on itself");
  DTOP_CHECK(token.kind == RcaToken::Kind::kForward ||
                 token.kind == RcaToken::Kind::kBack,
             "RCA circulates FORWARD or BACK tokens");
  st_.rca_token = token;
  st_.rca_phase = RcaPhase::kWaitOg;
  st_.og_closed = false;
  flood_baby_snake(GrowKind::kIG);
  note_span(ctx, GtdNote::kRcaStart, token.kind == RcaToken::Kind::kForward);
}

void GtdMachine::rca_on_og_head(Ctx& ctx, const SnakeChar& c, Port p) {
  DTOP_CHECK(c.part == SnakePart::kHead,
             "first OG character at the initiator must be the head");
  // The eaten head encodes A's first edge on the canonical path A -> root:
  // successor out-port #1. The head arrived over the last edge of the
  // canonical path root -> A: predecessor in-port #1. (Section 2.3.3.)
  st_.og_closed = true;
  DTOP_CHECK(!st_.loop.has1, "initiator loop slot already set");
  st_.loop.has1 = true;
  st_.loop.pred1 = p;
  st_.loop.succ1 = c.out;
  st_.conv_grow = StreamConverter{};
  st_.conv_grow.active = true;
  st_.conv_grow.from_grow = true;
  st_.conv_grow.src = static_cast<std::uint8_t>(index_of(GrowKind::kOG));
  st_.conv_grow.out_lane = SnakeLane::kID;
  st_.conv_grow.in_port = p;
  st_.conv_grow.out_port = c.out;
  st_.conv_grow.promote_next = true;
  st_.rca_phase = RcaPhase::kWaitOdt;
  note_span(ctx, GtdNote::kRcaPhase, static_cast<std::uint8_t>(st_.rca_phase));
}

void GtdMachine::rca_on_odt(Ctx& ctx, Port p) {
  DTOP_CHECK(p == st_.loop.pred1, "ODT arrived off the marked loop");
  // Step 4: erase our own growing traces, release the KILL flood and the
  // FORWARD/BACK loop token simultaneously.
  if (has_grow_state(ctx, /*bca_lane=*/false))
    erase_grow_state(ctx, /*bca_lane=*/false);
  st_.kill_out = true;
  st_.rtok.present = true;
  st_.rtok.tok = st_.rca_token;
  st_.rtok.port = st_.loop.succ1;
  st_.rtok.delay = 0;
  st_.rca_phase = RcaPhase::kWaitToken;
  note_span(ctx, GtdNote::kRcaPhase, static_cast<std::uint8_t>(st_.rca_phase));
}

void GtdMachine::rca_on_token_return(Ctx& ctx) {
  // Step 5: "one time step later there will be no further growing snake
  // characters or KILL tokens" — the UNMARK departs on the next tick.
  st_.rtok.present = true;
  st_.rtok.tok = RcaToken{RcaToken::Kind::kUnmark, kNoPort, kNoPort};
  st_.rtok.port = st_.loop.succ1;
  st_.rtok.delay = 1;
  st_.rca_phase = RcaPhase::kWaitUnmark;
  note_span(ctx, GtdNote::kRcaPhase, static_cast<std::uint8_t>(st_.rca_phase));
}

void GtdMachine::rca_on_unmark_return(Ctx& ctx) {
  st_.loop.clear_slot1();
  st_.og_closed = false;
  st_.rca_phase = RcaPhase::kIdle;
  note_span(ctx, GtdNote::kRcaComplete);
  dfs_on_rca_done(ctx);
}

void GtdMachine::root_on_ig(Ctx& ctx, const SnakeChar& c, Port p) {
  if (st_.root_phase != RootPhase::kOpen) return;  // closed: ignore
  DTOP_CHECK(c.part == SnakePart::kHead,
             "first IG character at the open root must be a head");
  emit_event(ctx, TranscriptEvent::Kind::kUpStep, c.out, c.in);
  // Become the OG creator: ignore OG characters that flow back to the root.
  st_.grow[index_of(GrowKind::kOG)].visited = true;
  st_.grow[index_of(GrowKind::kOG)].parent = kNoPort;
  // Convert the accepted IG stream to a broadcast OG snake, appending our
  // own body characters when the tail passes (Section 4.2.1 step 2).
  st_.conv_grow = StreamConverter{};
  st_.conv_grow.active = true;
  st_.conv_grow.from_grow = true;
  st_.conv_grow.src = static_cast<std::uint8_t>(index_of(GrowKind::kIG));
  st_.conv_grow.out_lane = SnakeLane::kOG;
  st_.conv_grow.in_port = p;
  st_.conv_grow.out_port = kNoPort;  // broadcast
  st_.conv_grow.promote_next = false;
  st_.conv_grow.append_at_tail = true;
  // Re-emit the head unchanged (as an OG head) through every out-port.
  SnakeChar head = c;
  enqueue_snake(SnakeLane::kOG, head, Route::kBroadcastSame, kNoPort,
                cfg_.protocol.snake_delay);
  st_.root_phase = RootPhase::kConvertGrow;
}

void GtdMachine::root_on_idh(Ctx& ctx, const SnakeChar& c, Port p) {
  DTOP_CHECK(c.part == SnakePart::kHead, "ID stream must start with a head");
  emit_event(ctx, TranscriptEvent::Kind::kDownStep, c.out, c.in);
  // Footnote 2 of the paper: the root uses predecessor in-port #1 and
  // successor out-port #2.
  DTOP_CHECK(!st_.loop.has1 && !st_.loop.has2, "root loop marks already set");
  st_.loop.has1 = true;
  st_.loop.pred1 = p;
  st_.loop.has2 = true;
  st_.loop.succ2 = c.out;
  st_.conv_die = StreamConverter{};
  st_.conv_die.active = true;
  st_.conv_die.from_grow = false;
  st_.conv_die.src = static_cast<std::uint8_t>(index_of(DieKind::kID));
  st_.conv_die.out_lane = SnakeLane::kOD;
  st_.conv_die.in_port = p;
  st_.conv_die.out_port = c.out;
  st_.conv_die.promote_next = true;
  st_.root_phase = RootPhase::kConvertDying;
}

}  // namespace dtop
