// Growing snakes (paper Section 2.3.2).
//
// Rules implemented here:
//  - a character carrying the '*' placeholder is completed with the number
//    of the in-port it arrived through;
//  - the first character to reach a processor marks it visited and fixes its
//    parent in-port (simultaneous arrivals: lowest in-port wins, which is
//    what makes canonical shortest paths deterministic); only characters
//    arriving through the parent in-port are subsequently relayed;
//  - every relayed character is broadcast through all out-ports; when the
//    tail passes, the processor first emits a fresh body character IG(i,*)
//    through each out-port i and only then the tail — that is how the snake
//    grows one character per processor and encodes the path;
//  - role interceptions: the root converts the first IG snake to an OG snake
//    (Section 4.2.1 step 2), the RCA initiator converts the first OG snake
//    to an ID snake (step 3), the BCA initiator converts the BG snake that
//    re-enters through the requested in-port to a BD snake (DESIGN.md 3a).
#include "proto/gtd_machine.hpp"

namespace dtop {

void GtdMachine::handle_grow(Ctx& ctx, unsigned kinds) {
  for (int i = 0; i < kNumSnakeKinds; ++i) {
    const GrowKind kind = grow_kind(i);
    if (!(kinds & (1u << i))) continue;  // no character of this kind
    if (grow_killed_now_[i]) continue;  // erased by a KILL this pulse
    for (Port p = 0; p < env_.delta; ++p) {
      const Character* in = ctx.input(p);
      if (!in || !in->grow[i]) continue;
      SnakeChar c = *in->grow[i];
      if (c.in == kStarPort) c.in = p;  // resolve the '*' placeholder
      handle_grow_char(ctx, kind, c, p);
    }
  }
}

void GtdMachine::handle_grow_char(Ctx& ctx, GrowKind kind, SnakeChar c,
                                  Port p) {
  // 1. Active conversion stream consumes its in-port's characters.
  if (st_.conv_grow.active && st_.conv_grow.from_grow &&
      st_.conv_grow.src == static_cast<std::uint8_t>(index_of(kind)) &&
      st_.conv_grow.in_port == p) {
    converter_consume(ctx, st_.conv_grow, c);
    return;
  }

  // 2. Root interception of IG snakes: accept the first head when open,
  //    ignore everything else ("the root closes itself off to all other
  //    IG-snakes").
  if (kind == GrowKind::kIG && env_.is_root) {
    root_on_ig(ctx, c, p);
    return;
  }

  // 3. RCA initiator interception of the first surviving OG head.
  if (kind == GrowKind::kOG && st_.rca_phase != RcaPhase::kIdle) {
    if (st_.rca_phase == RcaPhase::kWaitOg && !st_.og_closed) {
      rca_on_og_head(ctx, c, p);
      return;
    }
    if (st_.og_closed) return;  // closed to OG until the UNMARK returns
  }

  // 4. BCA initiator: the BG snake re-entering through the requested
  //    in-port is the loop encoding we are waiting for.
  if (kind == GrowKind::kBG && st_.bca_phase == BcaPhase::kWaitLoopback &&
      p == st_.bca_req_in) {
    bca_on_bg_head(ctx, c, p);
    return;
  }

  // 5. Generic relay behaviour.
  GrowMarks& marks = st_.grow[index_of(kind)];
  if (!marks.visited) {
    marks.visited = true;
    marks.parent = p;
    forward_grow_char(kind, c);
    return;
  }
  if (marks.parent == p) {
    forward_grow_char(kind, c);
    return;
  }
  // Visited, non-parent port: the character belongs to a snake that lost
  // the race here; it is ignored.
}

void GtdMachine::forward_grow_char(GrowKind kind, const SnakeChar& c) {
  const SnakeLane lane = lane_of(kind);
  const int delay = cfg_.protocol.snake_delay;
  if (c.part == SnakePart::kTail) {
    // Tail insertion: a fresh body character per out-port, then the tail one
    // tick later ("only after this new character is passed along does the
    // processor send the tail through").
    SnakeChar body;
    body.part = SnakePart::kBody;
    body.out = kNoPort;  // filled per port by the kBroadcastPerPort route
    body.in = kStarPort;
    enqueue_snake(lane, body, Route::kBroadcastPerPort, kNoPort, delay);
    enqueue_snake(lane, c, Route::kBroadcastSame, kNoPort, delay + 1);
  } else {
    enqueue_snake(lane, c, Route::kBroadcastSame, kNoPort, delay);
  }
}

void GtdMachine::flood_baby_snake(GrowKind kind) {
  // "This processor sends an IG-snake head character out of every out-port
  // during the first time step ... during the next time step, the initiator
  // will send a tail character through every out-port."
  const SnakeLane lane = lane_of(kind);
  SnakeChar head;
  head.part = SnakePart::kHead;
  head.out = kNoPort;  // per-port
  head.in = kStarPort;
  enqueue_snake(lane, head, Route::kBroadcastPerPort, kNoPort, 0);
  SnakeChar tail;
  tail.part = SnakePart::kTail;
  enqueue_snake(lane, tail, Route::kBroadcastSame, kNoPort, 1);
  st_.grow[index_of(kind)].visited = true;   // creator: ignore own snakes
  st_.grow[index_of(kind)].parent = kNoPort;
}

void GtdMachine::converter_consume(Ctx& ctx, StreamConverter& conv,
                                   const SnakeChar& c) {
  DTOP_CHECK(c.part != SnakePart::kHead,
             "conversion streams receive body/tail characters only");
  const SnakeLane lane = conv.out_lane;
  const int delay = cfg_.protocol.snake_delay;
  const Route route =
      conv.out_port == kNoPort ? Route::kBroadcastSame : Route::kPort;

  // Root transcript: the conversions are exactly what the master computer
  // observes (Lemma 4.1).
  if (env_.is_root && lane == SnakeLane::kOG) {
    emit_event(ctx,
               c.part == SnakePart::kTail ? TranscriptEvent::Kind::kUpEnd
                                          : TranscriptEvent::Kind::kUpStep,
               c.out, c.in);
  }
  if (env_.is_root && lane == SnakeLane::kOD) {
    emit_event(ctx,
               c.part == SnakePart::kTail ? TranscriptEvent::Kind::kDownEnd
                                          : TranscriptEvent::Kind::kDownStep,
               c.out, c.in);
  }

  if (c.part == SnakePart::kTail) {
    if (conv.promote_next && lane == SnakeLane::kBD) {
      // Head immediately followed by tail: the converting processor itself
      // is the last processor of the path — the self-loop BCA case.
      st_.bca_marks.target = true;
    }
    if (conv.append_at_tail) {
      SnakeChar body;
      body.part = SnakePart::kBody;
      body.out = kNoPort;
      body.in = kStarPort;
      enqueue_snake(lane, body, Route::kBroadcastPerPort, kNoPort, delay);
      enqueue_snake(lane, c, route, conv.out_port, delay + 1);
    } else {
      enqueue_snake(lane, c, route, conv.out_port, delay);
    }
    conv.active = false;
    // Role transitions at stream end.
    if (env_.is_root && lane == SnakeLane::kOG)
      st_.root_phase = RootPhase::kAwaitDying;
    if (env_.is_root && lane == SnakeLane::kOD)
      st_.root_phase = RootPhase::kAwaitUnmark;
    if (lane == SnakeLane::kBD) st_.bca_phase = BcaPhase::kWaitMarkDone;
    return;
  }

  SnakeChar out = c;
  if (conv.promote_next) {
    out.part = SnakePart::kHead;
    conv.promote_next = false;
  }
  enqueue_snake(lane, out, route, conv.out_port, delay);
}

}  // namespace dtop
