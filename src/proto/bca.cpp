// The Backwards Communication Algorithm (paper Section 4.1; reconstruction
// documented in DESIGN.md section 3a).
//
// Contract: processor B sends a constant-size message backwards through one
// of its in-ports `p` (across the edge A -> B). A receives the message and
// learns through which of its out-ports the reversed edge leaves; B learns
// of the delivery; the network is left undisturbed; O(D) time.
//
// Mechanism (mirroring the RCA with B as both initiator and terminator):
//  1. B floods BG snakes; the first snake to re-enter B through in-port `p`
//     encodes the canonical loop B -> ... -> A -> B, because A relays the
//     first snake to reach it through all its out-ports, including the
//     reversed edge.
//  2. B converts that snake to a BD dying snake which marks the loop. The
//     processor that consumes a BD head immediately followed by the tail is
//     the last on the path — processor A — and marks itself the target.
//  3. When the BD tail returns to B, it releases BKILL (speed 3) plus a
//     speed-1 DATA token around the loop; the target consumes the payload
//     and relays the token as ACK.
//  4. On ACK, B circulates BUNMARK (speed 3) to unmark the loop; the target
//     acts on the delivered payload when BUNMARK passes it, so at most one
//     hop of BCA state remains in flight once the receiver resumes.
#include "proto/gtd_machine.hpp"

namespace dtop {

void GtdMachine::start_bca(Ctx& ctx, Port req_in, std::uint8_t payload) {
  DTOP_CHECK(st_.bca_phase == BcaPhase::kIdle, "BCA already running here");
  DTOP_CHECK(req_in < env_.delta && (env_.in_mask & (1u << req_in)),
             "BCA requires a connected in-port to reverse");
  st_.bca_req_in = req_in;
  st_.bca_payload = payload;
  st_.bca_phase = BcaPhase::kWaitLoopback;
  flood_baby_snake(GrowKind::kBG);
  note_span(ctx, GtdNote::kBcaStart);
}

void GtdMachine::bca_on_bg_head(Ctx& ctx, const SnakeChar& c, Port p) {
  (void)ctx;
  DTOP_CHECK(c.part == SnakePart::kHead,
             "first BG character back at B must be the head");
  DTOP_CHECK(p == st_.bca_req_in, "BG loopback on the wrong in-port");
  DTOP_CHECK(!st_.bca_marks.has, "BCA marks already set at B");
  st_.bca_marks.has = true;
  st_.bca_marks.pred = p;
  st_.bca_marks.succ = c.out;  // first hop of the loop
  st_.conv_grow = StreamConverter{};
  st_.conv_grow.active = true;
  st_.conv_grow.from_grow = true;
  st_.conv_grow.src = static_cast<std::uint8_t>(index_of(GrowKind::kBG));
  st_.conv_grow.out_lane = SnakeLane::kBD;
  st_.conv_grow.in_port = p;
  st_.conv_grow.out_port = c.out;
  st_.conv_grow.promote_next = true;
  st_.bca_phase = BcaPhase::kConverting;
}

void GtdMachine::bca_on_bdt_return(Ctx& ctx) {
  // Loop fully marked: release BKILL and the DATA token simultaneously.
  if (has_grow_state(ctx, /*bca_lane=*/true))
    erase_grow_state(ctx, /*bca_lane=*/true);
  st_.bkill_out = true;
  st_.btok.present = true;
  st_.btok.tok = BcaToken{BcaToken::Kind::kData, st_.bca_payload};
  st_.btok.port = st_.bca_marks.succ;
  st_.btok.delay = 0;
  st_.bca_phase = BcaPhase::kWaitAck;
}

void GtdMachine::bca_on_ack(Ctx& ctx) {
  (void)ctx;
  st_.btok.present = true;
  st_.btok.tok = BcaToken{BcaToken::Kind::kBUnmark, 0};
  st_.btok.port = st_.bca_marks.succ;
  st_.btok.delay = 1;
  st_.bca_phase = BcaPhase::kWaitBUnmark;
}

void GtdMachine::bca_on_bunmark_return(Ctx& ctx) {
  // In the self-loop case B is its own target; the stashed delivery is
  // handed to the host only after the BCA bookkeeping is finished, so the
  // host observes the same ordering as in the two-node case.
  const bool was_target = st_.bca_marks.target;
  const bool pending = st_.bca_marks.delivery_pending;
  const std::uint8_t payload = st_.bca_marks.delivery_payload;
  const Port out_q = st_.bca_marks.delivery_out;
  st_.bca_marks.clear();
  st_.bca_phase = BcaPhase::kIdle;
  st_.bca_req_in = kNoPort;
  note_span(ctx, GtdNote::kBcaComplete);
  dfs_on_bca_done(ctx);
  if (was_target && pending) dfs_on_delivery(ctx, payload, out_q);
}

}  // namespace dtop
