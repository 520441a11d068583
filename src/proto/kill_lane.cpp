// KILL/BKILL handling (paper Section 4.2.1 step 4, DESIGN.md section 3b).
//
// A KILL contact erases *all traces* of growing snakes — visited/parent
// marks, characters waiting in the hold queue, and characters arriving in
// this very pulse — and re-broadcasts the token. Processors with no growing
// state ignore it, which bounds the flood to the marked region. The
// "or characters" clause makes the straggler chase sound: a cleaned
// processor re-contaminated by an in-flight character holds it for
// snake_delay ticks, and the KILL trailing on the same wire (at most two
// ticks behind) erases it before it can depart.
#include "proto/gtd_machine.hpp"

namespace dtop {
namespace {

bool lane_is(GrowKind k, bool bca_lane) {
  return bca_lane ? (k == GrowKind::kBG)
                  : (k == GrowKind::kIG || k == GrowKind::kOG);
}

}  // namespace

bool GtdMachine::has_grow_state(Ctx& ctx, bool bca_lane) const {
  for (int i = 0; i < kNumSnakeKinds; ++i) {
    const GrowKind k = grow_kind(i);
    if (!lane_is(k, bca_lane)) continue;
    if (st_.grow[i].visited) return true;
    for (Port p = 0; p < env_.delta; ++p) {
      const Character* in = ctx.input(p);
      if (in && in->grow[i]) return true;
    }
  }
  for (std::size_t i = 0; i < st_.outq.size(); ++i) {
    const PendingSnake& ps = st_.outq[i];
    if (is_grow_lane(ps.lane) && lane_is(grow_of(ps.lane), bca_lane))
      return true;
  }
  return false;
}

void GtdMachine::erase_grow_state(Ctx& ctx, bool bca_lane) {
  for (int i = 0; i < kNumSnakeKinds; ++i) {
    const GrowKind k = grow_kind(i);
    if (!lane_is(k, bca_lane)) continue;
    DTOP_CHECK(!(st_.conv_grow.active && st_.conv_grow.from_grow &&
                 st_.conv_grow.src == static_cast<std::uint8_t>(i)),
               "KILL reached an active conversion stream — the protocol's "
               "timing guarantee (Lemma 4.2) is violated in this "
               "configuration");
    st_.grow[i] = GrowMarks{};
    grow_killed_now_[i] = true;
  }
  std::size_t w = 0;
  for (std::size_t r = 0; r < st_.outq.size(); ++r) {
    const PendingSnake& ps = st_.outq[r];
    const bool drop = is_grow_lane(ps.lane) && lane_is(grow_of(ps.lane), bca_lane);
    if (!drop) st_.outq[w++] = ps;
  }
  while (st_.outq.size() > w) st_.outq.pop_back();
  note_span(ctx, GtdNote::kGrowErased, bca_lane);
}

void GtdMachine::handle_kill(Ctx& ctx) {
  bool kill_seen = false, bkill_seen = false;
  for (Port p = 0; p < env_.delta; ++p) {
    const Character* in = ctx.input(p);
    if (!in) continue;
    kill_seen = kill_seen || in->kill;
    bkill_seen = bkill_seen || in->bkill;
  }
  if (kill_seen && has_grow_state(ctx, /*bca_lane=*/false)) {
    erase_grow_state(ctx, false);
    st_.kill_out = true;
  }
  if (bkill_seen && has_grow_state(ctx, /*bca_lane=*/true)) {
    erase_grow_state(ctx, true);
    st_.bkill_out = true;
  }
}

}  // namespace dtop
