#include "proto/gtd_machine.hpp"

namespace dtop {
namespace {

// Lane-presence bits of one tick's inputs: which handlers have work.
// Snake kind i sets bit i (grow) or bit kDieShift + i (die).
constexpr int kDieShift = 3;
constexpr unsigned kGrowLanes = 0x7u;
constexpr unsigned kDieLanes = 0x7u << kDieShift;
constexpr unsigned kKillLane = 1u << 6;
constexpr unsigned kBkillLane = 1u << 7;
constexpr unsigned kRloopLane = 1u << 8;
constexpr unsigned kBloopLane = 1u << 9;
constexpr unsigned kDfsLane = 1u << 10;

// Branch-free: one OR per lane, whatever the character carries.
unsigned lanes_of(const Character& c) {
  const auto bit = [](bool present, unsigned lane) {
    return static_cast<unsigned>(present) * lane;
  };
  unsigned m = 0;
  for (int i = 0; i < kNumSnakeKinds; ++i) {
    m |= bit(c.grow[i].has_value(), 1u << i);
    m |= bit(c.die[i].has_value(), 1u << (kDieShift + i));
  }
  return m | bit(c.kill, kKillLane) | bit(c.bkill, kBkillLane) |
         bit(c.rloop.has_value(), kRloopLane) |
         bit(c.bloop.has_value(), kBloopLane) |
         bit(c.dfs.has_value(), kDfsLane);
}

}  // namespace

GtdMachine::GtdMachine(const MachineEnv& env, const Config& cfg)
    : env_(env), cfg_(cfg) {
  DTOP_CHECK(env_.delta >= 1 && env_.delta <= kMaxDegree, "bad delta");
  DTOP_CHECK(cfg_.protocol.snake_delay >= 0 && cfg_.protocol.loop_delay >= 0 &&
                 cfg_.protocol.token_delay >= 0,
             "negative delay");
}

void GtdMachine::step(Ctx& ctx) {
  for (bool& k : grow_killed_now_) k = false;

  // Initiation: the root is nudged out of quiescence by its master computer
  // (delivered as an engine schedule, not a wire character).
  if (env_.is_root && !st_.dfs.started) dfs_start_root(ctx);

  // The in-ports are read once into a lane-presence mask, and only the
  // handlers whose lanes carry a character this tick run (the snake
  // handlers also skip their absent kinds); a handler with no input on its
  // lane is a no-op, so skipping it changes nothing. Lane order within the
  // tick: cleanup first (a KILL contact erases characters arriving in the
  // same pulse), then snakes, then tokens, then the DFS driver. Finally
  // the emissions due this tick depart — only a non-idle machine has any.
  unsigned lanes = 0;
  for (Port p = 0; p < env_.delta; ++p) {
    const Character* in = ctx.input(p);
    if (in) lanes |= lanes_of(*in);
  }
  if (lanes & (kKillLane | kBkillLane)) handle_kill(ctx);
  if (lanes & kGrowLanes) handle_grow(ctx, lanes & kGrowLanes);
  if (lanes & kDieLanes) handle_die(ctx, (lanes & kDieLanes) >> kDieShift);
  if (lanes & kRloopLane) handle_rloop(ctx);
  if (lanes & kBloopLane) handle_bloop(ctx);
  if (lanes & kDfsLane) handle_dfs(ctx);
  if (!idle()) emit_pending(ctx);
}

bool GtdMachine::idle() const {
  return st_.outq.empty() && !st_.kill_out && !st_.bkill_out &&
         !st_.rtok.present && !st_.btok.present && !st_.dfs_out.present;
}

bool GtdMachine::pristine() const {
  for (const auto& g : st_.grow)
    if (g.visited) return false;
  for (const auto& d : st_.die_stream)
    if (d.phase != DieStream::Phase::kNone) return false;
  if (st_.loop.any() || st_.bca_marks.has || st_.bca_marks.target) return false;
  if (st_.conv_grow.active || st_.conv_die.active) return false;
  if (!idle()) return false;
  if (st_.rca_phase != RcaPhase::kIdle || st_.og_closed) return false;
  if (st_.bca_phase != BcaPhase::kIdle) return false;
  if (env_.is_root && st_.root_phase != RootPhase::kOpen) return false;
  return true;
}

void GtdMachine::enqueue_snake(SnakeLane lane, const SnakeChar& ch, Route route,
                               Port port, int delay) {
  // FIFO-per-lane sanity: within one lane, emission times never reorder.
  for (std::size_t i = st_.outq.size(); i > 0; --i) {
    const PendingSnake& prev = st_.outq[i - 1];
    if (prev.lane == lane) {
      DTOP_CHECK(prev.delay <= delay, "snake lane FIFO violation");
      break;
    }
  }
  PendingSnake ps;
  ps.lane = lane;
  ps.ch = ch;
  ps.route = route;
  ps.port = port;
  ps.delay = static_cast<std::uint8_t>(delay);
  st_.outq.push_back(ps);
}

void GtdMachine::write_snake(Ctx& ctx, Port port, SnakeLane lane,
                             const SnakeChar& ch) {
  Character& m = ctx.out(port);
  if (is_grow_lane(lane)) {
    auto& slot = m.grow[index_of(grow_of(lane))];
    DTOP_CHECK(!slot, "grow-lane wire collision");
    slot = ch;
  } else {
    auto& slot = m.die[index_of(die_of(lane))];
    DTOP_CHECK(!slot, "die-lane wire collision");
    slot = ch;
  }
}

void GtdMachine::emit_snake(Ctx& ctx, const PendingSnake& ps) {
  switch (ps.route) {
    case Route::kPort:
      write_snake(ctx, ps.port, ps.lane, ps.ch);
      break;
    case Route::kBroadcastSame:
      for_each_out_port([&](Port p) { write_snake(ctx, p, ps.lane, ps.ch); });
      break;
    case Route::kBroadcastPerPort:
      for_each_out_port([&](Port p) {
        SnakeChar c = ps.ch;
        c.out = p;
        write_snake(ctx, p, ps.lane, c);
      });
      break;
  }
}

void GtdMachine::emit_pending(Ctx& ctx) {
  // Emit due snake characters in queue order; keep the rest, aging them.
  std::size_t w = 0;
  for (std::size_t r = 0; r < st_.outq.size(); ++r) {
    PendingSnake ps = st_.outq[r];
    if (ps.delay == 0) {
      emit_snake(ctx, ps);
    } else {
      --ps.delay;
      st_.outq[w++] = ps;
    }
  }
  while (st_.outq.size() > w) st_.outq.pop_back();

  if (st_.kill_out) {
    for_each_out_port([&](Port p) { ctx.out(p).kill = true; });
    st_.kill_out = false;
  }
  if (st_.bkill_out) {
    for_each_out_port([&](Port p) { ctx.out(p).bkill = true; });
    st_.bkill_out = false;
  }
  if (st_.rtok.present) {
    if (st_.rtok.delay == 0) {
      Character& m = ctx.out(st_.rtok.port);
      DTOP_CHECK(!m.rloop, "rloop wire collision");
      m.rloop = st_.rtok.tok;
      st_.rtok = PendingRcaToken{};
    } else {
      --st_.rtok.delay;
    }
  }
  if (st_.btok.present) {
    if (st_.btok.delay == 0) {
      Character& m = ctx.out(st_.btok.port);
      DTOP_CHECK(!m.bloop, "bloop wire collision");
      m.bloop = st_.btok.tok;
      st_.btok = PendingBcaToken{};
    } else {
      --st_.btok.delay;
    }
  }
  if (st_.dfs_out.present) {
    if (st_.dfs_out.delay == 0) {
      Character& m = ctx.out(st_.dfs_out.port);
      DTOP_CHECK(!m.dfs, "dfs wire collision");
      m.dfs = st_.dfs_out.tok;
      st_.dfs_out = PendingDfs{};
    } else {
      --st_.dfs_out.delay;
    }
  }
}

void GtdMachine::emit_event(Ctx& ctx, TranscriptEvent::Kind kind, Port out,
                            Port in) {
  DTOP_CHECK(env_.is_root, "transcript events originate at the root");
  ctx.note({static_cast<std::uint8_t>(GtdNote::kRootEvent), out, in,
            static_cast<std::uint32_t>(kind)});
  if (!cfg_.transcript) return;
  TranscriptEvent ev;
  ev.kind = kind;
  ev.tick = ctx.now();
  ev.out = out;
  ev.in = in;
  cfg_.transcript->emit(ev);
}

}  // namespace dtop
