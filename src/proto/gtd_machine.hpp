// The Global Topology Determination machine: the finite-state automaton
// every processor runs (paper Sections 2-4).
//
// One class implements all roles — ordinary relay, RCA initiator (processor
// A), root responder, BCA initiator (processor B), BCA target — because the
// paper's processors are identical; which role logic fires is decided by the
// constant-size state and the is_root bit. The implementation is split by
// lane:
//   kill_lane.cpp    KILL/BKILL floods and growing-state erasure
//   grow_lane.cpp    growing snakes: accept/forward/tail-insert + converters
//   dying_lane.cpp   dying snakes: marking, head promotion, target detection
//   loop_lane.cpp    loop tokens (FORWARD/BACK/UNMARK, DATA/ACK/BUNMARK)
//   rca.cpp          Root Communication Algorithm control (Section 4.2.1)
//   bca.cpp          Backwards Communication Algorithm control (DESIGN.md 3a)
//   dfs.cpp          the depth-first search driver (Section 3)
//   gtd_machine.cpp  tick orchestration and the speed hold queues
#pragma once

#include "proto/alphabet.hpp"
#include "proto/machine_state.hpp"
#include "proto/transcript.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"

namespace dtop {

// The kinds of StepNote a GtdMachine makes (sim/trace_sink.hpp). The root
// notes every transcript entry it emits; span notes, made only when
// Config::spans is set, mark the RCA/BCA boundaries the benches and the
// serialization audits measure. `node` is MachineEnv::debug_id — purely
// for attribution; the protocol itself is anonymous.
enum class GtdNote : std::uint8_t {
  kRootEvent,    // a = TranscriptEvent::Kind, b = out port, c = in port
  kRcaStart,     // a = node, b = forward (0/1)
  kRcaPhase,     // a = node, b = RcaPhase entered: kWaitOdt when the first
                 // OG head survives to A, kWaitToken when the bare ODT
                 // arrives, kWaitUnmark when the FORWARD/BACK token returns
  kRcaComplete,  // a = node
  kBcaStart,     // a = node
  kBcaComplete,  // a = node
  kGrowErased,   // a = node, b = bca_lane (0/1): a KILL/BKILL contact
                 // erased growing-lane state
};
inline constexpr int kNumGtdNotes = 7;

class GtdMachine {
 public:
  using Message = Character;
  using Ctx = StepContext<Character>;

  struct Config {
    ProtocolConfig protocol;
    Transcript* transcript = nullptr;  // written by the root machine only
    bool spans = false;                // also note RCA/BCA span events
  };

  GtdMachine(const MachineEnv& env, const Config& cfg);

  void step(Ctx& ctx);

  // Engine contract: stepping an idle machine on blank inputs is a no-op.
  bool idle() const;
  bool terminated() const { return st_.terminated; }

  // Audit interface (tests and benches; not part of the protocol).
  const GtdState& state() const { return st_; }
  const MachineEnv& env() const { return env_; }
  // True when no transient protocol residue remains: Lemma 4.2 says this
  // holds at every node once an RCA/BCA fully completes (persistent DFS
  // state excluded — it is supposed to survive).
  bool pristine() const;

 private:
  // --- kill_lane.cpp
  void handle_kill(Ctx& ctx);
  void erase_grow_state(Ctx& ctx, bool bca_lane);
  bool has_grow_state(Ctx& ctx, bool bca_lane) const;

  // --- grow_lane.cpp
  // `kinds` (here and in handle_die): bit i set iff some in-port carries a
  // character of snake kind i this tick.
  void handle_grow(Ctx& ctx, unsigned kinds);
  void handle_grow_char(Ctx& ctx, GrowKind kind, SnakeChar c, Port p);
  void forward_grow_char(GrowKind kind, const SnakeChar& c);
  void flood_baby_snake(GrowKind kind);
  void converter_consume(Ctx& ctx, StreamConverter& conv, const SnakeChar& c);

  // --- dying_lane.cpp
  void handle_die(Ctx& ctx, unsigned kinds);
  void handle_die_char(Ctx& ctx, DieKind kind, const SnakeChar& c, Port p);
  Port die_succ(DieKind kind) const;

  // --- loop_lane.cpp
  void handle_rloop(Ctx& ctx);
  void handle_bloop(Ctx& ctx);

  // --- rca.cpp
  void start_rca(Ctx& ctx, const RcaToken& token);
  void rca_on_og_head(Ctx& ctx, const SnakeChar& c, Port p);
  void rca_on_odt(Ctx& ctx, Port p);
  void rca_on_token_return(Ctx& ctx);
  void rca_on_unmark_return(Ctx& ctx);
  void root_on_ig(Ctx& ctx, const SnakeChar& c, Port p);
  void root_on_idh(Ctx& ctx, const SnakeChar& c, Port p);

  // --- bca.cpp
  void start_bca(Ctx& ctx, Port req_in, std::uint8_t payload);
  void bca_on_bg_head(Ctx& ctx, const SnakeChar& c, Port p);
  void bca_on_bdt_return(Ctx& ctx);
  void bca_on_ack(Ctx& ctx);
  void bca_on_bunmark_return(Ctx& ctx);

  // --- dfs.cpp
  void dfs_start_root(Ctx& ctx);
  void handle_dfs(Ctx& ctx);
  void dfs_on_token(Ctx& ctx, const DfsToken& tok, Port p);
  void dfs_on_rca_done(Ctx& ctx);
  void dfs_on_bca_done(Ctx& ctx);
  void dfs_on_delivery(Ctx& ctx, std::uint8_t payload, Port out_q);
  void dfs_explore_next(Ctx& ctx);

  // --- gtd_machine.cpp
  void emit_pending(Ctx& ctx);
  void emit_snake(Ctx& ctx, const PendingSnake& ps);
  void write_snake(Ctx& ctx, Port port, SnakeLane lane, const SnakeChar& ch);
  void enqueue_snake(SnakeLane lane, const SnakeChar& ch, Route route,
                     Port port, int delay);
  void emit_event(Ctx& ctx, TranscriptEvent::Kind kind, Port out = kNoPort,
                  Port in = kNoPort);
  // A span note about this node (no-op unless Config::spans).
  void note_span(Ctx& ctx, GtdNote kind, std::uint8_t b = 0) const {
    if (cfg_.spans) ctx.note({static_cast<std::uint8_t>(kind), b, 0,
                              env_.debug_id});
  }
  void for_each_out_port(const auto& fn) const {
    for (Port p = 0; p < env_.delta; ++p)
      if (env_.out_mask & (1u << p)) fn(p);
  }

  MachineEnv env_;
  Config cfg_;
  GtdState st_;
  // Per-tick scratch: growing kinds whose incoming characters were erased by
  // a KILL contact this very tick.
  bool grow_killed_now_[kNumSnakeKinds] = {};
};

}  // namespace dtop
