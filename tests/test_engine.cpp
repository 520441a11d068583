// Engine semantics: lockstep delivery, blank handling, active-set
// scheduling, and the thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <string>
#include <vector>

#include "graph/families.hpp"
#include "sim/engine.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace dtop {
namespace {

// A tiny test machine: counts everything it receives; when primed, emits one
// token that hops forward forever.
struct HopMessage {
  int hops = 0;
};

class HopMachine {
 public:
  using Message = HopMessage;
  struct Config {};

  HopMachine(const MachineEnv& env, const Config&) : env_(env) {}

  void step(StepContext<Message>& ctx) {
    ++steps_;
    if (env_.is_root && !primed_) {
      primed_ = true;
      ctx.out(first_out()).hops = 1;
      return;
    }
    for (Port p = 0; p < env_.delta; ++p) {
      const Message* in = ctx.input(p);
      if (!in) continue;
      ++received_;
      last_hops_ = in->hops;
      ctx.out(first_out()).hops = in->hops + 1;
    }
  }

  bool idle() const { return true; }
  bool terminated() const { return false; }

  int steps() const { return steps_; }
  int received() const { return received_; }
  int last_hops() const { return last_hops_; }

 private:
  Port first_out() const {
    for (Port p = 0; p < env_.delta; ++p)
      if (env_.out_mask & (1u << p)) return p;
    return 0;
  }
  MachineEnv env_;
  bool primed_ = false;
  int steps_ = 0;
  int received_ = 0;
  int last_hops_ = 0;
};

TEST(Engine, OneHopPerTick) {
  const PortGraph g = directed_ring(4);
  SyncEngine<HopMachine> e(g, 0, {});
  e.schedule(0);
  e.step();  // root emits hops=1 toward node 1
  e.step();  // node 1 receives
  EXPECT_EQ(e.machine(1).received(), 1);
  EXPECT_EQ(e.machine(1).last_hops(), 1);
  EXPECT_EQ(e.machine(2).received(), 0);
  e.step();
  EXPECT_EQ(e.machine(2).received(), 1);
  EXPECT_EQ(e.machine(2).last_hops(), 2);
}

TEST(Engine, IdleNodesAreNotStepped) {
  const PortGraph g = directed_ring(8);
  SyncEngine<HopMachine> e(g, 0, {});
  e.schedule(0);
  for (int i = 0; i < 4; ++i) e.step();
  // The token has visited nodes 1..3; nodes 5..7 were never touched.
  EXPECT_GT(e.machine(1).steps(), 0);
  EXPECT_EQ(e.machine(5).steps(), 0);
  EXPECT_EQ(e.machine(6).steps(), 0);
  // Active set is exactly one node per tick here.
  EXPECT_EQ(e.stats().max_active, 1u);
}

TEST(Engine, MessagesCounted) {
  const PortGraph g = directed_ring(4);
  SyncEngine<HopMachine> e(g, 0, {});
  e.schedule(0);
  for (int i = 0; i < 10; ++i) e.step();
  EXPECT_EQ(e.stats().messages, 10u);  // one character per tick
  EXPECT_EQ(e.stats().ticks, 10);
}

TEST(Engine, StagedMessageVisible) {
  const PortGraph g = directed_ring(3);
  SyncEngine<HopMachine> e(g, 0, {});
  e.schedule(0);
  e.step();
  const WireId w01 = g.out_wire(0, 0);
  ASSERT_TRUE(e.wire_pending(w01));
  ASSERT_NE(e.staged_message(w01), nullptr);
  EXPECT_EQ(e.staged_message(w01)->hops, 1);
  const WireId w12 = g.out_wire(1, 0);
  EXPECT_FALSE(e.wire_pending(w12));
  EXPECT_EQ(e.staged_message(w12), nullptr);
}

TEST(Engine, ObserverRunsEveryTick) {
  const PortGraph g = directed_ring(3);
  SyncEngine<HopMachine> e(g, 0, {});
  int calls = 0;
  e.set_observer([&](SyncEngine<HopMachine>&) { ++calls; });
  e.schedule(0);
  for (int i = 0; i < 5; ++i) e.step();
  EXPECT_EQ(calls, 5);
}

TEST(Engine, RootOutOfRangeRejected) {
  const PortGraph g = directed_ring(3);
  EXPECT_THROW((SyncEngine<HopMachine>(g, 7, {})), Error);
}

TEST(Engine, ParallelMatchesSequentialHops) {
  const PortGraph g = bidirectional_ring(16);
  SyncEngine<HopMachine> seq(g, 0, {}, 1);
  SyncEngine<HopMachine> par(g, 0, {}, 4);
  seq.schedule(0);
  par.schedule(0);
  for (int i = 0; i < 40; ++i) {
    seq.step();
    par.step();
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(seq.machine(v).received(), par.machine(v).received()) << v;
    EXPECT_EQ(seq.machine(v).last_hops(), par.machine(v).last_hops()) << v;
  }
  EXPECT_EQ(seq.stats().messages, par.stats().messages);
}

// A wire bitmap over caller-owned words, laid out l0 | l1 | l2.
struct OwnedBitmap {
  explicit OwnedBitmap(std::size_t wires)
      : w0(detail::bitmap_words(wires)),
        w1(detail::bitmap_words(w0)),
        w2(detail::bitmap_words(w1)),
        words(w0 + w1 + w2, 0) {
    bm.l0 = words.data();
    bm.l1 = bm.l0 + w0;
    bm.l2 = bm.l1 + w1;
    bm.l2_words = w2;
  }
  std::size_t w0, w1, w2;
  std::vector<std::uint64_t> words;
  detail::WireBitmap bm;
};

TEST(WireStaging, SerialAndAtomicPathsAgree) {
  // Inline ticks stage with plain stores, forked ticks with relaxed
  // fetch_or; the two must be interchangeable. Seeded random send
  // sequences mix fresh sends, resends within the tick, and wires on
  // either side of every l0-word (63/64), l1-word (4095/4096) and l2-word
  // (262143/262144) boundary. Each tick must give the same fresh/resend
  // answers and leave the same words at every level.
  constexpr std::size_t kWires = 262144 + 4096 + 100;
  const WireId boundaries[] = {0,     63,     64,     4095,  4096,
                               4159,  262143, 262144, 266239, 266240,
                               kWires - 1};
  OwnedBitmap atomic(kWires), serial(kWires);
  ASSERT_EQ(atomic.w2, 2u);  // the sequences cross an l2 word too
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Rng rng(seed);
    for (int tick = 0; tick < 20; ++tick) {
      std::vector<WireId> sent;
      const int sends = static_cast<int>(rng.next_range(1, 3000));
      for (int i = 0; i < sends; ++i) {
        WireId w;
        const std::uint64_t pick = rng.next_below(4);
        if (pick == 0 && !sent.empty()) {
          w = sent[rng.next_below(sent.size())];  // resend
        } else if (pick == 1) {
          w = boundaries[rng.next_below(std::size(boundaries))];
        } else {
          w = static_cast<WireId>(rng.next_below(kWires));
        }
        sent.push_back(w);
        const bool a = detail::wire_stage(atomic.bm, w);
        const bool b = detail::wire_stage_serial(serial.bm, w);
        ASSERT_EQ(a, b) << "seed " << seed << " tick " << tick << " wire "
                        << w;
      }
      ASSERT_EQ(atomic.words, serial.words)
          << "seed " << seed << " tick " << tick;
      std::vector<WireId> seen_a, seen_s;
      detail::bitmap_for_each(atomic.bm,
                              [&](WireId w) { seen_a.push_back(w); });
      detail::bitmap_for_each(serial.bm,
                              [&](WireId w) { seen_s.push_back(w); });
      EXPECT_EQ(seen_a, seen_s);
      detail::bitmap_clear(atomic.bm);
      detail::bitmap_clear(serial.bm);
      ASSERT_EQ(std::count(serial.words.begin(), serial.words.end(), 0u),
                static_cast<std::ptrdiff_t>(serial.words.size()));
    }
  }
}

TEST(ThreadPool, AllIndicesRun) {
  ThreadPool pool(4);
  std::atomic<int> mask{0};
  pool.run([&](int i) { mask.fetch_or(1 << i); });
  EXPECT_EQ(mask.load(), 0b1111);
}

TEST(ThreadPool, ReusableAcrossRuns) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round)
    pool.run([&](int) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 150);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  int x = 0;
  pool.run([&](int i) {
    EXPECT_EQ(i, 0);
    x = 42;
  });
  EXPECT_EQ(x, 42);
}

TEST(ThreadPool, ExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.run([&](int i) {
        if (i == 2) throw Error("boom");
      }),
      Error);
  // Pool survives and remains usable.
  std::atomic<int> count{0};
  pool.run([&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPool, RejectsZeroThreads) { EXPECT_THROW(ThreadPool(0), Error); }

// --- inject / wire introspection contract --------------------------------

TEST(EngineInject, PlacesMessageInFlightAndSchedulesTarget) {
  const PortGraph g = directed_ring(4);
  SyncEngine<HopMachine> e(g, 0, {});
  const WireId w = g.out_wire(2, 0);  // 2 -> 3

  EXPECT_FALSE(e.wire_pending(w));
  EXPECT_EQ(e.staged_message(w), nullptr);

  HopMessage m;
  m.hops = 5;
  e.inject(w, m);
  EXPECT_TRUE(e.wire_pending(w));
  ASSERT_NE(e.staged_message(w), nullptr);
  EXPECT_EQ(e.staged_message(w)->hops, 5);
  EXPECT_EQ(e.stats().messages, 1u);

  // Delivered at the next tick; the injection alone scheduled the target.
  e.step();
  EXPECT_EQ(e.machine(3).received(), 1);
  EXPECT_EQ(e.machine(3).last_hops(), 5);
  EXPECT_EQ(e.machine(1).received(), 0);
}

TEST(EngineInject, OverwriteInFlightKeepsOneMessage) {
  const PortGraph g = directed_ring(4);
  SyncEngine<HopMachine> e(g, 0, {});
  const WireId w = g.out_wire(1, 0);  // 1 -> 2

  HopMessage m;
  m.hops = 5;
  e.inject(w, m);
  m.hops = 9;
  e.inject(w, m);  // overwrites the character already in flight

  // One character on the wire, the last payload wins, counted once.
  EXPECT_TRUE(e.wire_pending(w));
  ASSERT_NE(e.staged_message(w), nullptr);
  EXPECT_EQ(e.staged_message(w)->hops, 9);
  EXPECT_EQ(e.stats().messages, 1u);

  e.step();
  EXPECT_EQ(e.machine(2).received(), 1);
  EXPECT_EQ(e.machine(2).last_hops(), 9);
}

TEST(EngineInject, OverwritesEngineStagedMessage) {
  // The root stages hops=1 during tick 1; injecting on the same wire
  // between ticks clobbers the staged character, not a copy.
  const PortGraph g = directed_ring(4);
  SyncEngine<HopMachine> e(g, 0, {});
  const WireId w = g.out_wire(0, 0);  // 0 -> 1
  e.schedule(0);
  e.step();
  ASSERT_TRUE(e.wire_pending(w));
  EXPECT_EQ(e.staged_message(w)->hops, 1);
  const std::uint64_t sent_before = e.stats().messages;

  HopMessage m;
  m.hops = 77;
  e.inject(w, m);
  EXPECT_EQ(e.stats().messages, sent_before);  // overwrite adds no message
  e.step();
  EXPECT_EQ(e.machine(1).received(), 1);
  EXPECT_EQ(e.machine(1).last_hops(), 77);
}

TEST(EngineInject, StagedMessageWindowIsOneTick) {
  const PortGraph g = directed_ring(4);
  SyncEngine<HopMachine> e(g, 0, {});
  const WireId w01 = g.out_wire(0, 0);
  const WireId w12 = g.out_wire(1, 0);
  e.schedule(0);
  e.step();  // root stages on 0->1
  EXPECT_TRUE(e.wire_pending(w01));
  EXPECT_FALSE(e.wire_pending(w12));
  e.step();  // 0->1 consumed; node 1 stages on 1->2
  EXPECT_FALSE(e.wire_pending(w01));
  EXPECT_EQ(e.staged_message(w01), nullptr);
  EXPECT_TRUE(e.wire_pending(w12));
  ASSERT_NE(e.staged_message(w12), nullptr);
  EXPECT_EQ(e.staged_message(w12)->hops, 2);
}

TEST(EngineInject, RejectsBadWires) {
  const PortGraph g = directed_ring(4);
  SyncEngine<HopMachine> e(g, 0, {});
  HopMessage m;
  EXPECT_THROW(e.inject(g.wire_slots(), m), Error);
  EXPECT_THROW(e.inject(kNoWire, m), Error);
}

// --- trace sink ----------------------------------------------------------

// Collects sink callbacks as strings so ordering is easy to assert.
class StringSink : public EngineTraceSink<HopMessage> {
 public:
  void on_schedule(Tick now, NodeId v) override {
    log.push_back("sched@" + std::to_string(now) + " n" + std::to_string(v));
  }
  void on_step(Tick tick, NodeId v) override {
    log.push_back("step@" + std::to_string(tick) + " n" + std::to_string(v));
  }
  void on_send(Tick tick, WireId w, const HopMessage& m) override {
    log.push_back("send@" + std::to_string(tick) + " w" + std::to_string(w) +
                  " h" + std::to_string(m.hops));
  }
  void on_inject(Tick now, WireId w, const HopMessage& m,
                 bool overwrote) override {
    log.push_back("inj@" + std::to_string(now) + " w" + std::to_string(w) +
                  " h" + std::to_string(m.hops) + (overwrote ? " ow" : ""));
  }
  std::vector<std::string> log;
};

TEST(EngineTraceSinkTest, EmitsStepsSendsSchedulesAndInjects) {
  const PortGraph g = directed_ring(4);
  SyncEngine<HopMachine> e(g, 0, {});
  StringSink sink;
  e.set_trace_sink(&sink);
  e.schedule(0);
  e.step();  // root steps, stages hops=1 on wire 0->1
  HopMessage m;
  m.hops = 50;
  e.inject(g.out_wire(2, 0), m);
  e.step();

  const std::vector<std::string> expected = {
      "sched@0 n0",
      "step@1 n0",
      "send@1 w" + std::to_string(g.out_wire(0, 0)) + " h1",
      "inj@1 w" + std::to_string(g.out_wire(2, 0)) + " h50",
      "step@2 n1",
      "step@2 n3",
      "send@2 w" + std::to_string(g.out_wire(1, 0)) + " h2",
      "send@2 w" + std::to_string(g.out_wire(3, 0)) + " h51",
  };
  EXPECT_EQ(sink.log, expected);
}

TEST(EngineTraceSinkTest, SequentialAndParallelEnginesEmitIdenticalStreams) {
  // Active sets above 2 * kParallelGrain so an 8-thread engine actually
  // forks every tick, yet the emitted stream must match the sequential one
  // exactly (post-join emission in merge order).
  const PortGraph g = de_bruijn(8);  // 256 nodes > 2 * kParallelGrain
  std::vector<std::string> logs[2];
  const int threads[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    SyncEngine<HopMachine> e(g, 0, {}, threads[i]);
    StringSink sink;
    e.set_trace_sink(&sink);
    for (int t = 0; t < 8; ++t) {
      for (NodeId v = 0; v < g.num_nodes(); ++v) e.schedule(v);
      e.step();
    }
    logs[i] = std::move(sink.log);
  }
  EXPECT_FALSE(logs[0].empty());
  EXPECT_EQ(logs[0], logs[1]);
}

// Notes its node id on every step; the nodes named in the config throw
// right after noting.
class NoteMachine {
 public:
  using Message = HopMessage;
  struct Config {
    NodeId fail_a = kNoNode, fail_b = kNoNode;
  };

  NoteMachine(const MachineEnv& env, const Config& cfg)
      : env_(env), cfg_(cfg) {}

  void step(StepContext<Message>& ctx) {
    ctx.note({0, 0, 0, env_.debug_id});
    if (env_.debug_id == cfg_.fail_a || env_.debug_id == cfg_.fail_b)
      throw Error("fail " + std::to_string(env_.debug_id));
  }
  bool idle() const { return true; }
  bool terminated() const { return false; }

 private:
  MachineEnv env_;
  Config cfg_;
};

class NoteSink : public EngineTraceSink<HopMessage> {
 public:
  void on_schedule(Tick, NodeId) override {}
  void on_note(Tick tick, const StepNote& n) override {
    log.push_back("note@" + std::to_string(tick) + " n" +
                  std::to_string(n.a));
  }
  void on_step(Tick tick, NodeId v) override {
    log.push_back("step@" + std::to_string(tick) + " n" + std::to_string(v));
  }
  void on_send(Tick, WireId, const HopMessage&) override {}
  void on_inject(Tick, WireId, const HopMessage&, bool) override {}
  std::vector<std::string> log;
};

TEST(EngineTraceSinkTest, NotesPrecedeStepsInActiveOrderAtAnyThreadCount) {
  const PortGraph g = directed_ring(16);
  for (const int threads : {1, 4}) {
    EngineOptions opt;
    opt.num_threads = threads;
    opt.parallel_grain = 1;  // 16 active nodes fork across the pool
    SyncEngine<NoteMachine> e(g, 0, {}, opt);
    NoteSink sink;
    e.set_trace_sink(&sink);
    for (NodeId v = g.num_nodes(); v-- > 0;) e.schedule(v);
    e.step();
    std::vector<std::string> expected;
    for (const char* what : {"note@1 n", "step@1 n"}) {
      for (NodeId v = g.num_nodes(); v-- > 0;)
        expected.push_back(what + std::to_string(v));
    }
    EXPECT_EQ(sink.log, expected) << threads << " threads";
  }
}

TEST(EngineTraceSinkTest, FailingTickForwardsTheNotesBeforeTheFirstFailure) {
  // Nodes 6 and 13 throw, in different workers' chunks at 4 threads. The
  // tick must rethrow node 6's error after forwarding the notes of nodes
  // 0..6 — what a sequential scan makes before it stops — and no steps.
  const PortGraph g = directed_ring(16);
  for (const int threads : {1, 4}) {
    EngineOptions opt;
    opt.num_threads = threads;
    opt.parallel_grain = 1;
    SyncEngine<NoteMachine> e(g, 0, NoteMachine::Config{6, 13}, opt);
    NoteSink sink;
    e.set_trace_sink(&sink);
    for (NodeId v = 0; v < g.num_nodes(); ++v) e.schedule(v);
    std::string what;
    try {
      e.step();
    } catch (const Error& err) {
      what = err.what();
    }
    EXPECT_NE(what.find("fail 6"), std::string::npos) << what;
    std::vector<std::string> expected;
    for (NodeId v = 0; v <= 6; ++v)
      expected.push_back("note@1 n" + std::to_string(v));
    EXPECT_EQ(sink.log, expected) << threads << " threads";
  }
}

}  // namespace
}  // namespace dtop
