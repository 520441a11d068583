// The engine's trace hook: a message-generic sink the engine notifies about
// every externally observable event of a run — node activations, wire sends,
// out-of-band schedules, fault injections, and the notes machines make
// about their own updates.
//
// The sink is invoked *sequentially* even on a multi-threaded engine: note
// and step notifications are emitted after the tick's fork-join in
// active-set order (itself a deterministic function of previous ticks), and
// send notifications walk the tick's staged-wire bitmap in ascending wire
// order (the staged set is an OR-accumulator, independent of worker
// interleaving). A trace captured at any thread count is therefore
// bit-identical (the same property the engine already guarantees for wire
// state, extended to observation).
// The hot path pays one pointer null-check per tick when no sink is
// attached.
//
// The concrete protocol-aware implementation (binary encoding, recording,
// replay) lives in src/trace; this header exists so the sim layer stays
// ignorant of any particular message alphabet.
#pragma once

#include <cstdint>

#include "graph/port_graph.hpp"
#include "sim/machine.hpp"

namespace dtop {

// An observation a machine makes about its own update
// (StepContext::note): a root transcript entry, a protocol span boundary.
// The machine type defines the kinds and the meaning of a/b/c; the engine
// only carries notes, in the order the machines made them.
struct StepNote {
  std::uint8_t kind = 0;
  std::uint8_t b = 0;
  std::uint8_t c = 0;
  std::uint32_t a = 0;
};

template <typename Message>
class EngineTraceSink {
 public:
  virtual ~EngineTraceSink() = default;

  // An out-of-band schedule request (e.g. the root initiation nudge),
  // observed at tick `now`; the node is stepped at `now + 1`.
  virtual void on_schedule(Tick now, NodeId v) = 0;

  // A note made by a node stepped during `tick`. Emitted before the tick's
  // on_step calls, in active-set order of the noting nodes and, within one
  // node, in the order it made them. When a node's update throws, the tick
  // still delivers the notes of every node stepped before it in active
  // order (and the ones the throwing node made) before the engine
  // rethrows — exactly what a 1-thread engine would have produced.
  virtual void on_note(Tick tick, const StepNote& n) {
    (void)tick;
    (void)n;
  }

  // Node `v` was stepped during `tick`. Emitted in active-set order.
  virtual void on_step(Tick tick, NodeId v) = 0;

  // A non-blank character was staged on wire `w` during `tick` (readable at
  // `tick + 1`). `m` is the final merged character, after every lane writer
  // of the tick has filled its slot.
  virtual void on_send(Tick tick, WireId w, const Message& m) = 0;

  // A character was placed in flight on wire `w` through the fault-injection
  // path at tick `now`. `overwrote` reports whether a staged character was
  // already in flight (and has just been clobbered).
  virtual void on_inject(Tick now, WireId w, const Message& m,
                         bool overwrote) = 0;
};

}  // namespace dtop
