// Drives a single GtdMachine without an engine: tests enqueue input
// characters per in-port, step the machine one tick at a time, and inspect
// the characters it emits per out-port. This isolates the lane rules
// (acceptance, tie-breaks, residence delays, conversions) from the network.
#pragma once

#include <array>
#include <optional>

#include "proto/gtd_machine.hpp"

namespace dtop {

class MachineHarness {
 public:
  // All `delta` in- and out-ports are connected unless masks are given.
  MachineHarness(bool is_root, Port delta, const GtdMachine::Config& cfg,
                 std::uint8_t in_mask = 0xFF, std::uint8_t out_mask = 0xFF)
      : env_{is_root, delta,
             static_cast<std::uint8_t>(in_mask & ((1u << delta) - 1)),
             static_cast<std::uint8_t>(out_mask & ((1u << delta) - 1)),
             /*debug_id=*/0},
        machine_(env_, cfg) {}

  GtdMachine& machine() { return machine_; }
  Tick now() const { return tick_; }

  // Stages an input for the next step() call.
  Character& input(Port p) {
    if (!inputs_[p]) inputs_[p] = Character{};
    return *inputs_[p];
  }

  // One tick: feeds staged inputs, collects outputs. Returns outputs per
  // out-port (nullopt = blank).
  const std::array<std::optional<Character>, kMaxDegree>& step() {
    ++tick_;
    StepContext<Character> ctx;
    ctx.tick_ = tick_;
    for (Port p = 0; p < kMaxDegree; ++p) {
      ctx.inputs_[p] =
          (p < env_.delta && (env_.in_mask & (1u << p)) && inputs_[p])
              ? &*inputs_[p]
              : nullptr;
      out_wires_[p] =
          (p < env_.delta && (env_.out_mask & (1u << p))) ? p : kNoWire;
    }
    for (auto& o : outputs_) o.reset();
    bits_.fill(0);
    stage_.l0 = &bits_[0];
    stage_.l1 = &bits_[1];
    stage_.l2 = &bits_[2];
    stage_.l2_words = 1;
    ctx.out_wires_ = out_wires_.data();
    ctx.next_msgs_ = staged_.data();
    ctx.next_stage_ = &stage_;
    scratch_.sched = sched_buf_.data();
    scratch_.sched_len = 0;
    scratch_.notes.clear();
    ctx.scratch_ = &scratch_;

    machine_.step(ctx);
    messages_ += scratch_.msgs;
    scratch_.msgs = 0;

    for (Port p = 0; p < kMaxDegree; ++p)
      if (detail::wire_test(stage_, p)) outputs_[p] = staged_[p];
    for (auto& in : inputs_) in.reset();
    return outputs_;
  }

  // Steps with all-blank inputs.
  const std::array<std::optional<Character>, kMaxDegree>& step_blank() {
    return step();
  }

  std::uint64_t messages_sent() const { return messages_; }

 private:
  MachineEnv env_;
  GtdMachine machine_;
  Tick tick_ = 0;
  std::array<std::optional<Character>, kMaxDegree> inputs_{};
  std::array<std::optional<Character>, kMaxDegree> outputs_{};
  std::array<Character, kMaxDegree> staged_{};
  // One word per bitmap level is plenty for kMaxDegree wires.
  std::array<std::uint64_t, 3> bits_{};
  detail::WireBitmap stage_{};
  std::array<WireId, kMaxDegree> out_wires_{};
  // One slot of slack: the branch-free self-reschedule stores one past the
  // committed length (see EngineScratch).
  std::array<NodeId, kMaxDegree + 1> sched_buf_{};
  EngineScratch scratch_{};
  std::uint64_t messages_ = 0;
};

}  // namespace dtop
