// run_gtd's tick loop, which replay_gtd runs too (core-internal).
#pragma once

#include <span>

#include "core/gtd.hpp"

namespace dtop {

// The one tick loop, shared by run_gtd and replay_gtd. Opens `trace` (when
// set) and schedules the root; then, tick by tick, fires the injections
// whose tick the clock reads and steps, until the root terminates or the
// clock reaches `budget`. Fills `out`'s status, injections_applied and
// stats (taken at that tick). A terminated run then steps 8 more ticks —
// the final BCA's BUNMARK is still one hop from its initiator when the root
// terminates — before its end state is audited (end_state_clean). Last,
// `trace` is sealed. `injections` must be sorted by tick. A protocol
// violation throws out of the step that raised it: the engine (and its
// stats) stay at the fatal tick and `trace` is left unsealed.
void drive_gtd(GtdEngine& engine, const ProtocolConfig& protocol,
               std::span<const trace::TraceInjection> injections, Tick budget,
               trace::TraceRecorder* trace, GtdResult& out);

}  // namespace dtop
