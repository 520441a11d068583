// Public one-call API: run the Global Topology Determination protocol on a
// network and return everything the experiments need — the recovered map,
// the transcript, tick/message statistics, and end-state audits — plus the
// one verdict on what such a run means (judge).
//
// Quickstart:
//   PortGraph g = de_bruijn(5);
//   GtdResult r = run_gtd(g, /*root=*/0);
//   DTOP: r.map holds the port-labelled topology; judge(g, 0, r).ok()
#pragma once

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "core/map_builder.hpp"
#include "core/topology_map.hpp"
#include "graph/port_graph.hpp"
#include "proto/gtd_machine.hpp"
#include "sim/engine.hpp"
#include "support/arena.hpp"
#include "trace/recorder.hpp"

namespace dtop {

struct GtdOptions {
  ProtocolConfig protocol;
  int num_threads = 1;
  // Parallel-split threshold forwarded to EngineOptions::parallel_grain
  // (0 = engine default).
  std::size_t parallel_grain = 0;
  // 0 = automatic budget (a generous multiple of the O(N*D) bound). The
  // budget only guards against livelock in broken (ablated) configurations.
  Tick max_ticks = 0;
  // Also record RCA/BCA span events (GtdNote span kinds) into `trace`;
  // trace::collect_spans then reads them back. Without a trace the span
  // notes are dropped.
  bool spans = false;

  // Arena the run's engine state lives in. nullptr = the engine owns a
  // private per-run arena. Long-lived callers (runner workers, dtopd
  // request workers) pass a warm per-worker arena and reset it between
  // runs, so repeat runs reuse the high-water footprint instead of
  // churning the allocator. The arena must not be shared with a
  // concurrently running engine.
  Arena* arena = nullptr;

  // Trace-surgery edits: each injection places its rogue character in
  // flight when the engine clock reads `at`. This is the one perturbation
  // path shared by the runner's fault scenarios, the fault tests, and
  // replayed traces; injections past the run's end are counted in
  // GtdResult::injections_applied (a run that ends first must not be read
  // as having survived the fault).
  std::vector<trace::TraceInjection> injections;

  // When set, the full run is recorded: begin() is called with the run's
  // identity, every engine/transcript event (and, with `spans`, every span
  // event) is captured, and finish() seals the trace — unless the run dies
  // in a protocol violation, in which case the recorder keeps the partial
  // event stream for post-mortem. Recording is bit-identical at any
  // num_threads.
  trace::TraceRecorder* trace = nullptr;

  // Observability hook, forwarded to EngineOptions::metrics. Strictly
  // passive (see obs/engine_metrics.hpp): results, transcripts, and traces
  // are byte-identical with or without it. `metrics_shard` is the registry
  // shard recordings land under — pass the executing worker's index.
  const obs::EngineMetrics* metrics = nullptr;
  int metrics_shard = 0;
};

struct GtdResult {
  RunStatus status = RunStatus::kTickBudget;
  EngineStats stats;  // taken at the termination (or budget) tick
  Transcript transcript;
  TopologyMap map{1};
  std::vector<RcaRecord> records;
  bool map_complete = false;   // transcript reached kTerminated cleanly
  // All machines pristine and no wire busy, audited 8 ticks after
  // termination (Lemma 4.2); false for a run that did not terminate.
  bool end_state_clean = false;
  std::size_t injections_applied = 0;  // how many injections actually fired
};

// Conservative upper bound on the protocol's running time for the given
// network, used as the default tick budget.
Tick default_tick_budget(const PortGraph& g);

// Runs the protocol to termination or budget (core/drive.hpp), then reads
// the map out of the root's transcript. Throws on a protocol violation.
GtdResult run_gtd(const PortGraph& g, NodeId root, const GtdOptions& opt = {});

using GtdEngine = SyncEngine<GtdMachine>;

// End-state audit helper shared by run_gtd and the tests: every machine
// pristine (no protocol residue), every wire silent, every DFS finished.
bool end_state_clean(GtdEngine& engine);

// --- verdict -------------------------------------------------------------

// How a determination ended, most desirable first. kExact is the only
// success: the root terminated, its transcript yields a complete map, the
// map is verify_map-exact, and the network is left pristine (Lemma 4.2).
enum class Outcome : std::uint8_t {
  kExact,
  kResidue,    // map exact but the end state kept protocol residue
  kMismatch,   // terminated but the recovered map is wrong or incomplete
  kBudget,     // tick budget exhausted before the root terminated
  kViolation,  // a protocol invariant (or other exception) fired
};
const char* to_cstr(Outcome o);  // "exact", "residue", ...

struct Verdict {
  Outcome outcome = Outcome::kViolation;
  std::string detail;  // why the run is not exact ("" when it is)
  bool ok() const { return outcome == Outcome::kExact; }
};

// The one judgement of a run_gtd result on network `g` from `root`. The
// checks run from kBudget up, so the first failing one names the outcome;
// verify_map runs only for a terminated run with a complete map.
Verdict judge(const PortGraph& g, NodeId root, const GtdResult& r);
// A run that threw is a violation, explained by the exception's message.
Verdict judge(const std::exception& thrown);

// --- replay (core/replay.cpp) --------------------------------------------

// Outcome of re-executing a recorded trace. `ok` means the re-execution
// reproduced the recorded event stream exactly — same events, same order,
// same final status; anything else is a divergence, pinpointed by the first
// mismatching event.
struct ReplayResult {
  bool ok = false;
  bool diverged = false;       // a produced event mismatched the recording
  std::size_t event_index = 0;  // first divergent event (valid if diverged)
  Tick tick = 0;                // its tick
  std::string detail;           // human-readable explanation ("" when ok)

  // The re-executed run's artifacts (always filled as far as the replay
  // got): the transcript, and the engine stats — taken at the termination
  // tick as run_gtd takes them, or at the fatal tick of a violation.
  EngineStats stats;
  Transcript transcript;
};

// Re-executes the run a trace describes — same network, root and protocol
// config from the header, the recording's kInject events as the injections
// — through run_gtd's tick loop (core/drive.hpp) on an engine of its own, and
// hard-fails on the first divergence from the recorded stream. Each event
// is compared against the recording as it is produced; replay holds only
// the recording it is given, never a second copy of the stream. The engine
// being deterministic, a divergence means either the trace was perturbed or
// the code changed behaviour; both are exactly what replay exists to catch.
// A trace without a terminal kRunEnd records a run that died in a protocol
// violation: replay then expects to reproduce that violation.
// `arena` follows the GtdOptions::arena contract (nullptr = engine-owned).
ReplayResult replay_gtd(const trace::RecordedTrace& rec, int num_threads = 1,
                        Arena* arena = nullptr);

// --- re-record (core/rerecord.cpp) ----------------------------------------

// Outcome of re-executing a (possibly edited) run under a fresh recorder —
// the engine side of `dtopctl trace splice/overwrite`.
struct RerecordResult {
  trace::RecordedTrace trace;  // a genuine recording; replays clean
  bool violation = false;      // the run died in a protocol violation
  std::string detail;          // violation message ("" otherwise)
  std::size_t injections_applied = 0;
  RunStatus status = RunStatus::kTickBudget;
};

// Runs the network/root/config `base`'s header describes with `injections`
// as the only external perturbations, recording everything — span events
// too when `base` carries them (trace::has_span_events). A violation is
// captured, not thrown: the result then holds the partial stream a live
// crash would have left on disk (no terminal kRunEnd).
RerecordResult rerecord_gtd(const trace::RecordedTrace& base,
                            std::vector<trace::TraceInjection> injections);

// Post-mortem capture of a failed run, shared by the campaign runner and
// dtopd: re-executes the run `opt` describes (resetting opt.arena first;
// the failed run's engine is gone) with a recorder attached, and writes the
// recording to `path` as DTR2. Runs are deterministic, so the re-run
// reproduces the failure — a protocol violation included, whose partial
// trace has no terminal kRunEnd. Returns false when the run failed before
// anything was recorded; throws Error when `path` cannot be written.
bool capture_trace(const PortGraph& g, NodeId root, GtdOptions opt,
                   const std::string& path);

}  // namespace dtop
