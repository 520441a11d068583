// Re-execute and re-record: the engine side of trace surgery.
//
// Splice and overwrite edit a run's external inputs, which invalidates
// every recorded event after the edit point — so instead of patching
// bytes, the run described by the trace header is executed again with the
// edited injection list, under a fresh recorder. The output is a genuine
// recording: it replays clean by construction, and a surgery that provokes
// a protocol violation yields exactly what a live run would have left
// behind — a partial stream without a terminal kRunEnd. capture_trace is
// the same re-execution for a failed run, written straight to disk.
#include <fstream>

#include "core/gtd.hpp"
#include "trace/container.hpp"
#include "trace/span_collector.hpp"

namespace dtop {

RerecordResult rerecord_gtd(const trace::RecordedTrace& base,
                            std::vector<trace::TraceInjection> injections) {
  const trace::TraceHeader& header = base.header;
  header.graph.validate();
  DTOP_REQUIRE(header.root < header.graph.num_nodes(),
               "rerecord: root out of range");

  trace::TraceRecorder rec;
  GtdOptions opt;
  opt.protocol = header.config;
  opt.injections = std::move(injections);
  opt.trace = &rec;
  opt.spans = trace::has_span_events(base);

  RerecordResult out;
  try {
    const GtdResult r = run_gtd(header.graph, header.root, opt);
    out.status = r.status;
    out.injections_applied = r.injections_applied;
  } catch (const Error& e) {
    // A protocol violation unwound past run_gtd's finish(); the recorder
    // holds the partial stream, which is the on-disk shape of a crash.
    out.violation = true;
    out.detail = e.what();
  }
  out.trace = rec.take();
  return out;
}

bool capture_trace(const PortGraph& g, NodeId root, GtdOptions opt,
                   const std::string& path) {
  trace::TraceRecorder rec;
  opt.trace = &rec;
  if (opt.arena) opt.arena->reset();
  try {
    (void)run_gtd(g, root, opt);
  } catch (const std::exception&) {
    // Expected for violation runs; the recorder keeps the partial stream.
  }
  if (!rec.started()) return false;
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open " + path);
  trace::write_trace_dtr2(out, rec.take());
  out.flush();
  if (!out.good()) throw Error("write to " + path + " failed");
  return true;
}

}  // namespace dtop
