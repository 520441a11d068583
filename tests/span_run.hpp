// Runs the protocol with span events recorded (GtdOptions::spans) and reads
// the RCA/BCA spans back from the recording — the one way the suites get
// spans.
#pragma once

#include <gtest/gtest.h>

#include "core/gtd.hpp"
#include "trace/span_collector.hpp"

namespace dtop {

struct SpanRun {
  GtdResult result;
  trace::SpanCollector spans;
};

inline SpanRun run_with_spans(const PortGraph& g, NodeId root = 0) {
  trace::TraceRecorder rec;
  GtdOptions opt;
  opt.trace = &rec;
  opt.spans = true;
  SpanRun run{run_gtd(g, root, opt), {}};
  EXPECT_EQ(run.result.status, RunStatus::kTerminated);
  run.spans = trace::collect_spans(rec.events());
  return run;
}

}  // namespace dtop
