// Wire-level protocol activity as the trace recorder sees it: the kWireSend
// records of a run are what `atlas --trace N` prints.
#include <gtest/gtest.h>

#include "core/gtd.hpp"
#include "graph/families.hpp"

namespace dtop {
namespace {

TEST(TraceRecorder, CapturesEarlyProtocolActivity) {
  const PortGraph g = directed_ring(4);
  trace::TraceRecorder rec;
  GtdOptions opt;
  opt.trace = &rec;
  ASSERT_EQ(run_gtd(g, 0, opt).status, RunStatus::kTerminated);

  std::vector<trace::TraceEvent> sends;
  for (const trace::TraceEvent& ev : rec.events()) {
    if (ev.kind == trace::TraceEventKind::kWireSend) sends.push_back(ev);
  }
  ASSERT_FALSE(sends.empty());
  // Tick 1 carries the DFS token on wire 0->1.
  EXPECT_EQ(sends[0].tick, 1);
  EXPECT_EQ(g.wire(sends[0].a).from, 0u);
  EXPECT_EQ(g.wire(sends[0].a).to, 1u);
  EXPECT_NE(to_string(sends[0].payload).find("DFS"), std::string::npos);
  // Tick 2 carries the IG head out of node 1.
  bool saw_ig_head = false;
  for (const trace::TraceEvent& ev : sends) {
    if (ev.tick == 2 && g.wire(ev.a).from == 1 &&
        to_string(ev.payload).find("IGH") != std::string::npos) {
      saw_ig_head = true;
    }
  }
  EXPECT_TRUE(saw_ig_head);
}

}  // namespace
}  // namespace dtop
