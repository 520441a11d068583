#include "bench_common.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <thread>

#include "runner/emit.hpp"
#include "support/error.hpp"

namespace dtop::bench {

ProtocolRun run_verified(const std::string& label, const PortGraph& g,
                         NodeId root, const GtdOptions& opt) {
  ProtocolRun run;
  run.label = label;
  run.n = g.num_nodes();
  run.d = diameter(g);
  run.e = g.num_wires();
  trace::TraceRecorder rec;
  GtdOptions traced = opt;
  if (opt.spans) traced.trace = &rec;
  run.result = run_gtd(g, root, traced);
  const Verdict v = judge(g, root, run.result);
  DTOP_CHECK(v.ok(), "benchmark run " + label + " is not exact: " +
                         to_cstr(v.outcome) + ": " + v.detail);
  if (opt.spans) run.spans = trace::collect_spans(rec.events());
  return run;
}

std::vector<runner::JobResult> run_family_sweep(
    const std::vector<std::string>& families, const std::vector<NodeId>& sizes,
    std::uint64_t seed) {
  runner::CampaignSpec spec;
  spec.families = families;
  spec.sizes = sizes;
  spec.seeds = {seed};

  runner::RunnerOptions opt;
  const unsigned hw = std::thread::hardware_concurrency();
  opt.threads = static_cast<int>(std::max(1u, hw));

  const runner::CampaignResult result = runner::run_campaign(spec, opt);

  std::vector<runner::JobResult> rows;
  std::string last_family;
  NodeId last_n = 0;
  for (const runner::JobResult& r : result.jobs) {
    DTOP_CHECK(r.ok(), "benchmark job failed (" + r.label + "): " + r.detail);
    if (r.spec.family == last_family && r.n == last_n) continue;
    last_family = r.spec.family;
    last_n = r.n;
    rows.push_back(r);
  }
  return rows;
}

std::vector<NodeId> default_sizes() {
  const char* quick = std::getenv("DTOP_BENCH_QUICK");
  if (quick && *quick) return {16, 32, 64};
  return {16, 32, 64, 96, 128, 192, 256};
}

BenchJson::BenchJson(std::string exp) : exp_(std::move(exp)) {}

void BenchJson::add(const std::string& name, const Table& table) {
  tables_.emplace_back(name, table);
}

void BenchJson::write(std::ostream& diag) const {
  const char* dir = std::getenv("DTOP_BENCH_JSON_DIR");
  const std::string path =
      (dir && *dir ? std::string(dir) + "/" : std::string()) + "BENCH_" +
      exp_ + ".json";
  std::ofstream os(path);
  DTOP_CHECK(os.is_open(), "cannot open " + path + " for writing");
  runner::write_bench_json(os, exp_, tables_, runner::bench_threads(),
                           std::getenv("DTOP_BENCH_QUICK") != nullptr);
  diag << "Machine-readable table written to " << path << "\n";
}

}  // namespace dtop::bench
