#include "bench_common.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <thread>

#include "core/verify.hpp"
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
  DTOP_CHECK(run.result.status == RunStatus::kTerminated,
             "benchmark run did not terminate: " + label);
  const VerifyResult v = verify_map(g, root, run.result.map);
  DTOP_CHECK(v.ok, "benchmark run produced a wrong map (" + label +
                       "): " + v.detail);
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

int bench_threads() {
  const char* env = std::getenv("DTOP_BENCH_THREADS");
  if (!env || !*env) return 1;
  const long v = std::strtol(env, nullptr, 10);
  return v >= 1 ? static_cast<int>(v) : 1;
}

namespace {

// A table cell that fully parses as a double is emitted as a JSON number;
// anything else is an escaped string. The tables format numbers with
// std::to_string / format_double, both of which round-trip through strtod.
void write_json_cell(std::ostream& os, const std::string& cell) {
  if (!cell.empty()) {
    char* end = nullptr;
    (void)std::strtod(cell.c_str(), &end);
    if (end == cell.c_str() + cell.size()) {
      os << cell;
      return;
    }
  }
  os << '"' << runner::json_escape(cell) << '"';
}

}  // namespace

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

  os << "{\n  \"experiment\": \"" << runner::json_escape(exp_) << "\",\n"
     << "  \"env\": {\"compiler\": \"" << runner::json_escape(__VERSION__)
     << "\", \"build\": \""
#ifdef NDEBUG
     << "release"
#else
     << "debug"
#endif
     << "\", \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ", \"bench_threads\": " << bench_threads() << ", \"quick\": "
     << (std::getenv("DTOP_BENCH_QUICK") ? "true" : "false") << "},\n"
     << "  \"tables\": {";
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    const auto& [name, table] = tables_[t];
    os << (t ? ",\n    \"" : "\n    \"") << runner::json_escape(name)
       << "\": {\"caption\": \"" << runner::json_escape(table.caption())
       << "\",\n     \"columns\": [";
    const auto& header = table.header();
    for (std::size_t c = 0; c < header.size(); ++c) {
      os << (c ? ", " : "") << '"' << runner::json_escape(header[c]) << '"';
    }
    os << "],\n     \"rows\": [";
    const auto& rows = table.rows();
    for (std::size_t r = 0; r < rows.size(); ++r) {
      os << (r ? ",\n       [" : "\n       [");
      for (std::size_t c = 0; c < rows[r].size(); ++c) {
        if (c) os << ", ";
        write_json_cell(os, rows[r][c]);
      }
      os << "]";
    }
    os << (rows.empty() ? "]}" : "\n     ]}");
  }
  os << (tables_.empty() ? "}\n}\n" : "\n  }\n}\n");
  diag << "Machine-readable table written to " << path << "\n";
}

}  // namespace dtop::bench
