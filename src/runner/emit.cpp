#include "runner/emit.hpp"

#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <thread>

namespace dtop::runner {
namespace {

// Fixed-format wall-clock milliseconds (3 decimals) so the emitted text
// never depends on stream state.
std::string format_ms(double ms) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", ms);
  return buf;
}

template <typename T, typename Fn>
void write_json_list(std::ostream& os, const std::vector<T>& items, Fn&& fn) {
  os << "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) os << ", ";
    fn(items[i]);
  }
  os << "]";
}

std::string csv_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

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
  os << '"' << json_escape(cell) << '"';
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void write_json(std::ostream& os, const CampaignResult& result,
                const EmitOptions& opt) {
  const CampaignSpec& spec = result.spec;
  os << "{\n  \"campaign\": {\n    \"families\": ";
  write_json_list(os, spec.families, [&](const std::string& f) {
    os << '"' << json_escape(f) << '"';
  });
  os << ",\n    \"sizes\": ";
  write_json_list(os, spec.sizes, [&](NodeId n) { os << n; });
  os << ",\n    \"seeds\": ";
  write_json_list(os, spec.seeds, [&](std::uint64_t s) { os << s; });
  os << ",\n    \"configs\": ";
  write_json_list(os, spec.configs, [&](const EngineConfig& c) {
    os << '"' << json_escape(c.label) << '"';
  });
  os << ",\n    \"scenarios\": ";
  write_json_list(os, spec.scenarios, [&](const FaultScenario& s) {
    os << '"' << json_escape(s.label) << '"';
  });
  os << ",\n    \"root\": " << spec.root
     << ",\n    \"jobs\": " << result.jobs.size() << "\n  },\n  \"jobs\": [";

  std::uint64_t total_ticks = 0, total_messages = 0, total_steps = 0;
  double total_ms = 0.0;
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const JobResult& j = result.jobs[i];
    total_ticks += static_cast<std::uint64_t>(j.ticks);
    total_messages += j.messages;
    total_steps += j.node_steps;
    total_ms += j.wall_ms;
    os << (i ? ",\n    {" : "\n    {")
       << "\"index\": " << j.spec.index
       << ", \"family\": \"" << json_escape(j.spec.family) << '"'
       << ", \"label\": \"" << json_escape(j.label) << '"'
       << ", \"size_hint\": " << j.spec.nodes
       << ", \"seed\": " << j.spec.seed
       << ", \"config\": \"" << json_escape(j.spec.config.label) << '"'
       << ", \"scenario\": \"" << json_escape(j.spec.scenario.label) << '"'
       << ", \"root\": " << j.spec.root
       << ", \"n\": " << j.n << ", \"d\": " << j.d << ", \"e\": " << j.e
       << ", \"status\": \"" << to_cstr(j.status) << '"'
       << ", \"verify\": " << (j.ok() ? "true" : "false")
       << ", \"ticks\": " << j.ticks
       << ", \"messages\": " << j.messages
       << ", \"node_steps\": " << j.node_steps;
    if (opt.timing) os << ", \"wall_ms\": " << format_ms(j.wall_ms);
    if (!j.trace_file.empty()) {
      os << ", \"trace\": \"" << json_escape(j.trace_file) << '"';
    }
    os << ", \"detail\": \"" << json_escape(j.detail) << "\"}";
  }
  os << "\n  ],\n  \"summary\": {\"jobs\": " << result.jobs.size()
     << ", \"exact\": " << (result.jobs.size() - result.failed())
     << ", \"failed\": " << result.failed()
     << ", \"ticks\": " << total_ticks
     << ", \"messages\": " << total_messages
     << ", \"node_steps\": " << total_steps;
  // Only present on an interrupted (SIGINT/SIGTERM) campaign, so complete
  // campaigns keep their historical byte-identical shape.
  if (result.interrupted) os << ", \"interrupted\": true";
  if (opt.timing) os << ", \"wall_ms\": " << format_ms(total_ms);
  os << "}\n}\n";
}

void write_csv(std::ostream& os, const CampaignResult& result,
               const EmitOptions& opt) {
  os << "index,family,label,size_hint,seed,config,scenario,root,n,d,e,"
        "status,ticks,messages,node_steps";
  if (opt.timing) os << ",wall_ms";
  os << ",detail\n";
  for (const JobResult& j : result.jobs) {
    os << j.spec.index << ',' << j.spec.family << ',' << csv_quote(j.label)
       << ',' << j.spec.nodes << ',' << j.spec.seed << ','
       << j.spec.config.label << ',' << csv_quote(j.spec.scenario.label)
       << ',' << j.spec.root << ',' << j.n << ',' << j.d << ',' << j.e << ','
       << to_cstr(j.status) << ',' << j.ticks << ',' << j.messages << ','
       << j.node_steps;
    if (opt.timing) os << ',' << format_ms(j.wall_ms);
    os << ',' << csv_quote(j.detail) << '\n';
  }
}

void write_bench_json(
    std::ostream& os, const std::string& exp,
    const std::vector<std::pair<std::string, Table>>& tables,
    std::optional<int> bench_threads, bool quick) {
  os << "{\n  \"experiment\": \"" << json_escape(exp) << "\",\n"
     << "  \"env\": {\"compiler\": \"" << json_escape(__VERSION__)
     << "\", \"build\": \""
#ifdef NDEBUG
     << "release"
#else
     << "debug"
#endif
     << "\", \"hardware_threads\": " << std::thread::hardware_concurrency();
  if (bench_threads) os << ", \"bench_threads\": " << *bench_threads;
  os << ", \"quick\": " << (quick ? "true" : "false") << "},\n"
     << "  \"tables\": {";
  for (std::size_t t = 0; t < tables.size(); ++t) {
    const auto& [name, table] = tables[t];
    os << (t ? ",\n    \"" : "\n    \"") << json_escape(name)
       << "\": {\"caption\": \"" << json_escape(table.caption())
       << "\",\n     \"columns\": [";
    const auto& header = table.header();
    for (std::size_t c = 0; c < header.size(); ++c) {
      os << (c ? ", " : "") << '"' << json_escape(header[c]) << '"';
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
  os << (tables.empty() ? "}\n}\n" : "\n  }\n}\n");
}

int bench_threads() {
  const char* env = std::getenv("DTOP_BENCH_THREADS");
  if (!env || !*env) return 1;
  const long v = std::strtol(env, nullptr, 10);
  return v >= 1 ? static_cast<int>(v) : 1;
}

}  // namespace dtop::runner
