// The `dtopctl sweep` subcommand: parse a campaign spec (flags and/or a spec
// file), execute it through the src/runner subsystem, stream per-job
// progress to stderr, and emit the results as a table, JSON, or CSV.
#include <limits>
#include <memory>
#include <sstream>

#include "cli/cli.hpp"
#include "cli/cli_io.hpp"
#include "cli/flags.hpp"
#include "runner/emit.hpp"
#include "runner/runner.hpp"
#include "service/dispatcher.hpp"
#include "service/signals.hpp"
#include "support/table.hpp"

namespace dtop::cli {
namespace {

// Campaign-spec list parsing raises SpecError; flag-sourced values must
// surface as usage errors (exit 2), not runtime errors.
template <typename Fn>
auto as_usage(const std::string& flag, Fn&& fn) {
  try {
    return fn();
  } catch (const runner::SpecError& e) {
    throw UsageError(flag + ": " + e.what());
  }
}

std::vector<NodeId> parse_size_list(const std::string& flag,
                                    const std::string& value) {
  std::vector<NodeId> sizes;
  for (const std::uint64_t v : runner::parse_u64_list(flag, value)) {
    if (v < 2 || v > std::numeric_limits<NodeId>::max()) {
      throw UsageError(flag + " value " + std::to_string(v) +
                       " is out of range (need 2 <= size <= 2^32-1)");
    }
    sizes.push_back(static_cast<NodeId>(v));
  }
  if (sizes.empty()) throw UsageError(flag + " list is empty");
  return sizes;
}

void print_progress(std::ostream& err, const runner::JobResult& r,
                    std::size_t done, std::size_t total) {
  err << "[" << done << "/" << total << "] " << r.label << " seed="
      << r.spec.seed << " config=" << r.spec.config.label << " scenario="
      << r.spec.scenario.label << ": " << to_cstr(r.status) << " ("
      << r.ticks << " ticks, " << r.messages << " chars)";
  if (!r.ok() && !r.detail.empty()) err << " — " << r.detail;
  if (!r.trace_file.empty()) err << " [trace: " << r.trace_file << "]";
  err << "\n";
}

void print_table(std::ostream& out, const runner::CampaignResult& result) {
  Table table({"family", "N", "D", "E", "seed", "config", "scenario",
               "status", "ticks", "messages"});
  table.set_caption("dtopctl sweep: " + std::to_string(result.jobs.size()) +
                    "-job campaign");
  for (const runner::JobResult& j : result.jobs) {
    table.row()
        .cell(j.label)
        .cell(static_cast<std::uint64_t>(j.n))
        .cell(static_cast<std::uint64_t>(j.d))
        .cell(static_cast<std::uint64_t>(j.e))
        .cell(j.spec.seed)
        .cell(j.spec.config.label)
        .cell(j.spec.scenario.label)
        .cell(to_cstr(j.status))
        .cell(static_cast<std::int64_t>(j.ticks))
        .cell(j.messages);
  }
  table.print(out);
  out << "\n" << result.jobs.size() << " jobs, "
      << result.jobs.size() - result.failed() << " exact, " << result.failed()
      << " failed" << (result.interrupted ? " (interrupted)" : "") << "\n";
}

}  // namespace

SweepOptions parse_sweep_args(const std::vector<std::string>& args) {
  SweepOptions opt;
  // Flags are collected first, then applied over the spec file (if any) so
  // that explicit flags always win regardless of argument order.
  std::vector<std::pair<std::string, std::string>> overrides;

  FlagWalker w(args);
  while (w.next()) {
    const std::string f = w.flag();
    if (f == "--spec") {
      opt.spec_file = w.value();
    } else if (f == "--families" || f == "--sizes" || f == "--seeds" ||
               f == "--configs" || f == "--scenarios" || f == "--root" ||
               f == "--max-ticks") {
      overrides.emplace_back(f, w.value());
    } else if (f == "--threads") {
      opt.threads = parse_int_as<int>(f, w.value());
      if (opt.threads < 1) throw UsageError("--threads must be >= 1");
    } else if (f == "--format") {
      opt.format = w.value();
      if (opt.format != "table" && opt.format != "json" &&
          opt.format != "csv") {
        throw UsageError("--format must be table, json, or csv");
      }
    } else if (f == "--out") {
      opt.out = w.value();
    } else if (f == "--timing") {
      opt.timing = true;
    } else if (f == "--quiet") {
      opt.quiet = true;
    } else if (f == "--trace-dir") {
      opt.trace_dir = w.value();
    } else if (f == "--cluster") {
      opt.cluster = w.value();
    } else {
      throw UsageError("unknown flag '" + f + "' for 'sweep'");
    }
  }

  if (!opt.spec_file.empty()) {
    // An unreadable file is a runtime failure (exit 1), but a malformed
    // value inside it is operator error like any malformed flag (exit 2).
    const std::string text = with_input(opt.spec_file, [](std::istream& is) {
      std::ostringstream ss;
      ss << is.rdbuf();
      return ss.str();
    });
    opt.spec = as_usage("--spec " + opt.spec_file,
                        [&] { return runner::parse_spec_text(text); });
  }

  for (const auto& [f, value] : overrides) {
    if (f == "--families") {
      opt.spec.families = as_usage(f, [&] {
        auto fams = runner::parse_name_list(value);
        runner::check_families(fams);
        return fams;
      });
      if (opt.spec.families.empty()) throw UsageError(f + " list is empty");
    } else if (f == "--sizes") {
      opt.spec.sizes =
          as_usage(f, [&] { return parse_size_list(f, value); });
    } else if (f == "--seeds") {
      opt.spec.seeds =
          as_usage(f, [&] { return runner::parse_u64_list(f, value); });
      if (opt.spec.seeds.empty()) throw UsageError(f + " list is empty");
    } else if (f == "--configs") {
      opt.spec.configs = as_usage(f, [&] {
        std::vector<runner::EngineConfig> configs;
        for (const std::string& name : runner::parse_name_list(value)) {
          configs.push_back(runner::make_engine_config(name));
        }
        return configs;
      });
      if (opt.spec.configs.empty()) throw UsageError(f + " list is empty");
    } else if (f == "--scenarios") {
      opt.spec.scenarios = as_usage(f, [&] {
        std::vector<runner::FaultScenario> scenarios;
        for (const std::string& name : runner::parse_name_list(value)) {
          scenarios.push_back(runner::make_scenario(name));
        }
        return scenarios;
      });
      if (opt.spec.scenarios.empty()) throw UsageError(f + " list is empty");
    } else if (f == "--root") {
      opt.spec.root = parse_int_as<NodeId>(f, value);
    } else if (f == "--max-ticks") {
      opt.spec.max_ticks = parse_int_as<Tick>(f, value);
    }
  }
  return opt;
}

int sweep_command(const SweepOptions& opt, std::ostream& out,
                  std::ostream& err) {
  runner::RunnerOptions ropt;
  ropt.threads = opt.threads;
  ropt.trace_dir = opt.trace_dir;

  // --cluster: the same campaign, executed remotely. Each job travels as a
  // single-job sweep request routed by the canonical hash of its own
  // network, so repeated topologies land on the shard that already solved
  // them; the exit-code, interrupt-drain, and trace-capture contracts are
  // untouched because only the executor changes.
  std::unique_ptr<service::Dispatcher> dispatcher;
  if (!opt.cluster.empty()) {
    service::DispatcherOptions dopt;
    dopt.sockets = split_list(opt.cluster);
    if (dopt.sockets.empty()) throw UsageError("--cluster list is empty");
    dispatcher = std::make_unique<service::Dispatcher>(dopt);
    ropt.execute = [&dispatcher](const runner::JobSpec& job,
                                 const std::string& trace_dir) {
      return service::remote_run_job(*dispatcher, job, trace_dir);
    };
  }
  if (!opt.quiet) {
    ropt.progress = [&err](const runner::JobResult& r, std::size_t done,
                           std::size_t total) {
      print_progress(err, r, done, total);
    };
  }

  // SIGINT/SIGTERM stop the campaign cooperatively: in-flight jobs drain,
  // the completed prefix is emitted as valid (partial) output, and the
  // command exits 128+signal instead of dying mid-write.
  service::SignalGuard guard;
  service::SignalGuard::reset();
  ropt.cancel = &service::SignalGuard::flag();

  const runner::CampaignResult result = runner::run_campaign(opt.spec, ropt);

  runner::EmitOptions eopt;
  eopt.timing = opt.timing;
  with_output(opt.out, out, [&](std::ostream& os) {
    if (opt.format == "json") {
      runner::write_json(os, result, eopt);
    } else if (opt.format == "csv") {
      runner::write_csv(os, result, eopt);
    } else {
      print_table(os, result);
    }
  });
  if (!opt.out.empty() && opt.out != "-") {
    out << "Campaign results (" << result.jobs.size() << " jobs, "
        << result.failed() << " failed) written to " << opt.out << "\n";
  }
  if (result.interrupted) {
    err << "interrupted: " << result.jobs.size() << " of "
        << runner::expand(opt.spec).size()
        << " jobs completed; partial results flushed\n";
    return service::SignalGuard::exit_code();
  }
  return result.all_ok() ? 0 : 1;
}

}  // namespace dtop::cli
