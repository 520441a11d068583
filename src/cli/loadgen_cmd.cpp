// The `dtopctl loadgen` subcommand: a latency-SLO load generator for a live
// dtopd daemon or cluster.
//
// The harness drives a mixed determine/verify/sweep request stream over a
// catalog of K topology instances whose popularity is Zipf-distributed
// (rank r drawn with probability ~ r^-s), the canonical skew of a
// cache-fronted service: a few hot topologies dominate, a long tail keeps
// the shards computing. The whole schedule — which op, which instance, in
// which order — is precomputed from --seed, so a fixed-request closed-loop
// run issues a byte-reproducible request stream: the requests / errors /
// cache_reuse columns of the report are then exact invariants (CI diffs
// them at zero tolerance) while throughput and the p50/p95/p99 latency
// quantiles are wall-clock measurements (CI gates them with a generous
// tolerance band).
//
// Two arrival models:
//   closed loop (--rate 0): C workers each keep exactly one request in
//     flight — latency is pure service time, throughput is the capacity
//     at concurrency C.
//   open loop (--rate R): arrivals fire at R per second regardless of
//     completions (the schedule is pushed through a queue on a pacing
//     thread); latency is measured from the *intended* arrival, so queue
//     wait counts — the number an SLO actually governs.
//
// Verify requests need a correct map for their instance; the harness runs
// the protocol locally once per catalog entry at startup (instances are
// small) and embeds the serialized map, which also keeps verify traffic
// read-only on the server. Determine requests set include_map false — the
// replication path then has to fetch the map via cache_get, exercising it.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "cli/cli.hpp"
#include "cli/cli_io.hpp"
#include "cli/flags.hpp"
#include "core/gtd.hpp"
#include "core/map_io.hpp"
#include "graph/families.hpp"
#include "obs/histogram.hpp"
#include "runner/emit.hpp"
#include "service/dispatcher.hpp"
#include "service/job_queue.hpp"
#include "service/json.hpp"
#include "service/server.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace dtop::cli {
namespace {

using Clock = std::chrono::steady_clock;

// Ops are indexed, not named, on the hot path; kOpNames fixes the report
// row order (and the mix-string spelling).
enum Op : int { kDetermine = 0, kVerify = 1, kSweep = 2 };
constexpr const char* kOpNames[] = {"determine", "verify", "sweep"};
constexpr int kOpCount = 3;

// Catalog families: deterministic, strongly connected, cheap at these
// sizes. Instance i is (family i mod F, size hint i div F) — distinct
// (family, size) pairs, so the catalog spans genuinely different canonical
// forms (pow2-rounding families may alias a few neighboring hints, which
// only raises the observed cache reuse — still deterministically).
const char* const kFamilies[] = {"torus",    "debruijn", "kautz",
                                 "dering",   "treeloop", "biring"};
const NodeId kSizes[] = {9, 12, 16, 20, 25, 30, 36, 42};

struct CatalogEntry {
  std::string lines[kOpCount];  // one prebuilt request line per op
};

struct Slot {
  int op = 0;
  int inst = 0;
};

struct OpStats {
  std::uint64_t count = 0;
  std::uint64_t errors = 0;
  std::uint64_t reuse = 0;  // determine responses answered hit/coalesced
  // Latency in microseconds, in the same log-linear histogram the metrics
  // registry uses — worker-local recordings merge() exactly, and the
  // <= 3.125% bucket error sits well inside the report's tolerance band.
  obs::Histogram latency_us;
};

std::vector<CatalogEntry> build_catalog(const LoadgenOptions& opt) {
  constexpr std::size_t nf = std::size(kFamilies);
  std::vector<CatalogEntry> catalog;
  for (int i = 0; i < opt.instances; ++i) {
    const std::string family = kFamilies[static_cast<std::size_t>(i) % nf];
    const NodeId nodes =
        kSizes[(static_cast<std::size_t>(i) / nf) % std::size(kSizes)];
    const FamilyInstance fi = make_family(family, nodes, opt.seed);

    // The verify payload: run the protocol locally once, embed the map.
    const GtdResult r = run_gtd(fi.graph, /*root=*/0);
    const Verdict v = judge(fi.graph, 0, r);
    DTOP_CHECK(v.ok(), "loadgen catalog run of " + fi.label + " is not exact: " +
                           to_cstr(v.outcome) + ": " + v.detail);
    std::ostringstream map_text;
    write_map(map_text, r.map);

    CatalogEntry e;
    {
      service::JsonWriter w;
      w.field("op", "determine")
          .field("family", family)
          .field("nodes", static_cast<std::uint64_t>(nodes))
          .field("seed", opt.seed)
          .field("include_map", false);
      e.lines[kDetermine] = w.str();
    }
    {
      service::JsonWriter w;
      w.field("op", "verify")
          .field("family", family)
          .field("nodes", static_cast<std::uint64_t>(nodes))
          .field("seed", opt.seed)
          .field("map", map_text.str());
      e.lines[kVerify] = w.str();
    }
    {
      service::JsonWriter w;
      w.field("op", "sweep")
          .field("families", family)
          .field("sizes", std::to_string(nodes))
          .field("seeds", std::to_string(opt.seed));
      e.lines[kSweep] = w.str();
    }
    catalog.push_back(std::move(e));
  }
  return catalog;
}

// Weighted draw tables: ops by the --mix weights, instances by Zipf rank.
struct DrawTables {
  std::vector<double> op_cdf;    // kOpCount entries, last == 1.0
  std::vector<double> inst_cdf;  // instances entries, last == 1.0
};

double parse_double(const std::string& flag, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size()) {
    throw UsageError(flag + " expects a number, got '" + value + "'");
  }
  return v;
}

std::vector<std::uint64_t> parse_mix(const std::string& mix) {
  std::vector<std::uint64_t> weights(kOpCount, 0);
  for (const std::string& part : split_list(mix)) {
    const std::size_t eq = part.find('=');
    if (eq == std::string::npos) {
      throw UsageError("--mix entries look like determine=8, got '" + part +
                       "'");
    }
    const std::string name = part.substr(0, eq);
    int op = -1;
    for (int i = 0; i < kOpCount; ++i) {
      if (name == kOpNames[i]) op = i;
    }
    if (op < 0) {
      throw UsageError("--mix op '" + name +
                       "' unknown (known: determine verify sweep)");
    }
    weights[static_cast<std::size_t>(op)] =
        parse_u64("--mix", part.substr(eq + 1));
  }
  if (std::all_of(weights.begin(), weights.end(),
                  [](std::uint64_t w) { return w == 0; })) {
    throw UsageError("--mix needs at least one nonzero weight");
  }
  return weights;
}

DrawTables build_tables(const LoadgenOptions& opt) {
  DrawTables t;
  const std::vector<std::uint64_t> weights = parse_mix(opt.mix);
  double total = 0.0;
  for (int i = 0; i < kOpCount; ++i) {
    total += static_cast<double>(weights[static_cast<std::size_t>(i)]);
    t.op_cdf.push_back(total);
  }
  for (double& c : t.op_cdf) c /= total;

  double ztotal = 0.0;
  for (int r = 1; r <= opt.instances; ++r) {
    ztotal += std::pow(static_cast<double>(r), -opt.zipf);
    t.inst_cdf.push_back(ztotal);
  }
  for (double& c : t.inst_cdf) c /= ztotal;
  return t;
}

int draw(const std::vector<double>& cdf, double u) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return static_cast<int>(std::min<std::ptrdiff_t>(
      it - cdf.begin(), static_cast<std::ptrdiff_t>(cdf.size()) - 1));
}

std::vector<Slot> build_schedule(const LoadgenOptions& opt,
                                 const DrawTables& tables) {
  // Duration-mode runs cycle the schedule; 65536 slots keep the cycle far
  // longer than any 5-second smoke run while bounding memory.
  const std::uint64_t n = opt.requests > 0 ? opt.requests : 65536;
  std::vector<Slot> schedule;
  schedule.reserve(n);
  Rng rng(opt.seed);
  for (std::uint64_t i = 0; i < n; ++i) {
    Slot s;
    s.op = draw(tables.op_cdf, rng.next_double());
    s.inst = draw(tables.inst_cdf, rng.next_double());
    schedule.push_back(s);
  }
  return schedule;
}

// One worker's transport: a shared dispatcher (cluster mode, thread-safe
// and pipelined) or a private ClientChannel (single-endpoint mode).
class Target {
 public:
  Target(service::Dispatcher* dispatcher, const std::string& endpoint)
      : dispatcher_(dispatcher), endpoint_(endpoint) {
    if (!dispatcher_) connect();
  }

  std::string roundtrip(const std::string& line) {
    if (dispatcher_) return dispatcher_->call(line);
    if (!channel_) connect();  // one reconnect attempt per failure
    try {
      channel_->send(line);
      const std::optional<std::string> resp = channel_->recv();
      if (!resp) throw Error("server closed the connection mid-session");
      return *resp;
    } catch (...) {
      channel_.reset();  // a broken stream cannot be reused
      throw;
    }
  }

 private:
  void connect() {
    channel_ = std::make_unique<service::ClientChannel>(endpoint_);
  }

  service::Dispatcher* dispatcher_;
  std::string endpoint_;
  std::unique_ptr<service::ClientChannel> channel_;
};

// An arrival: schedule index plus the intended arrival instant (open loop
// measures latency from here, so queue wait counts against the SLO).
struct Arrival {
  std::uint64_t index = 0;
  Clock::time_point at;
};

void record(OpStats stats_by_op[], int op, bool ok, bool reused, double ms) {
  OpStats& s = stats_by_op[op];
  ++s.count;
  if (!ok) ++s.errors;
  if (reused) ++s.reuse;
  s.latency_us.record(
      static_cast<std::uint64_t>(std::llround(std::max(ms, 0.0) * 1000.0)));
}

void execute_one(Target& target, const std::vector<CatalogEntry>& catalog,
                 const Slot& slot, Clock::time_point measure_from,
                 OpStats stats_by_op[]) {
  const std::string& line =
      catalog[static_cast<std::size_t>(slot.inst)].lines[slot.op];
  bool ok = false;
  bool reused = false;
  try {
    const std::string resp = target.roundtrip(line);
    ok = resp.find("\"ok\": true") != std::string::npos;
    reused = slot.op == kDetermine &&
             (resp.find("\"cache\": \"hit\"") != std::string::npos ||
              resp.find("\"cache\": \"coalesced\"") != std::string::npos);
  } catch (const Error&) {
    ok = false;  // transport failure: counted, the worker carries on
  }
  const std::chrono::duration<double, std::milli> ms =
      Clock::now() - measure_from;
  record(stats_by_op, slot.op, ok, reused, ms.count());
}

std::string format_rate(double rate) {
  return rate <= 0.0 ? std::string("closed")
                     : "open@" + format_double(rate, 1) + "/s";
}

}  // namespace

LoadgenOptions parse_loadgen_args(const std::vector<std::string>& args) {
  LoadgenOptions opt;
  FlagWalker w(args);
  while (w.next()) {
    const std::string& f = w.flag();
    if (f == "--cluster") {
      opt.cluster = w.value();
    } else if (f == "--endpoint") {
      opt.endpoint = w.value();
    } else if (f == "--concurrency") {
      opt.concurrency = parse_int_as<int>(f, w.value());
      if (opt.concurrency < 1) throw UsageError("--concurrency must be >= 1");
    } else if (f == "--rate") {
      opt.rate = parse_double(f, w.value());
      if (!(opt.rate >= 0.0)) throw UsageError("--rate must be >= 0");
    } else if (f == "--requests") {
      opt.requests = parse_u64(f, w.value());
    } else if (f == "--duration") {
      opt.duration = parse_double(f, w.value());
      if (!(opt.duration > 0.0)) throw UsageError("--duration must be > 0");
    } else if (f == "--zipf") {
      opt.zipf = parse_double(f, w.value());
      if (!(opt.zipf >= 0.0)) throw UsageError("--zipf must be >= 0");
    } else if (f == "--instances") {
      opt.instances = parse_int_as<int>(f, w.value());
      if (opt.instances < 1 || opt.instances > 48) {
        throw UsageError("--instances must be in 1..48");
      }
    } else if (f == "--mix") {
      opt.mix = w.value();
      (void)parse_mix(opt.mix);  // validate now, not mid-run
    } else if (f == "--seed") {
      opt.seed = parse_u64(f, w.value());
    } else if (f == "--replicas") {
      opt.replicas = parse_int_as<int>(f, w.value());
      if (opt.replicas < 0) throw UsageError("--replicas must be >= 0");
    } else if (f == "--out") {
      opt.out = w.value();
    } else if (f == "--bench-json") {
      opt.bench_json = w.value();
    } else if (f == "--quiet") {
      opt.quiet = true;
    } else {
      throw UsageError("unknown flag '" + f + "' for 'loadgen'");
    }
  }
  if (opt.cluster.empty() == opt.endpoint.empty()) {
    throw UsageError(
        "'loadgen' needs exactly one of --endpoint EP or --cluster EPS");
  }
  return opt;
}

int loadgen_command(const LoadgenOptions& opt, std::ostream& out,
                    std::ostream& err) {
  const DrawTables tables = build_tables(opt);
  if (!opt.quiet) {
    err << "loadgen: building catalog (" << opt.instances << " instances)\n"
        << std::flush;
  }
  const std::vector<CatalogEntry> catalog = build_catalog(opt);
  const std::vector<Slot> schedule = build_schedule(opt, tables);

  std::unique_ptr<service::Dispatcher> dispatcher;
  if (!opt.cluster.empty()) {
    service::DispatcherOptions dopt;
    dopt.sockets = split_list(opt.cluster);
    if (dopt.sockets.empty()) throw UsageError("--cluster list is empty");
    dopt.replicas = opt.replicas;
    dispatcher = std::make_unique<service::Dispatcher>(dopt);
  }

  const int workers = opt.concurrency;
  std::vector<std::vector<OpStats>> per_worker(
      static_cast<std::size_t>(workers), std::vector<OpStats>(kOpCount));

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opt.duration));
  const std::uint64_t total = opt.requests;  // 0 = run until deadline

  std::vector<std::thread> threads;
  if (opt.rate <= 0.0) {
    // Closed loop: workers race a shared ticket counter through the
    // schedule; each keeps exactly one request in flight.
    std::atomic<std::uint64_t> next{0};
    for (int wi = 0; wi < workers; ++wi) {
      threads.emplace_back([&, wi] {
        Target target(dispatcher.get(), opt.endpoint);
        OpStats* stats = per_worker[static_cast<std::size_t>(wi)].data();
        for (;;) {
          const std::uint64_t i = next.fetch_add(1);
          if (total > 0 && i >= total) break;
          if (total == 0 && Clock::now() >= deadline) break;
          const Slot& slot = schedule[i % schedule.size()];
          execute_one(target, catalog, slot, Clock::now(), stats);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  } else {
    // Open loop: a pacing thread fires arrivals at the configured rate;
    // workers drain the queue. Latency runs from the intended arrival.
    service::JobQueue<Arrival> queue;
    for (int wi = 0; wi < workers; ++wi) {
      threads.emplace_back([&, wi] {
        Target target(dispatcher.get(), opt.endpoint);
        OpStats* stats = per_worker[static_cast<std::size_t>(wi)].data();
        while (std::optional<Arrival> a = queue.pop()) {
          const Slot& slot = schedule[a->index % schedule.size()];
          execute_one(target, catalog, slot, a->at, stats);
        }
      });
    }
    const std::chrono::duration<double> gap(1.0 / opt.rate);
    for (std::uint64_t i = 0;; ++i) {
      if (total > 0 && i >= total) break;
      const Clock::time_point at =
          start + std::chrono::duration_cast<Clock::duration>(gap * i);
      if (total == 0 && at >= deadline) break;
      std::this_thread::sleep_until(at);
      queue.push({i, at});
    }
    queue.close();
    for (std::thread& t : threads) t.join();
  }

  // Replication copies are asynchronous; settle them before reporting so a
  // caller that kills a shard right after loadgen finds the replicas in
  // place (the CI failover check does exactly that).
  if (dispatcher) dispatcher->drain_replication();
  const std::chrono::duration<double> wall = Clock::now() - start;

  // Merge the worker-local stats into the per-op and total rows.
  OpStats by_op[kOpCount];
  for (const auto& ws : per_worker) {
    for (int op = 0; op < kOpCount; ++op) {
      const OpStats& s = ws[static_cast<std::size_t>(op)];
      by_op[op].count += s.count;
      by_op[op].errors += s.errors;
      by_op[op].reuse += s.reuse;
      by_op[op].latency_us.merge(s.latency_us);
    }
  }

  Table table({"op", "requests", "errors", "cache_reuse", "throughput_rps",
               "p50_ms", "p95_ms", "p99_ms"});
  table.set_caption(
      "dtopctl loadgen: " + format_rate(opt.rate) + " loop, concurrency=" +
      std::to_string(opt.concurrency) + ", instances=" +
      std::to_string(opt.instances) + ", zipf=" + format_double(opt.zipf, 2) +
      ", mix=" + opt.mix + ", seed=" + std::to_string(opt.seed));
  OpStats total_row;
  const double secs = std::max(wall.count(), 1e-9);
  const auto add_row = [&](const std::string& name, const OpStats& s) {
    auto r = table.row();
    r.cell(name)
        .cell(s.count)
        .cell(s.errors)
        .cell(s.reuse)
        .cell(static_cast<double>(s.count) / secs, 1);
    if (s.latency_us.count() > 0) {
      r.cell(s.latency_us.quantile(50) / 1000.0, 3)
          .cell(s.latency_us.quantile(95) / 1000.0, 3)
          .cell(s.latency_us.quantile(99) / 1000.0, 3);
    } else {
      r.cell("-").cell("-").cell("-");
    }
  };
  for (int op = 0; op < kOpCount; ++op) {
    add_row(kOpNames[op], by_op[op]);
    total_row.count += by_op[op].count;
    total_row.errors += by_op[op].errors;
    total_row.reuse += by_op[op].reuse;
    total_row.latency_us.merge(by_op[op].latency_us);
  }
  add_row("total", total_row);

  with_output(opt.out, out, [&](std::ostream& os) { table.print(os); });
  if (!opt.bench_json.empty()) {
    const std::string path = opt.bench_json + "/BENCH_LOADGEN.json";
    std::ofstream os(path);
    if (!os.is_open()) throw Error("cannot open " + path + " for writing");
    runner::write_bench_json(os, "LOADGEN", {{"loadgen", table}},
                             std::nullopt, /*quick=*/false);
    err << "Machine-readable table written to " << path << "\n";
  }
  if (!opt.quiet) {
    err << "loadgen: " << total_row.count << " requests in "
        << format_double(wall.count(), 2) << "s, " << total_row.errors
        << " errors\n"
        << std::flush;
  }
  return total_row.errors == 0 ? 0 : 1;
}

}  // namespace dtop::cli
