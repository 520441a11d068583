// dtopctl — one command-line entry point for every workload in the repo.
//
// Subcommands:
//   run     generate (or load) a network, run the GTD protocol, print the
//           recovered topology map; optionally verify against ground truth.
//   gen     generate a graph family to disk (text format or Graphviz DOT).
//   verify  check a recovered map file against a ground-truth graph file.
//   bench   quick model-time table (ticks, N*D, messages) over families.
//   sweep   expand a declarative campaign spec (families x sizes x seeds x
//           configs x scenarios) and execute the jobs concurrently through
//           src/runner, emitting a table, JSON, or CSV.
//   trace   record a run as a self-contained binary trace; inspect, diff,
//           and replay trace files (src/trace).
//   serve   run dtopd — the resident topology-determination daemon with a
//           canonical-form result cache and optional persistent cache
//           store — on a Unix-domain socket or a TCP listen address
//           (src/service).
//   client  send line-delimited JSON requests to a running dtopd — or, with
//           --cluster, through the consistent-hash dispatcher over a set of
//           dtopd shards — and print the responses.
//   cluster spawn and babysit N `serve` shards (one process per shard,
//           crashed children restarted, Unix sockets or TCP ports), the
//           supervisor for `--cluster` clients.
//   loadgen drive open- or closed-loop determine/verify/sweep traffic with
//           Zipf-distributed topology instances against a live daemon or
//           cluster; report throughput and p50/p95/p99 latency.
//   metrics one-shot telemetry scrape of a daemon or cluster (the `metrics`
//           protocol op): table, raw line-JSON, or Prometheus text.
//   top     refreshing terminal view of a live daemon or cluster — delta
//           scrapes rendered as throughput, per-op latency quantiles,
//           cache hit rate, engine tick phases, and per-shard health.
//
// The subcommand implementations take explicit option structs and write to
// caller-supplied streams so the test suite can drive them in-process; the
// dtopctl binary is a thin wrapper around cli_main().
//
// Exit-code contract (documented in docs/dtopctl.md): 0 success, 1 runtime
// failure (protocol error, verify mismatch, failed campaign jobs, I/O), 2
// usage error (unknown subcommand or flag; usage goes to stderr);
// interrupted `sweep`/`serve` drain, flush, and exit 128+signal (130 for
// SIGINT, 143 for SIGTERM).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/port_graph.hpp"
#include "runner/campaign.hpp"
#include "support/error.hpp"

namespace dtop::cli {

// Thrown by the parsers on malformed command lines; cli_main converts it to
// a usage message and exit code 2.
class UsageError : public Error {
 public:
  explicit UsageError(std::string what) : Error(std::move(what)) {}
};

// How a subcommand obtains its network: a named family instance (families.cpp
// dispatcher) or a dtop-graph v1 file ("-" = stdin).
struct GraphSpec {
  std::string family;       // one of family_names(); empty when loading
  NodeId nodes = 16;        // size hint passed to make_family
  std::uint64_t seed = 1;
  std::string graph_file;   // non-empty: load instead of generating

  bool from_file() const { return !graph_file.empty(); }
};

struct RunOptions {
  GraphSpec spec;
  NodeId root = 0;
  int threads = 1;
  std::int64_t max_ticks = 0;  // 0 = automatic budget
  bool verify = false;         // check the map against ground truth
  bool quiet = false;          // suppress the per-edge map listing
  std::string map_out;         // write the recovered map here ("-" = stdout)
};

struct GenOptions {
  GraphSpec spec;
  std::string out;  // empty or "-" = stdout
  bool dot = false; // emit Graphviz DOT instead of dtop-graph text
  // --permute SEED: emit a seed-derived relabelling of the instance instead
  // of the instance itself, with node 0 kept fixed so the relabelled graph
  // is still rooted at 0. Relabelled instances are rooted-isomorphic to the
  // original — the canonical hash, and therefore the dtopd cache entry and
  // the cluster shard, are identical (how CI asserts cache locality).
  bool permute = false;
  std::uint64_t permute_seed = 0;
};

struct VerifyOptions {
  std::string graph_file;  // ground truth (dtop-graph v1)
  std::string map_file;    // recovered map (dtop-map v1)
  NodeId root = 0;
};

struct BenchOptions {
  std::vector<std::string> families = {"torus", "debruijn"};
  std::vector<NodeId> sizes = {16, 32};
  std::uint64_t seed = 1;
  // Engine threads per bench run: --threads beats DTOP_BENCH_THREADS beats
  // 1 (0 here = flag unset, resolve from the environment).
  int threads = 0;
};

struct SweepOptions {
  runner::CampaignSpec spec;
  int threads = 1;             // concurrent campaign jobs
  std::string spec_file;       // --spec FILE ("-" = stdin); flags override it
  std::string format = "table";  // table | json | csv
  std::string out;             // empty or "-" = stdout
  bool timing = false;         // include wall-clock fields in json/csv
  bool quiet = false;          // suppress the per-job progress stream (err)
  std::string trace_dir;       // capture failed jobs' traces here (existing dir)
  // --cluster a.sock,b.sock,...: execute the campaign's jobs remotely on a
  // dtopd cluster through the canonical-hash dispatcher instead of
  // in-process. Output stays byte-identical to the in-process run.
  std::string cluster;
};

struct TraceOptions {
  // record | inspect | diff | replay | extract | splice | overwrite | corpus
  std::string action;

  // record
  GraphSpec spec;
  NodeId root = 0;
  int threads = 1;
  std::int64_t max_ticks = 0;  // 0 = automatic budget
  std::string config = "ratio3";  // engine config (ratio1..ratio4)
  std::vector<runner::FaultScenario> scenarios;  // faults applied to the run
  bool spans = false;        // also record RCA/BCA spans
  std::string out;           // trace-writing actions: output ("-" = stdout)

  // trace-writing actions (record / extract / splice / overwrite)
  std::string codec;         // dtr2 block codec ("" = build default)

  // inspect / diff / replay
  std::string trace_file;    // --trace FILE (diff: the A side)
  std::string trace_b;       // diff: --b FILE
  std::uint64_t start = 0;          // inspect: first event index
  std::uint64_t max_events = 0;     // inspect: 0 = all
  bool summary = false;      // inspect: header and counts only

  // extract / splice / overwrite window: an inclusive tick window or a
  // half-open event-index window, not both. -1 = unset side.
  std::int64_t from_tick = -1, to_tick = -1;
  std::int64_t from_event = -1, to_event = -1;

  std::string donor;         // splice: --donor FILE (injection source)
  std::uint64_t seed = 1;    // overwrite: scenario wire-choice seed

  // corpus
  std::string corpus_dir;    // --dir DIR of .dtrace files
};

struct ServeOptions {
  std::string socket;      // --socket PATH (exactly one of --socket/--listen)
  std::string listen;      // --listen HOST:PORT (port 0 = pick a free port)
  int workers = 1;         // request-executing ThreadPool size
  std::size_t cache = 64;  // result-cache capacity, in entries
  std::string cache_store; // --cache-store FILE: persistent warm-start store
  std::string trace_dir;   // capture failed requests here (existing dir)
  bool quiet = false;      // suppress lifecycle lines on stdout
};

struct ClientOptions {
  std::string socket;                 // --socket PATH (or --cluster, not both)
  std::string cluster;                // --cluster a.sock,b.sock,... shard list
  std::vector<std::string> requests;  // --request LINE (repeatable, in order)
  std::string in_file;                // --in FILE of request lines ("-" = stdin)
  bool shutdown = false;              // finish with an {"op":"shutdown"}
};

struct ClusterOptions {
  int shards = 2;           // number of `serve` children
  std::string socket_dir;   // sockets land at DIR/shard-<i>.sock
  // --tcp-base PORT: shards listen on TCP 127.0.0.1:<PORT+i> instead of
  // Unix sockets (socket_dir is then unused and may be empty). 0 = off.
  int tcp_base = 0;
  int workers = 1;          // per-shard request workers
  std::size_t cache = 64;   // per-shard result-cache capacity
  std::string cache_dir;    // per-shard stores DIR/shard-<i>.cache (created)
  std::string trace_dir;    // per-shard capture dirs DIR/shard-<i> (created)
  // Path of the dtopctl binary to exec for the children. Empty = this
  // process's own image (/proc/self/exe); the flag exists for test drivers
  // whose own image is not dtopctl.
  std::string exe;
  int max_restarts = 5;     // per-shard crash-restart budget
  bool quiet = false;       // suppress supervisor lifecycle lines
};

struct LoadgenOptions {
  std::string cluster;      // --cluster EP,EP,... (dispatcher; exactly one
  std::string endpoint;     // --endpoint EP       of the two targets)
  int concurrency = 4;      // in-flight workers (closed loop: = load)
  // --rate R: open-loop arrivals per second (latency includes queue wait);
  // 0 = closed loop (each worker issues its next request on completion).
  double rate = 0.0;
  std::uint64_t requests = 0;  // fixed request count; 0 = run for --duration
  double duration = 5.0;       // seconds (ignored when requests > 0)
  double zipf = 1.1;           // instance-popularity skew (s in rank^-s)
  int instances = 16;          // distinct topology instances in the catalog
  std::string mix = "determine=8,verify=1,sweep=1";  // op weights
  std::uint64_t seed = 1;      // schedule seed (fixes the request stream)
  int replicas = 1;            // dispatcher ring replication (cluster mode)
  std::string out;             // report destination (empty or "-" = stdout)
  std::string bench_json;      // dir for BENCH_LOADGEN.json (empty = none)
  bool quiet = false;          // suppress progress lines on stderr
};

struct MetricsOptions {
  std::string endpoint;   // --endpoint EP (exactly one of
  std::string cluster;    // --cluster EP,EP,...  the two targets)
  std::string format = "table";  // table | json | prom
  bool delta = false;     // window since the target's previous delta scrape
  bool per_shard = false; // cluster: append the per-endpoint breakdown
  std::string out;        // report destination (empty or "-" = stdout)
};

struct TopOptions {
  std::string endpoint;   // --endpoint EP (exactly one of
  std::string cluster;    // --cluster EP,EP,...  the two targets)
  double interval = 2.0;  // seconds between delta scrapes
  std::uint64_t iterations = 0;  // frames to render; 0 = until interrupted
  bool per_shard = false; // cluster: include the per-shard health table
  bool no_clear = false;  // append frames instead of redrawing the screen
};

// Parsers, exposed for the test suite. `args` excludes the subcommand name.
// All throw UsageError on unknown flags, missing values, or bad numbers.
RunOptions parse_run_args(const std::vector<std::string>& args);
GenOptions parse_gen_args(const std::vector<std::string>& args);
VerifyOptions parse_verify_args(const std::vector<std::string>& args);
BenchOptions parse_bench_args(const std::vector<std::string>& args);
SweepOptions parse_sweep_args(const std::vector<std::string>& args);
TraceOptions parse_trace_args(const std::vector<std::string>& args);
ServeOptions parse_serve_args(const std::vector<std::string>& args);
ClientOptions parse_client_args(const std::vector<std::string>& args);
ClusterOptions parse_cluster_args(const std::vector<std::string>& args);
LoadgenOptions parse_loadgen_args(const std::vector<std::string>& args);
MetricsOptions parse_metrics_args(const std::vector<std::string>& args);
TopOptions parse_top_args(const std::vector<std::string>& args);

// The shard endpoints a ClusterOptions resolves to: DIR/shard-<i>.sock, or
// 127.0.0.1:<tcp_base+i> when --tcp-base is set.
std::vector<std::string> cluster_socket_paths(const ClusterOptions& opt);

// Materializes a GraphSpec (generation or file load + validate()).
PortGraph load_or_make_graph(const GraphSpec& spec, std::string* label = nullptr);

// Shared GraphSpec flag handling (--family/--nodes/--seed/--graph), used by
// every subcommand parser that sources a network. Defined in cli.cpp.
class FlagWalker;
bool parse_spec_flag(FlagWalker& w, GraphSpec& spec);
void check_spec(const GraphSpec& spec);

// Subcommand drivers. Return the process exit code (0 = success).
int run_command(const RunOptions& opt, std::ostream& out, std::ostream& err);
int gen_command(const GenOptions& opt, std::ostream& out, std::ostream& err);
int verify_command(const VerifyOptions& opt, std::ostream& out,
                   std::ostream& err);
int bench_command(const BenchOptions& opt, std::ostream& out,
                  std::ostream& err);
int sweep_command(const SweepOptions& opt, std::ostream& out,
                  std::ostream& err);
int trace_command(const TraceOptions& opt, std::ostream& out,
                  std::ostream& err);
int serve_command(const ServeOptions& opt, std::ostream& out,
                  std::ostream& err);
int client_command(const ClientOptions& opt, std::ostream& out,
                   std::ostream& err);
int cluster_command(const ClusterOptions& opt, std::ostream& out,
                    std::ostream& err);
int loadgen_command(const LoadgenOptions& opt, std::ostream& out,
                    std::ostream& err);
int metrics_command(const MetricsOptions& opt, std::ostream& out,
                    std::ostream& err);
int top_command(const TopOptions& opt, std::ostream& out, std::ostream& err);

// Full driver: dispatches argv[1] to a subcommand, maps UsageError to exit
// code 2 (usage printed to `err`) and dtop::Error to exit code 1.
int cli_main(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err);
int cli_main(int argc, const char* const* argv, std::ostream& out,
             std::ostream& err);

std::string usage_text();

}  // namespace dtop::cli
