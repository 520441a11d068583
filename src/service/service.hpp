// dtopd's request engine, transport-free.
//
// A Service owns the canonical-form ResultCache, a JobQueue of raw request
// lines, and a pump thread driving the shared support/ThreadPool: workers
// pop requests, execute them, and fulfil the submitter's future. The
// Unix-socket Server (server.hpp) is a thin transport in front of this
// class; the test suite drives the same code with no socket at all.
//
// Protocol (one flat JSON object per line; full reference in
// docs/dtopctl.md § dtopd):
//
//   {"op": "determine", "family": "torus", "nodes": 16, "seed": 1,
//    "root": 0, "config": "ratio3"}          -> run (or recall) the protocol
//   {"op": "verify", "map": "...", "family": ...}  -> check a map
//   {"op": "sweep", "families": "torus", "sizes": "8,16", "seeds": "1..4"}
//   {"op": "cache_get", "key": "<16 hex>", "config": "ratio3"}
//                                            -> read one cache entry (peek)
//   {"op": "cache_put", "key": "...", "config": ..., "map": ..., ...}
//                                            -> seed one entry (replication)
//   {"op": "stats"}                          -> cache + served counters
//   {"op": "metrics"}                        -> full telemetry snapshot
//                                               ("delta": true -> window
//                                               since the previous delta
//                                               scrape)
//   {"op": "shutdown"}                       -> flag a graceful stop
//
// Determinism contract (same one the engine, runner, and trace layers
// uphold): a response is a pure function of the request and the sequence of
// requests completed before it. No wall-clock, worker-id, or thread-count
// detail ever enters a response, so a scripted session replayed against a
// 1-worker and an 8-worker daemon produces byte-identical transcripts
// (tests/test_service.cpp). The one deliberate exception is the `metrics`
// op: it exists to report measurements (latencies, tick timings, queue
// depth), so its responses are *not* part of the byte-identity contract —
// every other response stays byte-identical whether or not metrics were
// ever scraped. Identical determine requests in flight at the
// same time coalesce onto one protocol run (ResultCache::get_or_compute).
// Two scheduling-visible caveats, both counter-shaped: a pipelined
// duplicate reports "coalesced" instead of "hit", and a `stats` request
// pipelined behind unfinished requests may observe their counters
// mid-update — await outstanding responses before `stats` when its
// numbers must be exact (sequential sessions always are).
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/engine_metrics.hpp"
#include "obs/registry.hpp"
#include "service/job_queue.hpp"
#include "service/json.hpp"
#include "service/result_cache.hpp"
#include "support/arena.hpp"
#include "support/thread_pool.hpp"

namespace dtop::service {

// Materializes a request's network — a named family instance or an inline
// dtop-graph v1 text in the "graph" field (exactly one of the two) — and
// demands strong connectivity (the paper's model does too). Shared by the
// request handlers here and by the cluster dispatcher's shard-key
// derivation, so both sides always see the same network for the same line.
PortGraph request_graph(const JsonObject& req, std::string* label);
NodeId request_root(const JsonObject& req, const PortGraph& g);

// Counter schema of the stats response, in emission order — the single
// source of truth shared by Service::handle_stats and the cluster
// dispatcher's aggregation, which must keep exactly the single-daemon
// shape. A new counter is added HERE plus one value in the corresponding
// value array (both sides static_assert the sizes match).
inline constexpr const char* kStatsCacheFields[] = {
    "capacity", "size",    "hits",      "misses",
    "coalesced", "inserts", "evictions", "executions"};
inline constexpr const char* kStatsServedFields[] = {
    "determine", "verify",  "sweep",    "cache_get", "cache_put",
    "stats",     "metrics", "shutdown", "errors"};

// The real ops (everything in kStatsServedFields except the trailing
// "errors" tally): index order of the per-op latency histograms.
inline constexpr std::size_t kServedOpCount =
    std::size(kStatsServedFields) - 1;

struct ServiceOptions {
  int workers = 1;                 // ThreadPool size executing requests
  std::size_t cache_capacity = 64;  // ResultCache entries
  // When non-empty: a failed determine request is deterministically re-run
  // with a trace recorder and captured as <trace_dir>/req-<seq>.dtrace; a
  // sweep request's failed jobs land under <trace_dir>/req-<seq>/ via the
  // runner's own capture hook. The directory must exist.
  std::string trace_dir;
  // When non-empty: the append-only persistent cache tier
  // (service/cache_store.hpp). Replayed into the LRU at construction (the
  // warm start), appended on every fresh determination and replicated
  // cache_put. Load warnings go to *warn (std::cerr when null).
  std::string cache_store;
  std::ostream* warn = nullptr;
};

class Service {
 public:
  explicit Service(const ServiceOptions& opt);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // Enqueues one request line; returns a ticket to pass to wait(). Tickets
  // are assigned in submission order and seed deterministic artifact names
  // (trace captures).
  std::uint64_t submit(std::string line);

  // Blocks until the ticket's response line is ready. Each ticket may be
  // waited on exactly once.
  std::string wait(std::uint64_t ticket);

  // submit + wait: the sequential-session primitive.
  std::string call(const std::string& line);

  // True once a shutdown request was executed. The transport is expected to
  // stop accepting work and call stop().
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  // Drains the queue (every accepted request is executed) and joins the
  // workers. Idempotent; called by the destructor.
  void stop();

  CacheStats cache_stats() const { return cache_.stats(); }
  const ServiceOptions& options() const { return opt_; }

  // Entries replayed from the persistent store at construction.
  std::size_t warm_loaded() const { return warm_loaded_; }

 private:
  struct Job {
    std::uint64_t ticket = 0;
    std::string line;
    std::promise<std::string> promise;
  };

  // Per-op served counters, reported by the stats request.
  struct Served {
    std::atomic<std::uint64_t> determine{0};
    std::atomic<std::uint64_t> verify{0};
    std::atomic<std::uint64_t> sweep{0};
    std::atomic<std::uint64_t> cache_get{0};
    std::atomic<std::uint64_t> cache_put{0};
    std::atomic<std::uint64_t> stats{0};
    std::atomic<std::uint64_t> metrics{0};
    std::atomic<std::uint64_t> shutdown{0};
    std::atomic<std::uint64_t> errors{0};
  };

  // Never throws: every failure becomes an ok=false response line.
  // `worker` is the executing pool-worker index; it selects the per-worker
  // arena and never influences the response (determinism contract).
  std::string handle_line(const std::string& line, std::uint64_t ticket,
                          int worker);

  std::string handle_determine(const JsonObject& req, const std::string& id,
                               std::uint64_t ticket, int worker);
  std::string handle_verify(const JsonObject& req, const std::string& id);
  std::string handle_sweep(const JsonObject& req, const std::string& id,
                           std::uint64_t ticket, int worker);
  std::string handle_cache_get(const JsonObject& req, const std::string& id);
  std::string handle_cache_put(const JsonObject& req, const std::string& id);
  std::string handle_stats(const JsonObject& req, const std::string& id);
  std::string handle_metrics(const JsonObject& req, const std::string& id);

  // The registry snapshot plus synthetic entries sampled at scrape time
  // (cache counters, store bytes, served per-op counters, queue depth).
  obs::Snapshot metrics_snapshot();

  ServiceOptions opt_;
  ResultCache cache_;
  std::unique_ptr<class CacheStore> store_;  // null without a cache_store
  std::size_t warm_loaded_ = 0;
  // One arena per pool worker, reused (reset) across the requests that
  // worker executes: a long-lived daemon stops churning the allocator once
  // each worker's arena reaches its high-water footprint.
  std::vector<Arena> arenas_;
  JobQueue<Job> queue_;
  ThreadPool pool_;
  std::thread pump_;  // runs pool_.run(worker loop) for the Service lifetime

  std::mutex futures_mu_;
  std::unordered_map<std::uint64_t, std::future<std::string>> futures_;
  std::atomic<std::uint64_t> next_ticket_{1};
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> stopped_{false};
  Served served_;

  // --- observability (src/obs) ------------------------------------------
  // The registry owns every live instrument; handles below are registered
  // once in the constructor (before the pump starts) and recorded into by
  // request workers under their own shard index. The `metrics` op is the
  // only reader.
  obs::Registry registry_;
  obs::EngineMetrics engine_metrics_;  // shared by every request engine
  obs::Counter* requests_total_ = nullptr;   // every submitted line
  obs::Counter* rejected_ = nullptr;  // lines that never reached a known op
  // Per-op wall latency in microseconds, indexed like kStatsServedFields.
  obs::ShardedHistogram* op_latency_us_[kServedOpCount] = {};
  std::uint64_t warm_bytes_ = 0;  // store bytes replayed at construction
  // Baseline of the previous `"delta": true` scrape.
  std::mutex metrics_mu_;
  obs::Snapshot metrics_baseline_;
};

}  // namespace dtop::service
