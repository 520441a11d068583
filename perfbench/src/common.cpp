#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iostream>

namespace perfbench {

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------

namespace {

// A random permutation of 0..n-1 that is one cycle (Sattolo's shuffle),
// from a fixed seed: the gauge is the same on every run and workload seed.
std::vector<std::uint32_t> one_cycle(std::size_t n) {
  std::vector<std::uint32_t> c(n);
  for (std::size_t i = 0; i < n; ++i) c[i] = static_cast<std::uint32_t>(i);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = n - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(c[i], c[x % i]);
  }
  return c;
}

constexpr std::uint64_t kLcgMul = 6364136223846793005ull;
constexpr std::uint64_t kLcgAdd = 1442695040888963407ull;

}  // namespace

HostGauge::HostGauge()
    : chase_(one_cycle(std::size_t{1} << 15)),  // 128 KiB
      table_(std::size_t{1} << 17, 1) {}        // 1 MiB

double HostGauge::sample() {
  const Clock::time_point t0 = Clock::now();
  // One dependent multiply-xor chain: latency-bound arithmetic.
  std::uint64_t a = 1;
  for (int i = 0; i < 1'000'000; ++i) {
    a = a * kLcgMul + kLcgAdd;
    a ^= a >> 29;
  }
  // Eight independent chains: throughput-bound arithmetic, which slows when
  // another tenant shares the physical core.
  std::uint64_t x[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (int i = 0; i < 1'000'000; ++i) {
    for (std::uint64_t& v : x) {
      v = v * kLcgMul + kLcgAdd;
      v ^= v >> 29;
    }
  }
  // A dependent pointer chase through the 128 KiB cycle: cache latency.
  std::uint32_t j = static_cast<std::uint32_t>(a & 1);
  for (int i = 0; i < 500'000; ++i) j = chase_[j];
  // Sorting a copy of it: branchy code over the core's own caches.
  sorted_ = chase_;
  std::sort(sorted_.begin(), sorted_.end());
  // Independent loads over a 1 MiB table: memory-level parallelism.
  std::uint64_t h = a, acc = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    h = h * kLcgMul + 1;
    acc += table_[(h >> 40) & (table_.size() - 1)];
  }
  // The results outlive the call, so no loop is dropped.
  sink_ = j ^ sorted_[j] ^ x[0] ^ x[7] ^ acc;
  const double s = seconds_between(t0, Clock::now());
  samples_.push_back(s);
  return s;
}

void HostGauge::add(const std::vector<double>& samples) {
  samples_.insert(samples_.end(), samples.begin(), samples.end());
}

double HostGauge::median_s() const { return median(samples_); }

double HostGauge::scale() const {
  const double m = median_s();
  return m > 0 ? kRefNominalS / m : 1.0;
}

// ---------------------------------------------------------------------------

void Result::attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  if (failed_ < 8) std::cerr << "perfbench: FAILED " << what << "\n";
  ++failed_;
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  std::cerr << "perfbench: FAILED check " << what << "\n";
  ++failed_;
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) value = 0.0;
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

bool Result::has(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return true;
  }
  return false;
}

std::string Result::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    // Shortest round-trip form: every digit the measurement has.
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, metrics_[i].value);
    out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " +
           std::string(buf, res.ptr) + ", \"unit\": \"" + metrics_[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

namespace {

// Every per-layer metric the traced run emits, with its unit, in the order
// BENCHMARK.json lists them.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      // sim: engine tick phases, per round.
      {"engine.step_s", "s"},
      {"engine.sweep_s", "s"},
      {"engine.finish_s", "s"},
      {"engine.ns_per_node_step", "ns"},
      {"engine.forked_tick_ratio", "ratio"},
      {"engine.imbalance_pct_p50", "%"},
      {"engine.parks", "count"},
      {"engine.active_nodes_p50", "count"},
      // Model counts, per round: exact, identical across runs of one seed.
      {"engine.ticks", "count"},
      {"engine.messages", "count"},
      {"engine.node_steps", "count"},
      {"proto.ticks_per_nd", "ratio"},
      // core, per round.
      {"core.run_gtd_s", "s"},
      {"core.self_s", "s"},
      {"core.verify_s", "s"},
      {"core.map_text_s", "s"},
      // graph.
      {"graph.build_s", "s"},
      {"graph.canonical_hash_us_p50", "us"},
      // service, cache, store (serve-zipf; counts per round).
      {"service.determine_us_p50", "us"},
      {"service.determine_us_p99", "us"},
      {"service.verify_us_p50", "us"},
      {"service.sweep_us_p50", "us"},
      {"service.transport_queue_us_mean", "us"},
      // Median operation latency as the client measured it, all rounds.
      {"client.latency_ms_p50", "ms"},
      {"cache.hit_ratio", "ratio"},
      {"cache.coalesced", "count"},
      {"cache.evictions", "count"},
      {"cache.executions", "count"},
      {"store.bytes_appended", "bytes"},
      {"store.warm_entries", "count"},
      // trace, per round.
      {"trace.record_s", "s"},
      {"trace.encode_s", "s"},
      {"trace.decode_s", "s"},
      {"trace.replay_s", "s"},
      {"trace.events", "count"},
      {"trace.blocks", "count"},
      {"trace.compression_ratio", "ratio"},
      {"trace.bytes_per_event", "bytes"},
      // Self time per layer, per round, and the span accounting.
      {"self.graph_s", "s"},
      {"self.sim_s", "s"},
      {"self.core_s", "s"},
      {"self.trace_s", "s"},
      {"self.service_s", "s"},
      {"self.transport_s", "s"},
      {"self.gap_s", "s"},
      {"span.traced_round_s", "s"},
      {"span.untraced_round_s", "s"},
      {"span.overhead_s", "s"},
      // Host speed: the reference kernel's median time in this run.
      {"host.ref_kernel_ms", "ms"},
  };
  return kMetrics;
}

}  // namespace

void fill_per_layer(Result& r) {
  for (const auto& [name, unit] : per_layer_metrics()) {
    if (!r.has(name)) r.metric(name, 0.0, unit);
  }
}

// ---------------------------------------------------------------------------

const char* layer_name(Layer l) {
  static const char* const kNames[kLayerCount] = {
      "gap", "graph", "sim", "core", "trace", "service", "transport"};
  return kNames[l];
}

namespace {
std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
}  // namespace

int Tracer::open(Layer layer, const char* name) {
  if (!on_) return -1;
  Span s;
  s.layer = layer;
  s.name = name;
  s.parent = current_;
  s.start_ns = now_ns();
  spans_.push_back(s);
  current_ = static_cast<int>(spans_.size() - 1);
  return current_;
}

void Tracer::close(int id) {
  if (id < 0) return;
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = now_ns();
  if (s.parent >= 0) {
    spans_[static_cast<std::size_t>(s.parent)].child_ns +=
        s.end_ns - s.start_ns;
  }
  current_ = s.parent;
}

void Tracer::child(int parent_id, Layer layer, const char* name,
                   std::uint64_t ns) {
  if (parent_id < 0) return;
  Span& parent = spans_[static_cast<std::size_t>(parent_id)];
  Span s;
  s.layer = layer;
  s.name = name;
  s.parent = parent_id;
  s.start_ns = parent.start_ns;
  s.end_ns = parent.start_ns + static_cast<std::int64_t>(ns);
  parent.child_ns += static_cast<std::int64_t>(ns);
  spans_.push_back(s);
}

std::array<double, kLayerCount> Tracer::self_seconds() const {
  std::array<double, kLayerCount> out{};
  for (const Span& s : spans_) {
    out[s.layer] +=
        static_cast<double>(s.end_ns - s.start_ns - s.child_ns) * 1e-9;
  }
  return out;
}

double Tracer::total_seconds(const std::string& name) const {
  double t = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) t += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  return t;
}

std::size_t Tracer::count(const std::string& name) const {
  std::size_t n = 0;
  for (const Span& s : spans_) n += name == s.name;
  return n;
}

// ---------------------------------------------------------------------------

EnginePhases EnginePhases::from(const dtop::obs::Snapshot& s) {
  EnginePhases e;
  e.ticks = s.counter_or("engine_ticks_total");
  e.forked_ticks = s.counter_or("engine_forked_ticks_total");
  e.node_steps = s.counter_or("engine_node_steps_total");
  e.parks = s.counter_or("engine_pool_worker_parks_total") +
            s.counter_or("engine_pool_caller_parks_total");
  const auto sum = [&](const char* name) -> std::uint64_t {
    const auto* h = s.find_histogram(name);
    return h ? h->hist.sum() : 0;
  };
  e.sweep_ns = sum("engine_tick_sweep_ns");
  e.step_ns = sum("engine_tick_step_ns");
  e.finish_ns = sum("engine_tick_finish_ns");
  if (const auto* h = s.find_histogram("engine_active_nodes")) {
    e.active_nodes = h->hist;
  }
  if (const auto* h = s.find_histogram("engine_worker_imbalance_pct")) {
    e.imbalance_pct = h->hist;
  }
  return e;
}

void EnginePhases::add(const EnginePhases& o) {
  ticks += o.ticks;
  forked_ticks += o.forked_ticks;
  node_steps += o.node_steps;
  parks += o.parks;
  sweep_ns += o.sweep_ns;
  step_ns += o.step_ns;
  finish_ns += o.finish_ns;
  active_nodes.merge(o.active_nodes);
  imbalance_pct.merge(o.imbalance_pct);
}

EngineProbe::EngineProbe()
    : hook_(dtop::obs::EngineMetrics::create(registry_)),
      last_(registry_.snapshot()) {}

EnginePhases EngineProbe::delta() {
  dtop::obs::Snapshot now = registry_.snapshot();
  EnginePhases e = EnginePhases::from(now.delta_since(last_));
  last_ = std::move(now);
  return e;
}

void report_engine(Result& r, const EnginePhases& e, double rounds) {
  const double per = rounds > 0 ? 1.0 / rounds : 0.0;
  r.metric("engine.step_s", e.step_ns * 1e-9 * per, "s");
  r.metric("engine.sweep_s", e.sweep_ns * 1e-9 * per, "s");
  r.metric("engine.finish_s", e.finish_ns * 1e-9 * per, "s");
  r.metric("engine.ns_per_node_step",
           e.node_steps ? static_cast<double>(e.step_ns) / e.node_steps : 0.0,
           "ns");
  r.metric("engine.forked_tick_ratio",
           e.ticks ? static_cast<double>(e.forked_ticks) / e.ticks : 0.0,
           "ratio");
  r.metric("engine.imbalance_pct_p50",
           e.imbalance_pct.count() ? e.imbalance_pct.quantile(0.5) : 0.0, "%");
  r.metric("engine.parks", static_cast<double>(e.parks) * per, "count");
  r.metric("engine.active_nodes_p50",
           e.active_nodes.count() ? e.active_nodes.quantile(0.5) : 0.0,
           "count");
}

void report_spans(Result& r, const Tracer& t, double rounds,
                  const std::vector<double>& traced,
                  const std::vector<double>& untraced) {
  const double per = rounds > 0 ? 1.0 / rounds : 0.0;
  const std::array<double, kLayerCount> self = t.self_seconds();
  r.metric("self.graph_s", self[kGraph] * per, "s");
  r.metric("self.sim_s", self[kSim] * per, "s");
  r.metric("self.core_s", self[kCore] * per, "s");
  r.metric("self.trace_s", self[kTrace] * per, "s");
  r.metric("self.service_s", self[kService] * per, "s");
  r.metric("self.transport_s", self[kTransport] * per, "s");
  r.metric("self.gap_s", self[kRound] * per, "s");
  const double tr = median(traced);
  const double un = median(untraced);
  r.metric("span.traced_round_s", tr, "s");
  r.metric("span.untraced_round_s", un, "s");
  r.metric("span.overhead_s", tr - un, "s");

  double total = 0.0;
  for (double s : self) total += s;
  std::string line = "self-time shares per traced round (" +
                     std::to_string(static_cast<long long>(rounds)) + "):";
  for (int l = 0; l < kLayerCount; ++l) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " %s %.1f%%",
                  layer_name(static_cast<Layer>(l)),
                  total > 0 ? 100.0 * self[l] / total : 0.0);
    line += buf;
  }
  note(line);
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "traced round median %.6f s, mean %.6f s, layer self sum "
                "%.6f s; untraced round median %.6f s; tracing overhead %.6f s",
                tr, mean(traced), total * per, un, tr - un);
  note(buf);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void note(const std::string& line) { std::cout << "# " << line << "\n"; }

}  // namespace perfbench
