// Shared pieces of the whole-determination benchmark: options, order
// statistics, the result line, span tracing, and the engine-phase probe.
//
// The benchmark drives dtop from outside, through the public API of each
// module, so every span recorded here wraps a call *into* a layer from the
// benchmark's own code; the engine's tick phases come from the existing
// passive obs::EngineMetrics hook rather than from spans inside the engine.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/engine_metrics.hpp"
#include "obs/histogram.hpp"
#include "obs/registry.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;  // the traced run: per-layer metrics instead of e2e
  bool smoke = false;  // tiny inputs, one round: checks every metric emits
};

// Linear-interpolation quantile (numpy's default); 0 for an empty sample.
double quantile(std::vector<double> v, double p);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
double mean(const std::vector<double>& v);

// Times one set-up of the program `reps` times and returns the median, in
// seconds. `setup` must leave the program ready; the last set-up's state is
// what the workload then runs on.
template <typename F>
double median_setup(int reps, F&& setup) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    setup(i);
    t.push_back(seconds_between(t0, Clock::now()));
  }
  return median(std::move(t));
}

// Host speed. On a shared host the same work takes up to a third more or
// less time from one minute to the next, with the program unchanged. A
// fixed reference kernel mixing the kinds of work the program does
// (dependent and independent arithmetic, a cache-resident pointer chase, a
// sort, independent loads over 1 MiB) is timed between rounds, outside
// every timed span, and the run's timings are reported in reference
// seconds: measured time × kRefNominalS / the kernel's median time in this
// run. A change to the program moves them as it moves measured time; a
// slower or busier host moves the kernel too, and cancels out as far as
// the kernel tracks it.
class HostGauge {
 public:
  // About the kernel's time on an idle reference box (4-vCPU Xeon VM).
  static constexpr double kRefNominalS = 0.010;

  HostGauge();
  // Runs the kernel once and records its wall time, in seconds.
  double sample();
  void add(const std::vector<double>& samples);
  const std::vector<double>& samples() const { return samples_; }
  // Median kernel time of the run so far, in seconds.
  double median_s() const;
  // Converts a measured duration into reference seconds.
  double scale() const;

 private:
  std::vector<std::uint32_t> chase_;
  std::vector<std::uint32_t> sorted_;
  std::vector<std::uint64_t> table_;
  std::vector<double> samples_;
  std::uint64_t sink_ = 0;
};

// The run's verdict and metrics, printed as the last stdout line.
class Result {
 public:
  // One operation of the workload (a determination, a request, a trace
  // round trip). A failed one is reported on stderr (the first few in
  // full) and counted; nothing is skipped.
  void attempt(bool ok, const std::string& what);
  // A whole-run check (stats invariant, warm load): a failure
  // counts as one failed operation.
  void check(bool ok, const std::string& what);

  void metric(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  double failed_ratio() const {
    return attempted_ ? static_cast<double>(failed_) / attempted_ : 1.0;
  }

  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

// Fills every per-layer metric of BENCHMARK.json not yet set with 0: a layer
// the workload does not exercise (the fork ratio of a 1-thread engine, the
// cache of a solve).
void fill_per_layer(Result& r);

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

// The program's layers as the benchmark sees them. kRound is the workload's
// own span (one pass over its inputs); its self time is the untraced gap —
// benchmark bookkeeping between the calls it traces.
enum Layer : int {
  kRound = 0,
  kGraph,
  kSim,
  kCore,
  kTrace,
  kService,
  kTransport,
  kLayerCount
};
const char* layer_name(Layer l);

// In-memory span recorder for one thread: name, start, end and parent
// (the innermost span open when it began). A layer's self time is its
// span's duration minus its direct children's. When off, open/close are
// no-ops, so untraced rounds pay only a branch.
class Tracer {
 public:
  void set_on(bool on) { on_ = on; }

  int open(Layer layer, const char* name);
  void close(int id);
  // A closed child of span `parent` whose duration the program measured
  // itself (engine tick phases from obs::EngineMetrics).
  void child(int parent, Layer layer, const char* name, std::uint64_t ns);

  // Per layer, the sum of self times of every recorded span, in seconds.
  std::array<double, kLayerCount> self_seconds() const;
  // Sum of the durations of the spans called `name`, in seconds.
  double total_seconds(const std::string& name) const;
  std::size_t count(const std::string& name) const;

 private:
  struct Span {
    Layer layer = kRound;
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t child_ns = 0;
    int parent = -1;
  };
  bool on_ = false;
  std::vector<Span> spans_;
  int current_ = -1;
};

class Scope {
 public:
  Scope(Tracer& t, Layer layer, const char* name)
      : t_(t), id_(t.open(layer, name)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// ---------------------------------------------------------------------------
// Engine phases, read from an obs::EngineMetrics hook.
// ---------------------------------------------------------------------------

struct EnginePhases {
  std::uint64_t ticks = 0;
  std::uint64_t forked_ticks = 0;
  std::uint64_t node_steps = 0;
  std::uint64_t parks = 0;
  std::uint64_t sweep_ns = 0;
  std::uint64_t step_ns = 0;
  std::uint64_t finish_ns = 0;
  dtop::obs::Histogram active_nodes;
  dtop::obs::Histogram imbalance_pct;

  // Reads the instruments EngineMetrics::create registers under "engine_".
  static EnginePhases from(const dtop::obs::Snapshot& s);
  void add(const EnginePhases& o);
  std::uint64_t total_ns() const { return sweep_ns + step_ns + finish_ns; }
};

// A registry plus the hook attached to every traced engine; delta() reads
// what the engines recorded since the previous call.
class EngineProbe {
 public:
  EngineProbe();
  const dtop::obs::EngineMetrics* hook() const { return &hook_; }
  EnginePhases delta();

 private:
  dtop::obs::Registry registry_;
  dtop::obs::EngineMetrics hook_;
  dtop::obs::Snapshot last_;
};

// Writes the per-layer engine metrics for `rounds` traced rounds.
void report_engine(Result& r, const EnginePhases& e, double rounds);
// Writes the self.* shares and span.* accounting for the traced rounds.
// `traced` and `untraced` hold each round's wall time.
void report_spans(Result& r, const Tracer& t, double rounds,
                  const std::vector<double>& traced,
                  const std::vector<double>& untraced);

// Process peak resident set, MiB.
double peak_rss_mb();

// Stdout report lines, all prefixed so the result stays the last line.
void note(const std::string& line);

}  // namespace perfbench
