// The campaign executor: expands a CampaignSpec and runs every job
// concurrently on a shared ThreadPool.
//
// Each job is one single-threaded protocol execution (the concurrency is
// across jobs, so nested thread pools never appear), fully determined by its
// JobSpec. Failures — verify mismatch, tick-budget exhaustion, protocol
// invariant violations — are captured in the job's result instead of
// aborting the campaign; one bad configuration cannot kill a 10k-job sweep.
// Results are stored by job index, so a campaign's output is identical at
// any thread count (only wall-clock fields differ; the emitters exclude
// them unless asked).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/gtd.hpp"
#include "obs/engine_metrics.hpp"
#include "runner/campaign.hpp"
#include "support/arena.hpp"

namespace dtop::runner {

struct JobResult {
  JobSpec spec;
  std::string label;  // family instance label, e.g. "torus-3x3"
  NodeId n = 0;       // actual node count (size hints snap per family)
  std::uint32_t d = 0;  // directed diameter
  std::uint32_t e = 0;  // wires
  Outcome status = Outcome::kViolation;  // judge()'s verdict on the run
  std::string detail;  // the verdict's detail, plus injection/capture notes
  Tick ticks = 0;
  std::uint64_t messages = 0;
  std::uint64_t node_steps = 0;
  double wall_ms = 0.0;  // wall clock; excluded from deterministic emits
  std::string trace_file;  // post-mortem trace, when capture was requested

  bool ok() const { return status == Outcome::kExact; }
};

struct CampaignResult {
  CampaignSpec spec;
  std::vector<JobResult> jobs;  // expansion order (JobSpec::index)
  // True when a cancel flag stopped the campaign early. `jobs` then holds
  // the completed prefix of the expansion (claimed jobs always finish; no
  // result is ever a torn half-execution).
  bool interrupted = false;

  std::size_t failed() const;
  bool all_ok() const { return failed() == 0; }
};

struct RunnerOptions {
  int threads = 1;  // concurrent jobs; each job's engine stays sequential
  // Invoked (serialized) as each job finishes, in completion order:
  // (result, jobs finished so far, total jobs). May write to a stream.
  std::function<void(const JobResult&, std::size_t, std::size_t)> progress;
  // When non-empty: every job that fails (mismatch, violation, or budget
  // exhaustion) is deterministically re-executed with a trace recorder
  // attached and the capture is written to `<trace_dir>/job-<index>.dtrace`
  // (JobResult::trace_file). The directory must exist. Jobs are pure
  // functions of their spec, so the re-run reproduces the failure exactly;
  // the trace can then be inspected, diffed, and replayed with
  // `dtopctl trace`.
  std::string trace_dir;
  // Cooperative cancellation (SIGINT/SIGTERM in `dtopctl sweep`): polled by
  // every worker before claiming the next job. In-flight jobs drain, the
  // completed prefix is returned, CampaignResult::interrupted is set.
  const std::atomic<bool>* cancel = nullptr;
  // Pluggable job executor (the cluster dispatcher backend of
  // `dtopctl sweep --cluster`): when set, every job runs through it instead
  // of run_job, with the same contract — never throw, land every failure in
  // the returned result. The trace_dir above is passed through.
  std::function<JobResult(const JobSpec&, const std::string& trace_dir)>
      execute;
  // Observability hook forwarded into every job's engine (strictly passive;
  // see obs/engine_metrics.hpp — campaign output is byte-identical with or
  // without it). Worker t records under shard `metrics_shard_base + t`, so
  // a service worker hosting a campaign passes its own index as the base
  // and concurrent campaigns never share a shard cache line.
  const obs::EngineMetrics* metrics = nullptr;
  int metrics_shard_base = 0;
};

// Executes one job. Never throws: every failure mode lands in the result.
// `trace_dir` as in RunnerOptions. `arena` is reset and reused for the
// job's engine state when given (the campaign executor passes one warm
// arena per worker thread, so a 10k-job sweep allocates engine state from
// the heap only until each worker reaches its high-water footprint);
// nullptr = per-job engine-owned arena.
JobResult run_job(const JobSpec& job, const std::string& trace_dir = {},
                  Arena* arena = nullptr,
                  const obs::EngineMetrics* metrics = nullptr,
                  int metrics_shard = 0);

// Expands and executes the whole campaign.
CampaignResult run_campaign(const CampaignSpec& spec,
                            const RunnerOptions& opt = {});

}  // namespace dtop::runner
