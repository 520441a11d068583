// Structured result emitters, shared by `dtopctl` and the bench binaries.
//
// The campaign formats are deterministic functions of the job results
// alone: wall clock fields are excluded unless `timing` is set, so a
// campaign emitted at --threads 1 and --threads 8 is byte-identical.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runner/runner.hpp"
#include "support/table.hpp"

namespace dtop::runner {

struct EmitOptions {
  bool timing = false;  // include per-job and total wall_ms (non-deterministic)
};

// One JSON object: {"campaign": {...}, "jobs": [...], "summary": {...}}.
void write_json(std::ostream& os, const CampaignResult& result,
                const EmitOptions& opt = {});

// RFC-4180-style CSV with a header row; `detail` is quoted.
void write_csv(std::ostream& os, const CampaignResult& result,
               const EmitOptions& opt = {});

std::string json_escape(const std::string& s);

// The BENCH_<exp>.json artifact of the bench binaries and `dtopctl loadgen
// --bench-json`: the named tables (cells that parse as numbers emitted as
// JSON numbers) plus an "env" block — compiler, build type, hardware
// threads, `bench_threads` when given, and the quick flag.
// tools/bench_compare.py diffs these files against bench/baselines.
void write_bench_json(
    std::ostream& os, const std::string& exp,
    const std::vector<std::pair<std::string, Table>>& tables,
    std::optional<int> bench_threads, bool quick);

// Engine threads for single-workload bench rows: DTOP_BENCH_THREADS, else
// 1 (clamped to >= 1); `dtopctl bench --threads` overrides it. Committed
// baselines are recorded at the default, so rows compare across boxes.
int bench_threads();

}  // namespace dtop::runner
