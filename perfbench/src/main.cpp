// dtop_perfbench: the whole-determination benchmark.
//
//   dtop_perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//
// Workloads: solve-serial, solve-parallel, serve-zipf, trace-roundtrip (see
// perfbench/README.md). With --trace 0 the last stdout line carries the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
// traced run. Every operation's answer is checked; failures are counted,
// never skipped.
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "support/affinity.hpp"
#include "trace/codec.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::note;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "dtop_perfbench: " << why << "\n"
            << "usage: dtop_perfbench --workload "
               "solve-serial|solve-parallel|serve-zipf|trace-roundtrip "
               "--seed N --seconds S --trace 0|1 [--smoke]\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("flag " + f + " needs a value");
    const std::string v = argv[++i];
    try {
      if (f == "--workload") {
        o.workload = v;
        have_workload = true;
      } else if (f == "--seed") {
        o.seed = std::stoull(v);
      } else if (f == "--seconds") {
        o.seconds = std::stod(v);
      } else if (f == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else {
        usage("unknown flag " + f);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + f + ": " + v);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);

  // Numbers from an unoptimized build describe the build, not the program.
#ifndef __OPTIMIZE__
  std::cerr << "dtop_perfbench: refusing to measure an unoptimized build "
               "(build type " PERFBENCH_BUILD_TYPE
               "); configure with -DCMAKE_BUILD_TYPE=Release\n";
  return 3;
#endif

  const int nproc = dtop::available_cpus();
  int engine_threads = 1;
  if (opt.workload == "solve-parallel") engine_threads = nproc;

  note("workload=" + opt.workload + " seed=" + std::to_string(opt.seed) +
       " seconds=" + std::to_string(opt.seconds) +
       " trace=" + (opt.trace ? "1" : "0") + (opt.smoke ? " smoke" : ""));
  note(std::string("nproc=") + std::to_string(nproc) +
       " compiler=" __VERSION__ " build_type=" PERFBENCH_BUILD_TYPE
       " engine_threads=" + std::to_string(engine_threads) +
       " trace_codec=dlz zstd_available=" +
       (dtop::trace::codec_available(dtop::trace::TraceCodec::kZstd) ? "yes"
                                                                      : "no"));

  perfbench::Result res;
  try {
    if (opt.workload == "solve-serial" || opt.workload == "solve-parallel") {
      perfbench::run_solve(opt, engine_threads, res);
    } else if (opt.workload == "serve-zipf") {
      perfbench::run_serve(opt, res);
    } else if (opt.workload == "trace-roundtrip") {
      perfbench::run_trace_roundtrip(opt, res);
    } else {
      usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "dtop_perfbench: " << opt.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  if (opt.trace) perfbench::fill_per_layer(res);

  note("attempted=" + std::to_string(res.attempted()) +
       " failed=" + std::to_string(res.failed()) +
       " failed_ratio=" + std::to_string(res.failed_ratio()));
  std::cout << res.json() << std::endl;
  return 0;
}
