// trace-roundtrip: for each instance, record a full run with a
// TraceRecorder, encode it with Dtr2Writer (dlz codec, set explicitly) into
// memory, decode it with TraceFile::read_all, check it with replay_gtd, and
// re-encode the decoded trace, which must match the first encoding byte for
// byte. No disk is involved.
#include <sstream>
#include <string>
#include <vector>

#include "core/gtd.hpp"
#include "core/verify.hpp"
#include "trace/codec.hpp"
#include "trace/container.hpp"
#include "trace/recorder.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

const std::vector<std::pair<std::string, dtop::NodeId>> kInstances = {
    {"debruijn", 64}, {"kautz", 48}, {"treeloop", 63}, {"torus", 64}};
const std::vector<std::pair<std::string, dtop::NodeId>> kSmokeInstances = {
    {"debruijn", 16}, {"kautz", 12}, {"treeloop", 15}, {"torus", 16}};

constexpr int kSetupReps = 101;

std::string encode(const dtop::trace::RecordedTrace& t,
                   dtop::trace::TraceCodec codec) {
  std::ostringstream os;
  dtop::trace::Dtr2Options o;
  o.codec = codec;
  dtop::trace::Dtr2Writer w(os, t.header, o);
  for (const dtop::trace::TraceEvent& ev : t.events) w.write(ev);
  w.finish();
  return std::move(os).str();
}

struct RoundTrip {
  Ledger ledger;
  std::size_t events = 0;
  std::size_t bytes = 0;
  std::size_t blocks = 0;
};

}  // namespace

void run_trace_roundtrip(const Options& opt, Result& res) {
  using dtop::trace::TraceCodec;
  const std::vector<Instance> inst =
      make_instances(opt.smoke ? kSmokeInstances : kInstances, opt.seed);

  HostGauge gauge;
  for (int i = 0; i < 3; ++i) gauge.sample();
  std::vector<dtop::PortGraph> graphs;
  const double setup_s = median_setup(kSetupReps, [&](int) {
    graphs.clear();
    for (const Instance& in : inst) graphs.push_back(build_graph(in.text));
  });

  Tracer tr;
  EngineProbe probe;
  EnginePhases phases;
  std::vector<RoundTrip> first;  // round 0's figures, repeated exactly after
  std::vector<std::string> kept;  // round 0's encodings, for raw sizes
  std::vector<double> latency, traced_rounds, untraced_rounds;
  std::vector<std::vector<double>> inst_latency(inst.size());

  const auto round_body = [&](int round, bool traced) {
    for (std::size_t i = 0; i < inst.size(); ++i) {
      const Instance& in = inst[i];
      const dtop::PortGraph& g = graphs[i];
      const Clock::time_point t0 = Clock::now();
      RoundTrip rt;
      std::string why;
      try {
        dtop::trace::TraceRecorder rec;
        dtop::GtdOptions gopt;
        gopt.trace = &rec;
        if (traced) gopt.metrics = probe.hook();
        const int rec_id = tr.open(kCore, "record");
        const dtop::GtdResult r = dtop::run_gtd(g, in.root, gopt);
        tr.close(rec_id);
        dtop::VerifyResult v;
        {
          Scope s(tr, kCore, "verify_map");
          v = dtop::verify_map(g, in.root, r.map);
        }
        if (traced) {
          const EnginePhases e = probe.delta();
          tr.child(rec_id, kSim, "engine", e.total_ns());
          phases.add(e);
        }
        if (r.status != dtop::RunStatus::kTerminated || !r.map_complete ||
            !r.end_state_clean || !v.ok) {
          why += " determination not exact/clean " + v.detail;
        }
        rt.ledger = {r.stats.ticks, r.stats.messages, r.stats.node_steps};
        dtop::trace::RecordedTrace recorded = rec.take();
        rt.events = recorded.events.size();

        std::string bytes;
        {
          Scope s(tr, kTrace, "encode");
          bytes = encode(recorded, TraceCodec::kDlz);
        }
        rt.bytes = bytes.size();
        dtop::trace::RecordedTrace decoded;
        {
          Scope s(tr, kTrace, "decode");
          std::istringstream is(bytes);
          dtop::trace::TraceFile file(is);
          if (file.file_codec() != TraceCodec::kDlz) {
            why += " codec is not dlz";
          }
          rt.blocks = file.num_blocks();
          decoded = file.read_all();
        }
        if (!(decoded == recorded)) why += " decoded trace differs";
        dtop::ReplayResult rr;
        {
          Scope s(tr, kCore, "replay");
          rr = dtop::replay_gtd(decoded);
        }
        if (!rr.ok) why += " replay: " + rr.detail;
        std::string again;
        {
          Scope s(tr, kTrace, "reencode");
          again = encode(decoded, TraceCodec::kDlz);
        }
        if (again != bytes) why += " re-encoding not byte-identical";
        if (round == 0) kept.push_back(std::move(bytes));
      } catch (const std::exception& e) {
        why += std::string(" threw: ") + e.what();
      }
      latency.push_back(seconds_between(t0, Clock::now()));
      inst_latency[i].push_back(latency.back());
      if (round == 0) first.push_back(rt);
      const RoundTrip& f = first[i];
      if (!(f.ledger == rt.ledger) || f.events != rt.events ||
          f.bytes != rt.bytes) {
        why += " model counts or trace size differ from round 0";
      }
      res.attempt(why.empty(), in.label + ":" + why);
    }
  };
  run_rounds(opt, tr, gauge, traced_rounds, untraced_rounds, round_body);

  std::size_t events = 0, bytes = 0, blocks = 0;
  std::vector<Ledger> ledger;
  for (std::size_t i = 0; i < first.size(); ++i) {
    note_ledger(inst[i], first[i].ledger, inst_latency[i]);
    ledger.push_back(first[i].ledger);
    events += first[i].events;
    bytes += first[i].bytes;
    blocks += first[i].blocks;
  }
  const double bytes_per_event =
      events ? static_cast<double>(bytes) / static_cast<double>(events) : 0.0;
  note("trace events=" + std::to_string(events) +
       " dtr2_dlz_bytes=" + std::to_string(bytes) +
       " bytes_per_event=" + std::to_string(bytes_per_event));

  if (!opt.trace) {
    report_end_to_end(res, gauge, setup_s, untraced_rounds, latency,
                      static_cast<double>(inst.size()));
    return;
  }

  const double rounds = static_cast<double>(traced_rounds.size());
  report_engine(res, phases, rounds);
  report_model_counts(res, inst, ledger);
  const double record_s = tr.total_seconds("record") / rounds;
  res.metric("core.run_gtd_s", record_s, "s");
  res.metric("core.self_s", record_s - phases.total_ns() * 1e-9 / rounds, "s");
  res.metric("core.verify_s", tr.total_seconds("verify_map") / rounds, "s");
  res.metric("graph.build_s", setup_s, "s");
  res.metric("trace.record_s", record_s, "s");
  res.metric("trace.encode_s", tr.total_seconds("encode") / rounds, "s");
  res.metric("trace.decode_s", tr.total_seconds("decode") / rounds, "s");
  res.metric("trace.replay_s", tr.total_seconds("replay") / rounds, "s");
  res.metric("trace.events", static_cast<double>(events), "count");
  res.metric("trace.blocks", static_cast<double>(blocks), "count");
  // Raw (uncompressed) DTR2 size over the dlz size, from round 0's traces;
  // computed after the timed rounds, so it costs them nothing.
  std::size_t raw = 0;
  for (const std::string& b : kept) {
    std::istringstream is(b);
    raw += encode(dtop::trace::TraceFile(is).read_all(), TraceCodec::kRaw)
               .size();
  }
  res.metric("trace.compression_ratio",
             bytes ? static_cast<double>(raw) / static_cast<double>(bytes)
                   : 0.0,
             "ratio");
  res.metric("trace.bytes_per_event", bytes_per_event, "bytes");
  report_spans(res, tr, rounds, traced_rounds, untraced_rounds);
  res.metric("client.latency_ms_p50", median(latency) * 1e3, "ms");
  res.metric("host.ref_kernel_ms", gauge.median_s() * 1e3, "ms");
}

}  // namespace perfbench
