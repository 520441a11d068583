// serve-zipf: an in-process dtopd Server on a Unix socket, driven by two
// closed-loop client connections over a Zipf-popular catalog.
//
// Traffic: ~80% determine (include_map), ~15% verify, ~5% small sweep.
// Half of the determine/verify requests name the family; the other half
// send an inline, relabelled copy of the graph, which canonical hashing has
// to fold onto the family form's cache entry. The cache holds fewer entries
// than the catalog, and the persistent store starts with half the catalog,
// so set-up replays the store and misses append to it.
//
// Responses are checked after the timed phase (ok, status exact, verify_map
// of every returned map), and the quiesced metrics scrape must satisfy
// requests_total == served + rejected and match the requests sent.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unistd.h>

#include "core/map_io.hpp"
#include "core/verify.hpp"
#include "graph/canonical.hpp"
#include "graph/families.hpp"
#include "graph/graph_io.hpp"
#include "graph/permute.hpp"
#include "service/json.hpp"
#include "service/metrics_wire.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using dtop::NodeId;
using dtop::PortGraph;

constexpr int kWorkers = 2;  // Service workers
constexpr int kClients = 2;  // closed-loop connections; workers + clients <= 4
constexpr int kSetupReps = 7;
constexpr int kVariants = 3;  // inline relabellings per catalog entry
constexpr double kZipf = 1.0;
constexpr int kEpochs = 64;  // schedule length, in rounds

// Six families whose size hints map to distinct networks (the seeded ones
// get a distinct seed per size), at eight sizes: 48 catalog entries.
const char* const kFamilies[] = {"biring",    "dering", "random3",
                                 "satellite", "grid",   "treeloop"};
const NodeId kSizes[] = {16, 20, 24, 28, 32, 40, 48, 64};
const NodeId kSmokeSizes[] = {9, 12};

struct Sizing {
  std::size_t families;
  std::size_t sizes;
  std::size_t cache_capacity;  // below the catalog size
  std::uint64_t round;         // requests per round (one schedule epoch)
};
constexpr Sizing kFull{6, 8, 32, 500};
constexpr Sizing kSmoke{4, 2, 6, 40};

enum Op : int { kDetermine = 0, kVerify = 1, kSweep = 2 };

struct Form {
  PortGraph graph{1, 1};
  NodeId root = 0;
  std::string text;  // inline graph text; empty for the family form
};

struct Entry {
  std::string family;
  NodeId size = 0;
  std::uint64_t seed = 1;
  std::vector<Form> forms;  // [0] = family form, then inline relabellings
  bool stored = false;
  std::string map;  // a correct map, for verify requests (stored entries)
};

struct Line {
  std::string text;
  int op = kDetermine;
  int entry = 0;
  int form = 0;
};

std::string request(const Entry& e, int form, int op) {
  dtop::service::JsonWriter w;
  w.field("op", op == kDetermine ? "determine" : "verify");
  const Form& f = e.forms[static_cast<std::size_t>(form)];
  if (f.text.empty()) {
    w.field("family", e.family)
        .field("nodes", static_cast<std::uint64_t>(e.size))
        .field("seed", e.seed);
  } else {
    w.field("graph", f.text);
  }
  w.field("root", static_cast<std::uint64_t>(f.root));
  if (op == kDetermine) {
    w.field("include_map", true);
  } else {
    w.field("map", e.map);
  }
  return w.str();
}

// The catalog, in Zipf popularity-rank order. Its composition is fixed;
// the seed picks roots, relabellings, which half is pre-stored, and the
// rank order — balanced so that every block of consecutive ranks holds one
// entry of each size, which keeps the popular head and the missing tail
// equally heavy on every seed.
std::vector<Entry> make_catalog(const Sizing& sz, bool smoke, dtop::Rng& rng) {
  const NodeId* sizes = smoke ? kSmokeSizes : kSizes;
  // perm[s][b]: the family of size s placed in rank block b.
  std::vector<std::vector<std::size_t>> perm(sz.sizes);
  std::vector<std::vector<char>> stored(sz.sizes);
  for (std::size_t si = 0; si < sz.sizes; ++si) {
    for (std::size_t f = 0; f < sz.families; ++f) perm[si].push_back(f);
    rng.shuffle(perm[si]);
    stored[si].assign(sz.families, 0);
    for (std::size_t f = 0; f < sz.families / 2; ++f) stored[si][f] = 1;
    rng.shuffle(stored[si]);
  }
  std::vector<Entry> out;
  std::vector<std::uint64_t> seen;
  for (std::size_t b = 0; b < sz.families; ++b) {
    std::vector<std::size_t> order;
    for (std::size_t si = 0; si < sz.sizes; ++si) order.push_back(si);
    rng.shuffle(order);
    for (std::size_t si : order) {
      const std::size_t f = perm[si][b];
      Entry e;
      e.family = kFamilies[f];
      e.size = sizes[si];
      e.seed = 1 + si;
      e.stored = stored[si][f] != 0;
      Form base;
      base.graph = dtop::make_family(e.family, e.size, e.seed).graph;
      base.root = static_cast<NodeId>(rng.next_below(base.graph.num_nodes()));
      const std::uint64_t h = dtop::canonical_hash(base.graph, base.root);
      DTOP_CHECK(std::find(seen.begin(), seen.end(), h) == seen.end(),
                 "catalog entries must be distinct: " + e.family + "-" +
                     std::to_string(e.size));
      seen.push_back(h);
      e.forms.push_back(std::move(base));
      for (int v = 0; v < kVariants; ++v) {
        std::vector<NodeId> mapping;
        Form fm;
        fm.graph = dtop::permute_nodes_random(e.forms[0].graph, rng.next_u64(),
                                              &mapping);
        fm.root = mapping[e.forms[0].root];
        fm.text = dtop::graph_to_string(fm.graph);
        e.forms.push_back(std::move(fm));
      }
      out.push_back(std::move(e));
    }
  }
  return out;
}

// Splits `total` over weights by largest remainder, so counts sum exactly.
std::vector<std::uint64_t> apportion(const std::vector<double>& w,
                                     std::uint64_t total) {
  double sum = 0.0;
  for (double x : w) sum += x;
  std::vector<std::uint64_t> n(w.size());
  std::vector<std::pair<double, std::size_t>> rem;
  std::uint64_t given = 0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double exact = static_cast<double>(total) * w[i] / sum;
    n[i] = static_cast<std::uint64_t>(exact);
    given += n[i];
    rem.emplace_back(exact - static_cast<double>(n[i]), i);
  }
  std::sort(rem.begin(), rem.end(), std::greater<>());
  for (std::size_t k = 0; given < total; ++k, ++given) ++n[rem[k].second];
  return n;
}

// Builds the request lines and the schedule of line indices. Each epoch of
// sz.round requests holds the same multiset — 80% determine over Zipf rank,
// 15% verify over Zipf rank among stored entries, 5% sweep over families,
// half of determine/verify in family form, half inline — in a seeded order,
// so every round carries the same work.
void make_schedule(const std::vector<Entry>& cat, const Sizing& sz,
                   dtop::Rng& rng, std::vector<Line>& lines,
                   std::vector<std::uint32_t>& sched) {
  std::vector<std::vector<std::uint32_t>> det(cat.size()), ver(cat.size());
  std::map<std::string, std::uint32_t> sweep;
  std::vector<double> zipf_all, zipf_stored;
  std::vector<std::size_t> stored;
  for (std::size_t i = 0; i < cat.size(); ++i) {
    for (std::size_t f = 0; f < cat[i].forms.size(); ++f) {
      det[i].push_back(static_cast<std::uint32_t>(lines.size()));
      lines.push_back({request(cat[i], static_cast<int>(f), kDetermine),
                       kDetermine, static_cast<int>(i), static_cast<int>(f)});
      if (cat[i].stored) {
        ver[i].push_back(static_cast<std::uint32_t>(lines.size()));
        lines.push_back({request(cat[i], static_cast<int>(f), kVerify), kVerify,
                         static_cast<int>(i), static_cast<int>(f)});
      }
    }
    if (!sweep.count(cat[i].family)) {
      dtop::service::JsonWriter w;
      w.field("op", "sweep")
          .field("families", cat[i].family)
          .field("sizes", "12")
          .field("seeds", "1");
      sweep[cat[i].family] = static_cast<std::uint32_t>(lines.size());
      lines.push_back({w.str(), kSweep, static_cast<int>(i), 0});
    }
    zipf_all.push_back(std::pow(static_cast<double>(i + 1), -kZipf));
    if (cat[i].stored) {
      stored.push_back(i);
      zipf_stored.push_back(
          std::pow(static_cast<double>(stored.size()), -kZipf));
    }
  }
  // One epoch's multiset. The k-th request for an entry alternates family
  // form and the inline relabellings in turn.
  std::vector<std::uint32_t> epoch;
  const auto add = [&](const std::vector<std::uint32_t>& forms,
                       std::uint64_t n) {
    for (std::uint64_t k = 0; k < n; ++k) {
      epoch.push_back(k % 2 == 0 ? forms[0] : forms[1 + (k / 2) % kVariants]);
    }
  };
  const std::vector<std::uint64_t> n_det =
      apportion(zipf_all, sz.round * 80 / 100);
  const std::vector<std::uint64_t> n_ver =
      apportion(zipf_stored, sz.round * 15 / 100);
  for (std::size_t i = 0; i < cat.size(); ++i) add(det[i], n_det[i]);
  for (std::size_t k = 0; k < stored.size(); ++k) add(ver[stored[k]], n_ver[k]);
  std::vector<std::uint32_t> sweeps;
  for (const auto& [family, line] : sweep) sweeps.push_back(line);
  for (std::uint64_t k = 0; epoch.size() < sz.round; ++k) {
    epoch.push_back(sweeps[k % sweeps.size()]);
  }
  for (int e = 0; e < kEpochs; ++e) {
    rng.shuffle(epoch);
    sched.insert(sched.end(), epoch.begin(), epoch.end());
  }
}

// A running Server with its serve() thread.
class Daemon {
 public:
  explicit Daemon(const dtop::service::ServerOptions& o) : server_(patch(o)) {
    thread_ = std::thread([this] {
      try {
        server_.serve(null_log_);
      } catch (const std::exception& e) {
        error_ = e.what();
      }
      exited_.store(true, std::memory_order_release);
    });
  }
  ~Daemon() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  dtop::service::Service& service() { return server_.service(); }
  bool exited() const { return exited_.load(std::memory_order_acquire); }
  const std::string& error() const { return error_; }

 private:
  dtop::service::ServerOptions patch(dtop::service::ServerOptions o) {
    o.stop = &stop_;
    o.quiet = true;
    return o;
  }

  std::atomic<bool> stop_{false};
  std::atomic<bool> exited_{false};
  std::ostream null_log_{nullptr};
  dtop::service::Server server_;
  std::string error_;
  std::thread thread_;
};

// Connects once the daemon listens; throws if it died first.
std::unique_ptr<dtop::service::ClientChannel> connect(Daemon& d,
                                                      const std::string& path) {
  const Clock::time_point t0 = Clock::now();
  for (;;) {
    try {
      return std::make_unique<dtop::service::ClientChannel>(path);
    } catch (const std::exception&) {
      if (d.exited()) throw dtop::Error("dtopd exited: " + d.error());
      if (seconds_between(t0, Clock::now()) > 30) throw;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

struct Sample {
  std::uint64_t ticket = 0;
  std::uint32_t line = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool timed = false;  // false in the warm-up round
};

struct ClientLog {
  std::vector<Sample> samples;
  // Per request line, each distinct response and how many requests got it.
  std::map<std::uint32_t, std::unordered_map<std::string, std::uint64_t>>
      responses;
  std::uint64_t lost = 0;  // sends or receives that failed
  std::string lost_why;
  Tracer tracer;
  HostGauge gauge;  // sampled at the start of each timed round it draws
};

std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
      .count();
}

bool has_field(const std::string& line, const std::string& kv) {
  return line.find(kv) != std::string::npos;
}

// Checks one distinct response against its request's ground truth.
std::string check_response(const Line& line, const Entry& e,
                           const std::string& resp) {
  if (line.op == kSweep) {
    // Sweep responses nest a results array, which the flat parser rejects.
    if (!has_field(resp, "\"ok\": true") ||
        !has_field(resp, "\"failed\": 0,")) {
      return "sweep not ok";
    }
    return "";
  }
  const dtop::service::JsonObject o = dtop::service::parse_json_object(resp);
  if (!o.get_bool("ok", false)) return "not ok: " + o.get_string("error");
  if (line.op == kVerify) return "";
  if (o.get_string("status") != "exact") return "status not exact";
  const Form& f = e.forms[static_cast<std::size_t>(line.form)];
  const dtop::VerifyResult v = dtop::verify_map(
      f.graph, f.root, dtop::map_from_string(o.require_string("map")));
  return v.ok ? "" : "map does not verify: " + v.detail;
}

double hist_quantile(const dtop::obs::Snapshot& s, const std::string& name,
                     double p) {
  const auto* h = s.find_histogram(name);
  return h && h->hist.count() ? h->hist.quantile(p) : 0.0;
}

}  // namespace

void run_serve(const Options& opt, Result& res) {
  const Sizing sz = opt.smoke ? kSmoke : kFull;
  dtop::Rng rng(opt.seed);

  // --- input generation (not timed) ---------------------------------------
  const fs::path dir = fs::path(".bench_build") / "tmp" /
                       ("serve-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  struct Cleanup {
    fs::path p;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(p, ec);
    }
  } cleanup{dir};
  const std::string sock = (dir / "dtopd.sock").string();
  const std::string store = (dir / "cache.dcs").string();

  std::vector<Entry> cat = make_catalog(sz, opt.smoke, rng);
  std::uint64_t stored_n = 0;
  {
    // Pre-store half the catalog, through the program's own store path.
    dtop::service::ServiceOptions so;
    so.workers = kWorkers;
    so.cache_capacity = cat.size();
    so.cache_store = store;
    dtop::service::Service svc(so);
    std::vector<std::pair<std::size_t, std::uint64_t>> tickets;
    for (std::size_t i = 0; i < cat.size(); ++i) {
      if (cat[i].stored) {
        tickets.emplace_back(i, svc.submit(request(cat[i], 0, kDetermine)));
      }
    }
    for (const auto& [i, t] : tickets) {
      const dtop::service::JsonObject o =
          dtop::service::parse_json_object(svc.wait(t));
      DTOP_CHECK(o.get_bool("ok", false), "pre-store determine failed");
      cat[i].map = o.require_string("map");
      ++stored_n;
    }
  }
  std::string store_bytes;
  {
    std::ifstream in(store, std::ios::binary);
    store_bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  std::vector<Line> lines;
  std::vector<std::uint32_t> sched;
  make_schedule(cat, sz, rng, lines, sched);

  // --- set-up: Service + Server start and store warm load, repeated -------
  dtop::service::ServerOptions sopt;
  sopt.socket_path = sock;
  sopt.service.workers = kWorkers;
  sopt.service.cache_capacity = sz.cache_capacity;
  sopt.service.cache_store = store;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<dtop::service::ClientChannel> first;
  std::vector<double> setups;
  HostGauge gauge;
  for (int i = 0; i < 3; ++i) gauge.sample();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    first.reset();
    daemon.reset();  // tear-down is not set-up: it stays outside the timing
    {
      std::ofstream out(store, std::ios::binary | std::ios::trunc);
      out << store_bytes;
    }
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<Daemon>(sopt);
    first = connect(*daemon, sock);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  const double setup_s = median(setups);
  const std::uint64_t warm = daemon->service().warm_loaded();
  res.check(warm == stored_n, "store warm load replayed " +
                                  std::to_string(warm) + " of " +
                                  std::to_string(stored_n) + " entries");

  // --- timed closed loop ----------------------------------------------------
  std::vector<std::unique_ptr<dtop::service::ClientChannel>> chans;
  chans.push_back(std::move(first));
  for (int c = 1; c < kClients; ++c) chans.push_back(connect(*daemon, sock));
  std::vector<ClientLog> logs(kClients);
  // Round 0 warms the cache (its misses load the half the store lacks); it
  // is checked like every round but not timed. Timed rounds follow.
  std::atomic<std::uint64_t> next{0};
  Clock::time_point start = Clock::now();
  const auto drive = [&](bool timed) {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c, timed] {
        ClientLog& log = logs[static_cast<std::size_t>(c)];
        dtop::service::ClientChannel& ch = *chans[static_cast<std::size_t>(c)];
        for (;;) {
          if (timed && (opt.smoke ? next.load() >= 3 * sz.round
                                  : seconds_between(start, Clock::now()) >=
                                        opt.seconds)) {
            break;
          }
          const std::uint64_t t = next.fetch_add(1);
          if (!timed && t >= sz.round) break;
          // Between this client's requests, so no latency includes it.
          if (timed && t % sz.round == 0) log.gauge.sample();
          const std::uint32_t li = sched[t % sched.size()];
          // Even rounds of a traced run are traced, odd ones are not.
          log.tracer.set_on(opt.trace && timed && (t / sz.round) % 2 == 0);
          Sample s;
          s.ticket = t;
          s.line = li;
          s.timed = timed;
          std::optional<std::string> resp;
          s.start_ns = ns_since(start);
          {
            Scope span(log.tracer, kTransport, "request");
            try {
              ch.send(lines[li].text);
              resp = ch.recv();
            } catch (const std::exception& e) {
              log.lost_why = e.what();
            }
          }
          s.end_ns = ns_since(start);
          log.samples.push_back(s);
          if (!resp) {
            ++log.lost;
            break;  // the connection is gone; the loss is counted below
          }
          ++log.responses[li][std::move(*resp)];
        }
      });
    }
    for (std::thread& t : clients) t.join();
  };
  dtop::service::ClientChannel& ch0 = *chans[0];
  const auto scrape = [&](const char* line) {
    ch0.send(line);
    const std::optional<std::string> r = ch0.recv();
    return r ? dtop::service::parse_snapshot_response(*r)
             : dtop::obs::Snapshot{};
  };
  drive(false);
  next.store(sz.round);
  scrape(R"({"op": "metrics", "delta": true})");  // the timed window's baseline
  start = Clock::now();
  drive(true);
  for (const ClientLog& l : logs) gauge.add(l.gauge.samples());
  // The timed window: everything the daemon recorded since the baseline.
  const dtop::obs::Snapshot window =
      scrape(R"({"op": "metrics", "delta": true})");

  // --- quiesced scrape ------------------------------------------------------
  std::uint64_t sent = 0, timed_sent = 0;
  for (const ClientLog& l : logs) {
    sent += l.samples.size();
    for (const Sample& x : l.samples) timed_sent += x.timed;
  }
  ch0.send(R"({"op": "stats"})");
  const std::optional<std::string> stats = ch0.recv();
  res.check(stats && has_field(*stats, "\"ok\": true"), "stats request");
  const dtop::obs::Snapshot total = scrape(R"({"op": "metrics"})");
  std::uint64_t served = 0;
  for (std::size_t i = 0; i < dtop::service::kServedOpCount; ++i) {
    served += total.counter_or(std::string("service_") +
                               dtop::service::kStatsServedFields[i] +
                               "_served_total");
  }
  const std::uint64_t requests = total.counter_or("service_requests_total");
  const std::uint64_t rejected = total.counter_or("service_rejected_total");
  res.check(requests == served + rejected,
            "requests_total " + std::to_string(requests) + " != served " +
                std::to_string(served) + " + rejected " +
                std::to_string(rejected));
  // Every response line plus two delta scrapes, stats, and this scrape.
  res.check(requests == sent + 4, "daemon counted " + std::to_string(requests) +
                                      " requests, benchmark sent " +
                                      std::to_string(sent + 4));
  chans.clear();
  daemon.reset();

  // --- correctness of every response (after the timed phase) ---------------
  std::vector<double> latency;
  std::vector<double> round_min, round_max;
  std::vector<std::uint64_t> round_n;
  double client_s = 0.0;
  std::vector<double> by_kind[4];  // determine family/inline, verify, sweep
  for (ClientLog& l : logs) {
    if (l.lost) res.attempt(false, "request lost: " + l.lost_why);
    for (const auto& [li, seen] : l.responses) {
      const Line& line = lines[li];
      for (const auto& [response, count] : seen) {
        std::string why;
        try {
          why = check_response(line, cat[static_cast<std::size_t>(line.entry)],
                               response);
        } catch (const std::exception& e) {
          why = std::string("unparseable response: ") + e.what();
        }
        for (std::uint64_t k = 0; k < count; ++k) {
          res.attempt(why.empty(), line.text.substr(0, 60) + "...: " + why);
        }
      }
    }
    for (const Sample& s : l.samples) {
      if (!s.timed) continue;
      const double lat = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      latency.push_back(lat);
      client_s += lat;
      const Line& ln = lines[s.line];
      const int kind = ln.op == kDetermine ? (ln.form ? 1 : 0) : ln.op + 1;
      by_kind[kind].push_back(lat);
      const std::size_t r = s.ticket / sz.round;
      if (r >= round_n.size()) {
        round_n.resize(r + 1, 0);
        round_min.resize(r + 1, 1e300);
        round_max.resize(r + 1, 0.0);
      }
      ++round_n[r];
      round_min[r] = std::min(round_min[r], s.start_ns * 1e-9);
      round_max[r] = std::max(round_max[r], s.end_ns * 1e-9);
    }
  }
  // A round is one block of consecutive tickets; only complete ones count.
  std::vector<double> rounds, traced_rounds, untraced_rounds;
  for (std::size_t r = 0; r < round_n.size(); ++r) {
    if (round_n[r] != sz.round) continue;
    rounds.push_back(round_max[r] - round_min[r]);
    (r % 2 == 0 ? traced_rounds : untraced_rounds).push_back(rounds.back());
  }

  const auto counter = [&](const char* n) {
    return static_cast<double>(window.counter_or(n));
  };
  note("cache hits=" + std::to_string(window.counter_or("cache_hits_total")) +
       " misses=" + std::to_string(window.counter_or("cache_misses_total")) +
       " coalesced=" +
       std::to_string(window.counter_or("cache_coalesced_total")) +
       " evictions=" +
       std::to_string(window.counter_or("cache_evictions_total")) +
       " warm_entries=" + std::to_string(warm) + " catalog=" +
       std::to_string(cat.size()) + " lines=" + std::to_string(lines.size()));

  char kinds[200];
  std::snprintf(kinds, sizeof kinds,
                "median latency ms: determine family form %.4f, inline form "
                "%.4f, verify %.4f, sweep %.4f",
                median(by_kind[0]) * 1e3, median(by_kind[1]) * 1e3,
                median(by_kind[2]) * 1e3, median(by_kind[3]) * 1e3);
  note(kinds);

  if (!opt.trace) {
    report_end_to_end(res, gauge, setup_s, rounds, latency,
                      static_cast<double>(sz.round));
    return;
  }

  // Per round of sz.round requests. The daemon's sums cover every request;
  // the client spans cover the traced rounds.
  const double per =
      static_cast<double>(sz.round) / static_cast<double>(timed_sent);
  const EnginePhases e = EnginePhases::from(window);
  report_engine(res, e, static_cast<double>(timed_sent) / sz.round);
  res.metric("engine.ticks", e.ticks * per, "count");
  res.metric("engine.node_steps", e.node_steps * per, "count");
  double op_us = 0.0;
  for (const char* op : {"determine", "verify", "sweep"}) {
    const auto* h =
        window.find_histogram(std::string("service_") + op + "_latency_us");
    if (h) op_us += static_cast<double>(h->hist.sum());
  }
  res.metric("service.determine_us_p50",
             hist_quantile(window, "service_determine_latency_us", 0.5), "us");
  res.metric("service.determine_us_p99",
             hist_quantile(window, "service_determine_latency_us", 0.99), "us");
  res.metric("service.verify_us_p50",
             hist_quantile(window, "service_verify_latency_us", 0.5), "us");
  res.metric("service.sweep_us_p50",
             hist_quantile(window, "service_sweep_latency_us", 0.5), "us");
  res.metric("service.transport_queue_us_mean",
             (client_s * 1e6 - op_us) / static_cast<double>(timed_sent), "us");
  const double lookups = counter("cache_hits_total") +
                         counter("cache_misses_total") +
                         counter("cache_coalesced_total");
  res.metric("cache.hit_ratio",
             lookups > 0 ? counter("cache_hits_total") / lookups : 0.0,
             "ratio");
  res.metric("cache.coalesced", counter("cache_coalesced_total") * per,
             "count");
  res.metric("cache.evictions", counter("cache_evictions_total") * per,
             "count");
  res.metric("cache.executions", counter("cache_executions_total") * per,
             "count");
  res.metric("store.bytes_appended", counter("store_append_bytes_total") * per,
             "bytes");
  res.metric("store.warm_entries", static_cast<double>(warm), "count");

  // The graph layer's canonical hash on this workload's request graphs.
  std::vector<double> hash_us;
  for (const Entry& en : cat) {
    for (const Form& f : en.forms) {
      const Clock::time_point t0 = Clock::now();
      const std::uint64_t h = dtop::canonical_hash(f.graph, f.root);
      hash_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      res.check(h == dtop::canonical_hash(en.forms[0].graph, en.forms[0].root),
                "relabelled form hashes differently: " + en.family);
    }
  }
  res.metric("graph.canonical_hash_us_p50", median(hash_us), "us");

  // Self time per round. Every round carries the same work, so the client
  // request spans of the traced rounds split against the daemon's window
  // means: sim = engine phases, service = op time beyond them, transport =
  // client span beyond the op (socket, connection thread, queue), gap =
  // client time between requests.
  double span_s = 0.0;
  std::size_t spans = 0;
  for (const ClientLog& l : logs) {
    span_s += l.tracer.total_seconds("request");
    spans += l.tracer.count("request");
  }
  const double req_s = spans ? span_s / static_cast<double>(spans) : 0.0;
  const double op_s = op_us * 1e-6 / static_cast<double>(timed_sent);
  const double sim_s = static_cast<double>(e.total_ns()) * 1e-9 /
                       static_cast<double>(timed_sent);
  const double n = static_cast<double>(sz.round);
  const double round_client_s = kClients * mean(traced_rounds);
  res.metric("self.sim_s", sim_s * n, "s");
  res.metric("self.service_s", (op_s - sim_s) * n, "s");
  res.metric("self.transport_s", (req_s - op_s) * n, "s");
  res.metric("self.gap_s", round_client_s - req_s * n, "s");
  const double tr = median(traced_rounds), un = median(untraced_rounds);
  res.metric("span.traced_round_s", tr, "s");
  res.metric("span.untraced_round_s", un, "s");
  res.metric("span.overhead_s", tr - un, "s");
  char buf[240];
  std::snprintf(buf, sizeof buf,
                "per %llu requests x %d clients: client time %.6f s = sim "
                "%.6f + service %.6f + transport %.6f + gap %.6f; untraced "
                "round %.6f s; tracing overhead %.6f s",
                static_cast<unsigned long long>(sz.round), kClients,
                round_client_s, sim_s * n, (op_s - sim_s) * n,
                (req_s - op_s) * n, round_client_s - req_s * n, un, tr - un);
  note(buf);
  res.metric("client.latency_ms_p50", median(latency) * 1e3, "ms");
  res.metric("host.ref_kernel_ms", gauge.median_s() * 1e3, "ms");
}

}  // namespace perfbench
