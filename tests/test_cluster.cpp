// The sharded dtopd cluster: consistent-hash routing on the rooted
// canonical form (relabelled instances land on the shard that already
// solved them), pipelined multiplexing, stats/shutdown fan-out, and
// kill-failover. The acceptance bar: a scripted session and a whole
// campaign are byte-identical through a 1-shard cluster, a 3-shard
// cluster, and no cluster at all — and stay byte-identical when a shard is
// SIGKILLed mid-sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "cli/cli.hpp"
#include "graph/canonical.hpp"
#include "graph/families.hpp"
#include "graph/graph_io.hpp"
#include "graph/permute.hpp"
#include "runner/emit.hpp"
#include "runner/runner.hpp"
#include "service/dispatcher.hpp"
#include "service/server.hpp"
#include "service/service.hpp"

extern char** environ;

namespace dtop::service {
namespace {

using namespace std::chrono_literals;

std::string socket_path(const std::string& name) {
  return ::testing::TempDir() + "dtop_cluster_" + name + ".sock";
}

std::string determine_line(const std::string& family, NodeId nodes,
                           std::uint64_t seed = 1) {
  JsonWriter w;
  return w.field("op", "determine")
      .field("family", family)
      .field("nodes", static_cast<std::uint64_t>(nodes))
      .field("seed", seed)
      .field("include_map", false)
      .str();
}

// N dtopd shards in-process, each a Server on its own thread. Stopping is a
// drain either way: a shutdown fan-out from the test, or the stop flags
// raised by the destructor.
class InProcessCluster {
 public:
  explicit InProcessCluster(std::vector<std::string> paths, int workers = 2,
                            std::size_t capacity = 64) {
    for (const std::string& path : paths) {
      ::unlink(path.c_str());
      auto shard = std::make_unique<Shard>();
      ServerOptions opt;
      opt.socket_path = path;
      opt.service.workers = workers;
      opt.service.cache_capacity = capacity;
      opt.quiet = true;
      opt.stop = &shard->stop;
      shard->server = std::make_unique<Server>(opt);
      shard->thread =
          std::thread([s = shard.get()] { s->server->serve(s->log); });
      shards_.push_back(std::move(shard));
    }
    for (const std::string& path : paths) {
      for (int i = 0; i < 5000; ++i) {
        try {
          ClientChannel probe(path);
          break;
        } catch (const Error&) {
          std::this_thread::sleep_for(1ms);
        }
      }
    }
  }

  ~InProcessCluster() {
    for (auto& shard : shards_) shard->stop.store(true);
    join();
  }

  void join() {
    for (auto& shard : shards_) {
      if (shard->thread.joinable()) shard->thread.join();
    }
  }

 private:
  struct Shard {
    std::unique_ptr<Server> server;
    std::thread thread;
    std::atomic<bool> stop{false};
    std::ostringstream log;
  };
  std::vector<std::unique_ptr<Shard>> shards_;
};

// ----------------------------- routing -------------------------------------

TEST(DispatcherRouting, ShardKeyIsTheRootedCanonicalHash) {
  DispatcherOptions opt;
  opt.sockets = {"/tmp/never-a.sock", "/tmp/never-b.sock"};
  Dispatcher d(opt);

  const FamilyInstance fi = make_family("debruijn", 16, 1);
  const std::uint64_t truth = canonical_hash(fi.graph, 0);
  EXPECT_EQ(d.shard_key(determine_line("debruijn", 16)), truth);

  // A relabelled inline instance keys identically: rooted-isomorphic
  // networks always land on the same shard (and therefore its cache).
  std::vector<NodeId> mapping;
  const PortGraph permuted = permute_nodes_random(fi.graph, 99, &mapping);
  JsonWriter w;
  const std::string relabelled =
      w.field("op", "determine")
          .field("graph", graph_to_string(permuted))
          .field("root", static_cast<std::uint64_t>(mapping[0]))
          .str();
  EXPECT_EQ(d.shard_key(relabelled), truth);

  // Non-isomorphic networks key differently, so a cluster actually shards.
  EXPECT_NE(d.shard_key(determine_line("torus", 16)), truth);

  // Lines with no materializable network still route deterministically.
  EXPECT_EQ(d.shard_key("not json"), d.shard_key("not json"));
  EXPECT_EQ(d.owner_of(truth), d.owner_of(truth));
  EXPECT_LT(d.owner_of(truth), opt.sockets.size());
}

TEST(DispatcherRouting, RingSplitsKeysAcrossShards) {
  DispatcherOptions opt;
  opt.sockets = {"/tmp/never-a.sock", "/tmp/never-b.sock"};
  Dispatcher d(opt);
  // With 32 vnodes per endpoint both shards own ring segments; a spread of
  // keys must not all collapse onto one shard.
  bool saw[2] = {false, false};
  for (std::uint64_t k = 0; k < 64; ++k) {
    saw[d.owner_of(k * 0x9e3779b97f4a7c15ull)] = true;
  }
  EXPECT_TRUE(saw[0]);
  EXPECT_TRUE(saw[1]);
}

TEST(DispatcherRouting, AllShardsDownIsAnErrorNotAHang) {
  DispatcherOptions opt;
  opt.sockets = {socket_path("nobody0"), socket_path("nobody1")};
  ::unlink(opt.sockets[0].c_str());
  ::unlink(opt.sockets[1].c_str());
  Dispatcher d(opt);
  EXPECT_THROW((void)d.call(determine_line("torus", 9)), Error);

  // The campaign backend folds the same condition into a violation result
  // instead of aborting the sweep.
  runner::JobSpec job;
  job.index = 0;
  job.family = "torus";
  job.nodes = 9;
  job.seed = 1;
  const runner::JobResult r = remote_run_job(d, job, "");
  EXPECT_EQ(r.status, Outcome::kViolation);
  EXPECT_NE(r.detail.find("no cluster shard reachable"), std::string::npos);

  // With a trace dir set, a transport failure must STILL surface as a
  // violation: the local trace-capture fallback is for job-level failures
  // a shard actually reported, never a substitute for a dead cluster
  // (which would silently execute the whole campaign locally).
  const std::string trace_dir = ::testing::TempDir() + "dtop_cluster_deadtr";
  std::filesystem::remove_all(trace_dir);
  std::filesystem::create_directories(trace_dir);
  const runner::JobResult traced = remote_run_job(d, job, trace_dir);
  EXPECT_EQ(traced.status, Outcome::kViolation);
  EXPECT_NE(traced.detail.find("no cluster shard reachable"),
            std::string::npos);
  EXPECT_TRUE(traced.trace_file.empty());
}

// ------------------------ session determinism ------------------------------

// The scripted session: six distinct instances, a repeat (hit), and a
// relabelled inline twin (hit on the same shard's cache).
std::vector<std::string> session_requests() {
  const FamilyInstance fi = make_family("debruijn", 16, 1);
  std::vector<NodeId> mapping;
  const PortGraph permuted = permute_nodes_random(fi.graph, 7, &mapping);
  JsonWriter w;
  std::vector<std::string> lines = {
      determine_line("torus", 9),   determine_line("debruijn", 16),
      determine_line("dering", 8),  determine_line("torus", 16),
      determine_line("kautz", 12),  determine_line("treeloop", 15),
      determine_line("torus", 9),  // repeat: hit
      w.field("op", "determine")
          .field("graph", graph_to_string(permuted))
          .field("root", static_cast<std::uint64_t>(mapping[0]))
          .field("include_map", false)
          .str(),  // relabelled: hit
  };
  return lines;
}

TEST(DispatcherSession, ByteIdenticalAcrossShardCountsAndNoCluster) {
  const std::vector<std::string> requests = session_requests();

  const std::string stats_line = R"({"op": "stats"})";

  // Ground truth: the transport-free Service, no cluster at all.
  std::vector<std::string> direct;
  {
    ServiceOptions opt;
    opt.workers = 2;
    opt.cache_capacity = 96;
    Service svc(opt);
    for (const std::string& line : requests) direct.push_back(svc.call(line));
    direct.push_back(svc.call(stats_line));
  }

  const auto run_cluster = [&](int shards, std::size_t capacity) {
    std::vector<std::string> paths;
    for (int i = 0; i < shards; ++i) {
      paths.push_back(socket_path("sess" + std::to_string(shards) +
                                  std::to_string(i)));
      if (paths.back().size() >= 100) return std::vector<std::string>{};
    }
    InProcessCluster cluster(paths, /*workers=*/2, capacity);
    DispatcherOptions dopt;
    dopt.sockets = paths;
    Dispatcher d(dopt);
    std::vector<std::string> transcript;
    for (const std::string& line : requests) transcript.push_back(d.call(line));
    transcript.push_back(d.call(stats_line));
    return transcript;
  };

  const std::vector<std::string> one = run_cluster(1, 96);
  const std::vector<std::string> three = run_cluster(3, 32);
  if (one.empty() || three.empty()) GTEST_SKIP() << "TempDir too long";

  ASSERT_EQ(direct.size(), one.size());
  ASSERT_EQ(direct.size(), three.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(direct[i], one[i]) << "response " << i << " (1 shard)";
    EXPECT_EQ(direct[i], three[i]) << "response " << i << " (3 shards)";
  }
  // The aggregated stats line of a 1-shard cluster is byte-identical to
  // the single daemon's — this pins the dispatcher's aggregation schema to
  // Service::handle_stats (any counter drift fails here). The 3-shard
  // aggregate differs only in served.stats (the fan-out is counted once
  // per shard) and so is checked on its cache block.
  EXPECT_EQ(direct.back(), one.back());
  const std::size_t cache_at = direct.back().find("\"cache\"");
  const std::size_t served_at = direct.back().find(", \"served\"");
  ASSERT_NE(cache_at, std::string::npos);
  ASSERT_NE(served_at, std::string::npos);
  EXPECT_EQ(direct.back().substr(cache_at, served_at - cache_at),
            three.back().substr(cache_at, served_at - cache_at))
      << three.back();
  // The cache-visible tail: the repeat and the relabelled twin both hit, on
  // every topology of the cluster.
  EXPECT_NE(direct[6].find("\"cache\": \"hit\""), std::string::npos);
  EXPECT_NE(direct[7].find("\"cache\": \"hit\""), std::string::npos);
}

TEST(DispatcherFanOut, StatsAggregatesShardCounters) {
  const std::vector<std::string> paths = {socket_path("agg0"),
                                          socket_path("agg1")};
  if (paths[1].size() >= 100) GTEST_SKIP() << "TempDir too long";
  InProcessCluster cluster(paths);
  DispatcherOptions dopt;
  dopt.sockets = paths;
  Dispatcher d(dopt);

  // 4 distinct instances + 2 repeats, routed across both shards.
  const std::vector<std::string> lines = {
      determine_line("torus", 9),  determine_line("debruijn", 16),
      determine_line("dering", 8), determine_line("kautz", 12),
      determine_line("torus", 9),  determine_line("debruijn", 16),
  };
  for (const std::string& line : lines) {
    EXPECT_NE(d.call(line).find("\"ok\": true"), std::string::npos);
  }

  const std::string stats = d.call(R"({"op": "stats", "id": "agg"})");
  EXPECT_NE(stats.find("\"id\": \"agg\""), std::string::npos);
  EXPECT_NE(stats.find("\"executions\": 4"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"hits\": 2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"misses\": 4"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"determine\": 6"), std::string::npos) << stats;
  // The fan-out itself is visible once per shard in the served counters.
  EXPECT_NE(stats.find("\"stats\": 2"), std::string::npos) << stats;
  EXPECT_EQ(d.stats().fan_outs, 1u);
  EXPECT_EQ(d.stats().routed, lines.size());
}

TEST(DispatcherFanOut, ShutdownDrainsEveryShard) {
  const std::vector<std::string> paths = {socket_path("drain0"),
                                          socket_path("drain1")};
  if (paths[1].size() >= 100) GTEST_SKIP() << "TempDir too long";
  auto cluster = std::make_unique<InProcessCluster>(paths);
  DispatcherOptions dopt;
  dopt.sockets = paths;
  {
    Dispatcher d(dopt);
    EXPECT_NE(d.call(determine_line("torus", 9)).find("\"ok\": true"),
              std::string::npos);
    EXPECT_EQ(d.call(R"({"op": "shutdown"})"),
              R"({"op": "shutdown", "ok": true})");
  }
  cluster->join();  // both serve() loops return: every shard drained
  for (const std::string& path : paths) {
    EXPECT_THROW(ClientChannel reconnect(path), Error) << path;
  }
  cluster.reset();
}

// ----------------------- cluster campaign backend --------------------------

runner::CampaignSpec small_campaign() {
  runner::CampaignSpec spec;
  spec.families = {"torus", "debruijn", "kautz"};
  spec.sizes = {9, 16};
  spec.seeds = {1, 2};
  return spec;
}

std::string campaign_json(const runner::CampaignResult& result) {
  std::ostringstream os;
  runner::write_json(os, result);
  return os.str();
}

TEST(ClusterSweep, ByteIdenticalToInProcessCampaign) {
  const std::vector<std::string> paths = {socket_path("sw0"),
                                          socket_path("sw1")};
  if (paths[1].size() >= 100) GTEST_SKIP() << "TempDir too long";
  InProcessCluster cluster(paths);
  DispatcherOptions dopt;
  dopt.sockets = paths;
  Dispatcher d(dopt);

  const runner::CampaignSpec spec = small_campaign();
  const runner::CampaignResult local = runner::run_campaign(spec);

  runner::RunnerOptions ropt;
  ropt.threads = 3;
  ropt.execute = [&d](const runner::JobSpec& job, const std::string& dir) {
    return remote_run_job(d, job, dir);
  };
  const runner::CampaignResult remote = runner::run_campaign(spec, ropt);

  EXPECT_EQ(campaign_json(local), campaign_json(remote));
  EXPECT_TRUE(remote.all_ok());
}

TEST(ClusterSweep, FailedJobsCaptureTracesLocally) {
  const std::vector<std::string> paths = {socket_path("tr0"),
                                          socket_path("tr1")};
  if (paths[1].size() >= 100) GTEST_SKIP() << "TempDir too long";
  const std::string trace_dir = ::testing::TempDir() + "dtop_cluster_traces";
  std::filesystem::remove_all(trace_dir);
  std::filesystem::create_directories(trace_dir);

  runner::CampaignSpec spec;
  spec.families = {"torus"};
  spec.sizes = {9};
  spec.scenarios = {runner::make_scenario("none"),
                    runner::make_scenario("budget@50")};

  // Local reference run: captures job-1.dtrace for the strangled job.
  runner::RunnerOptions lopt;
  lopt.trace_dir = trace_dir;
  const runner::CampaignResult local = runner::run_campaign(spec, lopt);
  ASSERT_EQ(local.jobs.size(), 2u);
  ASSERT_FALSE(local.jobs[1].trace_file.empty());
  std::ifstream in(local.jobs[1].trace_file, std::ios::binary);
  std::ostringstream snapshot;
  snapshot << in.rdbuf();
  ASSERT_FALSE(snapshot.str().empty());

  // The cluster run re-captures into the same path with identical bytes,
  // and its emitted JSON (including the trace path) is byte-identical.
  InProcessCluster cluster(paths);
  DispatcherOptions dopt;
  dopt.sockets = paths;
  Dispatcher d(dopt);
  runner::RunnerOptions ropt;
  ropt.trace_dir = trace_dir;
  ropt.execute = [&d](const runner::JobSpec& job, const std::string& dir) {
    return remote_run_job(d, job, dir);
  };
  const runner::CampaignResult remote = runner::run_campaign(spec, ropt);
  EXPECT_EQ(campaign_json(local), campaign_json(remote));

  std::ifstream again(local.jobs[1].trace_file, std::ios::binary);
  std::ostringstream rebytes;
  rebytes << again.rdbuf();
  EXPECT_EQ(snapshot.str(), rebytes.str());
}

// --------------------------- kill-failover ---------------------------------

#ifdef DTOP_DTOPCTL_BIN

pid_t spawn_serve(const std::string& socket) {
  std::vector<std::string> args = {DTOP_DTOPCTL_BIN, "serve",    "--socket",
                                   socket,           "--workers", "2",
                                   "--quiet"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, DTOP_DTOPCTL_BIN, nullptr, nullptr,
                               argv.data(), environ);
  EXPECT_EQ(rc, 0) << std::strerror(rc);
  return pid;
}

void await_listening(const std::string& path) {
  for (int i = 0; i < 10000; ++i) {
    try {
      ClientChannel probe(path);
      return;
    } catch (const Error&) {
      std::this_thread::sleep_for(1ms);
    }
  }
  FAIL() << "no daemon came up on " << path;
}

TEST(ClusterKillFailover, SweepSurvivesSigkillAndMatchesSingleDaemonOutput) {
  const std::vector<std::string> paths = {socket_path("kill0"),
                                          socket_path("kill1")};
  if (paths[1].size() >= 100) GTEST_SKIP() << "TempDir too long";
  for (const std::string& path : paths) ::unlink(path.c_str());
  std::vector<pid_t> pids = {spawn_serve(paths[0]), spawn_serve(paths[1])};
  ASSERT_GT(pids[0], 0);
  ASSERT_GT(pids[1], 0);
  await_listening(paths[0]);
  await_listening(paths[1]);

  DispatcherOptions dopt;
  dopt.sockets = paths;
  Dispatcher d(dopt);

  const runner::CampaignSpec spec = small_campaign();  // 12 jobs
  const runner::CampaignResult reference = runner::run_campaign(spec);

  // Kill shard 1 with SIGKILL — no drain, no goodbye — once the first two
  // jobs have completed, i.e. genuinely mid-sweep.
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;
  std::thread killer([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done >= 2; });
    ::kill(pids[1], SIGKILL);
  });

  runner::RunnerOptions ropt;
  ropt.threads = 2;
  ropt.execute = [&d](const runner::JobSpec& job, const std::string& dir) {
    return remote_run_job(d, job, dir);
  };
  ropt.progress = [&](const runner::JobResult&, std::size_t finished,
                      std::size_t) {
    std::lock_guard<std::mutex> lock(mu);
    done = finished;
    cv.notify_all();
  };
  const runner::CampaignResult survived = runner::run_campaign(spec, ropt);
  killer.join();
  int status = 0;
  ::waitpid(pids[1], &status, 0);

  // The campaign output is byte-identical to a run that never saw a kill.
  EXPECT_EQ(campaign_json(reference), campaign_json(survived));
  EXPECT_TRUE(survived.all_ok());

  // And a request whose ring owner is the corpse deterministically fails
  // over to the survivor.
  std::string owned_by_dead;
  for (std::uint64_t seed = 1; seed <= 200 && owned_by_dead.empty(); ++seed) {
    const std::string line = determine_line("random3", 12, seed);
    if (d.owner_of(d.shard_key(line)) == 1) owned_by_dead = line;
  }
  ASSERT_FALSE(owned_by_dead.empty()) << "no key routed to the dead shard";
  const std::uint64_t failovers_before = d.stats().failovers;
  EXPECT_NE(d.call(owned_by_dead).find("\"ok\": true"), std::string::npos);
  EXPECT_GT(d.stats().failovers, failovers_before);

  // Drain the survivor through the fan-out (the dead shard is tolerated).
  EXPECT_EQ(d.call(R"({"op": "shutdown"})"),
            R"({"op": "shutdown", "ok": true})");
  ::waitpid(pids[0], &status, 0);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// Finds the pid of the `serve` child bound to `socket` by scanning
// /proc/*/cmdline (Linux is the only supported platform).
pid_t find_serve_pid(const std::string& socket) {
  for (const auto& entry : std::filesystem::directory_iterator("/proc")) {
    const std::string name = entry.path().filename();
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream cmd(entry.path() / "cmdline", std::ios::binary);
    std::ostringstream ss;
    ss << cmd.rdbuf();
    std::string cmdline = ss.str();
    std::replace(cmdline.begin(), cmdline.end(), '\0', ' ');
    if (cmdline.find("serve") != std::string::npos &&
        cmdline.find(socket) != std::string::npos) {
      return static_cast<pid_t>(std::stol(name));
    }
  }
  return -1;
}

TEST(ClusterSupervisor, RestartsCrashedShardAndDrainsOnShutdown) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "dtop_cluster_sup";
  fs::remove_all(dir);
  if ((dir + "/shard-0.sock").size() >= 100) {
    GTEST_SKIP() << "TempDir too long";
  }

  cli::ClusterOptions copt;
  copt.shards = 2;
  copt.socket_dir = dir;
  copt.workers = 2;
  copt.exe = DTOP_DTOPCTL_BIN;
  copt.quiet = true;
  const std::vector<std::string> paths = cli::cluster_socket_paths(copt);

  std::ostringstream log;
  int rc = -1;
  std::thread supervisor(
      [&] { rc = cli::cluster_command(copt, log, log); });
  await_listening(paths[0]);
  await_listening(paths[1]);

  DispatcherOptions dopt;
  dopt.sockets = paths;
  Dispatcher d(dopt);
  EXPECT_NE(d.call(determine_line("torus", 9)).find("\"cache\": \"miss\""),
            std::string::npos);

  // Murder shard 0; the babysitter must bring a fresh one back on the same
  // socket, and the cluster keeps answering throughout.
  const pid_t victim = find_serve_pid(paths[0]);
  ASSERT_GT(victim, 0);
  ::kill(victim, SIGKILL);
  for (int i = 0; i < 10000; ++i) {
    const pid_t now = find_serve_pid(paths[0]);
    if (now > 0 && now != victim) break;
    std::this_thread::sleep_for(1ms);
  }
  await_listening(paths[0]);
  EXPECT_NE(d.call(determine_line("debruijn", 16)).find("\"ok\": true"),
            std::string::npos);

  // Cluster-wide drain: both children exit 0, the supervisor follows.
  EXPECT_EQ(d.call(R"({"op": "shutdown"})"),
            R"({"op": "shutdown", "ok": true})");
  supervisor.join();
  EXPECT_EQ(rc, 0) << log.str();
}

#endif  // DTOP_DTOPCTL_BIN

}  // namespace
}  // namespace dtop::service
