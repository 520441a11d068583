// The dtopd service layer: line-JSON protocol, canonical-form result cache
// (hit/miss/coalesce/LRU), worker-count determinism, and the Unix-socket
// transport. The acceptance contract: identical responses at 1 vs 8
// workers, repeated determines served from cache without a second protocol
// run, in-flight duplicates coalescing to one execution, and LRU eviction
// respecting capacity.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <future>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/map_io.hpp"
#include "core/verify.hpp"
#include "graph/canonical.hpp"
#include "graph/families.hpp"
#include "graph/graph_io.hpp"
#include "graph/permute.hpp"
#include "service/json.hpp"
#include "service/result_cache.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "service/signals.hpp"

namespace dtop::service {
namespace {

using namespace std::chrono_literals;

// ------------------------------- json ------------------------------------

TEST(ServiceJson, ParsesFlatObject) {
  const JsonObject o = parse_json_object(
      R"({"op": "determine", "nodes": 16, "seed": 18446744073709551615, )"
      R"("deep": false, "note": "a\"b\n", "id": 7})");
  EXPECT_EQ(o.require_string("op"), "determine");
  EXPECT_EQ(o.get_u64("nodes", 0), 16u);
  // 64-bit integers survive (a double round-trip would clip above 2^53).
  EXPECT_EQ(o.get_u64("seed", 0), 18446744073709551615ull);
  EXPECT_FALSE(o.get_bool("deep", true));
  EXPECT_EQ(o.get_string("note"), "a\"b\n");
  EXPECT_EQ(o.raw_token("id"), "7");
  EXPECT_EQ(o.get_u64("absent", 42), 42u);
}

TEST(ServiceJson, RejectsNestedAndMalformed) {
  EXPECT_THROW(parse_json_object(R"({"a": {"b": 1}})"), JsonError);
  EXPECT_THROW(parse_json_object(R"({"a": [1, 2]})"), JsonError);
  EXPECT_THROW(parse_json_object(R"({"a": 1} trailing)"), JsonError);
  EXPECT_THROW(parse_json_object(R"({"a": 1, "a": 2})"), JsonError);
  EXPECT_THROW(parse_json_object(R"({"a": nope})"), JsonError);
  EXPECT_THROW(parse_json_object("not json at all"), JsonError);
}

TEST(ServiceJson, WriterEmitsOneDeterministicLine) {
  JsonWriter w;
  const std::string line = w.field("op", "stats")
                               .field("ok", true)
                               .field("n", std::uint64_t{7})
                               .field("note", "a\"b")
                               .field_raw("id", "\"x\"")
                               .str();
  EXPECT_EQ(line,
            R"({"op": "stats", "ok": true, "n": 7, "note": "a\"b", "id": "x"})");
}

// ---------------------------- result cache --------------------------------

CachedMap toy_result(const std::string& tag) {
  CachedMap m;
  m.map_text = tag;
  m.label = tag;
  return m;
}

TEST(ResultCache, HitMissCountersAndLookup) {
  ResultCache cache(4);
  std::string outcome;
  const CacheKey key{0x1234, "ratio3"};
  const CachedMap a =
      cache.get_or_compute(key, [] { return toy_result("a"); }, &outcome);
  EXPECT_EQ(outcome, "miss");
  EXPECT_EQ(a.map_text, "a");
  const CachedMap b = cache.get_or_compute(
      key, [] { return toy_result("WRONG — must not recompute"); }, &outcome);
  EXPECT_EQ(outcome, "hit");
  EXPECT_EQ(b.map_text, "a");

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.executions, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.size, 1u);
  EXPECT_TRUE(cache.lookup(key).has_value());
  EXPECT_FALSE(cache.lookup(CacheKey{0x9999, "ratio3"}).has_value());
}

TEST(ResultCache, DistinctConfigsAreDistinctKeys) {
  ResultCache cache(4);
  cache.get_or_compute({1, "ratio3"}, [] { return toy_result("r3"); });
  std::string outcome;
  const CachedMap m =
      cache.get_or_compute({1, "ratio2"}, [] { return toy_result("r2"); },
                           &outcome);
  EXPECT_EQ(outcome, "miss");
  EXPECT_EQ(m.map_text, "r2");
}

TEST(ResultCache, LruEvictionRespectsCapacity) {
  ResultCache cache(3);
  for (std::uint64_t k = 1; k <= 3; ++k) {
    cache.get_or_compute({k, "c"},
                         [k] { return toy_result(std::to_string(k)); });
  }
  // Refresh key 1's recency, then insert a fourth: key 2 (now the LRU tail)
  // must be the one evicted.
  EXPECT_TRUE(cache.lookup({1, "c"}).has_value());
  cache.get_or_compute({4, "c"}, [] { return toy_result("4"); });

  CacheStats s = cache.stats();
  EXPECT_EQ(s.size, 3u);
  EXPECT_EQ(s.capacity, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_TRUE(cache.lookup({1, "c"}).has_value());
  EXPECT_FALSE(cache.lookup({2, "c"}).has_value());
  EXPECT_TRUE(cache.lookup({3, "c"}).has_value());
  EXPECT_TRUE(cache.lookup({4, "c"}).has_value());
  // The lookup miss on key 2 is not a counted miss (only computes are).
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(ResultCache, CoalescesInFlightDuplicates) {
  ResultCache cache(4);
  const CacheKey key{77, "ratio3"};
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_f = release.get_future().share();
  std::atomic<int> executions{0};

  const auto compute = [&] {
    ++executions;
    entered.set_value();
    release_f.wait();
    return toy_result("shared");
  };

  std::string outcome_a;
  std::thread a([&] { cache.get_or_compute(key, compute, &outcome_a); });
  entered.get_future().wait();  // compute() is now in flight

  std::string outcome_b, outcome_c;
  std::thread b([&] { cache.get_or_compute(key, compute, &outcome_b); });
  std::thread c([&] { cache.get_or_compute(key, compute, &outcome_c); });

  // Wait until both duplicates registered as coalesced waiters, then let
  // the single execution finish.
  for (int i = 0; i < 1000 && cache.stats().coalesced < 2; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(cache.stats().coalesced, 2u);
  release.set_value();
  a.join();
  b.join();
  c.join();

  EXPECT_EQ(executions.load(), 1);
  EXPECT_EQ(outcome_a, "miss");
  EXPECT_EQ(outcome_b, "coalesced");
  EXPECT_EQ(outcome_c, "coalesced");
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.executions, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.coalesced, 2u);
  EXPECT_EQ(s.size, 1u);
}

TEST(ResultCache, FlightDiscriminatorPreventsFailureInheritance) {
  // A determine strangled by a tiny tick budget must not capture a
  // generously-budgeted twin into its in-flight failure: the budget is
  // part of the coalescing identity (but not of the completed-entry key).
  ResultCache cache(4);
  const CacheKey key{55, "ratio3"};
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_f = release.get_future().share();

  std::atomic<bool> strangled_failed{false};
  std::thread strangled([&] {
    try {
      cache.get_or_compute(
          key,
          [&]() -> CachedMap {
            entered.set_value();
            release_f.wait();
            throw Error("tick budget exhausted");
          },
          nullptr, /*flight_discriminator=*/5);
    } catch (const Error&) {
      strangled_failed = true;
    }
  });
  entered.get_future().wait();  // the strangled run is now in flight

  std::string outcome;
  const CachedMap ok = cache.get_or_compute(
      key, [] { return toy_result("ok"); }, &outcome,
      /*flight_discriminator=*/0);
  EXPECT_EQ(outcome, "miss");  // ran independently, did not coalesce
  EXPECT_EQ(ok.map_text, "ok");

  release.set_value();
  strangled.join();
  EXPECT_TRUE(strangled_failed.load());

  // The success is cached under the budget-free key; the failed twin
  // contributed nothing. A later request with yet another budget hits.
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.size, 1u);
  EXPECT_EQ(s.inserts, 1u);
  std::string later;
  cache.get_or_compute(key, [] { return toy_result("unused"); }, &later, 7);
  EXPECT_EQ(later, "hit");
}

TEST(ResultCache, ConcurrentSuccessesUnderDistinctBudgetsStoreOneEntry) {
  ResultCache cache(4);
  const CacheKey key{66, "ratio3"};
  std::promise<void> entered_a, entered_b, release;
  std::shared_future<void> release_f = release.get_future().share();
  const auto compute = [&](std::promise<void>& entered) {
    return [&] {
      entered.set_value();
      release_f.wait();
      return toy_result("same");
    };
  };
  std::thread a([&] { cache.get_or_compute(key, compute(entered_a), nullptr, 1); });
  std::thread b([&] { cache.get_or_compute(key, compute(entered_b), nullptr, 2); });
  entered_a.get_future().wait();
  entered_b.get_future().wait();  // both in flight for the same key
  release.set_value();
  a.join();
  b.join();
  // Deterministic runs produce identical values: one entry, no duplicate.
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.size, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.executions, 2u);
  EXPECT_TRUE(cache.lookup(key).has_value());
}

TEST(ResultCache, ComputeFailureReachesEveryWaiterAndCachesNothing) {
  ResultCache cache(4);
  const CacheKey key{88, "ratio3"};
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_f = release.get_future().share();

  std::atomic<int> failures{0};
  const auto attempt = [&] {
    try {
      cache.get_or_compute(key, [&]() -> CachedMap {
        entered.set_value();
        release_f.wait();
        throw Error("protocol violation");
      });
    } catch (const Error&) {
      ++failures;
    }
  };
  std::thread a(attempt);
  entered.get_future().wait();
  std::thread b([&] {
    try {
      cache.get_or_compute(key, [] { return toy_result("unused"); });
    } catch (const Error&) {
      ++failures;
    }
  });
  for (int i = 0; i < 1000 && cache.stats().coalesced < 1; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  release.set_value();
  a.join();
  b.join();

  EXPECT_EQ(failures.load(), 2);
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.stats().inserts, 0u);
  // The key is retryable after the failure (fresh miss, not a poisoned
  // entry).
  std::string outcome;
  cache.get_or_compute(key, [] { return toy_result("retry"); }, &outcome);
  EXPECT_EQ(outcome, "miss");
}

// ------------------------- service: determinism ---------------------------

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

// One scripted session per worker count: a batch of distinct requests
// submitted together (exercises the queue), then a sequential tail with a
// repeat and a stats call (exercises cache-state-dependent fields).
std::vector<std::string> session_transcript(int workers) {
  ServiceOptions opt;
  opt.workers = workers;
  Service svc(opt);

  const std::vector<std::string> batch = {
      determine_line("torus", 9),    determine_line("debruijn", 16),
      determine_line("dering", 8),   determine_line("torus", 16),
      determine_line("kautz", 12),   determine_line("treeloop", 15),
  };
  std::vector<std::uint64_t> tickets;
  for (const std::string& line : batch) tickets.push_back(svc.submit(line));

  std::vector<std::string> transcript;
  for (const std::uint64_t t : tickets) transcript.push_back(svc.wait(t));
  transcript.push_back(svc.call(determine_line("torus", 9)));  // repeat: hit
  transcript.push_back(svc.call(R"({"op": "stats", "id": "s1"})"));
  return transcript;
}

TEST(ServiceDeterminism, ResponsesByteIdenticalAt1And8Workers) {
  const std::vector<std::string> one = session_transcript(1);
  const std::vector<std::string> eight = session_transcript(8);
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i], eight[i]) << "response " << i;
  }
  // Spot-check the cache-state-dependent tail: the repeat is a hit and the
  // stats line saw exactly one hit and six executions.
  EXPECT_NE(one[6].find("\"cache\": \"hit\""), std::string::npos);
  EXPECT_NE(one[7].find("\"hits\": 1"), std::string::npos);
  EXPECT_NE(one[7].find("\"executions\": 6"), std::string::npos);
}

// ------------------------- service: cache behaviour -----------------------

TEST(ServiceCache, RepeatedDetermineIsServedFromCache) {
  Service svc(ServiceOptions{});
  const std::string first = svc.call(determine_line("torus", 9));
  const std::string second = svc.call(determine_line("torus", 9));
  EXPECT_NE(first.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(first.find("\"cache\": \"miss\""), std::string::npos);
  EXPECT_NE(second.find("\"cache\": \"hit\""), std::string::npos);

  // Apart from the cache field the responses are byte-identical — the hit
  // replays the stored result, it does not re-run the protocol.
  std::string expected = first;
  const std::size_t at = expected.find("\"cache\": \"miss\"");
  expected.replace(at, std::string("\"cache\": \"miss\"").size(),
                   "\"cache\": \"hit\"");
  EXPECT_EQ(second, expected);

  const CacheStats s = svc.cache_stats();
  EXPECT_EQ(s.executions, 1u);  // one protocol run served both requests
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
}

TEST(ServiceCache, RelabelledNetworkHitsTheSameEntry) {
  // The cache key is the rooted canonical form: a relabelled instance of an
  // already-solved network — submitted as an inline graph — must hit, and
  // the cached (canonical) map must verify against the relabelled truth.
  const FamilyInstance fi = make_family("debruijn", 16, 1);
  std::vector<NodeId> mapping;
  const PortGraph permuted = permute_nodes_random(fi.graph, 99, &mapping);

  Service svc(ServiceOptions{});
  const std::string miss = svc.call(determine_line("debruijn", 16));
  EXPECT_NE(miss.find("\"cache\": \"miss\""), std::string::npos);

  JsonWriter w;
  const std::string req = w.field("op", "determine")
                              .field("graph", graph_to_string(permuted))
                              .field("root", static_cast<std::uint64_t>(mapping[0]))
                              .str();
  const std::string hit = svc.call(req);
  EXPECT_NE(hit.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(hit.find("\"cache\": \"hit\""), std::string::npos);

  // determine responses are flat JSON; pull the map out and verify it
  // against the permuted ground truth.
  const JsonObject resp = parse_json_object(hit);
  const TopologyMap map = map_from_string(resp.require_string("map"));
  EXPECT_TRUE(verify_map(permuted, mapping[0], map).ok);
  EXPECT_EQ(svc.cache_stats().executions, 1u);
}

TEST(ServiceCache, EvictionAtCapacityForcesRecompute) {
  ServiceOptions opt;
  opt.cache_capacity = 1;
  Service svc(opt);
  svc.call(determine_line("torus", 9));
  svc.call(determine_line("dering", 8));  // evicts the torus entry
  const std::string again = svc.call(determine_line("torus", 9));
  EXPECT_NE(again.find("\"cache\": \"miss\""), std::string::npos);
  const CacheStats s = svc.cache_stats();
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.executions, 3u);
  EXPECT_EQ(s.size, 1u);
}

// --------------------------- service: protocol ----------------------------

TEST(ServiceProtocol, VerifyOpChecksARecoveredMap) {
  Service svc(ServiceOptions{});
  const JsonObject det = parse_json_object(svc.call(
      R"({"op": "determine", "family": "torus", "nodes": 9})"));
  ASSERT_TRUE(det.get_bool("ok", false));
  JsonWriter w;
  const std::string ok_resp = svc.call(w.field("op", "verify")
                                           .field("family", "torus")
                                           .field("nodes", std::uint64_t{9})
                                           .field("map", det.require_string("map"))
                                           .str());
  EXPECT_NE(ok_resp.find("\"ok\": true"), std::string::npos);

  // The same map against a different network must report a mismatch.
  JsonWriter w2;
  const std::string bad_resp = svc.call(w2.field("op", "verify")
                                            .field("family", "dering")
                                            .field("nodes", std::uint64_t{8})
                                            .field("map", det.require_string("map"))
                                            .str());
  EXPECT_NE(bad_resp.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(bad_resp.find("\"detail\""), std::string::npos);
}

TEST(ServiceProtocol, SweepOpRunsACampaign) {
  Service svc(ServiceOptions{});
  const std::string resp = svc.call(
      R"({"op": "sweep", "families": "torus", "sizes": "9", "seeds": "1,2"})");
  EXPECT_NE(resp.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(resp.find("\"jobs\": 2"), std::string::npos);
  EXPECT_NE(resp.find("\"exact\": 2"), std::string::npos);
  EXPECT_NE(resp.find("\"status\": \"exact\""), std::string::npos);
}

TEST(ServiceProtocol, ErrorsAreStructuredResponses) {
  Service svc(ServiceOptions{});
  EXPECT_NE(svc.call("not json").find("\"ok\": false"), std::string::npos);
  EXPECT_NE(svc.call(R"({"op": "frobnicate"})").find("unknown op"),
            std::string::npos);
  EXPECT_NE(svc.call(R"({"op": "determine"})").find("\"ok\": false"),
            std::string::npos);
  // Echoed id on errors too.
  EXPECT_NE(svc.call(R"({"id": 42, "op": "nope"})").find("\"id\": 42"),
            std::string::npos);
  // A determine on a root out of range fails cleanly.
  EXPECT_NE(
      svc.call(R"({"op": "determine", "family": "torus", "nodes": 9, "root": 99})")
          .find("out of range"),
      std::string::npos);
}

TEST(ServiceLifecycle, ShutdownFlagsAndDrains) {
  Service svc(ServiceOptions{});
  EXPECT_FALSE(svc.shutdown_requested());
  EXPECT_NE(svc.call(R"({"op": "shutdown"})").find("\"ok\": true"),
            std::string::npos);
  EXPECT_TRUE(svc.shutdown_requested());
  svc.stop();
  // Submitting after the drain yields a structured refusal, not a hang.
  const std::uint64_t t = svc.submit(determine_line("torus", 9));
  EXPECT_NE(svc.wait(t).find("shutting down"), std::string::npos);
}

// ------------------------------ transport ---------------------------------

std::string socket_path(const std::string& name) {
  return ::testing::TempDir() + "dtopd_" + name + ".sock";
}

TEST(ServerSocket, EndToEndSessionCacheHitAndShutdown) {
  const std::string path = socket_path("e2e");
  if (path.size() >= 100) GTEST_SKIP() << "TempDir too long for AF_UNIX";
  ::unlink(path.c_str());

  ServerOptions opt;
  opt.socket_path = path;
  opt.service.workers = 2;
  opt.quiet = true;
  Server server(opt);
  std::ostringstream log;
  std::thread daemon([&] { server.serve(log); });

  // Wait for the listener.
  for (int i = 0; i < 2000; ++i) {
    try {
      ClientChannel probe(path);
      break;
    } catch (const Error&) {
      std::this_thread::sleep_for(1ms);
    }
  }

  ClientChannel client(path);
  client.send(determine_line("torus", 9));
  client.send(determine_line("torus", 9));
  client.send(R"({"op": "stats"})");
  const std::optional<std::string> r1 = client.recv();
  const std::optional<std::string> r2 = client.recv();
  const std::optional<std::string> r3 = client.recv();
  ASSERT_TRUE(r1 && r2 && r3);
  EXPECT_NE(r1->find("\"ok\": true"), std::string::npos);
  EXPECT_NE(r2->find("\"ok\": true"), std::string::npos);
  // With 2 workers either pipelined identical determine can reach the
  // cache first: exactly one of them runs the protocol (miss), the other
  // is answered from the cache (hit) or joins the run in flight
  // (coalesced); the stats line confirms a single protocol run.
  const auto has = [](const std::string& r, const char* outcome) {
    return r.find(std::string("\"cache\": \"") + outcome + "\"") !=
           std::string::npos;
  };
  const auto reused = [&](const std::string& r) {
    return has(r, "hit") || has(r, "coalesced");
  };
  EXPECT_TRUE((has(*r1, "miss") && reused(*r2)) ||
              (reused(*r1) && has(*r2, "miss")))
      << *r1 << "\n" << *r2;
  EXPECT_NE(r3->find("\"executions\": 1"), std::string::npos) << *r3;

  client.send(R"({"op": "shutdown"})");
  const std::optional<std::string> r4 = client.recv();
  ASSERT_TRUE(r4);
  EXPECT_NE(r4->find("\"ok\": true"), std::string::npos);
  daemon.join();
  // The address is released on drain.
  EXPECT_THROW(ClientChannel reconnect(path), Error);
}

TEST(ServerSocket, SurvivesClientVanishingBeforeItsResponse) {
  // A peer that hangs up before reading its response must cost the daemon
  // nothing: no SIGPIPE death, no leaked pending response. Regression test
  // for the write path using send(MSG_NOSIGNAL) + always-reaped tickets.
  const std::string path = socket_path("gone");
  if (path.size() >= 100) GTEST_SKIP() << "TempDir too long for AF_UNIX";
  ::unlink(path.c_str());

  ServerOptions opt;
  opt.socket_path = path;
  opt.quiet = true;
  Server server(opt);
  std::ostringstream log;
  std::thread daemon([&] { server.serve(log); });
  for (int i = 0; i < 2000; ++i) {
    try {
      ClientChannel probe(path);
      break;
    } catch (const Error&) {
      std::this_thread::sleep_for(1ms);
    }
  }

  {
    ClientChannel rude(path);
    rude.send(determine_line("torus", 9));
    // Destructor closes the socket without reading the response.
  }

  // The daemon is still alive and serving; the rude client's run even
  // warmed the cache for us.
  std::string second;
  for (int i = 0; i < 5000; ++i) {
    ClientChannel polite(path);
    polite.send(determine_line("torus", 9));
    const std::optional<std::string> resp = polite.recv();
    ASSERT_TRUE(resp);
    second = *resp;
    if (second.find("\"cache\": \"hit\"") != std::string::npos) break;
    std::this_thread::sleep_for(1ms);  // abandoned run still in flight
  }
  EXPECT_NE(second.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(second.find("\"cache\": \"hit\""), std::string::npos);

  ClientChannel stopper(path);
  stopper.send(R"({"op": "shutdown"})");
  EXPECT_TRUE(stopper.recv().has_value());
  daemon.join();
}

TEST(ServerSocket, ExternalStopFlagDrainsWithoutShutdownRequest) {
  const std::string path = socket_path("stop");
  if (path.size() >= 100) GTEST_SKIP() << "TempDir too long for AF_UNIX";
  ::unlink(path.c_str());

  std::atomic<bool> stop{false};
  ServerOptions opt;
  opt.socket_path = path;
  opt.quiet = true;
  opt.stop = &stop;
  Server server(opt);
  std::ostringstream log;
  std::thread daemon([&] { server.serve(log); });
  std::this_thread::sleep_for(50ms);
  stop.store(true);
  daemon.join();  // returns within the poll interval: the flag is honoured
  SUCCEED();
}

TEST(Signals, GuardCapturesSigintAndRestores) {
  SignalGuard::reset();
  {
    SignalGuard guard;
    EXPECT_FALSE(guard.triggered());
    ::raise(SIGINT);  // the handler only sets the flag — safe in-process
    EXPECT_TRUE(guard.triggered());
    EXPECT_EQ(SignalGuard::exit_code(), 130);
    EXPECT_TRUE(&SignalGuard::flag() == &SignalGuard::flag());
  }
  SignalGuard::reset();
  EXPECT_FALSE(SignalGuard::flag().load());
}

}  // namespace
}  // namespace dtop::service
