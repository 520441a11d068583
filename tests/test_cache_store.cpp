// The persistent cache tier (src/service/cache_store.*): durability under
// every mangling a crash or an operator can inflict. The contract under
// test is absolute: load() never throws on file *content* — truncations,
// flipped bytes, foreign files, future versions all degrade to "keep the
// intact prefix, warn, carry on" — and a SIGKILL anywhere inside append()
// leaves a file the next daemon both loads and safely extends.
#include <gtest/gtest.h>

#include <csignal>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "service/cache_store.hpp"
#include "service/result_cache.hpp"
#include "service/service.hpp"
#include "support/rng.hpp"

namespace dtop::service {
namespace {

std::string store_path(const std::string& name) {
  return ::testing::TempDir() + "dtop_store_" + name + ".cache";
}

CachedMap sample_value(int i) {
  CachedMap m;
  m.map_text = "dtop-map v1 payload " + std::string(40 + i, 'm');
  m.label = "torus-" + std::to_string(i);
  m.n = static_cast<NodeId>(9 + i);
  m.d = 4;
  m.e = static_cast<std::uint32_t>(18 + i);
  m.ticks = 120 + i;
  m.messages = 400u + static_cast<std::uint64_t>(i);
  m.node_steps = 900u + static_cast<std::uint64_t>(i);
  return m;
}

CacheKey sample_key(int i) {
  return CacheKey{0x1000u + static_cast<std::uint64_t>(i), "ratio3"};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Writes a fresh store with `n` sample records and returns its bytes.
std::string build_store(const std::string& path, int n) {
  ::unlink(path.c_str());
  std::ostringstream warn;
  {
    CacheStore store(path, warn);
    for (int i = 0; i < n; ++i) store.append(sample_key(i), sample_value(i));
  }
  EXPECT_EQ(warn.str(), "");
  return read_file(path);
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

struct Loaded {
  std::vector<std::pair<CacheKey, CachedMap>> records;
  std::size_t count = 0;
  std::string warnings;
};

Loaded load_all(const std::string& path) {
  Loaded l;
  std::ostringstream warn;
  l.count = CacheStore::load(
      path,
      [&](CacheKey k, CachedMap v) {
        l.records.emplace_back(std::move(k), std::move(v));
      },
      warn);
  l.warnings = warn.str();
  return l;
}

TEST(CacheStore, RoundTripsEveryFieldAcrossARestart) {
  const std::string path = store_path("roundtrip");
  build_store(path, 3);

  const Loaded l = load_all(path);
  EXPECT_EQ(l.warnings, "");
  ASSERT_EQ(l.count, 3u);
  for (int i = 0; i < 3; ++i) {
    const auto& [key, value] = l.records[static_cast<std::size_t>(i)];
    const CachedMap want = sample_value(i);
    EXPECT_EQ(key.graph_hash, sample_key(i).graph_hash);
    EXPECT_EQ(key.config, "ratio3");
    EXPECT_EQ(value.map_text, want.map_text);
    EXPECT_EQ(value.label, want.label);
    EXPECT_EQ(value.n, want.n);
    EXPECT_EQ(value.d, want.d);
    EXPECT_EQ(value.e, want.e);
    EXPECT_EQ(value.ticks, want.ticks);
    EXPECT_EQ(value.messages, want.messages);
    EXPECT_EQ(value.node_steps, want.node_steps);
  }

  // Reopening for append keeps the old records and adds the new one.
  std::ostringstream warn;
  {
    CacheStore store(path, warn);
    store.append(sample_key(3), sample_value(3));
  }
  EXPECT_EQ(warn.str(), "");
  EXPECT_EQ(load_all(path).count, 4u);
  ::unlink(path.c_str());
}

TEST(CacheStore, MissingFileIsACleanColdStart) {
  const std::string path = store_path("never_written");
  ::unlink(path.c_str());
  const Loaded l = load_all(path);
  EXPECT_EQ(l.count, 0u);
  EXPECT_EQ(l.warnings, "");  // absence is normal, not a warning
}

TEST(CacheStore, EveryTruncationLoadsTheIntactPrefixWithoutThrowing) {
  const std::string path = store_path("trunc_src");
  const std::string full = build_store(path, 3);
  const Loaded complete = load_all(path);
  ASSERT_EQ(complete.count, 3u);

  const std::string cut_path = store_path("trunc_cut");
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    write_file(cut_path, full.substr(0, cut));
    const Loaded l = load_all(cut_path);  // must never throw
    EXPECT_LE(l.count, 3u);
    // Whatever loaded is an exact prefix of the uncut store's records.
    for (std::size_t i = 0; i < l.count; ++i) {
      EXPECT_EQ(l.records[i].first.graph_hash,
                complete.records[i].first.graph_hash);
      EXPECT_EQ(l.records[i].second.map_text,
                complete.records[i].second.map_text);
    }
    // A cut inside the record region (not on a boundary) must be called out.
    if (cut > full.size() - 10) {
      EXPECT_NE(l.warnings.find("truncated record"), std::string::npos);
    }
  }
  ::unlink(path.c_str());
  ::unlink(cut_path.c_str());
}

TEST(CacheStore, FlippedBytesAreDetectedAndThePrefixKept) {
  const std::string path = store_path("corrupt_src");
  const std::string full = build_store(path, 3);
  const Loaded complete = load_all(path);
  ASSERT_EQ(complete.count, 3u);

  // Flip one byte at a spread of offsets past the header: the checksum (or
  // the framing bound) must catch every one — corruption never loads as a
  // record with different bytes, and the prefix before the damage stays.
  const std::string flip_path = store_path("corrupt_flip");
  Rng rng(0xc0ffee);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    const std::size_t at =
        12 + static_cast<std::size_t>(rng.next_below(full.size() - 12));
    std::string mangled = full;
    mangled[at] = static_cast<char>(mangled[at] ^ 0x5a);
    write_file(flip_path, mangled);
    const Loaded l = load_all(flip_path);  // must never throw
    EXPECT_LE(l.count, 3u);
    for (std::size_t i = 0; i < l.count; ++i) {
      EXPECT_EQ(l.records[i].second.map_text,
                complete.records[i].second.map_text)
          << "a flipped byte must never alter a loaded record";
    }
    if (l.count < 3) {
      EXPECT_TRUE(l.warnings.find("corrupt record") != std::string::npos ||
                  l.warnings.find("truncated record") != std::string::npos)
          << l.warnings;
    }
  }
  ::unlink(path.c_str());
  ::unlink(flip_path.c_str());
}

TEST(CacheStore, ForeignFileIsSkippedAndNeverAppendedTo) {
  const std::string path = store_path("foreign");
  write_file(path, "#!/bin/sh\necho this is not a cache store\n");
  const std::string original = "#!/bin/sh\necho this is not a cache store\n";

  const Loaded l = load_all(path);
  EXPECT_EQ(l.count, 0u);
  EXPECT_NE(l.warnings.find("is not a dtop cache store"), std::string::npos);

  // The append side refuses the file and leaves its bytes untouched — a
  // mistyped --cache-store pointing at a real file must never be damaged.
  std::ostringstream warn;
  CacheStore store(path, warn);
  EXPECT_TRUE(store.disabled());
  EXPECT_NE(warn.str().find("unknown header"), std::string::npos);
  store.append(sample_key(0), sample_value(0));  // silent no-op
  std::ifstream in(path, std::ios::binary);
  const std::string after((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(after, original);
  ::unlink(path.c_str());
}

TEST(CacheStore, FutureVersionIsSkippedWithAWarning) {
  const std::string path = store_path("vnext");
  const std::uint32_t next = kCacheStoreVersion + 1;
  std::string bytes(kCacheStoreMagic, sizeof(kCacheStoreMagic));
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<char>(next >> (8 * i)));  // little-endian
  }
  bytes += encode_cache_record(sample_key(0), sample_value(0));
  write_file(path, bytes);

  const Loaded l = load_all(path);
  EXPECT_EQ(l.count, 0u);
  EXPECT_NE(l.warnings.find("has version " + std::to_string(next)),
            std::string::npos);

  std::ostringstream warn;
  CacheStore store(path, warn);
  EXPECT_TRUE(store.disabled());
  ::unlink(path.c_str());
}

TEST(CacheStore, V1StoreIsSkippedAndLeftUntouched) {
  // A two-record store written by the version-1 CacheStore (fixed-width
  // records). There is no migration: a cache can always be rebuilt, so the
  // old file is skipped and kept byte for byte until the operator deletes
  // it.
  const std::string original =
      read_file(DTOP_TEST_DATA_DIR "/store-v1.dtopcst");
  ASSERT_FALSE(original.empty());
  const std::string path = store_path("v1");
  write_file(path, original);

  const Loaded l = load_all(path);
  EXPECT_EQ(l.count, 0u);
  EXPECT_NE(l.warnings.find("has version 1"), std::string::npos)
      << l.warnings;

  std::ostringstream warn;
  {
    CacheStore store(path, warn);
    EXPECT_TRUE(store.disabled());
    store.append(sample_key(0), sample_value(0));  // silent no-op
  }
  EXPECT_NE(warn.str().find("unknown header"), std::string::npos);
  EXPECT_EQ(read_file(path), original);
  ::unlink(path.c_str());
}

TEST(CacheStore, TornTailIsTruncatedOnReopenSoNewAppendsStayLoadable) {
  // The double-crash scenario: a SIGKILL tears the tail, the restarted
  // daemon appends more records, then restarts again. Without tail
  // truncation at reopen the post-crash records would sit beyond the torn
  // bytes where no load() ever reaches them.
  const std::string path = store_path("torntail");
  const std::string full = build_store(path, 2);
  write_file(path, full + full.substr(full.size() - 7));  // 7 torn bytes

  std::ostringstream warn;
  {
    CacheStore store(path, warn);
    store.append(sample_key(7), sample_value(7));
  }
  EXPECT_NE(warn.str().find("torn tail"), std::string::npos);

  const Loaded l = load_all(path);
  EXPECT_EQ(l.warnings, "");  // the reopen healed the file
  ASSERT_EQ(l.count, 3u);
  EXPECT_EQ(l.records[2].second.label, sample_value(7).label);
  ::unlink(path.c_str());
}

TEST(CacheStore, SigkillMidAppendLeavesALoadableFile) {
  // A real SIGKILL, not a simulation: a forked child appends records as
  // fast as it can until the parent kills it dead. Whatever the file looks
  // like afterwards, it must load (possibly short, never throwing) and a
  // reopened store must extend it successfully.
  const std::string path = store_path("sigkill");
  ::unlink(path.c_str());

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: append forever; the value is large enough that a kill has a
    // real chance of landing inside a write.
    std::ostringstream sink;
    CacheStore store(path, sink);
    CachedMap big = sample_value(0);
    big.map_text.assign(1 << 16, 'x');
    for (std::uint64_t i = 0;; ++i) {
      store.append(CacheKey{i, "ratio3"}, big);
    }
  }

  // Parent: let the child write for a moment, then kill it mid-flight.
  ::usleep(30 * 1000);
  ::kill(child, SIGKILL);
  int status = 0;
  ::waitpid(child, &status, 0);
  ASSERT_TRUE(WIFSIGNALED(status));

  const Loaded l = load_all(path);  // must never throw, count is whatever
  for (std::size_t i = 0; i < l.count; ++i) {
    EXPECT_EQ(l.records[i].first.graph_hash, static_cast<std::uint64_t>(i));
  }

  // The next daemon generation opens, heals any torn tail, and extends.
  std::ostringstream warn;
  {
    CacheStore store(path, warn);
    EXPECT_FALSE(store.disabled());
    store.append(CacheKey{999999, "ratio3"}, sample_value(1));
  }
  const Loaded after = load_all(path);
  EXPECT_EQ(after.warnings, "");
  ASSERT_GE(after.count, 1u);
  EXPECT_EQ(after.records.back().first.graph_hash, 999999u);
  EXPECT_GE(after.count, l.count);
  ::unlink(path.c_str());
}

TEST(ServiceWarmStart, ReplaysTheStoreIntoTheCacheOnConstruction) {
  // The service-level integration: a Service with a cache_store replays the
  // file into its LRU before opening for append (replayed records must not
  // be re-appended), and the first repeat request is a hit.
  const std::string path = store_path("svc_warm");
  ::unlink(path.c_str());
  std::ostringstream warn;

  std::string miss;
  {
    ServiceOptions opt;
    opt.cache_store = path;
    opt.warn = &warn;
    Service svc(opt);
    EXPECT_EQ(svc.warm_loaded(), 0u);
    miss = svc.call(
        R"({"op": "determine", "family": "torus", "nodes": 9, "include_map": false})");
    ASSERT_NE(miss.find("\"cache\": \"miss\""), std::string::npos);
    svc.stop();
  }
  const std::size_t after_first = load_all(path).count;
  EXPECT_EQ(after_first, 1u);

  {
    ServiceOptions opt;
    opt.cache_store = path;
    opt.warn = &warn;
    Service svc(opt);
    EXPECT_EQ(svc.warm_loaded(), 1u);
    const std::string hit = svc.call(
        R"({"op": "determine", "family": "torus", "nodes": 9, "include_map": false})");
    EXPECT_NE(hit.find("\"cache\": \"hit\""), std::string::npos) << hit;
    svc.stop();
  }
  // The warm replay itself appended nothing: still exactly one record.
  EXPECT_EQ(load_all(path).count, 1u);
  EXPECT_EQ(warn.str(), "");
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace dtop::service
