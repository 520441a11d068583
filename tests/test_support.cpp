// Unit tests for src/support: fixed containers, RNG, statistics, tables,
// the persistent thread pool, the affinity helper, and the byte-level frame
// module (hash, varints, checksummed frames).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string_view>

#include "graph/canonical.hpp"
#include "graph/families.hpp"
#include "support/affinity.hpp"
#include "support/error.hpp"
#include "support/fixed_vector.hpp"
#include "support/frame.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace dtop {
namespace {

TEST(FixedVector, PushPopIndex) {
  FixedVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  v.push_back(1);
  v.push_back(2);
  v.push_back(3);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v.back(), 3);
  v.pop_back();
  EXPECT_EQ(v.size(), 2u);
}

TEST(FixedVector, OverflowThrows) {
  FixedVector<int, 2> v;
  v.push_back(1);
  v.push_back(2);
  EXPECT_TRUE(v.full());
  EXPECT_THROW(v.push_back(3), Error);
}

TEST(FixedVector, EraseAtPreservesOrder) {
  FixedVector<int, 8> v;
  for (int i = 0; i < 5; ++i) v.push_back(i);
  v.erase_at(1);
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], 0);
  EXPECT_EQ(v[1], 2);
  EXPECT_EQ(v[3], 4);
}

TEST(FixedVector, IndexOutOfRangeThrows) {
  FixedVector<int, 4> v;
  v.push_back(7);
  EXPECT_THROW(v[1], Error);
  EXPECT_THROW(v.erase_at(2), Error);
}

TEST(FixedQueue, FifoOrder) {
  FixedQueue<int, 4> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.front(), 1);
  q.pop();
  q.push(4);
  EXPECT_EQ(q.front(), 2);
  EXPECT_EQ(q.at(2), 4);
  q.pop();
  q.pop();
  EXPECT_EQ(q.front(), 4);
}

TEST(FixedQueue, WrapsAround) {
  FixedQueue<int, 3> q;
  for (int round = 0; round < 10; ++round) {
    q.push(round);
    EXPECT_EQ(q.front(), round);
    q.pop();
  }
  EXPECT_TRUE(q.empty());
}

TEST(FixedQueue, OverflowUnderflowThrow) {
  FixedQueue<int, 2> q;
  EXPECT_THROW(q.pop(), Error);
  q.push(1);
  q.push(2);
  EXPECT_THROW(q.push(3), Error);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_below(13);
    EXPECT_LT(v, 13u);
  }
  EXPECT_THROW(rng.next_below(0), Error);
}

TEST(Rng, NextBelowRoughlyUniform) {
  Rng rng(11);
  int counts[4] = {0, 0, 0, 0};
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.next_below(4)];
  for (int c : counts) {
    EXPECT_GT(c, n / 4 - n / 20);
    EXPECT_LT(c, n / 4 + n / 20);
  }
}

TEST(Rng, ShufflePermutes) {
  Rng rng(3);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::vector<int> sorted = w;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, v);
}

TEST(Rng, SplitIndependent) {
  Rng a(5);
  Rng b = a.split();
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Accumulator, Moments) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Samples, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
}

TEST(Stats, LinearFitExact) {
  std::vector<double> x{1, 2, 3, 4}, y{5, 7, 9, 11};  // y = 2x + 3
  const LinearFit f = fit_linear(x, y);
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.intercept, 3.0, 1e-12);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Stats, ProportionalFit) {
  std::vector<double> x{1, 2, 3}, y{3.1, 5.9, 9.0};
  const LinearFit f = fit_proportional(x, y);
  EXPECT_NEAR(f.slope, 3.0, 0.05);
  EXPECT_GT(f.r2, 0.99);
}

TEST(Stats, PowerLawFit) {
  std::vector<double> x{2, 4, 8, 16}, y;
  for (double v : x) y.push_back(5.0 * v * v);  // y = 5 x^2
  const LinearFit f = fit_power_law(x, y);
  EXPECT_NEAR(f.slope, 2.0, 1e-9);
  EXPECT_NEAR(f.intercept, 5.0, 1e-6);
}

TEST(Stats, Log2Factorial) {
  EXPECT_DOUBLE_EQ(log2_factorial(0), 0.0);
  EXPECT_DOUBLE_EQ(log2_factorial(1), 0.0);
  EXPECT_NEAR(log2_factorial(5), std::log2(120.0), 1e-9);
  EXPECT_NEAR(log2_factorial(20),
              std::log2(2432902008176640000.0), 1e-6);
}

TEST(Table, RendersAligned) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(std::int64_t{42});
  t.row().cell("b").cell(3.14159, 2);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
  EXPECT_NE(s.find("| name"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Error, CheckMacroThrowsWithContext) {
  try {
    DTOP_CHECK(1 == 2, "context message");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context message"),
              std::string::npos);
  }
}

TEST(ThreadPool, EveryWorkerRunsEachDispatch) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> hits{0};
  std::atomic<int> mask{0};
  pool.run([&](int t) {
    hits.fetch_add(1);
    mask.fetch_or(1 << t);
  });
  EXPECT_EQ(hits.load(), 4);
  EXPECT_EQ(mask.load(), 0b1111);
}

TEST(ThreadPool, ManySmallDispatchesStress) {
  // 20k back-to-back barrier crossings: a lost wakeup anywhere in the
  // dispatch/join protocol shows up here as a hang.
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  for (int i = 0; i < 20000; ++i) {
    pool.run([&](int t) { sum.fetch_add(static_cast<std::uint64_t>(t) + 1); });
  }
  EXPECT_EQ(sum.load(), 20000ull * (1 + 2 + 3 + 4));
}

TEST(ThreadPool, ParkPathStress) {
  // spin_iters = 0 removes the spin window entirely — every worker parks on
  // the condvar between dispatches and every join parks on the caller side.
  ThreadPoolOptions opt;
  opt.num_threads = 4;
  opt.spin_iters = 0;
  ThreadPool pool(opt);
  std::atomic<int> hits{0};
  for (int i = 0; i < 2000; ++i) {
    pool.run([&](int) { hits.fetch_add(1); });
  }
  EXPECT_EQ(hits.load(), 2000 * 4);
}

TEST(ThreadPool, WorkerExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.run([](int t) {
        if (t == 3) throw std::runtime_error("worker 3 boom");
      }),
      std::runtime_error);
  // The pool must survive the throw and keep dispatching.
  std::atomic<int> hits{0};
  pool.run([&](int) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 4);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  int calls = 0;
  pool.run([&](int t) {
    EXPECT_EQ(t, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(Affinity, AvailableCpusPositive) {
  EXPECT_GE(available_cpus(), 1);
}

TEST(Fnv1a64, KnownAnswers) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1a64, CanonicalHashesArePinned) {
  // Cache keys, cache-store files and dispatcher routing all carry these
  // values, so they must never move.
  EXPECT_EQ(canonical_hash(directed_torus(3, 3), 0), 0xe0d21816c70c09ddull);
  EXPECT_EQ(canonical_hash(de_bruijn(4), 0), 0x5b8a14561df5888bull);
}

TEST(FrameVarint, RoundTripsAndRejectsOverflow) {
  for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{127},
                                std::uint64_t{128}, ~std::uint64_t{0}}) {
    std::string buf;
    put_varint(buf, v);
    std::size_t pos = 0;
    std::uint64_t back = 1;
    ASSERT_EQ(take_varint(buf, pos, back), FrameStatus::kOk);
    EXPECT_EQ(back, v);
    EXPECT_EQ(pos, buf.size());
  }
  // 10 bytes whose payload reaches bit 65: must not wrap to 1.
  std::string over(9, '\x81');
  over.push_back('\x02');
  std::size_t pos = 0;
  std::uint64_t v = 0;
  EXPECT_EQ(take_varint(over, pos, v), FrameStatus::kCorrupt);
  // An 11th byte is never valid either.
  std::string longer(10, '\x80');
  longer.push_back('\x00');
  pos = 0;
  EXPECT_EQ(take_varint(longer, pos, v), FrameStatus::kCorrupt);
  pos = 0;
  EXPECT_EQ(take_varint(std::string_view("\x80", 1), pos, v),
            FrameStatus::kTorn);
}

TEST(FrameU64le, LittleEndianRoundTrip) {
  std::string buf;
  put_u64le(buf, 0x0102030405060708ull);
  ASSERT_EQ(buf.size(), 8u);
  EXPECT_EQ(buf[0], '\x08');
  EXPECT_EQ(buf[7], '\x01');
  EXPECT_EQ(load_u64le(buf.data()), 0x0102030405060708ull);
}

std::string frame_bytes(std::string_view payload) {
  std::string buf;
  put_frame_head(buf, 2, 1000, 7, payload);
  buf += payload;
  return buf;
}

TEST(Frame, RoundTripsAtAnyOffset) {
  const std::string payload = "a checksummed payload";
  const std::string buf = "xy" + frame_bytes(payload) + frame_bytes("");
  Frame f;
  ASSERT_EQ(parse_frame(buf, 2, f), FrameStatus::kOk);
  EXPECT_EQ(f.kind, 2);
  EXPECT_EQ(f.raw_size, 1000u);
  EXPECT_EQ(f.codec, 7);
  EXPECT_EQ(f.payload, payload);
  Frame empty;
  ASSERT_EQ(parse_frame(buf, f.end, empty), FrameStatus::kOk);
  EXPECT_EQ(empty.payload, "");
  EXPECT_EQ(empty.end, buf.size());
}

TEST(Frame, EveryTruncationIsTorn) {
  const std::string buf = frame_bytes("a checksummed payload");
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    Frame f;
    EXPECT_EQ(parse_frame(std::string_view(buf).substr(0, cut), 0, f),
              FrameStatus::kTorn)
        << "cut=" << cut;
  }
}

TEST(Frame, FlippedBytesNeverYieldADifferentPayload) {
  const std::string payload = "a checksummed payload";
  const std::string buf = frame_bytes(payload);
  for (std::size_t at = 0; at < buf.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = buf;
      mutated[at] = static_cast<char>(mutated[at] ^ (1 << bit));
      Frame f;
      if (parse_frame(mutated, 0, f) == FrameStatus::kOk) {
        // Only the unchecksummed header fields can change undetected.
        EXPECT_EQ(f.payload, payload) << "at=" << at << " bit=" << bit;
      }
    }
  }
}

TEST(Frame, OversizedSizesAreRejectedBeforeAllocating) {
  // Claims checked against kMaxFrameSize, at the limit and one past it;
  // the 4 payload bytes present make "torn" the wrong answer for a claim
  // that no writer could have made.
  const auto claim = [](std::uint64_t raw, std::uint64_t stored) {
    std::string buf(1, '\x01');
    put_varint(buf, raw);
    put_varint(buf, stored);
    buf.push_back('\x00');
    put_u64le(buf, fnv1a64("abcd"));
    buf += "abcd";
    Frame f;
    return parse_frame(buf, 0, f);
  };
  EXPECT_EQ(claim(kMaxFrameSize, 4), FrameStatus::kOk);
  EXPECT_EQ(claim(kMaxFrameSize + 1, 4), FrameStatus::kCorrupt);
  EXPECT_EQ(claim(4, kMaxFrameSize), FrameStatus::kTorn);
  EXPECT_EQ(claim(4, kMaxFrameSize + 1), FrameStatus::kCorrupt);
  EXPECT_EQ(claim(std::uint64_t{1} << 40, 4), FrameStatus::kCorrupt);
}

}  // namespace
}  // namespace dtop
