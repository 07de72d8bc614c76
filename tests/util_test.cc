#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/flags.h"
#include "util/mpsc_ring.h"
#include "util/slab_arena.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace dhmm {
namespace {

// ---------------------------------------------------------------- Status ---

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::NotConverged("x").code(), StatusCode::kNotConverged);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
}

TEST(StatusTest, ServingCodesRenderNames) {
  EXPECT_EQ(Status::DeadlineExceeded("late").ToString(),
            "DeadlineExceeded: late");
  EXPECT_EQ(Status::Unavailable("shed").ToString(), "Unavailable: shed");
}

TEST(StatusTest, FromCodeRoundTripsAndRejectsOutOfEnum) {
  // Every named constructor's code survives a FromCode round trip — the
  // wire decoder relies on this.
  for (StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kNotFound,
        StatusCode::kIOError, StatusCode::kNotConverged, StatusCode::kInternal,
        StatusCode::kDeadlineExceeded, StatusCode::kUnavailable}) {
    const Status s = Status::FromCode(code, "m");
    EXPECT_EQ(s.code(), code);
    EXPECT_EQ(s.message(), "m");
  }
  EXPECT_TRUE(Status::FromCode(StatusCode::kOk, "ignored").ok());
  // An out-of-enum code (a newer peer) degrades to Internal, never aborts
  // and never forges OK.
  const Status weird = Status::FromCode(static_cast<StatusCode>(99), "m");
  EXPECT_EQ(weird.code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, OkStatusWithoutValueBecomesInternalError) {
  Result<int> r(Status::OK());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

TEST(ResultTest, ValueOrFallsBackOnError) {
  Result<int> ok(7);
  EXPECT_EQ(ok.value_or(-1), 7);
  Result<int> err(Status::NotFound("nope"));
  EXPECT_EQ(err.value_or(-1), -1);
  Result<std::string> moved(std::string("payload"));
  EXPECT_EQ(std::move(moved).value_or("fallback"), "payload");
}

TEST(ResultTest, CodeMirrorsStatus) {
  EXPECT_EQ(Result<int>(3).code(), StatusCode::kOk);
  EXPECT_EQ(Result<int>(Status::Unavailable("x")).code(),
            StatusCode::kUnavailable);
}

// -------------------------------------------------------------- MpscRing ---

TEST(MpscRingTest, PushPopIsFifo) {
  util::MpscRing<int> ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.TryPush(i));
  int v = -1;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ring.TryPop(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ring.TryPop(&v));
}

TEST(MpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(util::MpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(util::MpscRing<int>(5).capacity(), 8u);
  EXPECT_EQ(util::MpscRing<int>(64).capacity(), 64u);
}

TEST(MpscRingTest, FullRingRefusesPushUntilPop) {
  util::MpscRing<int> ring(2);
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  EXPECT_FALSE(ring.TryPush(3));  // backpressure: shed, don't block
  int v = 0;
  EXPECT_TRUE(ring.TryPop(&v));
  EXPECT_TRUE(ring.TryPush(3));
  EXPECT_TRUE(ring.TryPop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(ring.TryPop(&v));
  EXPECT_EQ(v, 3);
}

TEST(MpscRingTest, FullWraparoundReuseStaysFifo) {
  // Every cell is reused many times, driving the Vyukov sequence numbers
  // far past the capacity: a bug in the pos + mask_ + 1 reset would
  // surface as a stuck push/pop or an out-of-order item within a few laps.
  util::MpscRing<int> ring(4);
  int next_push = 0;
  int next_pop = 0;
  int v = -1;
  for (int lap = 0; lap < 1000; ++lap) {
    while (ring.TryPush(next_push)) ++next_push;  // fill to capacity
    EXPECT_EQ(static_cast<size_t>(next_push - next_pop), ring.capacity());
    while (ring.TryPop(&v)) {
      ASSERT_EQ(v, next_pop);
      ++next_pop;
    }
  }
  EXPECT_EQ(next_push, next_pop);
  EXPECT_EQ(next_push, 1000 * static_cast<int>(ring.capacity()));
}

TEST(MpscRingTest, MisalignedWraparoundReuseStaysFifo) {
  // Push 3 / pop 2 per step so the cursors cross the capacity boundary at
  // every possible offset, not just multiples of the ring size.
  util::MpscRing<int> ring(4);
  int push = 0;
  int pop = 0;
  int v = -1;
  for (int step = 0; step < 5000; ++step) {
    for (int i = 0; i < 3 && ring.TryPush(push); ++i) ++push;
    for (int i = 0; i < 2 && ring.TryPop(&v); ++i) {
      ASSERT_EQ(v, pop);
      ++pop;
    }
  }
  while (ring.TryPop(&v)) {
    ASSERT_EQ(v, pop);
    ++pop;
  }
  EXPECT_EQ(push, pop);
  EXPECT_GT(push, 10000);
}

TEST(MpscRingTest, ConcurrentProducersDeliverEveryItemExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  util::MpscRing<int> ring(128);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int item = p * kPerProducer + i;
        while (!ring.TryPush(item)) std::this_thread::yield();
      }
    });
  }
  constexpr size_t kTotal = size_t{kProducers} * kPerProducer;
  std::vector<int> seen;
  seen.reserve(kTotal);
  int v = 0;
  while (seen.size() < kTotal) {
    if (ring.TryPop(&v)) {
      seen.push_back(v);
    } else {
      std::this_thread::yield();
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_FALSE(ring.TryPop(&v));
  std::sort(seen.begin(), seen.end());
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    ASSERT_EQ(seen[static_cast<size_t>(i)], i);
  }
}

// ------------------------------------------------------------ ThreadPool ---

TEST(ThreadPoolTest, DestructionWaitsForInFlightParallelFor) {
  // A destructor racing an in-flight ParallelFor must let the round finish
  // — every queued item executed exactly once, no stranded waiter — before
  // telling the workers to exit.
  constexpr size_t kItems = 64;
  auto pool = std::make_unique<util::ThreadPool>(4);
  // The runner gets the raw pointer before it starts: reading the
  // unique_ptr while this thread resets it would itself be a data race.
  util::ThreadPool* const raw = pool.get();
  std::atomic<size_t> executed{0};
  std::atomic<bool> started{false};
  std::thread runner([&, raw] {
    raw->ParallelFor(kItems, [&](int, size_t) {
      started.store(true, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      executed.fetch_add(1, std::memory_order_relaxed);
    });
  });
  while (!started.load(std::memory_order_relaxed)) {
    std::this_thread::yield();
  }
  // Items are still queued (64 ms of work vs the first item barely done).
  pool.reset();
  EXPECT_EQ(executed.load(std::memory_order_relaxed), kItems);
  runner.join();
}

TEST(ThreadPoolTest, RepeatedConstructDestroyWithWork) {
  // Teardown immediately after a round: the quiescence wait in the
  // destructor must see the cleared task and not hang or drop items.
  for (int iter = 0; iter < 20; ++iter) {
    util::ThreadPool pool(3);
    std::atomic<size_t> executed{0};
    pool.ParallelFor(16, [&](int, size_t) {
      executed.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(executed.load(std::memory_order_relaxed), 16u);
  }
}

// ----------------------------------------------------------- string_util ---

TEST(StringUtilTest, StrFormatBasic) {
  EXPECT_EQ(StrFormat("x=%d y=%.2f", 3, 1.5), "x=3 y=1.50");
  EXPECT_EQ(StrFormat("%s", "abc"), "abc");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringUtilTest, StrFormatLongOutput) {
  std::string s = StrFormat("%0512d", 7);
  EXPECT_EQ(s.size(), 512u);
  EXPECT_EQ(s.back(), '7');
}

TEST(StringUtilTest, StrJoin) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(StrJoin({"solo"}, ","), "solo");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StringUtilTest, Padding) {
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadLeft("abcde", 3), "abcde");  // no truncation
}

// ----------------------------------------------------------------- Table ---

TEST(TableTest, AlignedRendering) {
  TextTable t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22.5"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TableTest, CsvLines) {
  TextTable t({"a", "b"});
  t.AddRow({"1", "2"});
  std::string csv = t.ToCsvLines();
  EXPECT_NE(csv.find("csv:a,b"), std::string::npos);
  EXPECT_NE(csv.find("csv:1,2"), std::string::npos);
}

TEST(TableTest, BarChartScalesToMax) {
  std::string chart = AsciiBarChart({"x", "y"}, {1.0, 2.0}, 10);
  // The larger value gets the full width of '#'s.
  EXPECT_NE(chart.find("##########"), std::string::npos);
}

TEST(TableTest, SeriesChartRenders) {
  std::vector<double> xs = {1, 2, 3, 4};
  std::string chart =
      AsciiSeriesChart(xs, {{0.1, 0.2, 0.3, 0.4}, {0.4, 0.3, 0.2, 0.1}},
                       {"up", "down"}, 8, 30);
  EXPECT_NE(chart.find("up"), std::string::npos);
  EXPECT_NE(chart.find("down"), std::string::npos);
  EXPECT_NE(chart.find('*'), std::string::npos);
  EXPECT_NE(chart.find('o'), std::string::npos);
}

// ----------------------------------------------------------------- Flags ---

TEST(FlagsTest, ParsesKeyValueAndSwitches) {
  const char* argv[] = {"prog", "--alpha=2.5", "--n=10", "--verbose",
                        "--name=test"};
  FlagParser p;
  ASSERT_TRUE(p.Parse(5, argv).ok());
  EXPECT_DOUBLE_EQ(p.GetDouble("alpha", 0.0), 2.5);
  EXPECT_EQ(p.GetInt("n", 0), 10);
  EXPECT_EQ(p.GetString("verbose", ""), "true");  // a bare switch
  EXPECT_EQ(p.GetString("name", ""), "test");
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  FlagParser p;
  ASSERT_TRUE(p.Parse(1, argv).ok());
  EXPECT_EQ(p.GetInt("missing", 7), 7);
  EXPECT_DOUBLE_EQ(p.GetDouble("missing", 1.5), 1.5);
  EXPECT_FALSE(p.Has("missing"));
}

TEST(FlagsTest, RejectsPositional) {
  const char* argv[] = {"prog", "positional"};
  FlagParser p;
  EXPECT_FALSE(p.Parse(2, argv).ok());
}

TEST(FlagsTest, EmptyArgvIsOk) {
  // Bench entrypoints may be exec'd with no argv at all; Parse must not read
  // past the (empty) array.
  FlagParser p;
  ASSERT_TRUE(p.Parse(0, nullptr).ok());
  EXPECT_EQ(p.GetInt("anything", 3), 3);
}

TEST(FlagsTest, DuplicateFlagLastWins) {
  const char* argv[] = {"prog", "--n=1", "--n=2", "--n=3"};
  FlagParser p;
  ASSERT_TRUE(p.Parse(4, argv).ok());
  EXPECT_EQ(p.GetInt("n", 0), 3);
}

TEST(FlagsTest, EmptyValueIsPresentButEmpty) {
  const char* argv[] = {"prog", "--name="};
  FlagParser p;
  ASSERT_TRUE(p.Parse(2, argv).ok());
  EXPECT_TRUE(p.Has("name"));
  EXPECT_EQ(p.GetString("name", "default"), "");
}

TEST(FlagsTest, PositionalErrorNamesOffendingToken) {
  const char* argv[] = {"prog", "--ok=1", "oops"};
  FlagParser p;
  Status st = p.Parse(3, argv);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("oops"), std::string::npos);
}

TEST(FlagsTest, MalformedNumberFallsBackToDefault) {
  // These used to DHMM_CHECK-abort the whole process.
  const char* argv[] = {"prog", "--n=abc", "--x=1.5zzz"};
  FlagParser p;
  ASSERT_TRUE(p.Parse(3, argv).ok());
  EXPECT_EQ(p.GetInt("n", 7), 7);
  EXPECT_DOUBLE_EQ(p.GetDouble("x", 2.5), 2.5);
}

TEST(FlagsTest, StrictGettersSurfaceMalformedValues) {
  const char* argv[] = {"prog", "--n=abc", "--x=1.5zzz", "--ok=42"};
  FlagParser p;
  ASSERT_TRUE(p.Parse(4, argv).ok());
  EXPECT_EQ(p.GetInt("n").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(p.GetDouble("x").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(p.GetInt("absent").status().code(), StatusCode::kNotFound);
  Result<int> ok = p.GetInt("ok");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
}

TEST(FlagsTest, EmptyNumericValueIsErrorNotZero) {
  // `--n=` used to land strtol's end pointer on the terminating NUL and
  // silently parse as 0 / 0.0.
  const char* argv[] = {"prog", "--n=", "--x="};
  FlagParser p;
  ASSERT_TRUE(p.Parse(3, argv).ok());
  EXPECT_EQ(p.GetInt("n").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(p.GetDouble("x").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(p.GetInt("n", 9), 9);
  EXPECT_DOUBLE_EQ(p.GetDouble("x", 1.25), 1.25);
}

TEST(FlagsTest, NumericOverflowRejected) {
  const char* argv[] = {"prog", "--n=99999999999999999999", "--m=-5000000000",
                        "--x=1e400", "--tiny=1e-320"};
  FlagParser p;
  ASSERT_TRUE(p.Parse(5, argv).ok());
  EXPECT_EQ(p.GetInt("n").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(p.GetInt("m").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(p.GetDouble("x").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(p.GetInt("n", 3), 3);
  // Gradual underflow still yields a usable (denormal) value.
  Result<double> tiny = p.GetDouble("tiny");
  ASSERT_TRUE(tiny.ok());
  EXPECT_GT(tiny.value(), 0.0);
}

TEST(FlagsTest, UnreadFlagsReported) {
  const char* argv[] = {"prog", "--alpha=1.5", "--alpah=2.0", "--verbose"};
  FlagParser p;
  ASSERT_TRUE(p.Parse(4, argv).ok());
  EXPECT_DOUBLE_EQ(p.GetDouble("alpha", 0.0), 1.5);
  EXPECT_TRUE(p.Has("verbose"));
  std::vector<std::string> unread = p.UnreadFlags();
  ASSERT_EQ(unread.size(), 1u);
  EXPECT_EQ(unread[0], "alpah");  // the typo surfaces
  Status st = p.VerifyAllRead();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("alpah"), std::string::npos);
  // Reading it (even via Has) clears the complaint.
  EXPECT_TRUE(p.Has("alpah"));
  EXPECT_TRUE(p.VerifyAllRead().ok());
}

// ------------------------------------------------ Status propagation ---

Status FailWhenNegative(int v) {
  if (v < 0) return Status::OutOfRange("negative input");
  return Status::OK();
}

Status PropagatesViaMacro(int v) {
  DHMM_RETURN_NOT_OK(FailWhenNegative(v));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(PropagatesViaMacro(1).ok());
  Status st = PropagatesViaMacro(-1);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(st.message(), "negative input");
}

TEST(StatusTest, ToStringRendersCodeAndMessage) {
  EXPECT_EQ(Status::OK().ToString(), "OK");
  std::string rendered = Status::IOError("missing file").ToString();
  EXPECT_NE(rendered.find("missing file"), std::string::npos);
  EXPECT_NE(rendered, "missing file");  // the code name is included too
}

// --------------------------------------------------------- SlabArena ---

TEST(SlabArenaTest, BlocksAreAlignedAndSizeRoundsUp) {
  // 100 bytes rounds up to the 64-byte alignment grain (128).
  util::SlabArena arena(100, 4);
  EXPECT_EQ(arena.block_bytes(), 128u);
  EXPECT_EQ(arena.blocks_per_slab(), 4u);
  for (int i = 0; i < 9; ++i) {
    void* p = arena.Allocate();
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % util::SlabArena::kBlockAlignment,
              0u);
  }
}

TEST(SlabArenaTest, GrowsBySlabsAndBlocksAreDistinct) {
  util::SlabArena arena(sizeof(double) * 3, 4);
  std::vector<void*> blocks;
  for (int i = 0; i < 9; ++i) blocks.push_back(arena.Allocate());
  // 9 blocks at 4 per slab => 3 slabs, capacity 12.
  EXPECT_EQ(arena.slab_count(), 3u);
  EXPECT_EQ(arena.capacity(), 12u);
  EXPECT_EQ(arena.in_use(), 9u);
  std::sort(blocks.begin(), blocks.end());
  EXPECT_EQ(std::adjacent_find(blocks.begin(), blocks.end()), blocks.end());
  // Every block is fully writable without trampling its neighbors.
  for (size_t b = 0; b < blocks.size(); ++b) {
    auto* d = static_cast<unsigned char*>(blocks[b]);
    for (size_t i = 0; i < arena.block_bytes(); ++i) {
      d[i] = static_cast<unsigned char>(b);
    }
  }
  for (size_t b = 0; b < blocks.size(); ++b) {
    auto* d = static_cast<unsigned char*>(blocks[b]);
    for (size_t i = 0; i < arena.block_bytes(); ++i) {
      ASSERT_EQ(d[i], static_cast<unsigned char>(b));
    }
  }
}

TEST(SlabArenaTest, ReleaseRecyclesLifoWithoutGrowing) {
  util::SlabArena arena(64, 2);
  void* a = arena.Allocate();
  void* b = arena.Allocate();
  EXPECT_EQ(arena.in_use(), 2u);
  arena.Release(b);
  arena.Release(a);
  EXPECT_EQ(arena.in_use(), 0u);
  // LIFO: the most recently released block comes back first.
  EXPECT_EQ(arena.Allocate(), a);
  EXPECT_EQ(arena.Allocate(), b);
  EXPECT_EQ(arena.slab_count(), 1u);  // no growth through the cycle
}

TEST(SlabArenaTest, GrowOnlyHighWaterMark) {
  util::SlabArena arena(32, 4);
  std::vector<void*> blocks;
  for (int i = 0; i < 8; ++i) blocks.push_back(arena.Allocate());
  const size_t slabs_at_peak = arena.slab_count();
  for (void* p : blocks) arena.Release(p);
  EXPECT_EQ(arena.in_use(), 0u);
  // Re-reaching the high-water mark touches no new slabs.
  for (int i = 0; i < 8; ++i) arena.Allocate();
  EXPECT_EQ(arena.slab_count(), slabs_at_peak);
  EXPECT_EQ(arena.in_use(), 8u);
}

}  // namespace
}  // namespace dhmm
