// util::parallel_for and the lane record it keeps: every index runs exactly
// once on at most min(lanes, n) threads, the first exception surfaces only
// after every thread has joined, and the RNG forks that give each scenario
// its own stream are reproducible.
#include "util/parallelism.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/random.hpp"

namespace carbonedge {
namespace {

using util::parallel_for;

TEST(ConfiguredThreadCount, ParsePositiveIntegerWins) {
  // configured_thread_count() reads CARBONEDGE_THREADS through the util::env
  // shim, which snapshots the variable once per process — so the parsing
  // seam is exercised directly (tests/test_env.cpp covers the snapshotting).
  EXPECT_EQ(util::parse_thread_count("7"), 7u);
  EXPECT_EQ(util::parse_thread_count("1"), 1u);
  EXPECT_EQ(util::parse_thread_count("64"), 64u);
}

TEST(ConfiguredThreadCount, FallsBackOnGarbageZeroAndUnset) {
  // The fallback is hardware concurrency, identical across spellings.
  const std::size_t fallback = util::parse_thread_count(nullptr);
  EXPECT_GE(fallback, 1u);
  EXPECT_EQ(util::parse_thread_count(""), fallback);
  EXPECT_EQ(util::parse_thread_count("0"), fallback);
  EXPECT_EQ(util::parse_thread_count("lots"), fallback);
  EXPECT_EQ(util::parse_thread_count("garbage"), fallback);
  EXPECT_NE(util::parse_thread_count("3extra"), 3u);  // trailing junk rejected
  // Digits only: no sign, no leading whitespace, no overflow wrap.
  EXPECT_EQ(util::parse_thread_count("-2"), fallback);
  EXPECT_EQ(util::parse_thread_count(" 3"), fallback);
  EXPECT_EQ(util::parse_thread_count("+4"), fallback);
  EXPECT_EQ(util::parse_thread_count("99999999999999999999999"), fallback);
  // And the env-backed entry point always lands on something usable.
  EXPECT_GE(util::configured_thread_count(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(4, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  int calls = 0;
  parallel_for(0, 0, [&](std::size_t) { ++calls; });
  parallel_for(1, 0, [&](std::size_t) { ++calls; });
  parallel_for(4, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, ComputesSameResultAsSerial) {
  std::vector<double> out(2048, 0.0);
  parallel_for(3, out.size(), [&](std::size_t i) { out[i] = static_cast<double>(i) * 0.5; });
  double total = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, 0.5 * 2047.0 * 2048.0 / 2.0);
}

TEST(ParallelFor, MoreLanesThanItemsRunsEachItemOnce) {
  std::vector<std::atomic<int>> hits(3);
  std::atomic<int> calls{0};
  parallel_for(16, hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 3);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SingleLaneRunsInlineInOrder) {
  // A thread_local marker set here is visible to the body only when the
  // body runs on this very thread.
  thread_local int marker = 0;
  marker = 42;
  std::vector<std::size_t> order;
  parallel_for(1, 5, [&](std::size_t i) {
    EXPECT_EQ(marker, 42);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  // A single item runs inline whatever the lane count.
  parallel_for(8, 1, [&](std::size_t) { EXPECT_EQ(marker, 42); });
  // With real lanes the caller only waits: items run on fresh threads.
  std::atomic<int> on_caller{0};
  parallel_for(2, 4, [&](std::size_t) {
    if (marker == 42) on_caller.fetch_add(1);
  });
  EXPECT_EQ(on_caller.load(), 0);
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(parallel_for(4, 100,
                            [](std::size_t i) {
                              if (i == 37) throw std::runtime_error("failure at 37");
                            }),
               std::runtime_error);
}

TEST(ParallelFor, RethrowsOnlyAfterEveryThreadJoined) {
  // Item 0 throws once every lane holds an item; the other lanes are still
  // busy then. The rethrow must wait for them, and no thread may take a new
  // index after the failure.
  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kItems = 64;
  std::atomic<std::size_t> started{0};
  std::atomic<std::size_t> finished{0};
  EXPECT_THROW(parallel_for(kLanes, kItems,
                            [&](std::size_t i) {
                              started.fetch_add(1);
                              if (i == 0) {
                                while (started.load() < kLanes) std::this_thread::yield();
                                throw std::runtime_error("item 0");
                              }
                              std::this_thread::sleep_for(std::chrono::milliseconds(20));
                              finished.fetch_add(1);
                            }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), started.load() - 1);
  EXPECT_LT(started.load(), kItems);
}

TEST(ParallelFor, NestedCallsComplete) {
  // Each call owns its threads, so an outer body may itself fan out.
  std::vector<std::vector<int>> out(4, std::vector<int>(8, 0));
  parallel_for(2, out.size(), [&](std::size_t outer) {
    parallel_for(2, out[outer].size(),
                 [&](std::size_t inner) { out[outer][inner] = static_cast<int>(inner) + 1; });
  });
  for (const auto& row : out) {
    for (std::size_t i = 0; i < row.size(); ++i) EXPECT_EQ(row[i], static_cast<int>(i) + 1);
  }
}

TEST(ParallelFor, PeakLanesRisesToThreadsUsed) {
  const util::LaneRecord& record = util::global_budget();
  EXPECT_GE(record.peak_lanes(), 1u);
  EXPECT_GE(record.total(), 1u);
  const std::size_t before = record.peak_lanes();
  // Inline runs use no extra thread and leave the record alone.
  parallel_for(1, before + 8, [](std::size_t) {});
  parallel_for(before + 8, 1, [](std::size_t) {});
  EXPECT_EQ(record.peak_lanes(), before);
  // Threads used are min(lanes, n): n caps it here...
  parallel_for(before + 3, before + 2, [](std::size_t) {});
  EXPECT_EQ(record.peak_lanes(), before + 2);
  // ...and lanes here; a smaller call never lowers the mark.
  parallel_for(before + 3, before + 9, [](std::size_t) {});
  EXPECT_EQ(record.peak_lanes(), before + 3);
  parallel_for(2, 2, [](std::size_t) {});
  EXPECT_EQ(record.peak_lanes(), before + 3);
}

TEST(ParallelismDeterminism, RngForkIsReproducibleAndLeavesParentUntouched) {
  // Same parent state + same stream index => same child sequence.
  util::Rng a = util::Rng(123).fork(5);
  util::Rng b = util::Rng(123).fork(5);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a(), b());
  // Distinct stream indices diverge immediately.
  util::Rng c = util::Rng(123).fork(6);
  EXPECT_NE(util::Rng(123).fork(5)(), c());
  // Taking forks never consumes from the parent's own sequence, and forks
  // taken after the parent advanced come from the new state.
  util::Rng p1(123);
  util::Rng p2(123);
  (void)p2.fork(9);
  (void)p2.fork(10);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(p1(), p2());
  EXPECT_NE(p1.fork(5)(), util::Rng(123).fork(5)());
}

}  // namespace
}  // namespace carbonedge
