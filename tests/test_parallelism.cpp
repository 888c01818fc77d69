// The process worker budget the scenario runner leases its cell lanes
// from: leases never exceed the configured lane count, and the RNG forks
// that give each scenario its own stream are reproducible.
#include "util/parallelism.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "util/random.hpp"

namespace carbonedge {
namespace {

using util::ParallelismBudget;

TEST(ConfiguredThreadCount, ParsePositiveIntegerWins) {
  // configured_thread_count() reads CARBONEDGE_THREADS through the util::env
  // shim, which snapshots the variable once per process — so the parsing
  // seam is exercised directly (tests/test_env.cpp covers the snapshotting).
  EXPECT_EQ(util::parse_thread_count("7"), 7u);
  EXPECT_EQ(util::parse_thread_count("1"), 1u);
  EXPECT_EQ(util::parse_thread_count("64"), 64u);
}

TEST(ConfiguredThreadCount, FallsBackOnGarbageZeroAndUnset) {
  EXPECT_GE(util::parse_thread_count(nullptr), 1u);
  EXPECT_GE(util::parse_thread_count(""), 1u);
  EXPECT_GE(util::parse_thread_count("0"), 1u);
  EXPECT_GE(util::parse_thread_count("lots"), 1u);
  EXPECT_NE(util::parse_thread_count("3extra"), 3u);  // trailing junk rejected
  EXPECT_NE(util::parse_thread_count("-2"), 0u);
  // The fallback is hardware concurrency, identical across spellings.
  EXPECT_EQ(util::parse_thread_count(nullptr), util::parse_thread_count("garbage"));
  // And the env-backed entry point always lands on something usable.
  EXPECT_GE(util::configured_thread_count(), 1u);
}

TEST(ParallelismBudget, GrantsWantedLanesUpToTotal) {
  ParallelismBudget budget(4);
  EXPECT_EQ(budget.total(), 4u);
  EXPECT_EQ(budget.available(), 3u);
  EXPECT_EQ(budget.peak_lanes(), 1u);  // the root lane, before any lease

  const auto lease = budget.acquire(3);
  EXPECT_EQ(lease.lanes(), 3u);
  EXPECT_EQ(budget.available(), 1u);

  // Asking for more than remains degrades, it never blocks or overdraws.
  const auto rest = budget.acquire(16);
  EXPECT_EQ(rest.lanes(), 2u);
  EXPECT_EQ(budget.available(), 0u);
  const auto dry = budget.acquire(16);
  EXPECT_EQ(dry.lanes(), 1u);
}

TEST(ParallelismBudget, LeaseReleaseRestoresAvailability) {
  ParallelismBudget budget(4);
  {
    const auto lease = budget.acquire(4);
    EXPECT_EQ(lease.lanes(), 4u);
    EXPECT_EQ(budget.available(), 0u);
  }
  EXPECT_EQ(budget.available(), 3u);
  EXPECT_EQ(budget.peak_lanes(), 4u);
}

TEST(ParallelismBudget, MoveTransfersTheGrant) {
  ParallelismBudget budget(3);
  auto lease = budget.acquire(3);
  EXPECT_EQ(budget.available(), 0u);
  ParallelismBudget::Lease moved = std::move(lease);
  EXPECT_EQ(moved.lanes(), 3u);
  EXPECT_EQ(budget.available(), 0u);  // single outstanding grant, not two
  moved = ParallelismBudget::Lease();
  EXPECT_EQ(budget.available(), 2u);
}

TEST(ParallelismBudget, SingleLaneBudgetIsAlwaysSerial) {
  ParallelismBudget budget(1);
  EXPECT_EQ(budget.acquire(64).lanes(), 1u);
  EXPECT_EQ(budget.peak_lanes(), 1u);
}

TEST(ParallelismBudget, ConcurrentHammeringNeverOverGrants) {
  constexpr std::size_t kTotal = 5;
  ParallelismBudget budget(kTotal);
  std::atomic<std::size_t> extras_out{0};
  std::atomic<bool> violated{false};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (std::size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng(0xBADCAFE + t);
      for (int i = 0; i < 2000; ++i) {
        const auto lease = budget.acquire(1 + rng.uniform_index(8));
        const std::size_t extras = lease.lanes() - 1;
        if (extras_out.fetch_add(extras) + extras > kTotal - 1) violated.store(true);
        extras_out.fetch_sub(extras);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(violated.load());
  EXPECT_EQ(budget.available(), kTotal - 1);
  EXPECT_LE(budget.peak_lanes(), kTotal);
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
