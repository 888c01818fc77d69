// The process's one parallel primitive, and the lane record it keeps.
//
// CarbonEdge parallelizes only where a measurement shows it pays:
// ScenarioRunner runs sweep cells concurrently (one serial simulation per
// lane) and analysis::yearly_means synthesizes sites concurrently. Both call
// parallel_for with a lane count that defaults to CARBONEDGE_THREADS; the
// obs export reports the lane high-water mark from global_budget().
//
// Lanes bound throughput only. Every item writes its own pre-sized slot, so
// CARBONEDGE_THREADS=1 and =64 produce the same tables (enforced by the
// determinism-gate CI job).
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>

namespace carbonedge::util {

/// Parses a CARBONEDGE_THREADS-style value: a positive integer spelled in
/// decimal digits only wins; anything else (null, empty, zero, a sign,
/// whitespace, garbage, trailing junk, overflow) falls back to hardware
/// concurrency (at least 1).
[[nodiscard]] std::size_t parse_thread_count(const char* value) noexcept;

/// Total worker lanes the process should use: parse_thread_count applied to
/// the CARBONEDGE_THREADS environment variable, read once per process via
/// the util::env shim.
[[nodiscard]] std::size_t configured_thread_count();

/// Runs body(i) for every i in [0, n). With lanes <= 1 or n <= 1 the calls
/// run inline on the caller's thread, in ascending order. Otherwise
/// min(lanes, n) fresh threads take indices in ascending order from one
/// shared counter while the caller only waits; after the first exception no
/// thread takes a new index, and that exception is rethrown once every
/// thread has joined. Each call owns its threads, so nested calls are safe.
void parallel_for(std::size_t lanes, std::size_t n,
                  const std::function<void(std::size_t)>& body);

/// Passive record of the process's lane usage, read by the obs export and
/// the perf harness.
class LaneRecord {
 public:
  /// Lanes the process is configured for (configured_thread_count()).
  [[nodiscard]] std::size_t total() const { return configured_thread_count(); }
  /// Largest thread count any parallel_for call has used; 1 until one runs
  /// in parallel.
  [[nodiscard]] std::size_t peak_lanes() const noexcept {
    return peak_lanes_.load(std::memory_order_relaxed);
  }
  /// Raises peak_lanes() to `lanes` if it is lower.
  void record(std::size_t lanes) noexcept;

 private:
  std::atomic<std::size_t> peak_lanes_{1};
};

/// The process-wide record every parallel_for call reports to.
[[nodiscard]] const LaneRecord& global_budget();

}  // namespace carbonedge::util
