#include "util/parallelism.hpp"

#include <algorithm>
#include <charconv>
#include <exception>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "util/env.hpp"

namespace carbonedge::util {

namespace {

LaneRecord& lane_record() {
  static LaneRecord record;
  return record;
}

}  // namespace

std::size_t parse_thread_count(const char* value) noexcept {
  if (value != nullptr) {
    // from_chars takes decimal digits only: no sign, no whitespace.
    const std::string_view text(value);
    std::size_t parsed = 0;
    const auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), parsed);
    if (error == std::errc{} && end == text.data() + text.size() && parsed > 0) return parsed;
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::size_t configured_thread_count() {
  const std::optional<std::string> value = env::get("CARBONEDGE_THREADS");
  return parse_thread_count(value.has_value() ? value->c_str() : nullptr);
}

void parallel_for(std::size_t lanes, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (lanes <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  const std::size_t thread_count = std::min(lanes, n);
  lane_record().record(thread_count);

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;  // written once, by the thread that set `failed`
  const auto work = [&] {
    while (!failed.load()) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      try {
        body(i);
      } catch (...) {
        if (!failed.exchange(true)) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(thread_count);
  try {
    for (std::size_t t = 0; t < thread_count; ++t) threads.emplace_back(work);
  } catch (...) {
    // Could not spawn a thread: stop the ones running, then report.
    failed.store(true);
    for (std::thread& thread : threads) thread.join();
    throw;
  }
  for (std::thread& thread : threads) thread.join();
  if (first_error) std::rethrow_exception(first_error);
}

void LaneRecord::record(std::size_t lanes) noexcept {
  std::size_t peak = peak_lanes_.load(std::memory_order_relaxed);
  while (lanes > peak &&
         !peak_lanes_.compare_exchange_weak(peak, lanes, std::memory_order_relaxed)) {
  }
}

const LaneRecord& global_budget() { return lane_record(); }

}  // namespace carbonedge::util
