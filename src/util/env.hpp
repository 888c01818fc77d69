// Central environment-variable shim — the only place in the tree allowed to
// call std::getenv (lint rule D5).
//
// Environment variables are process inputs that can silently change behavior
// (CARBONEDGE_THREADS sets the lane count, CARBONEDGE_STORE_DIR attaches
// the persistent store), so every read is funneled through here: one audited
// call point, and each variable is read from the host environment at most
// once per process. The first lookup snapshots the value; later setenv()
// calls are invisible, which pins a run's configuration at the moment it is
// first consulted — a value that mutates mid-run could otherwise make two
// halves of one simulation disagree about their own configuration.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace carbonedge::util::env {

/// The value of `name` as of its first lookup in this process (cached
/// thereafter; at most one host read per variable). nullopt when unset.
/// Thread-safe.
[[nodiscard]] std::optional<std::string> get(std::string_view name);

/// get(name) with a fallback for unset. Note: an empty-but-set variable
/// returns the empty string, not the fallback.
[[nodiscard]] std::string get_or(std::string_view name, std::string_view fallback);

/// Number of distinct host environment reads performed so far — the
/// "at most once per variable" contract is asserted against this in tests.
[[nodiscard]] std::size_t host_reads() noexcept;

}  // namespace carbonedge::util::env
