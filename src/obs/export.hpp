// Metrics exporters: JSON snapshot and Prometheus text exposition.
//
// Both render one Registry in name order (deterministic by construction).
// The JSON snapshot is split at the top level into the two views —
//
//   {"deterministic":{...},"timing":{...}}
//
// — so consumers (the CI determinism gate, the serve export stream) can
// diff the deterministic object across thread counts and ignore the rest.
// The Prometheus format carries the same split as a `view` label.
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace carbonedge::obs {

/// Refresh the process-level gauges that are sampled rather than pushed:
/// the configured and peak lane counts (timing view — they follow
/// CARBONEDGE_THREADS) and the env shim's host-read count (deterministic).
/// Registers them on first call; snapshot_json/snapshot_prometheus call this
/// automatically when rendering the global registry.
void collect_process_gauges();

/// The whole registry as one JSON document. include_timing=false drops the
/// "timing" object entirely (the per-window serve rows use this: every byte
/// they emit stays under the determinism contract).
[[nodiscard]] std::string snapshot_json(const Registry& registry = Registry::global(),
                                        bool include_timing = true);

/// Only the deterministic view's JSON object (the value of the
/// "deterministic" key) — what the determinism gate diffs.
[[nodiscard]] std::string deterministic_json(const Registry& registry = Registry::global());

/// Prometheus text exposition format (# HELP/# TYPE, escaped help strings,
/// cumulative histogram buckets, `view` label on every sample).
[[nodiscard]] std::string snapshot_prometheus(const Registry& registry = Registry::global());

}  // namespace carbonedge::obs
