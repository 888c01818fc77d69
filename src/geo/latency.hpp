// Network latency model.
//
// Substitutes for the WonderNetwork ping matrix: one-way latency between two
// cities is modeled as
//
//   one_way_ms = base + distance_km / fiber_km_per_ms * inflation(pair)
//
// where `inflation` captures fiber routing indirectness. It is drawn
// deterministically per (unordered) city pair from a hash of the city names,
// plus a penalty when the pair crosses a country border (inter-AS routing
// detours). Calibrated against Table 1 of the paper: Florida pairs land in
// 1.9-7.2 ms one-way, Central-EU pairs in 4-16 ms.
//
// The site-indexed table that placement and the engine read (L_ij in
// Table 2) is BandedLatencyMatrix in sparse_latency.hpp.
#pragma once

#include <cstdint>

#include "geo/site.hpp"

namespace carbonedge::geo {

struct LatencyModelParams {
  double base_ms = 0.4;              // per-link fixed overhead (switching, last hop)
  double fiber_km_per_ms = 204.0;    // speed of light in fiber, one-way
  double inflation_min = 1.3;        // best-case routing indirectness
  double inflation_span = 1.7;       // hash-distributed extra indirectness
  double cross_border_penalty = 0.8; // added inflation across country borders
  std::uint64_t seed = 0x1eaf5eedULL;
};

/// Deterministic city-to-city latency oracle.
class LatencyModel {
 public:
  explicit LatencyModel(LatencyModelParams params = {}) : params_(params) {}

  /// One-way latency in milliseconds between two cities. Symmetric.
  [[nodiscard]] double one_way_ms(const City& a, const City& b) const noexcept;

  /// Round-trip latency (2x one-way).
  [[nodiscard]] double rtt_ms(const City& a, const City& b) const noexcept {
    return 2.0 * one_way_ms(a, b);
  }

  [[nodiscard]] const LatencyModelParams& params() const noexcept { return params_; }

 private:
  LatencyModelParams params_;
};

}  // namespace carbonedge::geo
