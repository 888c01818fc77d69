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
#pragma once

#include <cstdint>
#include <span>
#include <vector>

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

/// Site-indexed latency oracle: what placement and the simulation engine
/// consume (L_ij in Table 2). Implementations are either dense
/// (LatencyMatrix) or banded-sparse (BandedLatencyMatrix in
/// sparse_latency.hpp); out-of-band pairs report +infinity one-way, which
/// the RTT feasibility filters treat as "never feasible".
class LatencyProvider {
 public:
  virtual ~LatencyProvider() = default;

  /// Number of sites the provider covers (indices are [0, size())).
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;

  /// One-way latency in ms between site indices; +infinity when the pair is
  /// outside the provider's band.
  [[nodiscard]] virtual double one_way_ms(std::size_t i,
                                          std::size_t j) const noexcept = 0;

  /// Round-trip latency (2x one-way).
  [[nodiscard]] double rtt_ms(std::size_t i, std::size_t j) const noexcept {
    return 2.0 * one_way_ms(i, j);
  }

  /// Candidate sites with finite latency from site `i`, indices ascending;
  /// every site outside the list is +infinity. The dense provider lists all
  /// sites. This is a prefilter only — entries may still be infeasible for
  /// a given RTT limit; it exists so feasibility loops over thousands of
  /// sites skip the out-of-band majority.
  [[nodiscard]] virtual std::span<const std::uint32_t> neighbors(
      std::size_t i) const noexcept = 0;

 protected:
  LatencyProvider() = default;
  LatencyProvider(const LatencyProvider&) = default;
  LatencyProvider& operator=(const LatencyProvider&) = default;
};

/// Dense symmetric one-way latency matrix over an ordered set of cities.
class LatencyMatrix final : public LatencyProvider {
 public:
  LatencyMatrix() = default;
  LatencyMatrix(const LatencyModel& model, std::span<const City> cities);

  [[nodiscard]] double one_way_ms(std::size_t i,
                                  std::size_t j) const noexcept override {
    return values_[i * count_ + j];
  }
  [[nodiscard]] std::size_t size() const noexcept override { return count_; }
  /// Every site, 0..size()-1: one list shared by all rows.
  [[nodiscard]] std::span<const std::uint32_t> neighbors(
      std::size_t /*i*/) const noexcept override {
    return all_sites_;
  }

 private:
  std::size_t count_ = 0;
  std::vector<double> values_;
  std::vector<std::uint32_t> all_sites_;
};

}  // namespace carbonedge::geo
