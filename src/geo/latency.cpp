#include "geo/latency.hpp"

#include "util/random.hpp"

namespace carbonedge::geo {
namespace {

// Symmetric hash of a city pair: order-independent so L(a,b) == L(b,a).
std::uint64_t pair_hash(const City& a, const City& b, std::uint64_t seed) noexcept {
  const std::uint64_t ha = util::fnv1a(a.name);
  const std::uint64_t hb = util::fnv1a(b.name);
  const std::uint64_t lo = ha < hb ? ha : hb;
  const std::uint64_t hi = ha < hb ? hb : ha;
  return util::mix64(lo ^ util::mix64(hi ^ seed));
}

double unit_from_hash(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

double LatencyModel::one_way_ms(const City& a, const City& b) const noexcept {
  if (a.id == b.id) return 0.0;
  const double km = haversine_km(a.location, b.location);
  double inflation =
      params_.inflation_min +
      params_.inflation_span * unit_from_hash(pair_hash(a, b, params_.seed));
  if (a.country != b.country) inflation += params_.cross_border_penalty;
  return params_.base_ms + km / params_.fiber_km_per_ms * inflation;
}

}  // namespace carbonedge::geo
