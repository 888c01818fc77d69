// Figure 4: spatial-temporal carbon-intensity variation in the West US —
// (a) a two-day hourly window around Dec 25-27 and (b) monthly means over
// the year. Paper call-outs: Flagstaff swings ~300 g/kWh within a day
// (solar); Kingman changes ~200 g/kWh between March and November.
#include "bench_util.hpp"
#include "carbon/caltime.hpp"

#include <algorithm>

#include "carbon/synthesizer.hpp"
#include "carbon/trace.hpp"
#include "carbon/zone.hpp"
#include "geo/region.hpp"
#include "geo/site.hpp"
#include "util/table.hpp"

using namespace carbonedge;

int main() {
  bench::print_header("Figure 4", "Spatial-temporal variations in the West US");

  const geo::Region region = geo::west_us_region();
  const auto& catalog = carbon::ZoneCatalog::builtin();
  const carbon::TraceSynthesizer synthesizer;
  std::vector<carbon::CarbonTrace> traces;
  std::vector<std::string> names;
  for (const geo::City& city : region.resolve()) {
    traces.push_back(synthesizer.synthesize(catalog.spec_for(city)));
    names.push_back(city.name);
  }

  // (a) Two-day window, Dec 25 00:00 through Dec 27 00:00, 3h sampling.
  const carbon::HourIndex dec25 = carbon::month_start_hour(11) + 24 * 24;
  util::Table two_day({"Hour (Dec 25-27)", names[0], names[1], names[2], names[3], names[4]});
  two_day.set_title("Figure 4a: two-day hourly carbon intensity (g CO2eq/kWh)");
  for (std::uint32_t h = 0; h <= 48; h += 3) {
    std::vector<double> row;
    for (const carbon::CarbonTrace& trace : traces) row.push_back(trace.at(dec25 + h));
    two_day.add_row("t+" + std::to_string(h) + "h", row, 1);
  }
  two_day.print(std::cout);

  // Intra-day swing per zone (max - min of mean day shape).
  for (std::size_t z = 0; z < traces.size(); ++z) {
    std::array<double, 24> shape{};
    for (carbon::HourIndex h = 0; h < traces[z].hours(); ++h) {
      shape[carbon::hour_of_day(h)] += traces[z].at(h) / 365.0;
    }
    const double swing = *std::max_element(shape.begin(), shape.end()) -
                         *std::min_element(shape.begin(), shape.end());
    bench::print_takeaway(names[z] + " mean intra-day swing: " +
                          util::format_fixed(swing, 0) + " g/kWh");
  }

  // (b) Monthly means.
  util::Table monthly({"Month", names[0], names[1], names[2], names[3], names[4]});
  monthly.set_title("Figure 4b: monthly mean carbon intensity (g CO2eq/kWh)");
  for (std::uint32_t m = 0; m < carbon::kMonthsPerYear; ++m) {
    std::vector<double> row;
    for (const carbon::CarbonTrace& trace : traces) row.push_back(trace.monthly_mean(m));
    monthly.add_row(std::string(carbon::month_name(m)), row, 1);
  }
  monthly.print(std::cout);

  // Kingman seasonal swing (paper: ~200 g/kWh between months, solar-driven).
  const std::size_t kingman = 1;  // region order: LV, Kingman, SD, PHX, FLG
  double month_lo = 1e18;
  double month_hi = 0.0;
  for (std::uint32_t m = 0; m < carbon::kMonthsPerYear; ++m) {
    const double mean = traces[kingman].monthly_mean(m);
    month_lo = std::min(month_lo, mean);
    month_hi = std::max(month_hi, mean);
  }
  bench::print_takeaway("Kingman monthly-mean seasonal range: " +
                        util::format_fixed(month_hi - month_lo, 0) +
                        " g/kWh (paper call-out: ~200, solar-driven)");
  return 0;
}
