// Figure 3: yearly mean carbon intensity per zone for the West US and
// Central EU mesoscale regions. Paper: max/min spread ~2.7x (West US) and
// ~10.8x (Central EU), persisting across the whole year.
#include "bench_util.hpp"

#include <algorithm>

#include "carbon/synthesizer.hpp"
#include "carbon/trace.hpp"
#include "carbon/zone.hpp"
#include "geo/region.hpp"
#include "geo/site.hpp"
#include "util/table.hpp"

using namespace carbonedge;

namespace {

void report(const geo::Region& region, const char* figure_id) {
  const auto& catalog = carbon::ZoneCatalog::builtin();
  const carbon::TraceSynthesizer synthesizer;
  struct Row {
    std::string zone;
    double mean;
    double min;
    double max;
  };
  std::vector<Row> rows;
  for (const geo::City& city : region.resolve()) {
    const carbon::CarbonTrace trace = synthesizer.synthesize(catalog.spec_for(city));
    rows.push_back({city.name, trace.yearly_mean(), trace.yearly_min(), trace.yearly_max()});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) { return a.mean > b.mean; });

  util::Table table({"Zone", "Year mean", "Year min", "Year max", ""});
  table.set_title(std::string(figure_id) + ": " + region.name +
                  " yearly carbon intensity (g CO2eq/kWh)");
  for (const Row& row : rows) {
    table.add_row({row.zone, util::format_fixed(row.mean, 1), util::format_fixed(row.min, 1),
                   util::format_fixed(row.max, 1), util::format_bar(row.mean, rows.front().mean)});
  }
  table.print(std::cout);
  bench::print_takeaway(region.name + " yearly max/min spread: " +
                        util::format_fixed(rows.front().mean / rows.back().mean, 1) +
                        "x (paper: 2.7x West US, 10.8x Central EU)");
}

}  // namespace

int main() {
  bench::print_header("Figure 3", "Yearly carbon intensity of two mesoscale regions");
  report(geo::west_us_region(), "Figure 3a");
  report(geo::central_eu_region(), "Figure 3b");
  return 0;
}
