// carbonedge_perf: one repetition of one benchmark workload, in a fresh
// process — carbon::TraceCache, the obs registry and util::global_budget()
// are process-wide, so a second repetition in the same process would run
// warm. perfbench/run.py drives it; by hand:
//
//   carbonedge_perf <workload> cold   --seed N --store DIR [--trace]
//   carbonedge_perf <workload> resume --seed N --store DIR
//
// `cold` sets up (into the empty store directory DIR), runs the timed
// section, checks the outputs and prints one JSON object on stdout.
// `resume` restarts from the store DIR a cold run filled and times the
// warm path. --trace turns on the benchmark's own outside timers around
// library calls; the library's obs spans and counters are always on.
//
// Workloads (see perfbench/README.md):
//   sweep_cdn_us         the `carbonedge_cli sweep cdn_us 2920` grid
//   serve_replay_cdn_us  `carbonedge_cli serve cdn_us --replay --epochs=2920`
//   place_continent      1000-site banded placement, 500 batches of 100 apps
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "carbon/service.hpp"
#include "carbon/trace_cache.hpp"
#include "core/placement_service.hpp"
#include "core/policy.hpp"
#include "core/problem.hpp"
#include "core/simulation.hpp"
#include "geo/catalog.hpp"
#include "geo/latency.hpp"
#include "geo/region.hpp"
#include "geo/sparse_latency.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "runner/scenario_grid.hpp"
#include "runner/scenario_runner.hpp"
#include "serve/event_loop.hpp"
#include "serve/event_source.hpp"
#include "serve/export.hpp"
#include "sim/datacenter.hpp"
#include "sim/device.hpp"
#include "sim/workload.hpp"
#include "solver/assignment.hpp"
#include "store/artifact_store.hpp"
#include "store/sweep_store.hpp"
#include "store/trace_tier.hpp"
#include "util/parallelism.hpp"
#include "util/random.hpp"

using namespace carbonedge;

namespace {

// ------------------------------------------------------------- plumbing --

double elapsed_s(std::uint64_t from_ns, std::uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}
double elapsed_ms(std::uint64_t from_ns, std::uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Flat JSON object builder, keys in insertion order.
class JsonObject {
 public:
  JsonObject& raw(std::string_view key, const std::string& json) {
    body_ += body_.empty() ? "" : ",";
    body_ += json_string(key) + ":" + json;
    return *this;
  }
  JsonObject& num(std::string_view key, double v) { return raw(key, json_number(v)); }
  JsonObject& str(std::string_view key, std::string_view v) { return raw(key, json_string(v)); }
  JsonObject& flag(std::string_view key, bool v) { return raw(key, v ? "true" : "false"); }
  JsonObject& list(std::string_view key, const std::vector<double>& values) {
    std::string json = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      json += (i == 0 ? "" : ",") + json_number(values[i]);
    }
    return raw(key, json + "]");
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Every counter and gauge of the process-wide registry by name.
using Snapshot = std::map<std::string, double, std::less<>>;

Snapshot snapshot() {
  Snapshot values;
  obs::Registry::global().visit([&](const obs::MetricRef& m) {
    if (m.counter != nullptr) values[std::string(m.name)] = static_cast<double>(m.counter->value());
    if (m.gauge != nullptr) values[std::string(m.name)] = m.gauge->value();
  });
  return values;
}

double value(const Snapshot& s, std::string_view name) {
  const auto it = s.find(name);
  return it == s.end() ? 0.0 : it->second;
}

/// Change of one registry value across a section.
double delta(const Snapshot& before, const Snapshot& after, std::string_view name) {
  return value(after, name) - value(before, name);
}

double span_self_ms(const Snapshot& before, const Snapshot& after, std::string_view phase) {
  return delta(before, after, "span." + std::string(phase) + ".self_ns") / 1e6;
}

/// Summed self time of every obs span over a section, in ms.
double all_spans_self_ms(const Snapshot& before, const Snapshot& after) {
  double total = 0.0;
  for (const auto& [name, v] : after) {
    if (name.starts_with("span.") && name.ends_with(".self_ns")) {
      total += v - value(before, name);
    }
  }
  return total / 1e6;
}

/// The registry's deterministic counters under the prefixes whose values
/// are pure functions of the workload (byte-identical run to run).
std::string deterministic_counts() {
  static constexpr std::string_view kPrefixes[] = {"solver.", "sim.", "carbon.trace_cache.",
                                                   "store.sweep.", "serve.ingest."};
  JsonObject counts;
  obs::Registry::global().visit([&](const obs::MetricRef& m) {
    if (m.view != obs::View::kDeterministic || m.counter == nullptr) return;
    for (const std::string_view prefix : kPrefixes) {
      if (m.name.starts_with(prefix)) {
        counts.num(m.name, static_cast<double>(m.counter->value()));
        return;
      }
    }
  });
  return counts.str();
}

std::uint64_t directory_bytes(const std::filesystem::path& root) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(root)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

/// Attach the persistent store at `dir` as the trace cache's disk tier.
std::shared_ptr<store::ArtifactStore> attach_store(const std::string& dir) {
  auto artifacts = std::make_shared<store::ArtifactStore>(dir);
  carbon::TraceCache::global().set_store(store::make_trace_tier(artifacts));
  return artifacts;
}

/// FNV-1a over the bit patterns of every zone's intensity on a fixed hour
/// grid: a cold and a resumed service must agree bit for bit.
std::string carbon_digest(const carbon::CarbonIntensityService& service,
                          const std::vector<std::string>& zones) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::string& zone : zones) {
    for (carbon::HourIndex hour = 0; hour < 8760; hour += 13) {
      hash = (hash ^ std::bit_cast<std::uint64_t>(service.intensity(zone, hour))) *
             0x100000001b3ULL;
    }
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

/// Host time per progress window, plus the mean core.place span time of
/// the window (the engine's place() calls are not individually visible
/// from outside, their per-window mean is).
class WindowRecorder {
 public:
  explicit WindowRecorder(std::uint64_t start_ns)
      : place_("core.place"), last_ns_(start_ns), last_place_ns_(place_.total_ns().value()),
        last_place_calls_(place_.calls().value()) {}

  void close(std::uint64_t now_ns) {
    const std::uint64_t place_ns = place_.total_ns().value();
    const std::uint64_t place_calls = place_.calls().value();
    window_ms.push_back(elapsed_ms(last_ns_, now_ns));
    if (place_calls > last_place_calls_) {
      decision_ms.push_back(static_cast<double>(place_ns - last_place_ns_) / 1e6 /
                            static_cast<double>(place_calls - last_place_calls_));
    }
    last_ns_ = now_ns;
    last_place_ns_ = place_ns;
    last_place_calls_ = place_calls;
  }

  std::vector<double> window_ms;
  std::vector<double> decision_ms;

 private:
  obs::Phase place_;
  std::uint64_t last_ns_;
  std::uint64_t last_place_ns_;
  std::uint64_t last_place_calls_;
};

/// Closes a window every `every` completed epoch steps (summed over all
/// concurrently running cells), polling the core.epoch_step span counter.
class EpochWindowPoller {
 public:
  EpochWindowPoller(WindowRecorder& recorder, std::uint64_t every)
      : recorder_(&recorder), steps_(obs::Phase("core.epoch_step").calls()), every_(every),
        next_(steps_.value() + every), thread_([this] { poll(); }) {}
  EpochWindowPoller(const EpochWindowPoller&) = delete;
  EpochWindowPoller& operator=(const EpochWindowPoller&) = delete;
  ~EpochWindowPoller() { stop(); }

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

 private:
  void poll() {
    // next_ was read before the thread started: a step the engine takes
    // before this thread first runs still counts toward the first window.
    std::uint64_t next = next_;
    while (true) {
      // Read the flag first: a stop raised after the last epoch step still
      // sees that step's window closed below.
      const bool stopping = stop_.load();
      if (steps_.value() >= next) {
        recorder_->close(obs::now_ns());
        next += every_;
      } else if (stopping) {
        return;
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(250));
      }
    }
  }

  WindowRecorder* recorder_;
  const obs::Counter& steps_;
  std::uint64_t every_;
  std::uint64_t next_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Export sink that closes a window on every CSV row the serving loop
/// hands it (the header line is not a window).
class TimestampSink final : public serve::ByteSink {
 public:
  explicit TimestampSink(WindowRecorder& recorder) : recorder_(&recorder) {}
  [[nodiscard]] bool write(std::string_view line) override {
    if (!line.empty() && line.front() >= '0' && line.front() <= '9') {
      recorder_->close(obs::now_ns());
    }
    return true;
  }

 private:
  WindowRecorder* recorder_;
};

/// Outside timer around EventSource::next (traced runs only).
class TimedSource final : public serve::EventSource {
 public:
  TimedSource(serve::EventSource& inner, bool timed) : inner_(&inner), timed_(timed) {}
  [[nodiscard]] std::optional<serve::Event> next() override {
    if (!timed_) return inner_->next();
    const std::uint64_t t0 = obs::now_ns();
    std::optional<serve::Event> event = inner_->next();
    pull_ns += obs::now_ns() - t0;
    return event;
  }
  std::uint64_t pull_ns = 0;

 private:
  serve::EventSource* inner_;
  bool timed_;
};

struct Options {
  std::string workload;
  std::string phase;
  std::uint64_t seed = 0;
  std::string store_dir;
  bool trace = false;
};

/// Result of one process: end-to-end figures, checks, per-layer figures.
struct Report {
  JsonObject fields;
  JsonObject checks;
  JsonObject layers;
  bool all_ok = true;

  void check(std::string_view name, bool ok) {
    checks.flag(name, ok);
    all_ok = all_ok && ok;
  }
  void layer(std::string_view name, double v) { layers.num(name, v); }
  [[nodiscard]] std::string json(const Options& options) {
    fields.str("workload", options.workload).str("phase", options.phase);
    fields.raw("checks", checks.str()).flag("ok", all_ok);
    fields.raw("layers", layers.str()).raw("counts", deterministic_counts());
    return fields.str();
  }
};

/// Per-layer figures every cold run reports from the registry deltas of
/// its timed section (zero where the layer is not on the path).
void report_registry_layers(Report& report, const Snapshot& before, const Snapshot& after,
                            double wall_s) {
  const double lanes = static_cast<double>(util::configured_thread_count());
  const auto d = [&](std::string_view name) { return delta(before, after, name); };
  report.layer("core.epoch_step.self_ms", span_self_ms(before, after, "core.epoch_step"));
  report.layer("core.epoch_step.calls", d("span.core.epoch_step.calls"));
  report.layer("core.place.self_ms", span_self_ms(before, after, "core.place"));
  report.layer("core.place.calls", d("span.core.place.calls"));
  const double moves = d("sim.migrations") + d("sim.migrations_skipped");
  report.layer("core.migration_veto_ratio", moves > 0 ? d("sim.migrations_skipped") / moves : 0.0);
  report.layer("solver.solve.self_ms", span_self_ms(before, after, "solver.solve"));
  report.layer("solver.milp.self_ms", span_self_ms(before, after, "solver.milp"));
  const double shards = d("solver.exact_shards") + d("solver.flow_shards") +
                        d("solver.heuristic_shards");
  for (const char* name : {"solver.components", "solver.exact_shards", "solver.flow_shards",
                           "solver.heuristic_shards", "solver.milp_nodes"}) {
    report.layer(name, d(name));
  }
  report.layer("solver.heuristic_share", shards > 0 ? d("solver.heuristic_shards") / shards : 0.0);
  report.layer("sim.migrations", d("sim.migrations"));
  report.layer("sim.server_failures", d("sim.server_failures"));
  report.layer("serve.ingest.self_ms", span_self_ms(before, after, "serve.ingest"));
  report.layer("serve.window_flush.self_ms", span_self_ms(before, after, "serve.window_flush"));
  report.layer("serve.ingest.accepted", d("serve.ingest.accepted"));
  report.layer("serve.ingest.dropped",
               d("serve.ingest.dropped_overflow") + d("serve.ingest.dropped_stale"));
  report.layer("obs.trace_coverage", all_spans_self_ms(before, after) / (wall_s * 1e3 * lanes));
}

/// Carbon-layer figures of the whole process so far.
void report_carbon_layers(Report& report, double add_region_ms) {
  const Snapshot now = snapshot();
  report.layer("carbon.add_region_ms", add_region_ms);
  report.layer("carbon.syntheses", value(now, "carbon.trace_cache.syntheses"));
  report.layer("carbon.trace_cache.hits", value(now, "carbon.trace_cache.hits"));
}

void report_outcome(Report& report, double wall_s, std::uint64_t placed, std::uint64_t rejected,
                    double events, double carbon_g, double mean_rtt_ms) {
  report.fields.num("wall_s", wall_s)
      .num("placed", static_cast<double>(placed))
      .num("rejected", static_cast<double>(rejected))
      .num("events", events)
      .num("carbon_kg", carbon_g / 1000.0)
      .num("mean_rtt_ms", mean_rtt_ms)
      .num("peak_rss_mb", peak_rss_mb());
  report.layer("sim.apps_placed", static_cast<double>(placed));
  report.layer("sim.apps_rejected", static_cast<double>(rejected));
}

/// Store figures of a resume process.
void report_resume_layers(Report& report) {
  const Snapshot now = snapshot();
  report.layer("store.read.self_ms", value(now, "span.store.read.self_ns") / 1e6);
  report.layer("store.sweep.hits", value(now, "store.sweep.hits"));
}

/// Store figures of a cold process, once its timed section is done.
void report_store_layers(Report& report, const std::string& store_dir) {
  const Snapshot now = snapshot();
  report.layer("store.write.self_ms", value(now, "span.store.write.self_ns") / 1e6);
  report.layer("store.bytes_written", static_cast<double>(directory_bytes(store_dir)));
  report.layer("store.write_failures", value(now, "store.sweep.write_failures"));
}

/// The resume phase of serve and place: `service` was just rebuilt from
/// the store's trace tier, which must have served all `zones` without a
/// single synthesis.
std::string report_carbon_resume(Report& report, const carbon::CarbonIntensityService& service,
                                 const std::vector<std::string>& zones, double resume_s) {
  report.fields.num("resume_s", resume_s);
  const Snapshot now = snapshot();
  report.check("no_resynthesis", value(now, "carbon.trace_cache.syntheses") == 0.0);
  report.check("traces_from_store", value(now, "carbon.trace_cache.disk_hits") ==
                                        static_cast<double>(zones.size()));
  report_resume_layers(report);
  return carbon_digest(service, zones);
}

/// Ends set-up: reports setup_s, then flushes the store's file system so
/// the write-back of the set-up's traces does not land in the timed
/// section. Returns the start of the timed section.
std::uint64_t begin_timed_section(Report& report, const Options& options,
                                  std::uint64_t t_start) {
  report.fields.num("setup_s", elapsed_s(t_start, obs::now_ns()));
  const int fd = ::open(options.store_dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    (void)::syncfs(fd);
    (void)::close(fd);
  }
  return obs::now_ns();
}

// ---------------------------------------------------------------- sweep --

/// The engine knobs of `carbonedge_cli sweep` / `serve --replay`: 2920
/// one-hour epochs with deferral, cost-aware re-optimization every 16
/// epochs and failure injection.
core::SimulationConfig cli_config() {
  core::SimulationConfig config;
  config.epochs = 2920;
  config.workload.arrivals_per_site = 1.0;
  config.workload.mean_lifetime_epochs = 12.0;
  config.workload.max_defer_epochs = 6;
  config.workload.model_weights = {1.0, 1.0, 1.0, 0.0};
  config.workload.seed = 1234;
  config.reoptimize_every = 16;
  config.migration.cost_aware = true;
  config.failures.mtbf_epochs = 300.0;
  return config;
}

geo::Region cdn_us() { return geo::cdn_region(geo::Continent::kNorthAmerica, 40); }

/// 8 cells: 2 policies x defer {0, 6} x workload seeds {2s+1, 2s+2}
/// (seed 0 is exactly the CLI grid).
runner::ScenarioGrid sweep_grid(std::uint64_t seed) {
  runner::ScenarioGrid grid(cli_config());
  grid.with_regions({cdn_us()})
      .with_policies({core::PolicyConfig::latency_aware(), core::PolicyConfig::carbon_edge()})
      .with_defer_epochs({0, 6})
      .with_workload_seeds({2 * seed + 1, 2 * seed + 2});
  return grid;
}

std::string run_sweep(const Options& options, Report& report, std::uint64_t t_start) {
  auto artifacts = attach_store(options.store_dir);
  auto sweep_store = std::make_shared<store::SweepStore>(artifacts);
  runner::ScenarioRunnerOptions runner_options;
  runner_options.sweep_store = sweep_store;
  const runner::ScenarioGrid grid = sweep_grid(options.seed);

  if (options.phase == "resume") {
    const std::uint64_t t0 = obs::now_ns();
    const auto outcomes = runner::ScenarioRunner(runner_options).run(grid);
    report.fields.num("resume_s", elapsed_s(t0, obs::now_ns()));
    const Snapshot now = snapshot();
    report.check("all_cells_resumed", value(now, "store.sweep.hits") == 8.0);
    report.check("no_cell_recomputed", value(now, "sim.runs") == 0.0);
    report_resume_layers(report);
    return runner::ScenarioRunner::summarize(outcomes, sweep_store.get()).to_string();
  }

  // Set-up: warm the region's year-long traces (persisted to the store's
  // trace tier) so the timed section starts with synthesis done.
  const std::uint64_t t_carbon = obs::now_ns();
  {
    carbon::CarbonIntensityService warm;
    (void)warm.add_region(cdn_us());
  }
  const double add_region_ms = options.trace ? elapsed_ms(t_carbon, obs::now_ns()) : 0.0;
  const std::uint64_t t0 = begin_timed_section(report, options, t_start);

  const Snapshot before = snapshot();
  WindowRecorder windows(t0);
  std::vector<runner::ScenarioOutcome> outcomes;
  {
    // 8 cells x 2920 epochs = 365 windows of 64 epoch steps.
    EpochWindowPoller poller(windows, 64);
    outcomes = runner::ScenarioRunner(runner_options).run(grid);
  }
  const std::uint64_t t1 = obs::now_ns();
  const Snapshot after = snapshot();
  const double wall_s = elapsed_s(t0, t1);

  std::uint64_t placed = 0;
  std::uint64_t rejected = 0;
  double carbon_g = 0.0;
  double rtt_sum = 0.0;
  for (const runner::ScenarioOutcome& outcome : outcomes) {
    placed += outcome.result.apps_placed;
    rejected += outcome.result.apps_rejected;
    carbon_g += outcome.result.telemetry.total_carbon_g();
    rtt_sum += outcome.result.telemetry.mean_rtt_ms();
  }
  report_outcome(report, wall_s, placed, rejected, delta(before, after, "span.core.epoch_step.calls"),
                 carbon_g, rtt_sum / static_cast<double>(outcomes.size()));
  report.fields.list("window_ms", windows.window_ms).list("decision_ms", windows.decision_ms);

  const runner::CellCacheHealth health = sweep_store->health();
  report.check("eight_cells", outcomes.size() == 8);
  report.check("all_cells_persisted", health.stores == 8 && health.write_failures == 0);
  report.check("every_epoch_stepped",
               delta(before, after, "span.core.epoch_step.calls") == 8.0 * cli_config().epochs);
  report.check("every_window_closed", windows.window_ms.size() == 365);

  report_carbon_layers(report, add_region_ms);
  const double sites = static_cast<double>(cdn_us().cities.size());
  report.layer("geo.latency_entries", sites * sites);
  report_registry_layers(report, before, after, wall_s);
  report.layer("runner.cells", static_cast<double>(outcomes.size()));
  report.layer("runner.busy_ratio",
               delta(before, after, "span.core.epoch_step.total_ns") / 1e9 /
                   (wall_s * static_cast<double>(util::configured_thread_count())));
  report_store_layers(report, options.store_dir);
  return runner::ScenarioRunner::summarize(outcomes, sweep_store.get()).to_string();
}

// ---------------------------------------------------------------- serve --

std::string run_serve(const Options& options, Report& report, std::uint64_t t_start) {
  attach_store(options.store_dir);
  const geo::Region region = cdn_us();
  carbon::CarbonIntensityService service;
  const std::uint64_t t_carbon = obs::now_ns();
  const std::vector<std::string> zones = service.add_region(region);
  const std::uint64_t t_carbon_end = obs::now_ns();
  if (options.phase == "resume") {
    return report_carbon_resume(report, service, zones, elapsed_s(t_carbon, t_carbon_end));
  }

  const std::uint64_t t_geo = obs::now_ns();
  core::EdgeSimulation simulation(sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2),
                                  service);
  const std::uint64_t t_geo_end = obs::now_ns();
  serve::ServeConfig serve_config;
  serve_config.window_epochs = 8;
  serve_config.sim = cli_config();
  serve_config.sim.policy = core::PolicyConfig::carbon_edge();
  serve_config.sim.workload.seed = 1234 + options.seed;  // seed 0 is the CLI scenario
  serve::TraceReplaySource replay(serve_config.sim.workload, simulation.pristine_cluster(),
                                  serve_config.sim.epochs, serve_config.sim.epoch_hours);
  TimedSource source(replay, options.trace);
  serve::EventLoop loop(simulation, serve_config);
  const std::uint64_t t0 = begin_timed_section(report, options, t_start);

  const Snapshot before = snapshot();
  WindowRecorder windows(t0);
  TimestampSink sink(windows);
  serve::WindowCsvExporter exporter(sink);
  const serve::ServeResult result = loop.run(source, &exporter);
  const std::uint64_t t1 = obs::now_ns();
  const Snapshot after = snapshot();
  const double wall_s = elapsed_s(t0, t1);

  const core::SimulationResult& sim_result = result.sim;
  report_outcome(report, wall_s, sim_result.apps_placed, sim_result.apps_rejected,
                 static_cast<double>(result.ingest.accepted),
                 sim_result.telemetry.total_carbon_g(), sim_result.telemetry.mean_rtt_ms());
  report.fields.list("window_ms", windows.window_ms).list("decision_ms", windows.decision_ms);
  for (const auto& [name, count] :
       std::vector<std::pair<const char*, std::uint64_t>>{
           {"ingest_accepted", result.ingest.accepted},
           {"apps_placed", sim_result.apps_placed},
           {"apps_rejected", sim_result.apps_rejected},
           {"apps_expired_deferred", sim_result.apps_expired_deferred},
           {"migrations", sim_result.migrations},
           {"migrations_skipped", sim_result.migrations_skipped},
           {"server_failures", sim_result.server_failures},
           {"app_downtime_epochs", sim_result.app_downtime_epochs}}) {
    report.fields.num(name, static_cast<double>(count));
  }

  std::uint64_t window_arrivals = 0;
  for (const serve::WindowStats& w : result.windows) window_arrivals += w.arrivals;
  report.check("no_ingest_drops", result.ingest.dropped() == 0);
  report.check("window_arrivals_sum_to_accepted", window_arrivals == result.ingest.accepted);
  report.check("every_window_exported", result.windows.size() == 365 &&
                                            windows.window_ms.size() == 365 &&
                                            result.exports.lines_dropped == 0);

  report_carbon_layers(report, options.trace ? elapsed_ms(t_carbon, t_carbon_end) : 0.0);
  report.layer("geo.latency_build_ms", options.trace ? elapsed_ms(t_geo, t_geo_end) : 0.0);
  report.layer("geo.latency_entries",
               static_cast<double>(region.cities.size() * region.cities.size()));
  report_registry_layers(report, before, after, wall_s);
  report.layer("sim.source_pull_ms", static_cast<double>(source.pull_ns) / 1e6);
  report_store_layers(report, options.store_dir);
  return carbon_digest(service, zones);
}

// ---------------------------------------------------------------- place --

constexpr std::size_t kContinentSites = 1000;
constexpr std::size_t kBatches = 500;
constexpr std::size_t kBatchApps = 100;

/// 1000 synthetic sites over North America and Europe (the hash-derived
/// recipe of tests/test_catalog_scale.cpp).
geo::CompiledSiteCatalog continent_catalog() {
  std::vector<geo::City> sites;
  sites.reserve(kContinentSites);
  const char* const countries_na[] = {"US", "CA", "MX"};
  const char* const countries_eu[] = {"DE", "FR", "ES", "PL", "IT"};
  for (std::size_t i = 0; i < kContinentSites; ++i) {
    std::uint64_t stream = 0x5ca1ab1eULL + i;
    geo::City c;
    c.id = static_cast<geo::SiteId>(i);
    c.name = "synth-" + std::to_string(i);
    const bool europe = i % 2 == 1;
    c.continent = europe ? geo::Continent::kEurope : geo::Continent::kNorthAmerica;
    const double u1 = static_cast<double>(util::splitmix64(stream) >> 11) * 0x1.0p-53;
    const double u2 = static_cast<double>(util::splitmix64(stream) >> 11) * 0x1.0p-53;
    const double u3 = static_cast<double>(util::splitmix64(stream) >> 11) * 0x1.0p-53;
    if (europe) {
      c.country = countries_eu[i / 2 % 5];
      c.location.lat_deg = 36.0 + 24.0 * u1;
      c.location.lon_deg = -10.0 + 35.0 * u2;
    } else {
      c.country = countries_na[i / 2 % 3];
      c.location.lat_deg = 25.0 + 25.0 * u1;
      c.location.lon_deg = -125.0 + 55.0 * u2;
    }
    c.population_k = 50.0 + 4000.0 * u3;
    sites.push_back(std::move(c));
  }
  return geo::CompiledSiteCatalog(std::move(sites));
}

std::string run_place(const Options& options, Report& report, std::uint64_t t_start) {
  attach_store(options.store_dir);
  const geo::CompiledSiteCatalog catalog = continent_catalog();
  const geo::Region region = geo::catalog_region(catalog, "continent-1000");
  carbon::CarbonIntensityService service;
  const std::uint64_t t_carbon = obs::now_ns();
  const std::vector<std::string> zones = service.add_region(region);
  const std::uint64_t t_carbon_end = obs::now_ns();
  if (options.phase == "resume") {
    return report_carbon_resume(report, service, zones, elapsed_s(t_carbon, t_carbon_end));
  }

  const sim::EdgeCluster pristine = sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2);
  const std::uint64_t t_geo = obs::now_ns();
  const geo::BandedLatencyMatrix latency(geo::LatencyModel{}, pristine.cities(), 8.0);
  const std::uint64_t t_geo_end = obs::now_ns();
  sim::WorkloadParams params;
  params.model_weights = {1.0, 1.0, 1.0, 0.0};
  params.latency_limit_rtt_ms = 20.0;
  params.seed = 0xC0417E17ULL + options.seed;
  sim::WorkloadGenerator generator(params, pristine);
  std::vector<std::vector<sim::Application>> batches(kBatches);
  for (auto& batch : batches) batch = generator.batch(kBatchApps);
  const auto batch_hour = [](std::size_t b) {
    return static_cast<carbon::HourIndex>(b * 8760 / kBatches);
  };
  const core::PolicyConfig policy = core::PolicyConfig::carbon_edge();
  core::PlacementService placement(policy);
  const std::uint64_t t0 = begin_timed_section(report, options, t_start);

  // Timed section: each batch onto a fresh copy of the pristine cluster.
  const Snapshot before = snapshot();
  std::vector<core::PlacementResult> results(kBatches);
  std::vector<double> window_ms;
  std::vector<double> decision_ms;
  for (std::size_t b = 0; b < kBatches; ++b) {
    const std::uint64_t tw = obs::now_ns();
    sim::EdgeCluster working = pristine;
    core::PlacementInput input;
    input.cluster = &working;
    input.latency = &latency;
    input.carbon = &service;
    input.now = batch_hour(b);
    const std::uint64_t td = obs::now_ns();
    results[b] = placement.place(input, batches[b]);
    const std::uint64_t te = obs::now_ns();
    decision_ms.push_back(elapsed_ms(td, te));
    window_ms.push_back(elapsed_ms(tw, te));
  }
  const std::uint64_t t1 = obs::now_ns();
  const Snapshot after = snapshot();
  const double wall_s = elapsed_s(t0, t1);

  // Checks: every committed place() answer, mapped back onto its problem's
  // columns, validates and costs exactly the reported objective, and every
  // decision meets its app's RTT SLO. Traced runs also time build_problem
  // and a fresh solve_auto on the same inputs.
  std::uint64_t placed = 0;
  std::uint64_t rejected = 0;
  double carbon_g = 0.0;
  double rtt_sum = 0.0;
  double objective_sum = 0.0;
  double build_ms = 0.0;
  double solve_ms = 0.0;
  bool valid = true;
  bool same_objective = true;
  bool within_slo = true;
  for (std::size_t b = 0; b < kBatches; ++b) {
    sim::EdgeCluster working = pristine;
    core::PlacementInput input;
    input.cluster = &working;
    input.latency = &latency;
    input.carbon = &service;
    input.now = batch_hour(b);
    const std::uint64_t tb = obs::now_ns();
    const core::BuiltProblem built = core::build_problem(input, batches[b], policy);
    const std::uint64_t ts = obs::now_ns();
    if (options.trace) {
      (void)solver::solve_auto(built.problem);
      build_ms += elapsed_ms(tb, ts);
      solve_ms += elapsed_ms(ts, obs::now_ns());
    }

    std::map<std::pair<std::size_t, std::uint32_t>, std::size_t> column;
    for (std::size_t j = 0; j < built.servers.size(); ++j) {
      column[{built.servers[j].site, built.servers[j].server->id()}] = j;
    }
    std::map<sim::AppId, std::size_t> row;
    for (std::size_t i = 0; i < batches[b].size(); ++i) row[batches[b][i].id] = i;
    const core::PlacementResult& result = results[b];
    std::vector<std::size_t> assignment(batches[b].size(), solver::kUnassigned);
    for (const core::PlacementDecision& decision : result.decisions) {
      const std::size_t i = row.at(decision.app);
      assignment[i] = column.at({decision.site, decision.server});
      within_slo = within_slo && decision.rtt_ms <= batches[b][i].latency_limit_rtt_ms;
      carbon_g += decision.carbon_g;
      rtt_sum += decision.rtt_ms;
    }
    const solver::AssignmentSolution committed = solver::evaluate(built.problem, assignment);
    valid = valid && solver::validate(built.problem, committed);
    same_objective = same_objective &&
                     std::abs(committed.total_cost - result.objective) <=
                         1e-9 * std::max(1.0, std::abs(result.objective));
    placed += result.decisions.size();
    rejected += result.rejected.size();
    objective_sum += result.objective;
  }
  report_outcome(report, wall_s, placed, rejected, static_cast<double>(kBatches * kBatchApps),
                 carbon_g, placed > 0 ? rtt_sum / static_cast<double>(placed) : 0.0);
  report.fields.list("window_ms", window_ms).list("decision_ms", decision_ms);
  report.fields.num("objective_sum", objective_sum);
  report.check("committed_answers_validate", valid);
  report.check("committed_cost_matches_objective", same_objective);
  report.check("decisions_within_slo", within_slo);
  report.check("every_app_answered", placed + rejected == kBatches * kBatchApps);

  report_carbon_layers(report, options.trace ? elapsed_ms(t_carbon, t_carbon_end) : 0.0);
  report.layer("geo.latency_build_ms", options.trace ? elapsed_ms(t_geo, t_geo_end) : 0.0);
  report.layer("geo.latency_entries", static_cast<double>(latency.stored_entries()));
  report_registry_layers(report, before, after, wall_s);
  report.layer("core.build_problem_ms", options.trace ? build_ms : 0.0);
  report.layer("solver.solve_ms", options.trace ? solve_ms : 0.0);
  report_store_layers(report, options.store_dir);
  return carbon_digest(service, zones);
}

int usage() {
  std::cerr << "usage: carbonedge_perf <sweep_cdn_us|serve_replay_cdn_us|place_continent> "
               "<cold|resume> --seed N --store DIR [--trace]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t t_start = obs::now_ns();
  Options options;
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() < 2) return usage();
  options.workload = args[0];
  options.phase = args[1];
  for (std::size_t i = 2; i < args.size(); ++i) {
    if (args[i] == "--trace") {
      options.trace = true;
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      options.seed = std::stoull(args[++i]);
    } else if (args[i] == "--store" && i + 1 < args.size()) {
      options.store_dir = args[++i];
    } else {
      return usage();
    }
  }
  if (options.store_dir.empty() || (options.phase != "cold" && options.phase != "resume")) {
    return usage();
  }

  try {
    Report report;
    std::string output;
    if (options.workload == "sweep_cdn_us") {
      output = run_sweep(options, report, t_start);
    } else if (options.workload == "serve_replay_cdn_us") {
      output = run_serve(options, report, t_start);
    } else if (options.workload == "place_continent") {
      output = run_place(options, report, t_start);
    } else {
      return usage();
    }
    if (options.phase == "cold") report.layer("util.peak_lanes", util::global_budget().peak_lanes());
    report.fields.str("output", output);
    std::cout << report.json(options) << "\n";
  } catch (const std::exception& error) {
    std::cerr << "carbonedge_perf: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
