#include "harness.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <tuple>

#include "common/statistics.hpp"
#include "engine/registry.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"

namespace survey_bench {

using namespace ddmc;

void pin_current_thread(int cpu) {
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned c = 0; c < cpus; ++c) {
    if (cpu == kAnyCpu || c == static_cast<unsigned>(cpu) % cpus) CPU_SET(c, &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  return ddmc::percentile(values, p);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t pick(std::uint64_t seed, std::uint64_t stream, std::uint64_t index,
                 std::size_t n) {
  // splitmix64 over the three inputs: stable across platforms and runs.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL +
                    index * 0x94D049BB133111EBULL + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<std::size_t>(z % n);
}

// ----------------------------------------------------------- tuning cache --

void seed_tuning_cache(const std::string& path, const dedisp::Plan& plan,
                       const PinnedEngine& pinned) {
  std::filesystem::remove(path);
  tuner::TuningCache cache(path);
  tuner::CacheEntry entry;
  entry.host =
      tuner::HostSignature::of(*engine::make_engine(pinned.id, pinned.options));
  entry.plan = tuner::PlanSignature::of(plan);
  entry.config = pinned.config;
  entry.seconds = 1.0;  // positive: a measured entry, as a tuned run stores
  entry.evaluated = 1;
  cache.store(entry);
}

tuner::GuidedTuningOptions warm_tuning_options(const PinnedEngine& pinned) {
  tuner::GuidedTuningOptions options;
  options.engines = {pinned.id};
  options.engine_options = pinned.options;
  options.host.threads = pinned.options.cpu.threads;
  options.host.stage_rows = pinned.options.cpu.stage_rows;
  options.host.vectorize = pinned.options.cpu.vectorize;
  return options;
}

void check_warm_outcome(const tuner::GuidedTuningOutcome& outcome,
                        const PinnedEngine& pinned, Report& report) {
  if (outcome.source != tuner::GuidedTuningOutcome::Source::kCacheHit ||
      outcome.configs_evaluated != 0 || outcome.engine_id != pinned.id ||
      !(outcome.config == pinned.config)) {
    report.fail("warm tuning did not hit the seeded cache entry (" +
                outcome.engine_id + " " + outcome.config.encode() + ", " +
                std::to_string(outcome.configs_evaluated) + " measured)");
  }
}

// ---------------------------------------------------------- span analysis --

namespace {

/// Registry totals of an engine's FLOP and computed bytes.
std::pair<double, double> engine_counters(const std::string& engine_id) {
  auto& registry = telemetry::MetricsRegistry::instance();
  const telemetry::Labels labels = {{"engine", engine_id}};
  return {registry.counter("ddmc.engine.flop_total", labels)->value(),
          registry.counter("ddmc.engine.bytes_total", labels)->value()};
}

}  // namespace

void TraceWindow::start() {
  auto& tracer = telemetry::Tracer::instance();
  tracer.set_enabled(false);
  tracer.clear();
  if (!engine_id_.empty()) {
    std::tie(flop_at_start_, bytes_at_start_) = engine_counters(engine_id_);
  }
  tracer.set_enabled(true);
}

void TraceWindow::stop() {
  auto& tracer = telemetry::Tracer::instance();
  tracer.set_enabled(false);
  const std::vector<telemetry::TraceEvent> events = tracer.events();
  events_.insert(events_.end(), events.begin(), events.end());
  dropped_ += tracer.dropped();
  if (!engine_id_.empty()) {
    const auto [flop, bytes] = engine_counters(engine_id_);
    flop_ += flop - flop_at_start_;
    bytes_ += bytes - bytes_at_start_;
  }
}

void TraceWindow::save(const std::string& path, Report& report) const {
  std::ofstream out(path);
  out << telemetry::export_chrome_trace(events_);
  report.note("trace " + std::to_string(events_.size()) + " events in " +
              (out ? path : "(unwritable) " + path));
}

std::vector<const telemetry::TraceEvent*> TraceWindow::named(
    const char* name) const {
  std::vector<const telemetry::TraceEvent*> out;
  for (const auto& e : events_) {
    if (std::strcmp(e.name, name) == 0) out.push_back(&e);
  }
  return out;
}

double TraceWindow::total_s(const char* name) const {
  double total = 0.0;
  for (const auto* e : named(name)) total += static_cast<double>(e->dur_ns);
  return total * 1e-9;
}

double covered_s(std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals,
                 std::uint64_t begin_ns, std::uint64_t end_ns) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0;
  std::uint64_t cursor = begin_ns;
  for (auto [a, b] : intervals) {
    a = std::max(a, cursor);
    b = std::min(b, end_ns);
    if (b <= a) continue;
    covered += b - a;
    cursor = b;
  }
  return static_cast<double>(covered) * 1e-9;
}

namespace {

bool inside(const telemetry::TraceEvent& child,
            const telemetry::TraceEvent& parent) {
  return child.start_ns >= parent.start_ns &&
         child.start_ns < parent.start_ns + parent.dur_ns;
}

}  // namespace

double report_batch_layers(const TraceWindow& trace, std::size_t workers,
                           Report& report) {
  const auto calls = trace.named("bench.call");
  const auto tasks = trace.named("shard.task");
  const auto plans = trace.named("shard.plan");
  const auto detects = trace.named("bench.detect");

  double self_s = 0.0;
  double dedisperse_wall_s = 0.0;
  std::vector<double> imbalance;
  std::vector<double> detect_s;
  for (const auto* d : detects) detect_s.push_back(d->dur_ns * 1e-9);
  for (const auto* call : calls) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> children;
    std::vector<double> task_s;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> detect_spans;
    for (const auto* t : tasks) {
      if (!inside(*t, *call)) continue;
      children.emplace_back(t->start_ns, t->start_ns + t->dur_ns);
      task_s.push_back(t->dur_ns * 1e-9);
    }
    for (const auto* p : plans) {
      if (inside(*p, *call)) {
        children.emplace_back(p->start_ns, p->start_ns + p->dur_ns);
      }
    }
    for (const auto* d : detects) {
      if (!inside(*d, *call)) continue;
      children.emplace_back(d->start_ns, d->start_ns + d->dur_ns);
      detect_spans.emplace_back(d->start_ns, d->start_ns + d->dur_ns);
    }
    const std::uint64_t end = call->start_ns + call->dur_ns;
    const double call_s = call->dur_ns * 1e-9;
    self_s += call_s - covered_s(children, call->start_ns, end);
    dedisperse_wall_s += call_s - covered_s(detect_spans, call->start_ns, end);
    if (!task_s.empty()) {
      double sum = 0.0;
      for (double s : task_s) sum += s;
      imbalance.push_back(*std::max_element(task_s.begin(), task_s.end()) /
                          (sum / static_cast<double>(task_s.size())));
    }
  }
  const double busy_s = trace.total_s("shard.task");
  const std::size_t retries = trace.count("shard.retry");
  report.set("shard.plan_s", trace.total_s("shard.plan"), "s",
             plans.size());
  report.set("shard.tasks", static_cast<double>(tasks.size()), "count");
  report.set("shard.task_busy_s", busy_s, "s", tasks.size());
  report.set("shard.imbalance", median(imbalance), "ratio", imbalance.size());
  const double capacity_s = dedisperse_wall_s * static_cast<double>(workers);
  report.set("shard.idle_frac",
             capacity_s > 0.0 ? 1.0 - busy_s / capacity_s : 0.0, "ratio",
             calls.size());
  report.set("shard.retries", static_cast<double>(retries), "count");
  report.set("pipeline.self_s", self_s, "s", calls.size());
  report.set("detect.s", median(detect_s), "s", detect_s.size());
  return dedisperse_wall_s;
}

void report_engine_layer(const TraceWindow& trace, double wall_s,
                         Report& report) {
  const auto runs = trace.named("engine.execute");
  const double flop = trace.flop();
  const double bytes = trace.bytes();
  const double op_per_byte = bytes > 0.0 ? flop / bytes : 0.0;
  const double gflops = wall_s > 0.0 ? flop / wall_s * 1e-9 : 0.0;
  const double gbps = wall_s > 0.0 ? bytes / wall_s * 1e-9 : 0.0;
  const double peak = report.metrics().at("machine.fma_gflops").value;
  const double bandwidth = report.metrics().at("machine.triad_gbps").value;
  const double roof = std::min(peak, bandwidth * op_per_byte);
  report.set("engine.runs", static_cast<double>(runs.size()), "count");
  report.set("engine.busy_s", trace.total_s("engine.execute"), "s",
             runs.size());
  report.set("engine.flop", flop, "FLOP");
  report.set("engine.bytes_computed", bytes, "B");
  report.set("engine.op_per_byte", op_per_byte, "FLOP/B");
  report.set("engine.gflops", gflops, "GFLOP/s");
  report.set("engine.gbps", gbps, "GB/s");
  report.set("engine.roofline_frac", roof > 0.0 ? gflops / roof : 0.0,
             "ratio");
}

}  // namespace survey_bench
