#pragma once
/// \file harness.hpp
/// \brief Shared pieces of the survey benchmark: arguments, the metric
/// report, clocks, the tuning-cache warm path, span analysis and the
/// machine probe.
///
/// The harness drives the library only through its public entry points
/// (pipeline, stream, tuner, sky); it adds no instrumentation inside the
/// library. Per-layer numbers come from timing those calls and from the
/// spans the library already records (engine.execute, shard.plan,
/// shard.task, stream.chunk, stream.sink, tuner.tune).

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dedisp/plan.hpp"
#include "engine/engine.hpp"
#include "telemetry/tracing.hpp"
#include "tuner/tuning_cache.hpp"

namespace survey_bench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the run may write (the tuning-cache file lives here).
  std::string workdir = ".";
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// What one run measured: named metrics plus the operation ledger behind
/// failed_frac. An operation is one beam, one stream chunk or one batch
/// call; it fails if it throws, is skipped, fails its reference check or
/// misses its injected pulse.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1) {
    metrics_[name] = Metric{value, unit, samples};
  }
  bool has(const std::string& name) const { return metrics_.count(name) > 0; }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

  void operation(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) fail(what);
  }
  /// A failure that is not one operation (setup, tracing): the run is not
  /// correct, but the ledger's denominators stay operation counts.
  void fail(const std::string& what) {
    ++failed_;
    if (failures_.size() < 8) failures_.push_back(what);
  }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

  /// Human-readable line printed ahead of the JSON result.
  void note(const std::string& line) { notes_.push_back(line); }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::map<std::string, Metric> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
};

/// Steady-clock seconds (the tracer's timebase, in seconds).
inline double now_s() {
  return static_cast<double>(ddmc::telemetry::Tracer::now_ns()) * 1e-9;
}

/// Run the calling thread on CPU \p cpu modulo the CPU count, or on every
/// CPU for kAnyCpu. Threads it starts afterwards inherit the choice.
inline constexpr int kAnyCpu = -1;
void pin_current_thread(int cpu);

double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> values, double p);
/// Peak resident set of this process in MiB.
double peak_rss_mb();
/// Deterministic per-(seed, stream, index) value in [0, n).
std::size_t pick(std::uint64_t seed, std::uint64_t stream, std::uint64_t index,
                 std::size_t n);

// ----------------------------------------------------------- tuning cache --

/// A workload's pinned engine: registry id, engine-native config and the
/// factory options its consumer runs it with.
struct PinnedEngine {
  std::string id;
  ddmc::engine::EngineConfig config;
  ddmc::engine::EngineOptions options;
};

/// Write a fresh cache file at \p path holding one entry: \p pinned on
/// \p plan, under the host signature the consumer will look up.
void seed_tuning_cache(const std::string& path, const ddmc::dedisp::Plan& plan,
                       const PinnedEngine& pinned);

/// Guided-tuning options that resolve \p pinned from a seeded cache.
ddmc::tuner::GuidedTuningOptions warm_tuning_options(
    const PinnedEngine& pinned);

/// Check a warm resolution: an exact hit on the pinned config with zero
/// measurements. Records a failure on \p report otherwise.
void check_warm_outcome(const ddmc::tuner::GuidedTuningOutcome& outcome,
                        const PinnedEngine& pinned, Report& report);

// ---------------------------------------------------------- span analysis --

/// Events recorded by the tracer over one or more start()/stop()
/// intervals, plus what \p engine_id's registry FLOP and byte counters
/// gained during them. start() clears the tracer's buffer and enables
/// recording; stop() disables it and appends the interval's events.
class TraceWindow {
 public:
  explicit TraceWindow(std::string engine_id = {})
      : engine_id_(std::move(engine_id)) {}

  void start();
  void stop();

  double flop() const { return flop_; }
  double bytes() const { return bytes_; }
  const std::vector<ddmc::telemetry::TraceEvent>& events() const {
    return events_;
  }
  std::size_t dropped() const { return dropped_; }
  /// Write the window as a Chrome trace (chrome://tracing, Perfetto).
  void save(const std::string& path, Report& report) const;

  std::vector<const ddmc::telemetry::TraceEvent*> named(
      const char* name) const;
  std::size_t count(const char* name) const { return named(name).size(); }
  double total_s(const char* name) const;

 private:
  std::string engine_id_;
  std::vector<ddmc::telemetry::TraceEvent> events_;
  std::size_t dropped_ = 0;
  double flop_ = 0.0;
  double bytes_ = 0.0;
  double flop_at_start_ = 0.0;
  double bytes_at_start_ = 0.0;
};

/// Seconds of [begin_ns, end_ns) covered by the union of \p intervals.
double covered_s(std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals,
                 std::uint64_t begin_ns, std::uint64_t end_ns);

/// Benchmark-side batch-call analysis: for every `bench.call` span, the
/// `shard.task`, `shard.plan` and `bench.detect` spans that start inside
/// it. Fills the pipeline.*, shard.* and detect.s metrics and returns the
/// calls' wall seconds outside detection.
double report_batch_layers(const TraceWindow& trace, std::size_t workers,
                           Report& report);

/// engine.* metrics from the window's engine.execute spans and engine
/// counters over \p wall_s seconds of the workload's own wall time,
/// against the machine roofline already in \p report.
void report_engine_layer(const TraceWindow& trace, double wall_s,
                         Report& report);

// ---------------------------------------------------------- machine probe --

/// STREAM-style triad bandwidth (GB/s, every array at least 4× the last
/// level cache) and FMA peak (GFLOP/s) with one thread per CPU.
void probe_machine(Report& report);

}  // namespace survey_bench
