// The two batch workloads: apertif_beams (MultiBeamDedisperser over the
// beams × shards job grid, cpu_tiled) and apertif_highdm
// (ShardedDedisperser, fdmt). Both are closed loops: the next call starts
// when the previous one has returned and its detections are done.

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "common/array2d.hpp"
#include "common/timer.hpp"
#include "dedisp/fdmt.hpp"
#include "dedisp/plan.hpp"
#include "dedisp/reference.hpp"
#include "engine/registry.hpp"
#include "harness.hpp"
#include "pipeline/multibeam.hpp"
#include "pipeline/sharding.hpp"
#include "sky/detection.hpp"
#include "sky/observation.hpp"
#include "sky/signal.hpp"
#include "workloads.hpp"

namespace survey_bench {

using namespace ddmc;

namespace {

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kSetupRepetitions = 21;
/// Per-channel pulse height over unit-variance noise: the true trial sums
/// to 32σ on 1024 channels, and a one-sample pulse smears over several
/// samples on the neighbouring trials, so detection resolves the trial.
constexpr double kPulseAmplitude = 1.0;

struct Beam {
  Array2D<float> data;
  std::size_t true_dm = 0;
  double max_abs = 0.0;
};

/// Seeded beams: unit white noise plus one dispersed one-sample pulse at
/// a trial DM of the plan's grid, generated on one thread per CPU.
std::vector<Beam> make_beams(const dedisp::Plan& plan, std::uint64_t seed,
                             std::size_t count) {
  const sky::Observation& obs = plan.observation();
  std::vector<Beam> beams(count);
  const auto make = [&](std::size_t i) {
    Beam& beam = beams[i];
    beam.data = Array2D<float>(plan.channels(), plan.in_samples());
    sky::NoiseParams noise;
    noise.seed = seed * 1000003ULL + i;
    sky::generate_noise(obs, beam.data.view(), noise);
    beam.true_dm = plan.dms() / 16 + pick(seed, 1, i, plan.dms() * 7 / 8);
    sky::PulsarParams pulse;
    pulse.dm = obs.dm_value(beam.true_dm);
    pulse.period_s = 1e6;  // one pulse
    pulse.width_s = 1.0 / obs.sampling_rate();
    pulse.amplitude = kPulseAmplitude;
    const std::size_t at = plan.out_samples() / 10 +
                           pick(seed, 2, i, plan.out_samples() * 8 / 10);
    pulse.first_pulse_s = static_cast<double>(at) / obs.sampling_rate();
    sky::inject_pulsar(obs, beam.data.view(), pulse);
    for (std::size_t ch = 0; ch < beam.data.rows(); ++ch) {
      for (float v : beam.data.cview().row(ch)) {
        beam.max_abs = std::max(beam.max_abs, std::fabs(double{v}));
      }
    }
  };
  const std::size_t threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < count; i += threads) make(i);
    });
  }
  for (auto& th : pool) th.join();
  return beams;
}

/// A ready executor: what setup produces and the timed calls drive.
class BatchSession {
 public:
  virtual ~BatchSession() = default;
  /// Dedisperse \p beams into \p outs (resized by the session).
  virtual void run(const std::vector<ConstView2D<float>>& beams,
                   std::vector<Array2D<float>>& outs) = 0;
  /// Allowed |engine − reference| on trial \p dm for inputs bounded by
  /// \p max_abs; 0 demands bitwise equality.
  virtual double tolerance(std::size_t dm, double max_abs) const = 0;
};

class MultiBeamSession final : public BatchSession {
 public:
  MultiBeamSession(dedisp::Plan plan, const tuner::GuidedTuningOutcome& tuned,
                   const PinnedEngine& pinned)
      : mb_(std::move(plan), tuned.config, tuned.engine_id, pinned.options) {}

  void run(const std::vector<ConstView2D<float>>& beams,
           std::vector<Array2D<float>>& outs) override {
    outs = mb_.dedisperse_sharded(beams, kWorkers);
  }
  double tolerance(std::size_t, double) const override { return 0.0; }

 private:
  pipeline::MultiBeamDedisperser mb_;
};

class ShardedSession final : public BatchSession {
 public:
  ShardedSession(dedisp::Plan plan, const tuner::GuidedTuningOutcome& tuned,
                 const PinnedEngine& pinned)
      : sd_(std::move(plan), tuned.config, options(tuned, pinned)) {}

  void run(const std::vector<ConstView2D<float>>& beams,
           std::vector<Array2D<float>>& outs) override {
    outs.resize(beams.size());
    for (std::size_t i = 0; i < beams.size(); ++i) {
      if (outs[i].rows() == 0) {  // first call; reused afterwards
        outs[i] = Array2D<float>(sd_.plan().dms(), sd_.plan().out_samples());
      }
      sd_.dedisperse(beams[i], outs[i].view());
    }
  }

  double tolerance(std::size_t dm, double max_abs) const override {
    for (std::size_t s = 0; s < sd_.shard_count(); ++s) {
      const pipeline::DmShard& shard = sd_.layout().shards[s];
      if (dm < shard.first_dm || dm >= shard.first_dm + shard.dms) continue;
      const engine::EngineConfig& cfg = sd_.shard_config(s);
      dedisp::SubbandConfig split;
      split.subbands = static_cast<std::size_t>(cfg.get("subbands", 32));
      split.coarse_step = static_cast<std::size_t>(cfg.get("coarse_step", 16));
      return dedisp::fdmt_error_bound(sd_.shard_plan(s), split, max_abs);
    }
    return 0.0;
  }

 private:
  static pipeline::ShardedOptions options(
      const tuner::GuidedTuningOutcome& tuned, const PinnedEngine& pinned) {
    pipeline::ShardedOptions o;
    o.workers = kWorkers;
    o.engine = tuned.engine_id;
    o.engine_options = pinned.options;
    return o;
  }

  pipeline::ShardedDedisperser sd_;
};

struct BatchSpec {
  PinnedEngine pinned;
  std::size_t beams_per_call = 1;
  std::size_t distinct_beams = 1;
  std::function<dedisp::Plan()> make_plan;
  std::function<std::unique_ptr<BatchSession>(
      dedisp::Plan, const tuner::GuidedTuningOutcome&, const PinnedEngine&)>
      make_session;
};

class BatchRunner {
 public:
  BatchRunner(const BatchSpec& spec, const Args& args, Report& report)
      : spec_(spec), args_(args), report_(report), plan_(spec.make_plan()) {}

  void run() {
    if (args_.trace) probe_machine(report_);  // before the beams fill memory
    cache_path_ = args_.workdir + "/tuning_cache.csv";
    seed_tuning_cache(cache_path_, plan_, spec_.pinned);

    TraceWindow setup_trace;
    if (args_.trace) setup_trace.start();
    std::vector<double> setup_s;
    std::size_t measurements = 0;
    for (std::size_t rep = 0; rep < kSetupRepetitions; ++rep) {
      // The CPUs of this machine ran the same single-threaded setup up to
      // half again as fast as one another, so the repetitions rotate over
      // all of them.
      pin_current_thread(static_cast<int>(rep));
      const Stopwatch watch;
      const auto session = setup(measurements);
      setup_s.push_back(watch.seconds());
    }
    // The measured session is built unpinned: its worker threads inherit
    // the constructing thread's CPUs.
    pin_current_thread(kAnyCpu);
    std::unique_ptr<BatchSession> session = setup(measurements);

    // Inputs are generated after setup, so setup is timed before the
    // process has touched the inputs' memory.
    beams_ = make_beams(plan_, args_.seed, spec_.distinct_beams);
    std::vector<Array2D<float>> outs;
    call(*session, outs, /*verify=*/false);  // warmup, excluded

    if (!args_.trace) {
      const std::vector<double> call_s = calls(*session, outs, args_.seconds);
      const double beam_seconds = static_cast<double>(plan_.out_samples()) /
                                  plan_.observation().sampling_rate();
      report_.set("setup_s", median(setup_s), "s", setup_s.size());
      report_.set("realtime_x",
                  spec_.beams_per_call * beam_seconds / median(call_s), "x",
                  call_s.size());
      report_.set("emit_ms_p50", 1e3 * median(call_s), "ms", call_s.size());
      report_.set("emit_ms_p99", 1e3 * percentile(call_s, 99.0), "ms",
                  call_s.size());
      report_.set("peak_rss_mb", peak_rss_mb(), "MB");
      std::string per_call = "call_ms";
      for (double s : call_s) per_call += " " + std::to_string(std::lround(1e3 * s));
      report_.note(per_call);
      return;
    }

    setup_trace.stop();
    std::vector<double> resolve_s;
    for (const auto* e : setup_trace.named("tuner.tune")) {
      resolve_s.push_back(e->dur_ns * 1e-9);
    }
    report_.set("tuner.resolve_s", median(resolve_s), "s", resolve_s.size());
    report_.set("tuner.measurements", static_cast<double>(measurements),
                "count");

    // Untraced and traced calls alternate over the window: their realtime
    // ratio is the tracing overhead.
    std::vector<double> plain_s;
    std::vector<double> traced_s;
    TraceWindow trace(spec_.pinned.id);
    const double start = now_s();
    while (traced_s.size() < 3 || now_s() - start < args_.seconds) {
      if (plain_s.size() <= traced_s.size()) {
        plain_s.push_back(call(*session, outs, /*verify=*/true));
        continue;
      }
      trace.start();
      traced_s.push_back(call(*session, outs, /*verify=*/true));
      trace.stop();
    }
    trace.save(args_.workdir + "/trace.json", report_);
    report_engine_layer(trace, report_batch_layers(trace, kWorkers, report_),
                        report_);
    report_.set("trace.overhead_frac", 1.0 - median(plain_s) / median(traced_s),
                "ratio", traced_s.size());
    report_.set("trace.dropped",
                static_cast<double>(trace.dropped() + setup_trace.dropped()),
                "count");
    if (trace.dropped() + setup_trace.dropped() > 0) {
      report_.fail("the tracer dropped events");
    }
    report_.set("detect.recall",
                detected_ == 0 ? 0.0
                               : static_cast<double>(recovered_) / detected_,
                "ratio", detected_);
    session.reset();
    outs.clear();
    report_.set("engine.single_thread_s", single_thread_s(), "s");
  }

 private:
  /// Plan → cache load → warm tune_guided → executor ready.
  std::unique_ptr<BatchSession> setup(std::size_t& measurements) {
    telemetry::TraceSpan span("bench.setup");
    std::optional<dedisp::Plan> plan;
    std::optional<tuner::TuningCache> cache;
    {
      telemetry::TraceSpan step("bench.setup.plan");
      plan.emplace(spec_.make_plan());
    }
    {
      telemetry::TraceSpan step("bench.setup.cache_load");
      cache.emplace(cache_path_);
    }
    const tuner::GuidedTuningOutcome tuned = tuner::tune_guided(
        *plan, *cache, warm_tuning_options(spec_.pinned));
    check_warm_outcome(tuned, spec_.pinned, report_);
    measurements += tuned.configs_evaluated;
    telemetry::TraceSpan step("bench.setup.executor");
    return spec_.make_session(std::move(*plan), tuned, spec_.pinned);
  }

  /// One closed-loop call over the next beams_per_call beams: dedisperse,
  /// then detect on every output. Returns its wall seconds; verification
  /// runs after the timed region.
  double call(BatchSession& session, std::vector<Array2D<float>>& outs,
              bool verify) {
    std::vector<std::size_t> ids;
    std::vector<ConstView2D<float>> views;
    for (std::size_t b = 0; b < spec_.beams_per_call; ++b) {
      ids.push_back(next_beam_++ % beams_.size());
      views.push_back(beams_[ids.back()].data.cview());
    }
    std::vector<sky::DetectionResult> found(ids.size());
    bool threw = false;
    const double t0 = now_s();
    try {
      telemetry::TraceSpan span("bench.call");
      session.run(views, outs);
      detect_all(outs, found);
    } catch (const std::exception& e) {
      threw = true;
      report_.note(std::string("call failed: ") + e.what());
    }
    const double elapsed = now_s() - t0;
    if (!verify) return elapsed;
    for (std::size_t b = 0; b < ids.size(); ++b) {
      const Beam& beam = beams_[ids[b]];
      if (threw || b >= outs.size()) {
        report_.operation(false, "beam " + std::to_string(ids[b]) + " threw");
        continue;
      }
      ++detected_;
      const bool hit = found[b].best_trial == beam.true_dm;
      if (hit) ++recovered_;
      const std::size_t row =
          pick(args_.seed, 3, call_index_ * 64 + b, plan_.dms());
      const bool rows_ok = row_matches(session, ids[b], beam.true_dm, outs[b]) &&
                           row_matches(session, ids[b], row, outs[b]);
      report_.operation(
          hit && rows_ok,
          "beam " + std::to_string(ids[b]) +
              (hit ? "" : ": pulse at trial " + std::to_string(beam.true_dm) +
                              " detected at " +
                              std::to_string(found[b].best_trial)) +
              (rows_ok ? "" : ": reference mismatch"));
    }
    ++call_index_;
    return elapsed;
  }

  /// Detection on every output, spread over one thread per CPU: beams are
  /// independent, and each output's trials split into contiguous slices
  /// whose best candidates merge in trial order (strict >, as
  /// detect_best_dm itself ties to the lowest trial).
  static void detect_all(const std::vector<Array2D<float>>& outs,
                         std::vector<sky::DetectionResult>& found) {
    const std::size_t threads =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    const std::size_t slices = std::max<std::size_t>(1, threads / outs.size());
    std::vector<sky::DetectionResult> part(outs.size() * slices);
    std::vector<std::exception_ptr> errors(part.size());
    std::vector<std::thread> pool;
    for (std::size_t b = 0; b < outs.size(); ++b) {
      for (std::size_t s = 0; s < slices; ++s) {
        pool.emplace_back([&, b, s] {
          try {
            telemetry::TraceSpan span("bench.detect");
            const ConstView2D<float> all = outs[b].cview();
            const std::size_t lo = all.rows() * s / slices;
            const std::size_t hi = all.rows() * (s + 1) / slices;
            sky::DetectionResult r = sky::detect_best_dm(ConstView2D<float>(
                all.data() + lo * all.pitch(), hi - lo, all.cols(), all.pitch()));
            r.best_trial += lo;
            part[b * slices + s] = r;
          } catch (...) {
            errors[b * slices + s] = std::current_exception();
          }
        });
      }
    }
    for (auto& t : pool) t.join();
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    for (std::size_t b = 0; b < outs.size(); ++b) {
      found[b] = part[b * slices];
      for (std::size_t s = 1; s < slices; ++s) {
        if (part[b * slices + s].best_snr > found[b].best_snr) {
          found[b] = part[b * slices + s];
        }
      }
    }
  }

  /// Calls until \p seconds of wall time (verification included) have
  /// passed, at least three.
  std::vector<double> calls(BatchSession& session,
                            std::vector<Array2D<float>>& outs,
                            double seconds) {
    std::vector<double> out;
    const double start = now_s();
    while (out.size() < 3 || now_s() - start < seconds) {
      out.push_back(call(session, outs, /*verify=*/true));
    }
    return out;
  }

  /// Trial \p dm of \p out against the reference engine on the plan's
  /// one-trial dm_shard slice, within the session's tolerance.
  bool row_matches(const BatchSession& session, std::size_t beam_id,
                   std::size_t dm, const Array2D<float>& out) {
    auto [it, fresh] = reference_rows_.try_emplace({beam_id, dm});
    if (fresh) {
      const dedisp::Plan slice = plan_.dm_shard(dm, 1);
      it->second = dedisp::dedisperse_reference(slice, beams_[beam_id].data.cview());
    }
    const double tol = session.tolerance(dm, beams_[beam_id].max_abs);
    const auto expect = it->second.cview().row(0);
    const auto got = out.cview().row(dm);
    for (std::size_t t = 0; t < expect.size(); ++t) {
      const double diff = std::fabs(double{got[t]} - double{expect[t]});
      if (tol == 0.0 ? got[t] != expect[t] : !(diff <= tol)) return false;
    }
    return true;
  }

  /// One beam through the pinned engine on one thread: the baseline the
  /// parallel rows are compared with.
  double single_thread_s() {
    engine::EngineOptions options = spec_.pinned.options;
    options.cpu.threads = 1;
    const auto engine = engine::make_engine(spec_.pinned.id, options);
    Array2D<float> out(plan_.dms(), plan_.out_samples());
    const Stopwatch watch;
    engine->execute(plan_, spec_.pinned.config, beams_[0].data.cview(),
                    out.view());
    return watch.seconds();
  }

  const BatchSpec& spec_;
  const Args& args_;
  Report& report_;
  dedisp::Plan plan_;
  std::vector<Beam> beams_;
  std::string cache_path_;
  std::size_t next_beam_ = 0;
  std::size_t call_index_ = 0;
  std::size_t detected_ = 0;
  std::size_t recovered_ = 0;
  std::map<std::pair<std::size_t, std::size_t>, Array2D<float>> reference_rows_;
};

}  // namespace

void run_apertif_beams(const Args& args, Report& report) {
  BatchSpec spec;
  spec.pinned = pinned_apertif_beams();
  spec.beams_per_call = 4;
  spec.distinct_beams = 8;
  spec.make_plan = [] { return dedisp::Plan(sky::apertif(), 512); };
  spec.make_session = [](dedisp::Plan plan,
                         const tuner::GuidedTuningOutcome& tuned,
                         const PinnedEngine& pinned) {
    return std::make_unique<MultiBeamSession>(std::move(plan), tuned, pinned);
  };
  BatchRunner(spec, args, report).run();
}

void run_apertif_highdm(const Args& args, Report& report) {
  BatchSpec spec;
  spec.pinned = pinned_apertif_highdm();
  spec.beams_per_call = 1;
  spec.distinct_beams = 2;
  spec.make_plan = [] {
    return dedisp::Plan::with_output_samples(sky::apertif(), 2048, 20000);
  };
  spec.make_session = [](dedisp::Plan plan,
                         const tuner::GuidedTuningOutcome& tuned,
                         const PinnedEngine& pinned) {
    return std::make_unique<ShardedSession>(std::move(plan), tuned, pinned);
  };
  BatchRunner(spec, args, report).run();
}

}  // namespace survey_bench
