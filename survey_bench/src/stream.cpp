// lofar_stream: one producer thread pushes 1 ms blocks into a SampleRing;
// a supervised async StreamingDedisperser (cpu_tiled_u8, detection on)
// drains it through consume(). Two phases: saturation (closed loop, only
// backpressure paces the producer) gives realtime_x; an open loop at a
// fixed multiple of real time gives the emit latencies.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "common/array2d.hpp"
#include "common/timer.hpp"
#include "dedisp/plan.hpp"
#include "dedisp/quantize.hpp"
#include "dedisp/reference.hpp"
#include "engine/registry.hpp"
#include "harness.hpp"
#include "sky/observation.hpp"
#include "sky/signal.hpp"
#include "stream/ring_buffer.hpp"
#include "stream/streaming_dedisperser.hpp"
#include "workloads.hpp"

namespace survey_bench {

using namespace ddmc;

namespace {

constexpr std::size_t kDms = 64;
constexpr std::size_t kChunk = 10000;  // 0.05 s at 200 kHz
constexpr std::size_t kBlock = 200;    // 1 ms
/// The input is a periodic template of this many chunks; one pulse per
/// chunk period, so every chunk carries exactly one pulse.
constexpr std::size_t kTemplateChunks = 20;
constexpr std::size_t kPulseOffset = kChunk / 2;
constexpr std::size_t kPulseWidth = 40;  // 0.2 ms
constexpr double kPulseAmplitude = 3.0;
constexpr std::size_t kRingCapacity = 2 * kChunk;
constexpr std::size_t kSetupRepetitions = 21;
constexpr std::size_t kSaturationSessions = 5;
/// Open-loop rate in multiples of real time: the telescope's own rate.
/// Detection runs on the compute thread and saturation measures about
/// 2× real time, so real time sits at half of saturation.
constexpr double kOpenLoopRate = 1.0;
constexpr std::size_t kMinOpenLoopChunks = 1000;
/// Emit latency limit behind deadline_miss_frac: one chunk of sky, the
/// time until the next chunk's data is complete.
constexpr double kDeadlineMs = 50.0;
/// Seeded check rows per template phase (the true-DM row is always checked).
constexpr std::size_t kCheckRows = 4;

struct ChunkRecord {
  std::size_t index = 0;
  std::uint64_t recv_ns = 0;
  double compute_s = 0.0;
  double latency_s = 0.0;
  bool ok = false;
};

struct Phase {
  std::vector<ChunkRecord> chunks;
  std::size_t expected = 0;
  std::uint64_t start_ns = 0;   ///< open loop: due time of block 0
  double block_dt_s = 0.0;      ///< open loop: due-time spacing of blocks
  double wall_s = 0.0;
  double push_s = 0.0;
  std::size_t backlog_max = 0;
  std::vector<double> lag_s;
  resilience::StreamHealth health;
};

class StreamRunner {
 public:
  StreamRunner(const Args& args, Report& report)
      : args_(args),
        report_(report),
        pinned_(pinned_lofar_stream()),
        plan_(dedisp::Plan::with_output_samples(sky::lofar(), kDms, kChunk)),
        overlap_(plan_.max_delay()),
        period_(kTemplateChunks * kChunk),
        quant_{-static_cast<float>(pinned_.config.get("quant_window", 8)),
               static_cast<float>(pinned_.config.get("quant_window", 8))} {}

  void run() {
    if (args_.trace) probe_machine(report_);
    make_template();
    make_reference_rows();
    cache_path_ = args_.workdir + "/tuning_cache.csv";
    seed_tuning_cache(cache_path_, plan_, pinned_);

    TraceWindow setup_trace;
    if (args_.trace) setup_trace.start();
    std::vector<double> setup_s;
    for (std::size_t rep = 0; rep < kSetupRepetitions; ++rep) {
      // Rotate over the CPUs, whose speeds differ (see the batch setup).
      pin_current_thread(static_cast<int>(rep));
      const Stopwatch watch;
      auto session = open_session(nullptr);
      setup_s.push_back(watch.seconds());
    }
    pin_current_thread(kAnyCpu);
    run_phase(/*open_loop=*/false, 0.5, /*warmup=*/true);

    if (!args_.trace) {
      // Saturation over several sessions: each session's buffers land at
      // new addresses, and single sessions differed by up to a fifth.
      std::vector<double> rates;
      for (std::size_t i = 0; i < kSaturationSessions; ++i) {
        const Phase saturated =
            run_phase(false, args_.seconds / 2 / kSaturationSessions);
        for (double x : saturation_rates(saturated)) rates.push_back(x);
      }
      const Phase open = run_phase(true, args_.seconds);
      const std::vector<double> latency = emit_latencies(open);
      std::size_t misses = open.expected - open.chunks.size();
      for (double s : latency) misses += s * 1e3 > kDeadlineMs ? 1 : 0;
      std::string per_window = "saturation_x";
      for (double x : rates) per_window += " " + std::to_string(x).substr(0, 5);
      report_.note(per_window);
      report_.set("setup_s", median(setup_s), "s", setup_s.size());
      report_.set("realtime_x", median(rates), "x", rates.size());
      report_.set("emit_ms_p50", 1e3 * median(latency), "ms", latency.size());
      report_.set("emit_ms_p99", 1e3 * percentile(latency, 99.0), "ms",
                  latency.size());
      report_.set("peak_rss_mb", peak_rss_mb(), "MB");
      report_.note("deadline_miss_frac " +
                   std::to_string(static_cast<double>(misses) / open.expected) +
                   " (" + std::to_string(misses) + "/" +
                   std::to_string(open.expected) + " chunks over " +
                   std::to_string(kDeadlineMs) + " ms or never emitted)");
      return;
    }

    setup_trace.stop();
    std::vector<double> resolve_s;
    for (const auto* e : setup_trace.named("tuner.tune")) {
      resolve_s.push_back(e->dur_ns * 1e-9);
    }
    report_.set("tuner.resolve_s", median(resolve_s), "s", resolve_s.size());
    report_.set("tuner.measurements", static_cast<double>(measurements_),
                "count");

    // Untraced and traced saturation sessions alternate: their realtime
    // ratio is the tracing overhead. The traced sessions merge into one.
    std::vector<double> plain_rates;
    std::vector<double> traced_rates;
    Phase traced;
    TraceWindow trace(pinned_.id);
    for (std::size_t i = 0; i < kSaturationSessions; ++i) {
      const double seconds = args_.seconds / 2 / kSaturationSessions;
      for (double x : saturation_rates(run_phase(false, seconds))) {
        plain_rates.push_back(x);
      }
      trace.start();
      const Phase t = run_phase(false, seconds);
      trace.stop();
      for (double x : saturation_rates(t)) traced_rates.push_back(x);
      traced.chunks.insert(traced.chunks.end(), t.chunks.begin(), t.chunks.end());
      traced.wall_s += t.wall_s;
      traced.health.chunks_skipped += t.health.chunks_skipped;
      traced.health.deadline_overruns += t.health.deadline_overruns;
    }
    trace.save(args_.workdir + "/trace.json", report_);
    const Phase open = run_phase(true, args_.seconds);

    report_engine_layer(trace, traced.wall_s, report_);
    report_stream_layer(trace, traced, open);
    report_.set("trace.overhead_frac",
                1.0 - median(traced_rates) / median(plain_rates), "ratio",
                traced_rates.size());
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
    report_.set("engine.single_thread_s", single_thread_s(), "s", 5);
  }

 private:
  /// Periodic input: unit white noise plus one pulse per chunk period at
  /// the true trial DM, wrapped modulo the template length so the stream
  /// (template column s mod period) is seamless.
  void make_template() {
    const sky::Observation& obs = plan_.observation();
    template_ = Array2D<float>(plan_.channels(), period_);
    sky::NoiseParams noise;
    noise.seed = args_.seed;
    sky::generate_noise(obs, template_.view(), noise);
    true_dm_ = kDms / 8 + pick(args_.seed, 4, 0, kDms * 3 / 4);
    for (std::size_t ch = 0; ch < plan_.channels(); ++ch) {
      const auto delay =
          static_cast<std::size_t>(plan_.delays().delay(true_dm_, ch));
      for (std::size_t j = 0; j < kTemplateChunks; ++j) {
        const std::size_t start = j * kChunk + kPulseOffset + delay;
        for (std::size_t i = 0; i < kPulseWidth; ++i) {
          template_(ch, (start + i) % period_) +=
              static_cast<float>(kPulseAmplitude);
        }
      }
    }
    float max_abs = 0.0f;
    for (std::size_t ch = 0; ch < template_.rows(); ++ch) {
      for (float v : template_.cview().row(ch)) {
        max_abs = std::max(max_abs, std::fabs(v));
      }
    }
    if (max_abs >= quant_.hi) {
      report_.fail("generated samples exceed the quantization window");
    }
  }

  /// Input window of chunk phase \p p (chunk k has phase k mod
  /// kTemplateChunks): template columns [p·chunk, p·chunk + chunk +
  /// overlap) modulo the period.
  Array2D<float> window(std::size_t p) const {
    Array2D<float> w(plan_.channels(), plan_.in_samples());
    for (std::size_t ch = 0; ch < w.rows(); ++ch) {
      for (std::size_t t = 0; t < w.cols(); ++t) {
        w(ch, t) = template_(ch, (p * kChunk + t) % period_);
      }
    }
    return w;
  }

  std::size_t check_row(std::size_t p, std::size_t k) const {
    return pick(args_.seed, 5, p * kCheckRows + k % kCheckRows, kDms);
  }

  /// Reference rows on one-trial dm_shard slices, computed before any
  /// timed phase: the true-DM row and the seeded check rows of every
  /// template phase.
  void make_reference_rows() {
    for (std::size_t p = 0; p < kTemplateChunks; ++p) {
      const Array2D<float> w = window(p);
      std::vector<std::size_t> rows = {true_dm_};
      for (std::size_t k = 0; k < kCheckRows; ++k) rows.push_back(check_row(p, k));
      for (std::size_t dm : rows) {
        auto [it, fresh] = reference_.try_emplace({p, dm});
        if (fresh) {
          it->second = dedisp::dedisperse_reference(plan_.dm_shard(dm, 1), w.cview());
        }
      }
    }
    tolerance_ = dedisp::quantization_error_bound(plan_, quant_);
  }

  bool row_matches(const stream::StreamChunk& chunk, std::size_t dm) const {
    const std::size_t p = chunk.index % kTemplateChunks;
    const auto expect = reference_.at({p, dm}).cview().row(0);
    const auto got = chunk.output.row(dm);
    for (std::size_t t = 0; t < expect.size(); ++t) {
      if (!(std::fabs(double{got[t]} - double{expect[t]}) <= tolerance_)) {
        return false;
      }
    }
    return true;
  }

  stream::StreamingOptions session_options() const {
    stream::StreamingOptions o;
    o.engine = pinned_.id;
    o.cpu = pinned_.options.cpu;
    o.detect = true;
    o.async = true;
    o.supervision.enabled = true;
    o.supervision.deadline_factor = 1.0;
    o.supervision.degrade_after = 0;  // the engine never switches mid-run
    return o;
  }

  /// Setup: plan → cache load → warm tune_guided → session ready.
  std::unique_ptr<stream::StreamingDedisperser> open_session(
      stream::StreamingDedisperser::Sink sink) {
    telemetry::TraceSpan setup_span("bench.setup");
    std::optional<dedisp::Plan> plan;
    std::optional<tuner::TuningCache> cache;
    {
      telemetry::TraceSpan step("bench.setup.plan");
      plan.emplace(dedisp::Plan::with_output_samples(sky::lofar(), kDms, kChunk));
    }
    {
      telemetry::TraceSpan step("bench.setup.cache_load");
      cache.emplace(cache_path_);
    }
    telemetry::TraceSpan step("bench.setup.session");  // tunes, then starts
    auto session = std::make_unique<stream::StreamingDedisperser>(
        std::move(*plan), *cache, std::move(sink), session_options(),
        warm_tuning_options(pinned_));
    if (session->tuning_outcome()) {
      check_warm_outcome(*session->tuning_outcome(), pinned_, report_);
      measurements_ += session->tuning_outcome()->configs_evaluated;
    } else {
      report_.fail("streaming session resolved no tuning outcome");
    }
    return session;
  }

  /// One session over one phase. Saturation pushes as fast as backpressure
  /// allows for \p seconds; the open loop sends block b at due time
  /// start + b·block_dt whatever the session does, for at least
  /// kMinOpenLoopChunks chunks. Both end on a whole number of chunks, so
  /// no partial flush chunk is emitted. A warmup phase counts no
  /// operations.
  Phase run_phase(bool open_loop, double seconds, bool warmup = false) {
    Phase phase;
    phase.chunks.reserve(8192);
    auto session = open_session([&](const stream::StreamChunk& chunk) {
      telemetry::TraceSpan span("bench.sink");
      ChunkRecord rec;
      rec.index = chunk.index;
      rec.recv_ns = telemetry::Tracer::now_ns();
      rec.compute_s = chunk.timing.compute_seconds;
      rec.latency_s = chunk.timing.latency_seconds;
      // The reference rows were computed before the phase; comparing two
      // rows costs microseconds of the sink's time per chunk.
      const bool hit =
          chunk.detection && chunk.detection->best_trial == true_dm_;
      rec.ok = chunk.out_samples == kChunk && hit &&
               row_matches(chunk, true_dm_) &&
               row_matches(chunk, check_row(chunk.index % kTemplateChunks,
                                            chunk.index / kTemplateChunks));
      phase.chunks.push_back(rec);
    });

    const double rate = plan_.observation().sampling_rate();
    std::size_t total = 0;
    if (open_loop) {
      const auto chunks = std::max<std::size_t>(
          kMinOpenLoopChunks,
          static_cast<std::size_t>(seconds * kOpenLoopRate * rate / kChunk));
      total = chunks * kChunk + overlap_;
      phase.block_dt_s = kBlock / rate / kOpenLoopRate;
    }
    stream::SampleRing ring(plan_.channels(), kRingCapacity);
    const std::uint64_t start_ns = telemetry::Tracer::now_ns() + 5'000'000;
    phase.start_ns = start_ns;
    std::string producer_error;
    std::thread producer([&] {
      try {
        std::size_t pos = 0;
        for (std::size_t b = 0; total == 0 || pos < total; ++b) {
          if (open_loop) {
            const std::uint64_t due =
                start_ns + static_cast<std::uint64_t>(b * phase.block_dt_s * 1e9);
            std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
                std::chrono::nanoseconds(due)));
            phase.lag_s.push_back(
                (static_cast<double>(telemetry::Tracer::now_ns()) - due) * 1e-9);
          } else if (total == 0 &&
                     telemetry::Tracer::now_ns() >=
                         start_ns + static_cast<std::uint64_t>(seconds * 1e9)) {
            const std::size_t chunks =
                pos > overlap_ ? (pos - overlap_ + kChunk - 1) / kChunk : 1;
            total = std::max<std::size_t>(chunks, 1) * kChunk + overlap_;
            if (pos >= total) break;
          }
          const std::size_t n =
              std::min(kBlock, total == 0 ? kBlock : total - pos);
          const ConstView2D<float> block(&template_(0, pos % period_),
                                         plan_.channels(), n,
                                         template_.pitch());
          const double t0 = now_s();
          {
            telemetry::TraceSpan span("bench.ring.push");
            ring.push(block);
          }
          phase.push_s += now_s() - t0;
          phase.backlog_max = std::max(phase.backlog_max, ring.size());
          pos += n;
        }
        ring.close();
      } catch (const std::exception& e) {
        producer_error = e.what();
      }
    });
    try {
      session->consume(ring);
      session->close();
    } catch (const std::exception& e) {
      ring.fail(e.what());
      report_.note(std::string("stream session failed: ") + e.what());
    }
    producer.join();
    phase.wall_s = (telemetry::Tracer::now_ns() - start_ns) * 1e-9;
    if (!producer_error.empty()) {
      report_.note("stream producer failed: " + producer_error);
    }
    phase.health = session->health();
    phase.expected = total > overlap_ ? (total - overlap_) / kChunk : 0;
    session.reset();

    if (warmup) return phase;
    for (const ChunkRecord& rec : phase.chunks) {
      report_.operation(rec.ok, "chunk " + std::to_string(rec.index) +
                                    " missed its pulse or reference check");
      ++detected_;
      if (rec.ok) ++recovered_;
    }
    for (std::size_t k = phase.chunks.size(); k < phase.expected; ++k) {
      report_.operation(false, "chunk " + std::to_string(k) + " never emitted");
    }
    return phase;
  }

  /// Saturation throughput over windows of 20 chunks (one second of sky),
  /// after the first few chunks.
  static std::vector<double> saturation_rates(const Phase& phase) {
    constexpr std::size_t kWindow = 20;
    constexpr std::size_t kSkip = 5;
    const double chunk_s = 0.05;
    std::vector<double> rates;
    for (std::size_t a = kSkip; a + kWindow < phase.chunks.size(); a += kWindow) {
      const double wall =
          (phase.chunks[a + kWindow].recv_ns - phase.chunks[a].recv_ns) * 1e-9;
      if (wall > 0.0) rates.push_back(kWindow * chunk_s / wall);
    }
    return rates;
  }

  /// Open loop: sink receipt minus the due time of the block carrying the
  /// chunk's last contributing sample, (k+1)·chunk + overlap − 1.
  std::vector<double> emit_latencies(const Phase& phase) const {
    std::vector<double> out;
    for (const ChunkRecord& rec : phase.chunks) {
      const std::size_t last = (rec.index + 1) * kChunk + overlap_ - 1;
      const double due = phase.start_ns * 1e-9 +
                         static_cast<double>(last / kBlock) * phase.block_dt_s;
      out.push_back(rec.recv_ns * 1e-9 - due);
    }
    return out;
  }

  void report_stream_layer(const TraceWindow& trace, const Phase& traced,
                           const Phase& open) {
    double compute_s = 0.0;
    double wait_s = 0.0;
    for (const ChunkRecord& rec : traced.chunks) {
      compute_s += rec.compute_s;
      wait_s += std::max(0.0, rec.latency_s - rec.compute_s);
    }
    // Detection runs inside stream.chunk: its self time after the
    // engine.execute and stream.sink children is the detect pass.
    const auto chunks = trace.named("stream.chunk");
    const auto runs = trace.named("engine.execute");
    const auto sinks = trace.named("stream.sink");
    std::vector<double> detect_s;
    for (const auto* c : chunks) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> children;
      for (const auto* list : {&runs, &sinks}) {
        for (const auto* e : *list) {
          if (e->tid == c->tid && e->start_ns >= c->start_ns &&
              e->start_ns < c->start_ns + c->dur_ns) {
            children.emplace_back(e->start_ns, e->start_ns + e->dur_ns);
          }
        }
      }
      detect_s.push_back(c->dur_ns * 1e-9 -
                         covered_s(children, c->start_ns,
                                   c->start_ns + c->dur_ns));
    }
    std::vector<double> lag_ms;
    for (double s : open.lag_s) lag_ms.push_back(1e3 * s);

    report_.set("ring.push_s", open.push_s, "s", open.lag_s.size());
    report_.set("ring.backlog_max", static_cast<double>(open.backlog_max),
                "count", open.lag_s.size());
    report_.set("stream.chunks", static_cast<double>(chunks.size()), "count");
    report_.set("stream.compute_s", compute_s, "s", traced.chunks.size());
    report_.set("stream.queue_wait_s", wait_s, "s", traced.chunks.size());
    report_.set("stream.sink_s", trace.total_s("stream.sink"), "s",
                sinks.size());
    report_.set("stream.overlap_ratio",
                static_cast<double>(overlap_) / kChunk, "ratio");
    report_.set("stream.quantize_s_per_chunk", quantize_s(), "s", 21);
    report_.set("stream.chunks_skipped",
                static_cast<double>(traced.health.chunks_skipped), "count");
    report_.set("stream.deadline_overruns",
                static_cast<double>(traced.health.deadline_overruns), "count");
    report_.set("detect.s", median(detect_s), "s", detect_s.size());
    report_.set("loadgen.lag_ms_p99", percentile(lag_ms, 99.0), "ms",
                lag_ms.size());
    report_.set("loadgen.lag_ms_max",
                lag_ms.empty() ? 0.0
                               : *std::max_element(lag_ms.begin(), lag_ms.end()),
                "ms", lag_ms.size());
  }

  /// The public quantize pass on one chunk window (median of 21).
  double quantize_s() const {
    const Array2D<float> w = window(0);
    Array2D<std::uint8_t> plane(w.rows(), w.cols());
    std::vector<double> s;
    for (int rep = 0; rep < 21; ++rep) {
      const Stopwatch watch;
      dedisp::quantize_plane(w.cview(), quant_, plane.view());
      s.push_back(watch.seconds());
    }
    return median(s);
  }

  /// One chunk through the pinned engine on one thread (median of 5).
  double single_thread_s() const {
    const auto engine = engine::make_engine(pinned_.id, pinned_.options);
    const Array2D<float> w = window(0);
    Array2D<float> out(plan_.dms(), plan_.out_samples());
    std::vector<double> s;
    for (int rep = 0; rep < 5; ++rep) {
      const Stopwatch watch;
      engine->execute(plan_, pinned_.config, w.cview(), out.view());
      s.push_back(watch.seconds());
    }
    return median(s);
  }

  const Args& args_;
  Report& report_;
  const PinnedEngine pinned_;
  const dedisp::Plan plan_;
  const std::size_t overlap_;
  const std::size_t period_;
  const dedisp::QuantizationParams quant_;
  Array2D<float> template_;
  std::size_t true_dm_ = 0;
  std::map<std::pair<std::size_t, std::size_t>, Array2D<float>> reference_;
  double tolerance_ = 0.0;
  std::string cache_path_;
  std::size_t measurements_ = 0;
  std::size_t detected_ = 0;
  std::size_t recovered_ = 0;
};

}  // namespace

void run_lofar_stream(const Args& args, Report& report) {
  StreamRunner(args, report).run();
}

}  // namespace survey_bench
