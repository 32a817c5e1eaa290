// survey_bench: runs one survey workload through the library's public
// entry points and prints its metrics. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set. Exit
// status is non-zero when any operation failed its checks.
//
//   survey_bench --workload apertif_beams --seed 1 --seconds 10 --trace 0
//                [--workdir DIR] [--source ID]

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common/simd.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

using survey_bench::Args;
using survey_bench::Report;

struct Declared {
  const char* name;
  const char* unit;
};

// Must match the end_to_end and per_layer lists of BENCHMARK.json (run.py
// checks the printed names and units against it).
constexpr Declared kEndToEnd[] = {
    {"setup_s", "s"},      {"realtime_x", "x"},   {"emit_ms_p50", "ms"},
    {"emit_ms_p99", "ms"}, {"peak_rss_mb", "MB"},
};

constexpr Declared kPerLayer[] = {
    {"machine.triad_gbps", "GB/s"},
    {"machine.fma_gflops", "GFLOP/s"},
    {"engine.runs", "count"},
    {"engine.busy_s", "s"},
    {"engine.flop", "FLOP"},
    {"engine.bytes_computed", "B"},
    {"engine.op_per_byte", "FLOP/B"},
    {"engine.gflops", "GFLOP/s"},
    {"engine.gbps", "GB/s"},
    {"engine.roofline_frac", "ratio"},
    {"engine.single_thread_s", "s"},
    {"shard.plan_s", "s"},
    {"shard.tasks", "count"},
    {"shard.task_busy_s", "s"},
    {"shard.imbalance", "ratio"},
    {"shard.idle_frac", "ratio"},
    {"shard.retries", "count"},
    {"pipeline.self_s", "s"},
    {"ring.push_s", "s"},
    {"ring.backlog_max", "count"},
    {"stream.chunks", "count"},
    {"stream.compute_s", "s"},
    {"stream.queue_wait_s", "s"},
    {"stream.sink_s", "s"},
    {"stream.overlap_ratio", "ratio"},
    {"stream.quantize_s_per_chunk", "s"},
    {"stream.chunks_skipped", "count"},
    {"stream.deadline_overruns", "count"},
    {"tuner.resolve_s", "s"},
    {"tuner.measurements", "count"},
    {"detect.s", "s"},
    {"detect.recall", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"trace.dropped", "count"},
    {"loadgen.lag_ms_p99", "ms"},
    {"loadgen.lag_ms_max", "ms"},
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "survey_bench: %s\nusage: survey_bench --workload "
               "apertif_beams|lofar_stream|apertif_highdm --seed N "
               "--seconds S --trace 0|1 [--workdir DIR] [--source ID]\n",
               problem.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv, std::string& source) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (key == "--workdir") {
        args.workdir = value;
      } else if (key == "--source") {
        source = value;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string source = "unknown";
  const Args args = parse(argc, argv, source);
  std::printf(
      "env {\"cpus\": %u, \"simd\": \"%s\", \"compiler\": \"%s\", "
      "\"source\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}\n",
      std::thread::hardware_concurrency(), ddmc::simd::backend_name(),
      json_escape(SURVEY_BENCH_COMPILER).c_str(), json_escape(source).c_str(),
      json_escape(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0);

  Report report;
  try {
    if (args.workload == "apertif_beams") {
      survey_bench::run_apertif_beams(args, report);
    } else if (args.workload == "lofar_stream") {
      survey_bench::run_lofar_stream(args, report);
    } else if (args.workload == "apertif_highdm") {
      survey_bench::run_apertif_highdm(args, report);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "survey_bench: %s failed: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }

  for (const std::string& line : report.notes()) {
    std::printf("note %s\n", line.c_str());
  }
  for (const std::string& line : report.failures()) {
    std::fprintf(stderr, "survey_bench: FAILED %s\n", line.c_str());
  }
  std::printf("failed_frac %.6g (%zu of %zu operations)\n",
              report.attempted() ? static_cast<double>(report.failed()) /
                                       static_cast<double>(report.attempted())
                                 : 1.0,
              report.failed(), report.attempted());

  std::string metrics;
  for (const Declared& d : args.trace ? std::span<const Declared>(kPerLayer)
                                      : std::span<const Declared>(kEndToEnd)) {
    // A layer the workload does not exercise reports 0 over 0 samples.
    survey_bench::Metric m{0.0, d.unit, 0};
    if (report.has(d.name)) m = report.metrics().at(d.name);
    if (m.unit != d.unit) {
      std::fprintf(stderr, "survey_bench: metric %s has unit %s, declared %s\n",
                   d.name, m.unit.c_str(), d.unit);
      return 1;
    }
    std::printf("metric %-28s %.9g %s (n=%zu)\n", d.name, m.value, d.unit,
                m.samples);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", d.name, m.value, d.unit);
    metrics += buf;
  }
  const bool correct = report.failed() == 0 && report.attempted() > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "{%s}}\n",
      correct ? "true" : "false", report.attempted(), report.failed(),
      metrics.c_str());
  return correct ? 0 : 1;
}
