#pragma once
/// \file workloads.hpp
/// \brief The three survey workloads and the engine each one pins.
///
/// Each workload runs one engine under its tuned engine-native config.
/// The engines' default configs run several times slower, so a run that
/// is not pinned would measure a different program. The configs below
/// are CoordinateDescent winners of tune_guided on this plan shape and
/// thread count; the benchmark seeds them into a fresh tuning cache and
/// resolves them with tune_guided during setup.

#include "harness.hpp"

namespace survey_bench {

/// cpu_tiled, one thread per beam × shard job, Apertif 512 DMs.
inline PinnedEngine pinned_apertif_beams() {
  PinnedEngine p;
  p.id = "cpu_tiled";
  p.config.set("channel_block", 32).set("elem_dm", 8).set("elem_time", 50)
      .set("unroll", 4).set("wi_dm", 32).set("wi_time", 20);
  p.options.cpu.threads = 1;
  return p;
}

/// cpu_tiled_u8 on the stream's compute thread, LOFAR 64 DMs, 0.05 s
/// chunks; quant_window 12 quantizes over [-12, 12], which covers the
/// generated unit-variance noise plus pulses.
inline PinnedEngine pinned_lofar_stream() {
  PinnedEngine p;
  p.id = "cpu_tiled_u8";
  p.config.set("elem_time", 50).set("unroll", 4).set("wi_dm", 2)
      .set("wi_time", 50).set("quant_window", 12);
  p.options.cpu.threads = 1;
  return p;
}

/// fdmt, one thread per shard, Apertif 2048 DMs × 20 000 samples.
inline PinnedEngine pinned_apertif_highdm() {
  PinnedEngine p;
  p.id = "fdmt";
  p.config.set("block", 2048).set("coarse_step", 16).set("subbands", 32);
  p.options.cpu.threads = 1;
  return p;
}

void run_apertif_beams(const Args& args, Report& report);
void run_lofar_stream(const Args& args, Report& report);
void run_apertif_highdm(const Args& args, Report& report);

}  // namespace survey_bench
