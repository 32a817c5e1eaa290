#include "resilience/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <tuple>
#include <utility>

#include "engine/registry.hpp"

namespace ddmc::resilience {

double RetryPolicy::backoff_for(std::size_t retry) const {
  if (backoff_seconds <= 0.0 || retry == 0) return 0.0;
  const double raw =
      backoff_seconds * std::pow(backoff_multiplier,
                                 static_cast<double>(retry - 1));
  return std::min(raw, max_backoff_seconds);
}

void backoff_sleep(const RetryPolicy& policy, std::size_t retry) {
  const double seconds = policy.backoff_for(retry);
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

namespace {

/// Sort \p failures by (beam, shard) in place: workers finish in any
/// order, and what() and aggregate_class() must not depend on it.
std::vector<ShardFailure>& in_job_order(std::vector<ShardFailure>& failures) {
  std::stable_sort(failures.begin(), failures.end(),
                   [](const ShardFailure& a, const ShardFailure& b) {
                     return std::tie(a.beam, a.shard) <
                            std::tie(b.beam, b.shard);
                   });
  return failures;
}

}  // namespace

ShardExecutionError::ShardExecutionError(std::vector<ShardFailure> failures)
    : Error(format(in_job_order(failures))), failures_(std::move(failures)) {}

std::string ShardExecutionError::format(
    const std::vector<ShardFailure>& failures) {
  std::string msg = std::to_string(failures.size()) +
                    " sharded worker job(s) failed:";
  for (const ShardFailure& f : failures) {
    msg += "\n  [beam " + std::to_string(f.beam) + " shard " +
           std::to_string(f.shard) + ", " + to_string(f.kind) + " after " +
           std::to_string(f.attempts) + " attempt(s)] " + f.message;
  }
  return msg;
}

std::string select_degrade_engine(const std::string& current_engine,
                                  const StreamPolicy& policy) {
  const engine::EngineRegistry& registry = engine::EngineRegistry::instance();
  const auto streaming_capable = [&](const std::string& id) {
    return registry.contains(id) &&
           engine::make_engine(id)->capabilities().supports_streaming;
  };
  if (!policy.degrade_engine.empty()) {
    if (policy.degrade_engine == current_engine) return {};
    DDMC_REQUIRE(streaming_capable(policy.degrade_engine),
                 "degrade engine '" + policy.degrade_engine +
                     "' is unknown or lacks the supports_streaming "
                     "capability");
    return policy.degrade_engine;
  }
  // Capability query, not an id test — with a cost ordering. An engine
  // gave up bitwise exactness one of two ways, and they are not equally
  // cheap: an *algorithmic* approximation (subband's two-stage split,
  // input_element_bytes still 4) removes additions outright, while a
  // *quantized* engine (input_element_bytes < 4) does every addition the
  // failing engine could not afford and saves only memory traffic. The
  // ladder exists to keep a drowning session alive, so it takes the
  // cheapest tier on offer: exact (tier 2) → quantized (tier 1) →
  // algorithmic (tier 0), never sideways or up.
  const auto cost_tier = [](const engine::EngineCapabilities& caps) {
    if (caps.bitwise_exact) return 2;
    return caps.input_element_bytes < sizeof(float) ? 1 : 0;
  };
  const int current_tier =
      registry.contains(current_engine)
          ? cost_tier(engine::make_engine(current_engine)->capabilities())
          : 2;
  std::string best;
  int best_tier = current_tier;
  for (const std::string& id : registry.ids()) {
    if (id == current_engine) continue;
    if (!streaming_capable(id)) continue;
    const int tier = cost_tier(engine::make_engine(id)->capabilities());
    if (tier < best_tier) {
      best = id;
      best_tier = tier;
    }
  }
  return best;
}

}  // namespace ddmc::resilience
