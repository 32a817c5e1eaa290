// Machine probe: the two roofline denominators, measured in the same run
// as the engine rows they divide.

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#if defined(__FMA__) && defined(__AVX__)
#include <immintrin.h>
#endif

#include "harness.hpp"

namespace survey_bench {

namespace {

std::size_t last_level_cache_bytes() {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return llc > 0 ? static_cast<std::size_t>(llc) : std::size_t{32} << 20;
}

/// Run fn(t) on \p threads threads and join them.
template <typename Fn>
void on_threads(std::size_t threads, Fn fn) {
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(fn, t);
  for (auto& th : pool) th.join();
}

double triad_gbps(std::size_t threads, std::size_t llc_bytes, Report& report) {
  // a = b + s·c over doubles; STREAM counting (3 arrays, no write-allocate).
  const std::size_t n = 4 * llc_bytes / sizeof(double) + 1;
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  const auto slice = [&](std::size_t t) {
    return std::pair<std::size_t, std::size_t>{n * t / threads,
                                               n * (t + 1) / threads};
  };
  on_threads(threads, [&](std::size_t t) {  // first touch on the owner
    const auto [lo, hi] = slice(t);
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    on_threads(threads, [&](std::size_t t) {
      const auto [lo, hi] = slice(t);
      double* __restrict pa = a.get();
      const double* __restrict pb = b.get();
      const double* __restrict pc = c.get();
      for (std::size_t i = lo; i < hi; ++i) pa[i] = pb[i] + 3.0 * pc[i];
    });
    rates.push_back(3.0 * sizeof(double) * static_cast<double>(n) /
                    (now_s() - t0) * 1e-9);
  }
  if (a[n / 2] != 7.0) report.fail("triad probe computed a wrong value");
  report.note("machine.triad array_bytes=" +
              std::to_string(n * sizeof(double)) +
              " llc_bytes=" + std::to_string(llc_bytes));
  return median(rates);
}

/// FLOP executed by one thread's FMA loop; \p sink keeps the result live.
double fma_loop(std::size_t iters, float* sink) {
#if defined(__FMA__) && defined(__AVX__)
  constexpr int kChains = 10;
  __m256 acc[kChains];
  for (int k = 0; k < kChains; ++k) acc[k] = _mm256_set1_ps(0.001f * k);
  const __m256 mul = _mm256_set1_ps(0.999999f);
  const __m256 add = _mm256_set1_ps(1e-7f);
  for (std::size_t i = 0; i < iters; ++i) {
    for (int k = 0; k < kChains; ++k) acc[k] = _mm256_fmadd_ps(acc[k], mul, add);
  }
  __m256 total = acc[0];
  for (int k = 1; k < kChains; ++k) total = _mm256_add_ps(total, acc[k]);
  float lanes[8];
  _mm256_storeu_ps(lanes, total);
  *sink = lanes[0];
  return 2.0 * 8.0 * kChains * static_cast<double>(iters);
#else
  constexpr int kChains = 8;
  float acc[kChains];
  for (int k = 0; k < kChains; ++k) acc[k] = 0.001f * k;
  for (std::size_t i = 0; i < iters; ++i) {
    for (int k = 0; k < kChains; ++k) acc[k] = acc[k] * 0.999999f + 1e-7f;
  }
  *sink = acc[0] + acc[kChains - 1];
  return 2.0 * kChains * static_cast<double>(iters);
#endif
}

double fma_gflops(std::size_t threads) {
  constexpr std::size_t kIters = std::size_t{1} << 24;
  std::vector<float> sinks(threads * 16);
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<double> flop(threads);
    const double t0 = now_s();
    on_threads(threads, [&](std::size_t t) {
      flop[t] = fma_loop(kIters, &sinks[t * 16]);
    });
    const double elapsed = now_s() - t0;
    double total = 0.0;
    for (double f : flop) total += f;
    rates.push_back(total / elapsed * 1e-9);
  }
  return median(rates);
}

}  // namespace

void probe_machine(Report& report) {
  const std::size_t threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  report.set("machine.fma_gflops", fma_gflops(threads), "GFLOP/s", 3);
  report.set("machine.triad_gbps",
             triad_gbps(threads, last_level_cache_bytes(), report), "GB/s", 5);
}

}  // namespace survey_bench
