#include "host_probe.hpp"

#include <algorithm>
#include <memory>

#include "common/timer.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {

TriadResult stream_triad(std::size_t array_bytes, int threads) {
  const auto n = static_cast<long>(array_bytes / sizeof(double));
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
      c(new double[n]);
  // First touch by the measuring threads places the pages.
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads(threads)
#endif
  for (long i = 0; i < n; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  (void)threads;
  const double s = 3.0;
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    v6d::Stopwatch sw;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads(threads)
#endif
    for (long i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    best = std::min(best, sw.seconds());
  }
  // Keep the stores observable.
  volatile double sink = a[n / 2];
  (void)sink;
  TriadResult r;
  r.array_bytes = static_cast<std::size_t>(n) * sizeof(double);
  r.gb_per_s = 3.0 * static_cast<double>(r.array_bytes) / best / 1e9;
  return r;
}

double peak_madd_gflops(int threads) {
  // 64 independent chains: enough to cover the multiply and add latencies
  // at any vector width up to 16 floats.
  constexpr int kChains = 64;
  constexpr long kIters = 4'000'000;
  double best = 1e300;
  int ran = 1;  // threads the region actually got
  for (int rep = 0; rep < 3; ++rep) {
    v6d::Stopwatch sw;
    float total = 0.0f;
#ifdef _OPENMP
#pragma omp parallel num_threads(threads) reduction(+ : total)
#endif
    {
#ifdef _OPENMP
#pragma omp single
      ran = omp_get_num_threads();
#endif
      float acc[kChains];
      for (int j = 0; j < kChains; ++j) acc[j] = static_cast<float>(j);
      const float m = 0.999999f, add = 1e-6f;
      for (long it = 0; it < kIters; ++it)
        for (int j = 0; j < kChains; ++j) acc[j] = acc[j] * m + add;
      for (int j = 0; j < kChains; ++j) total += acc[j];
    }
    best = std::min(best, sw.seconds());
    volatile float sink = total;
    (void)sink;
  }
  (void)threads;
  const double flops = 2.0 * kChains * static_cast<double>(kIters) * ran;
  return flops / best / 1e9;
}

}  // namespace perfbench
