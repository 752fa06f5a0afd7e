// Host ceilings for the traced run: STREAM-triad memory bandwidth and a
// peak multiply-add rate, measured with the workload's thread budget so
// the Vlasov layer's computed bandwidth can be read as a fraction of what
// this host sustains.
#pragma once

#include <cstddef>

namespace perfbench {

struct TriadResult {
  std::size_t array_bytes = 0;  // bytes of each of the three arrays
  double gb_per_s = 0.0;        // best of the repetitions, 24 B per element
};

/// a = b + s * c over three arrays of `array_bytes` each.
TriadResult stream_triad(std::size_t array_bytes, int threads);

/// Multiply-add throughput over independent register-resident chains, at
/// the ISA this binary was compiled for (GFLOP/s, 2 flops per madd).
double peak_madd_gflops(int threads);

}  // namespace perfbench
