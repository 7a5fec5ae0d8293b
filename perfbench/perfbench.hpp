#ifndef HPDR_PERFBENCH_PERFBENCH_HPP
#define HPDR_PERFBENCH_PERFBENCH_HPP

/// \file perfbench.hpp
/// Shared pieces of the end-to-end benchmark: command-line arguments, the
/// metric record every workload fills in, and small measuring helpers.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Pool width every workload runs at, whatever HPDR_THREADS says. Wider
/// pools measured less steadily on a shared 4-core host (run-to-run range
/// 7.8% at width 1, 11-12% at 2, 19-25% at 4) and did not scale, because
/// the host does not hand the benchmark four free cores.
constexpr unsigned kPoolWidth = 2;

/// Set-up (inputs, oracles, warm-up) is repeated this many times per run
/// and its median reported as setup_s.
constexpr int kSetupRepeats = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
  std::string out_dir = ".";  ///< where a traced run writes its span file
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports. `end_to_end` comes from untraced work;
/// `per_layer` is printed by a traced run. `attempted`/`failed` count every
/// checked operation (a call or a request): a bound violation, a byte
/// mismatch or a failed job counts as failed.
struct Outcome {
  std::vector<Metric> end_to_end;
  std::map<std::string, double> per_layer;  ///< units: per_layer_names()
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank quantile (q in [0,1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(rank == 0 ? 0 : rank - 1, v.size() - 1)];
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// User + system CPU seconds of the whole process so far.
double process_cpu_s();

/// CPU seconds the hypervisor gave other tenants instead of this host's
/// vCPUs so far (all vCPUs summed; /proc/stat), and the vCPU count.
double host_steal_s();
unsigned host_cpus();

/// Peak resident set of the process so far, in MiB.
double peak_rss_mb();

/// Deterministic 64-bit mix of (seed, salt): every input a workload
/// generates takes its generator seed from here.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Outcome run_checkpoint(const Args& args, bool lossless);
Outcome run_serve(const Args& args);

}  // namespace perfbench

#endif  // HPDR_PERFBENCH_PERFBENCH_HPP
