// perfbench: end-to-end benchmark program for HPDR (built and run by run.py).
//
//   perfbench --workload <checkpoint-lossy|checkpoint-lossless|serve-zipf>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exits 1 when any output
// failed its check and 2 on bad arguments.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "core/thread_pool.hpp"
#include "perfbench.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double host_steal_s() {
  unsigned long long v[8] = {};
  if (FILE* f = std::fopen("/proc/stat", "r")) {
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) != 8)
      v[7] = 0;
    std::fclose(f);
  }
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

unsigned host_cpus() { return std::max(1u, std::thread::hardware_concurrency()); }

namespace {

/// Every per-layer metric with its unit, in report order. A traced run
/// prints all of them; one a workload does not exercise (a codec it does
/// not run, the service on a checkpoint) reads 0. Per-pass figures are
/// means over the traced passes.
std::vector<std::pair<std::string, std::string>> per_layer_names() {
  std::vector<std::pair<std::string, std::string>> names;
  for (const char* c : {"mgard-x", "zfp-x", "cusz", "sz3-interp", "nvcomp-lz4",
                        "huffman-x"}) {
    const std::string p = std::string("codec.") + c + ".";
    names.insert(names.end(), {{p + "compress_busy_s", "s"},
                               {p + "decompress_busy_s", "s"},
                               {p + "calls", "count"},
                               {p + "stored_bytes", "B"}});
  }
  names.insert(names.end(),
               {{"pipeline.compress_wall_s", "s"},
                {"pipeline.decompress_wall_s", "s"},
                {"pipeline.chunks", "count"},
                {"pipeline.fallback_chunks", "count"},
                {"pipeline.compress_self_share", "fraction"},
                {"pipeline.decompress_self_share", "fraction"},
                {"pipeline.parallel_efficiency", "fraction"},
                {"progressive.write_s", "s"},
                {"progressive.refine_s", "s"},
                {"progressive.fetch_frac", "fraction"},
                {"progressive.bytes_reread", "B"},
                {"progressive.retrieve_gbps", "GB/s"},
                {"wall.compress_gbps", "GB/s"},
                {"wall.decompress_gbps", "GB/s"},
                {"wall.req_per_s", "1/s"},
                {"wall.latency_p50_ms", "ms"},
                {"wall.latency_p99_ms", "ms"},
                {"host.steal_share", "fraction"},
                {"svc.queue_wait_p50_ms", "ms"},
                {"svc.queue_wait_p99_ms", "ms"},
                {"svc.run_p50_ms", "ms"},
                {"svc.run_p99_ms", "ms"},
                {"svc.codec_s", "s"},
                {"svc.cache_hit_s", "s"},
                {"svc.cache.hit_ratio", "fraction"},
                {"svc.arena.high_water_mb", "MB"},
                {"svc.jobs.failed", "count"},
                {"svc.jobs.shed", "count"},
                {"data.generate_s", "s"},
                {"trace.compress_overhead", "fraction"}});
  return names;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<checkpoint-lossy|checkpoint-lossless|serve-zipf> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n");
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return false;
    const std::string flag = argv[i];
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
      if (!a.trace && std::strcmp(v, "0") != 0) return false;
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else {
      return false;
    }
    if (end && *end != '\0') return false;
  }
  return !a.workload.empty() && a.seconds > 0;
}

void print_json(const Outcome& o, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              o.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse(argc, argv, args)) return usage();

  hpdr::ThreadPool::set_default_threads(kPoolWidth);
  hpdr::ThreadPool::instance().resize(kPoolWidth);

  Outcome out;
  if (args.workload == "checkpoint-lossy") {
    out = run_checkpoint(args, /*lossless=*/false);
  } else if (args.workload == "checkpoint-lossless") {
    out = run_checkpoint(args, /*lossless=*/true);
  } else if (args.workload == "serve-zipf") {
    out = run_serve(args);
  } else {
    return usage();
  }

  std::printf("\nworkload %s seed %llu pool width %u\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              hpdr::ThreadPool::instance().concurrency());
  for (const Metric& m : out.end_to_end)
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("ops_attempted %llu ops_failed %llu\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));

  std::vector<Metric> report = out.end_to_end;
  if (args.trace) {
    report.clear();
    for (const auto& [name, unit] : per_layer_names()) {
      const auto it = out.per_layer.find(name);
      report.push_back({name, it == out.per_layer.end() ? 0.0 : it->second, unit});
    }
    std::printf("per-layer:\n");
    for (const Metric& m : report)
      std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::fflush(stdout);
  print_json(out, report);
  return out.failed == 0 ? 0 : 1;
}
