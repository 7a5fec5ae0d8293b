// serve-zipf: a closed loop against svc::Service. kInFlight client threads
// each keep one request outstanding through a future; each reply is checked
// byte for byte against a direct single-threaded pipeline oracle before
// that client submits its next request. The tape is Zipf(1.0) over a catalog
// of distinct NYX tensors, half compress and half decompress, on a cache
// whose arena budget cannot hold the catalog, so both hits and misses occur.
#include <malloc.h>

#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "hpdr.hpp"
#include "perfbench.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace hpdr;

constexpr std::size_t kCatalog = 128;
constexpr std::size_t kInFlight = 4;
constexpr unsigned kRunners = 2;
constexpr std::size_t kArenaBudget = std::size_t{32} << 20;
constexpr double kErrorBound = 1e-3;
/// Untimed requests run through the service before measuring, so the
/// cache and the latency histograms the service keeps reach steady state.
constexpr std::size_t kWarmupRequests = 600;
/// The measured loop is cut into windows of this many seconds of replies;
/// end-to-end figures are medians (wall time: lower quartiles) over whole
/// windows, so a burst of host noise moves one window rather than the run.
constexpr double kWindowS = 1.0;

struct Item {
  data::Dataset ds;
  std::string codec;
  std::vector<std::uint8_t> stream;  ///< oracle compress output
  std::vector<std::uint8_t> raw;     ///< oracle decompress output
};

struct Request {
  std::size_t item = 0;
  svc::JobKind kind = svc::JobKind::Compress;
};

/// Deterministic request tape: item i has popularity rank i under
/// Zipf(1.0); half the requests compress, half decompress. Items alternate
/// codecs by rank, so every seed sees the same codec mix among hot items.
class Tape {
 public:
  Tape(std::uint64_t seed, std::size_t items) : rng_(seed) {
    std::vector<double> w(items);
    for (std::size_t r = 0; r < items; ++r) w[r] = 1.0 / static_cast<double>(r + 1);
    zipf_ = std::discrete_distribution<std::size_t>(w.begin(), w.end());
  }
  Request next() {
    Request r;
    r.item = zipf_(rng_);
    r.kind = (rng_() & 1) ? svc::JobKind::Decompress : svc::JobKind::Compress;
    return r;
  }

 private:
  std::mt19937_64 rng_;
  std::discrete_distribution<std::size_t> zipf_;
};

pipeline::Options job_options() {
  pipeline::Options o;
  o.mode = pipeline::Mode::None;  // small serving jobs: one chunk each
  o.param = kErrorBound;
  return o;
}

/// The catalog and its oracle outputs: each item through a direct
/// pipeline call on one thread (one chunk, so no pool fan-out), items
/// spread over the pool.
std::vector<Item> make_catalog(std::uint64_t seed, double& generate_cpu_s) {
  std::vector<Item> items(kCatalog);
  auto& pool = ThreadPool::instance();
  const double cpu0 = process_cpu_s();
  pool.parallel_for(kCatalog, [&](std::size_t i) {
    items[i].ds = data::make("nyx", data::Size::Small, derive_seed(seed, 100 + i));
    items[i].codec = (i % 2 == 0) ? "mgard-x" : "cusz";
  });
  generate_cpu_s = process_cpu_s() - cpu0;
  const Device dev = Device::serial();
  const auto opts = job_options();
  pool.parallel_for(kCatalog, [&](std::size_t i) {
    Item& it = items[i];
    const auto comp = make_compressor(it.codec);
    it.stream = pipeline::compress(dev, *comp, it.ds.data(), it.ds.shape,
                                   it.ds.dtype, opts)
                    .stream;
    it.raw.resize(it.ds.size_bytes());
    pipeline::decompress(dev, *comp, it.stream, it.raw.data(), it.ds.shape,
                         it.ds.dtype, opts);
  });
  return items;
}

struct Completed {
  Request rq;
  Clock::time_point submitted;
  double latency_s = 0.0;  ///< client submit to future resolution
  svc::JobResult res;
  bool correct = false;
};

/// Closed loop with kInFlight requests outstanding: one client thread per
/// slot submits a request, blocks on its future, timestamps the resolution
/// and checks the reply against the oracle before submitting the next.
/// `stop` (asked before each submission), the tape and `done` (run for
/// every reply) are serialised by one mutex.
template <typename Stop, typename Done>
void closed_loop(svc::Service::Session& session, const std::vector<Item>& items,
                 Tape& tape, Stop&& stop, Done&& done) {
  std::mutex mu;
  const auto opts = job_options();
  const auto client = [&] {
    while (true) {
      Completed c;
      {
        std::lock_guard<std::mutex> g(mu);
        if (stop()) return;
        c.rq = tape.next();
      }
      const Item& it = items[c.rq.item];
      svc::JobSpec spec;
      spec.kind = c.rq.kind;
      spec.codec = it.codec;
      spec.shape = it.ds.shape;
      spec.dtype = it.ds.dtype;
      spec.opts = opts;
      spec.use_cache = true;
      const bool comp = c.rq.kind == svc::JobKind::Compress;
      spec.input = comp ? it.ds.data() : it.stream.data();
      spec.input_bytes = comp ? it.ds.size_bytes() : it.stream.size();
      c.submitted = Clock::now();
      c.res = session.submit(std::move(spec)).get();
      c.latency_s = seconds_since(c.submitted);
      c.correct = c.res.ok && c.res.output == (comp ? it.stream : it.raw);
      std::lock_guard<std::mutex> g(mu);
      done(c);
    }
  };
  std::vector<std::jthread> clients;
  for (std::size_t k = 0; k < kInFlight; ++k) clients.emplace_back(client);
}

/// One request as three spans under the service's trace id: the request
/// as the client saw it, and its queue wait and run as the service timed
/// them (JobResult), laid end to end from the submit time.
void record_spans(SpanLog& log, const Completed& c) {
  Span req;
  req.id = log.next_id();
  req.trace = c.res.trace_id;
  req.name = "svc.request";
  req.t0 = log.at(c.submitted);
  req.t1 = req.t0 + c.latency_s;
  req.bytes = c.res.input_bytes;
  Span wait = req;
  wait.id = log.next_id();
  wait.parent = req.id;
  wait.name = "svc.queue_wait";
  wait.t1 = wait.t0 + c.res.queue_wait_s;
  Span run = wait;
  run.id = log.next_id();
  run.name = std::string("svc.run.") + svc::to_string(c.rq.kind);
  run.t0 = wait.t1;
  run.t1 = run.t0 + c.res.run_s;
  log.add(std::move(req));
  log.add(std::move(wait));
  log.add(std::move(run));
}

svc::Service::Config service_config() {
  svc::Service::Config cfg;
  cfg.max_concurrent_jobs = kRunners;
  cfg.arena_budget_bytes = kArenaBudget;
  return cfg;
}

void add(std::vector<Metric>& m, std::string name, double v, const char* unit) {
  m.push_back({std::move(name), v, unit});
}

/// Sums over one window of the measured loop.
struct Window {
  double wall = 0, cpu = 0, n = 0;
  double comp_raw = 0, comp_run = 0, decomp_raw = 0, decomp_run = 0;
  /// Requests of both directions run concurrently, so the window's process
  /// CPU time is split between them in proportion to their wall time
  /// inside the pipeline.
  double comp_cpu() const { return cpu * comp_run / (comp_run + decomp_run); }
};

double window_quantile(const std::vector<Window>& ws, double q,
                       double (*f)(const Window&)) {
  std::vector<double> v;
  for (const Window& w : ws) v.push_back(f(w));
  return quantile(v, q);
}

double window_median(const std::vector<Window>& ws, double (*f)(const Window&)) {
  return window_quantile(ws, 0.5, f);
}

}  // namespace

Outcome run_serve(const Args& args) {
  // Set-up: catalog, oracles and a warmed service; repeated so setup_s is
  // a median. The measured tape is independent of the warm-up tape.
  std::vector<double> setup_cpu, generate_cpu;
  std::vector<Item> items;
  std::unique_ptr<svc::Service> service;
  Outcome out;
  for (int r = 0; r < kSetupRepeats; ++r) {
    service.reset();
    items.clear();
    items.shrink_to_fit();
    // Hand the previous set-up's pages back, so peak_rss_mb measures one
    // set-up rather than how the allocator's per-thread arenas happened to
    // fragment across three.
    malloc_trim(0);
    const double cpu0 = process_cpu_s();
    double gen = 0.0;
    items = make_catalog(args.seed, gen);
    service = std::make_unique<svc::Service>(service_config());
    auto session = service->open_session();
    Tape warm(derive_seed(args.seed, 7), kCatalog);
    std::size_t sent = 0;
    closed_loop(session, items, warm, [&] { return sent++ >= kWarmupRequests; },
                [&](const Completed& c) {
                  ++out.attempted;
                  if (!c.correct) ++out.failed;
                });
    setup_cpu.push_back(process_cpu_s() - cpu0);
    generate_cpu.push_back(gen);
  }

  auto session = service->open_session();
  Tape tape(derive_seed(args.seed, 8), kCatalog);
  const std::uint64_t hits0 = service->cache().hits();
  const std::uint64_t misses0 = service->cache().misses();
  const std::uint64_t failed0 = service->failed();
  const std::uint64_t shed0 = service->shed();
  std::vector<double> lat, qwait, run;
  double comp_raw = 0, comp_lat = 0, decomp_raw = 0, decomp_lat = 0,
         codec_s = 0, hit_s = 0;
  // Stored size per catalog item, from its compress replies: the ratio is
  // taken over distinct items so that which items the tape makes hot does
  // not weigh it.
  std::vector<double> stored(kCatalog, 0.0);
  std::uint64_t bad = 0;
  SpanLog log;
  std::vector<Window> windows;
  Window win;
  const double steal0 = host_steal_s();
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  auto win_t0 = t0;
  double win_cpu0 = cpu0;
  closed_loop(
      session, items, tape, [&] { return seconds_since(t0) >= args.seconds; },
      [&](const Completed& c) {
        ++out.attempted;
        if (!c.correct) {
          ++out.failed;
          if (++bad <= 5)
            std::fprintf(stderr, "FAIL request item=%zu kind=%s ok=%d %s\n",
                         c.rq.item, svc::to_string(c.rq.kind), c.res.ok,
                         c.res.error.c_str());
        }
        if (args.trace) record_spans(log, c);
        lat.push_back(c.latency_s);
        qwait.push_back(c.res.queue_wait_s);
        run.push_back(c.res.run_s);
        codec_s += c.res.codec_s;
        hit_s += c.res.cache_hit_s;
        const double raw = static_cast<double>(items[c.rq.item].ds.size_bytes());
        if (c.rq.kind == svc::JobKind::Compress) {
          comp_raw += raw;
          comp_lat += c.latency_s;
          win.comp_raw += raw;
          win.comp_run += c.res.run_s;
          stored[c.rq.item] = static_cast<double>(c.res.output.size());
        } else {
          decomp_raw += raw;
          decomp_lat += c.latency_s;
          win.decomp_raw += raw;
          win.decomp_run += c.res.run_s;
        }
        ++win.n;
        if (seconds_since(win_t0) >= kWindowS) {
          const auto now = Clock::now();
          const double now_cpu = process_cpu_s();
          win.wall = std::chrono::duration<double>(now - win_t0).count();
          win.cpu = now_cpu - win_cpu0;
          windows.push_back(win);
          win = Window{};
          win_t0 = now;
          win_cpu0 = now_cpu;
        }
      });
  if (windows.empty()) {  // a run shorter than one window
    win.wall = seconds_since(win_t0);
    win.cpu = process_cpu_s() - win_cpu0;
    windows.push_back(win);
  }
  const double wall = seconds_since(t0);
  const double steal = host_steal_s() - steal0;
  const double n = static_cast<double>(lat.size());

  // End-to-end, over whole windows (the last, partial window is left
  // out); times in CPU seconds as on the checkpoint workloads, except
  // wall_ms_per_op.
  auto& e = out.end_to_end;
  add(e, "setup_s", median(setup_cpu), "s");
  add(e, "compress_gbps", window_median(windows, [](const Window& w) {
        return w.comp_raw / w.comp_cpu() / 1e9;
      }), "GB/cpu-s");
  add(e, "decompress_gbps", window_median(windows, [](const Window& w) {
        return w.decomp_raw / (w.cpu - w.comp_cpu()) / 1e9;
      }), "GB/cpu-s");
  double distinct_raw = 0, distinct_stored = 0;
  for (std::size_t i = 0; i < kCatalog; ++i)
    if (stored[i] > 0) {
      distinct_raw += static_cast<double>(items[i].ds.size_bytes());
      distinct_stored += stored[i];
    }
  add(e, "ratio", distinct_raw / distinct_stored, "x");
  add(e, "cpu_ms_per_op", window_median(windows, [](const Window& w) {
        return w.cpu * 1e3 / w.n;
      }), "ms");
  // Lower quartile over windows, as on the checkpoint workloads: host
  // contention bursts only ever slow a window.
  add(e, "wall_ms_per_op", window_quantile(windows, 0.25, [](const Window& w) {
        return w.wall * 1e3 / w.n;
      }), "ms");
  add(e, "peak_rss_mb", peak_rss_mb(), "MB");

  const double hits = static_cast<double>(service->cache().hits() - hits0);
  const double misses = static_cast<double>(service->cache().misses() - misses0);
  auto& l = out.per_layer;
  l["wall.compress_gbps"] = comp_raw / comp_lat / 1e9;
  l["wall.decompress_gbps"] = decomp_raw / decomp_lat / 1e9;
  l["wall.req_per_s"] = n / wall;
  l["wall.latency_p50_ms"] = quantile(lat, 0.50) * 1e3;
  l["wall.latency_p99_ms"] = quantile(lat, 0.99) * 1e3;
  l["host.steal_share"] = steal / (wall * host_cpus());
  l["data.generate_s"] = median(generate_cpu);
  l["svc.queue_wait_p50_ms"] = quantile(qwait, 0.50) * 1e3;
  l["svc.queue_wait_p99_ms"] = quantile(qwait, 0.99) * 1e3;
  l["svc.run_p50_ms"] = quantile(run, 0.50) * 1e3;
  l["svc.run_p99_ms"] = quantile(run, 0.99) * 1e3;
  l["svc.codec_s"] = codec_s / n;
  l["svc.cache_hit_s"] = hit_s / n;
  l["svc.cache.hit_ratio"] = hits / (hits + misses);
  l["svc.arena.high_water_mb"] =
      static_cast<double>(service->budget().high_water()) / (1 << 20);
  l["svc.jobs.failed"] = static_cast<double>(service->failed() - failed0);
  l["svc.jobs.shed"] = static_cast<double>(service->shed() - shed0);

  std::printf("requests %.0f in %.2f s wall (%zu windows): %.1f req/s, "
              "latency p50 %.3f ms p99 %.3f ms (%.0f samples beyond p99), "
              "cache hit ratio %.3f\n",
              n, wall, windows.size(), n / wall, quantile(lat, 0.50) * 1e3,
              quantile(lat, 0.99) * 1e3, std::floor(n * 0.01),
              hits / (hits + misses));
  if (args.trace) {
    const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    log.write_chrome(path);
    std::printf("spans written to %s\n", path.c_str());
  }
  return out;
}

}  // namespace perfbench
