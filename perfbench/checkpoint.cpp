// Checkpoint workloads: one caller writes and restarts a checkpoint of two
// fields through pipeline::compress / pipeline::decompress, pass after pass,
// for every codec of the workload. checkpoint-lossy also writes a v3
// progressive stream of the NYX field each pass and retrieves it at a loose
// bound through ProgressiveReader.
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>

#include "hpdr.hpp"
#include "perfbench.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace hpdr;

constexpr double kErrorBound = 1e-3;          ///< relative, lossy codecs
constexpr double kRetrieveBound = 1e-2;       ///< progressive retrieval target
constexpr std::size_t kChunkBytes = 1 << 20;  ///< Fixed 1 MiB chunks

const std::vector<std::string> kLossyCodecs = {"mgard-x", "zfp-x", "cusz",
                                               "sz3-interp"};
const std::vector<std::string> kLosslessCodecs = {"nvcomp-lz4", "huffman-x"};

struct Field {
  data::Dataset ds;
  double lo = 0.0;
  double hi = 0.0;
  std::vector<std::uint8_t> out;  ///< decode target, reused every pass
};

template <typename T>
double max_abs_error(const void* a, const void* b, std::size_t n) {
  const T* x = static_cast<const T*>(a);
  const T* y = static_cast<const T*>(b);
  double err = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d =
        std::abs(static_cast<double>(x[i]) - static_cast<double>(y[i]));
    err = (d > err || d != d) ? d : err;  // a NaN must fail the bound
  }
  return err;
}

double max_abs_error(const Field& f, const void* decoded) {
  return f.ds.dtype == DType::F32
             ? max_abs_error<float>(f.ds.data(), decoded, f.ds.elements())
             : max_abs_error<double>(f.ds.data(), decoded, f.ds.elements());
}

template <typename T>
void fill_nan(std::vector<std::uint8_t>& out) {
  T* y = reinterpret_cast<T*>(out.data());
  std::fill(y, y + out.size() / sizeof(T), std::numeric_limits<T>::quiet_NaN());
}

/// Overwrites the reused decode buffer with values no correct decode can
/// leave behind: NaN for a lossy check, the bitwise complement of the input
/// for a byte check. A decoder that skips a chunk then fails its check
/// instead of passing on what an earlier call left there.
void poison(Field& f, bool lossless) {
  if (lossless) {
    const auto* x = static_cast<const std::uint8_t*>(f.ds.data());
    for (std::size_t i = 0; i < f.out.size(); ++i)
      f.out[i] = static_cast<std::uint8_t>(~x[i]);
  } else if (f.ds.dtype == DType::F32) {
    fill_nan<float>(f.out);
  } else {
    fill_nan<double>(f.out);
  }
}

template <typename T>
void value_range(Field& f) {
  const T* x = reinterpret_cast<const T*>(f.ds.bytes.data());
  f.lo = f.hi = static_cast<double>(x[0]);
  for (std::size_t i = 1; i < f.ds.elements(); ++i) {
    f.lo = std::min(f.lo, static_cast<double>(x[i]));
    f.hi = std::max(f.hi, static_cast<double>(x[i]));
  }
}

/// Wall and process-CPU seconds of one public-API call.
struct Cost {
  double wall = 0.0;
  double cpu = 0.0;
};

void add_cost(Cost& sum, const Cost& c) {
  sum.wall += c.wall;
  sum.cpu += c.cpu;
}

/// Per-pass sums; the run reports medians over passes.
struct Pass {
  double raw = 0.0;          ///< bytes of every field, once per codec
  Cost comp, decomp;         ///< pipeline::compress / decompress calls
  Cost write, retrieve;      ///< progressive write / open + refine
  double stored = 0.0;
  double retrieve_raw = 0.0, fetched = 0.0, payload = 0.0, reread = 0.0;
  double chunks = 0.0, fallback = 0.0;
  std::vector<double> call_wall;
};

double compress_gbps(const Pass& p) { return p.raw / p.comp.cpu / 1e9; }

struct Inputs {
  std::vector<Field> fields;
  double generate_cpu_s = 0.0;
};

Inputs make_inputs(std::uint64_t seed) {
  const double cpu0 = process_cpu_s();
  Inputs in;
  in.fields.resize(2);
  in.fields[0].ds = data::make("nyx", data::Size::Medium, derive_seed(seed, 1));
  in.fields[1].ds = data::make("xgc", data::Size::Small, derive_seed(seed, 2));
  for (Field& f : in.fields) {
    if (f.ds.dtype == DType::F32)
      value_range<float>(f);
    else
      value_range<double>(f);
    f.out.assign(f.ds.size_bytes(), 0);
  }
  in.generate_cpu_s = process_cpu_s() - cpu0;
  return in;
}

class Checkpoint {
 public:
  Checkpoint(bool lossless, Inputs& in)
      : lossless_(lossless),
        in_(in),
        dev_(Device::serial()),
        codecs_(lossless ? kLosslessCodecs : kLossyCodecs) {
    opts_.mode = pipeline::Mode::Fixed;
    opts_.fixed_chunk_bytes = kChunkBytes;
    opts_.param = kErrorBound;
    for (const auto& name : codecs_) {
      auto bare = make_compressor(name);
      bare_.push_back(bare);
      timed_.push_back(std::make_shared<TimedCompressor>(bare, log, ctx_));
    }
  }

  /// One checkpoint write + restart of every field through every codec.
  Pass run_pass(bool traced, std::uint64_t pass_id);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  SpanLog log;

 private:
  /// Times `fn` as one public-API call; when traced, records it as a span
  /// that the codec calls made during it name as their parent.
  template <typename Fn>
  Cost api_call(bool traced, const char* name, std::uint64_t bytes,
                std::uint64_t root, Fn&& fn) {
    Span s;
    if (traced) {
      s.id = log.next_id();
      s.parent = root;
      s.trace = ctx_.trace.load();
      s.name = name;
      s.bytes = bytes;
      ctx_.parent.store(s.id);
      s.t0 = log.now();
    }
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    fn();
    const Cost c{seconds_since(t0), process_cpu_s() - cpu0};
    if (traced) {
      s.t1 = log.now();
      log.add(std::move(s));
      ctx_.parent.store(root);
    }
    return c;
  }

  void check(bool ok, const char* what, const std::string& codec,
             const Field& f) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "FAIL %s codec=%s field=%s\n", what, codec.c_str(),
                 f.ds.name.c_str());
  }

  bool lossless_;
  Inputs& in_;
  Device dev_;
  std::vector<std::string> codecs_;
  pipeline::Options opts_;
  TraceContext ctx_;
  std::vector<std::shared_ptr<const Compressor>> bare_;
  std::vector<std::shared_ptr<const Compressor>> timed_;
};

Pass Checkpoint::run_pass(bool traced, std::uint64_t pass_id) {
  Pass p;
  std::uint64_t root = 0;
  Span pass_span;
  if (traced) {
    root = log.next_id();
    ctx_.trace.store(pass_id);
    ctx_.parent.store(root);
    pass_span.id = root;
    pass_span.trace = pass_id;
    pass_span.name = "checkpoint.pass";
    pass_span.t0 = log.now();
  }
  for (Field& f : in_.fields) {
    const auto& ds = f.ds;
    for (std::size_t c = 0; c < codecs_.size(); ++c) {
      const Compressor& comp = traced ? *timed_[c] : *bare_[c];
      pipeline::CompressResult cr;
      const Cost cc = api_call(traced, "pipeline.compress", ds.size_bytes(),
                               root, [&] {
                                 cr = pipeline::compress(dev_, comp, ds.data(),
                                                         ds.shape, ds.dtype,
                                                         opts_);
                               });
      poison(f, lossless_);
      const Cost dc = api_call(traced, "pipeline.decompress",
                               cr.stream.size(), root, [&] {
                                 pipeline::decompress(dev_, comp, cr.stream,
                                                      f.out.data(), ds.shape,
                                                      ds.dtype, opts_);
                               });
      p.raw += static_cast<double>(ds.size_bytes());
      add_cost(p.comp, cc);
      add_cost(p.decomp, dc);
      p.call_wall.push_back(cc.wall);
      p.call_wall.push_back(dc.wall);
      p.stored += static_cast<double>(cr.stream.size());
      p.chunks += static_cast<double>(cr.chunk_rows.size());
      p.fallback += static_cast<double>(cr.fallback_chunks);
      // A codec that throws is retried and then stored raw; the stream
      // still decodes exactly, so only these counters show the failure.
      check(cr.fallback_chunks == 0 && cr.codec_retries == 0,
            "codec call failed (retried or stored raw)", codecs_[c], f);
      if (lossless_) {
        check(std::memcmp(f.out.data(), ds.data(), ds.size_bytes()) == 0,
              "byte mismatch", codecs_[c], f);
      } else {
        check(max_abs_error(f, f.out.data()) <=
                  kErrorBound * (f.hi - f.lo) * (1.0 + 1e-9),
              "error bound exceeded", codecs_[c], f);
      }
    }
  }
  if (!lossless_) {
    // Progressive checkpoint of the NYX field, read back at a loose bound.
    Field& f = in_.fields[0];
    const auto& ds = f.ds;
    std::vector<std::uint8_t> stream;
    p.write = api_call(traced, "pipeline.progressive_compress",
                       ds.size_bytes(), root, [&] {
                         stream = pipeline::progressive_compress(
                             dev_, ds.data(), ds.shape, ds.dtype, opts_);
                       });
    std::unique_ptr<pipeline::ProgressiveReader> reader;
    p.retrieve = api_call(traced, "pipeline.progressive_refine",
                          stream.size(), root, [&] {
                            reader = std::make_unique<pipeline::ProgressiveReader>(
                                stream);
                            reader->refine(dev_, kRetrieveBound);
                          });
    p.call_wall.push_back(p.write.wall);
    p.call_wall.push_back(p.retrieve.wall);
    p.retrieve_raw = static_cast<double>(ds.size_bytes());
    p.fetched = static_cast<double>(reader->bytes_consumed());
    p.payload = static_cast<double>(reader->total_payload_bytes());
    p.reread = static_cast<double>(reader->bytes_reread());
    check(reader->data().size() == ds.size_bytes() &&
              max_abs_error(f, reader->data().data()) <=
                  kRetrieveBound * (f.hi - f.lo) * (1.0 + 1e-9),
          "progressive bound exceeded", "mgard-x", f);
    check(reader->bytes_reread() == 0, "progressive re-read", "mgard-x", f);
    check(pipeline::inspect(stream).fallback_chunks == 0,
          "progressive chunk stored raw", "mgard-x", f);
  }
  if (traced) {
    pass_span.t1 = log.now();
    log.add(std::move(pass_span));
    ctx_.parent.store(0);
  }
  // The library's own span log grows with every call; a long-running
  // writer drains it, and so does the benchmark.
  telemetry::SpanLog::instance().clear();
  return p;
}

double per_pass_quantile(const std::vector<Pass>& ps, double q,
                         double (*f)(const Pass&)) {
  std::vector<double> v;
  for (const Pass& p : ps) v.push_back(f(p));
  return quantile(v, q);
}

double per_pass_median(const std::vector<Pass>& ps, double (*f)(const Pass&)) {
  return per_pass_quantile(ps, 0.5, f);
}

void add(std::vector<Metric>& m, std::string name, double v, const char* unit) {
  m.push_back({std::move(name), v, unit});
}

/// Per-layer figures from the traced passes' spans, and the self-time
/// table: the pipeline's wall time split into the union of its codec spans
/// and the rest (checksum, framing, copies, allocation).
void span_metrics(Checkpoint& cp, const std::vector<Pass>& traced,
                  bool lossless, Outcome& out) {
  const std::vector<Span> spans = cp.log.spans();
  const auto covered = child_coverage(spans);
  const double n = static_cast<double>(traced.size());
  std::map<std::string, double> busy_c, busy_d, ncalls, stored;
  double wall_c = 0, wall_d = 0, self_c = 0, self_d = 0, busy = 0;
  for (const Span& s : spans) {
    const double d = s.t1 - s.t0;
    if (s.name == "pipeline.compress" || s.name == "pipeline.decompress") {
      const auto it = covered.find(s.id);
      const double self = d - (it == covered.end() ? 0.0 : it->second);
      const bool comp = s.name == "pipeline.compress";
      (comp ? wall_c : wall_d) += d;
      (comp ? self_c : self_d) += self;
    } else if (s.name.rfind("codec.", 0) == 0) {
      const auto dot = s.name.rfind('.');
      const std::string codec = s.name.substr(6, dot - 6);
      const bool comp = s.name.compare(dot + 1, std::string::npos, "compress") == 0;
      (comp ? busy_c : busy_d)[codec] += d;
      ncalls[codec] += 1;
      if (comp) stored[codec] += static_cast<double>(s.bytes);
      busy += d;
    }
  }
  auto& l = out.per_layer;
  for (const auto& [codec, calls] : ncalls) {
    l["codec." + codec + ".compress_busy_s"] = busy_c[codec] / n;
    l["codec." + codec + ".decompress_busy_s"] = busy_d[codec] / n;
    l["codec." + codec + ".calls"] = calls / n;
    l["codec." + codec + ".stored_bytes"] = stored[codec] / n;
  }
  double chunks = 0, fallback = 0, fetched = 0, payload = 0, reread = 0;
  Cost write, retrieve;
  for (const Pass& p : traced) {
    chunks += p.chunks;
    fallback += p.fallback;
    add_cost(write, p.write);
    add_cost(retrieve, p.retrieve);
    fetched += p.fetched;
    payload += p.payload;
    reread += p.reread;
  }
  l["pipeline.compress_wall_s"] = wall_c / n;
  l["pipeline.decompress_wall_s"] = wall_d / n;
  l["pipeline.chunks"] = chunks / n;
  l["pipeline.fallback_chunks"] = fallback;
  l["pipeline.compress_self_share"] = self_c / wall_c;
  l["pipeline.decompress_self_share"] = self_d / wall_d;
  l["pipeline.parallel_efficiency"] = busy / ((wall_c + wall_d) * kPoolWidth);
  if (!lossless) {
    l["progressive.write_s"] = write.wall / n;
    l["progressive.refine_s"] = retrieve.wall / n;
    l["progressive.fetch_frac"] = fetched / payload;
    l["progressive.bytes_reread"] = reread;
  }

  std::printf("\nself time per pass (traced passes: %zu)\n", traced.size());
  std::printf("  %-22s %10s %10s %10s %8s\n", "span", "wall s", "codec s",
              "self s", "self %");
  const auto row = [&](const char* name, double wall, double self) {
    std::printf("  %-22s %10.4f %10.4f %10.4f %7.1f%%\n", name, wall / n,
                (wall - self) / n, self / n, 100.0 * self / wall);
  };
  row("pipeline.compress", wall_c, self_c);
  row("pipeline.decompress", wall_d, self_d);
  std::printf("  %-22s %10s %10s %10s\n", "codec busy", "compress s",
              "decomp s", "calls");
  for (const auto& [codec, calls] : ncalls)
    std::printf("  %-22s %10.4f %10.4f %10.0f\n", codec.c_str(),
                busy_c[codec] / n, busy_d[codec] / n, calls / n);
}

}  // namespace

Outcome run_checkpoint(const Args& args, bool lossless) {
  // Set-up: generate the inputs and run one untimed warm-up pass; repeated
  // so setup_s is a median.
  std::vector<double> setup_cpu, generate_cpu;
  std::unique_ptr<Inputs> in;
  std::unique_ptr<Checkpoint> cp;
  Outcome out;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (cp) {
      out.attempted += cp->attempted;
      out.failed += cp->failed;
    }
    cp.reset();
    in.reset();
    const double cpu0 = process_cpu_s();
    in = std::make_unique<Inputs>(make_inputs(args.seed));
    cp = std::make_unique<Checkpoint>(lossless, *in);
    cp->run_pass(/*traced=*/false, 0);
    setup_cpu.push_back(process_cpu_s() - cpu0);
    generate_cpu.push_back(in->generate_cpu_s);
  }

  // Measure. A traced run alternates traced and untraced passes, so the
  // tracing overhead comes from the same stretch of time.
  std::vector<Pass> bare, traced;
  const double steal0 = host_steal_s();
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; seconds_since(t0) < args.seconds || bare.empty() ||
                            (args.trace && traced.empty());
       ++i) {
    const bool tr = args.trace && (i % 2 == 1);
    Pass p = cp->run_pass(tr, i + 1);
    (tr ? traced : bare).push_back(std::move(p));
  }
  const double wall = seconds_since(t0);
  const double steal = host_steal_s() - steal0;
  out.attempted += cp->attempted;
  out.failed += cp->failed;

  // End-to-end, from the untraced passes, in CPU seconds: time the host
  // hands to other tenants does not count against the program.
  const double gbps = per_pass_median(bare, compress_gbps);
  auto& e = out.end_to_end;
  add(e, "setup_s", median(setup_cpu), "s");
  add(e, "compress_gbps", gbps, "GB/cpu-s");
  add(e, "decompress_gbps",
      per_pass_median(bare, [](const Pass& p) { return p.raw / p.decomp.cpu / 1e9; }),
      "GB/cpu-s");
  add(e, "ratio", bare[0].raw / bare[0].stored, "x");
  add(e, "cpu_ms_per_op", per_pass_median(bare, [](const Pass& p) {
        const double cpu = p.comp.cpu + p.decomp.cpu + p.write.cpu + p.retrieve.cpu;
        return cpu * 1e3 / static_cast<double>(p.call_wall.size());
      }), "ms");
  // Wall time sees waiting and lost parallelism, which CPU time does not.
  // Host contention only ever slows a pass and comes in bursts that hit a
  // few passes of a run, so the lower quartile over passes is taken: a
  // slower program moves every pass, a burst moves only the upper ones.
  add(e, "wall_ms_per_op", per_pass_quantile(bare, 0.25, [](const Pass& p) {
        double wall = 0;
        for (double s : p.call_wall) wall += s;
        return wall * 1e3 / static_cast<double>(p.call_wall.size());
      }), "ms");
  add(e, "peak_rss_mb", peak_rss_mb(), "MB");

  // Wall-clock figures: what this host delivered, steal included.
  std::vector<double> call_wall;
  double call_wall_sum = 0;
  for (const Pass& p : bare)
    for (double s : p.call_wall) {
      call_wall.push_back(s);
      call_wall_sum += s;
    }
  auto& l = out.per_layer;
  l["wall.compress_gbps"] =
      per_pass_median(bare, [](const Pass& p) { return p.raw / p.comp.wall / 1e9; });
  l["wall.decompress_gbps"] =
      per_pass_median(bare, [](const Pass& p) { return p.raw / p.decomp.wall / 1e9; });
  l["wall.req_per_s"] = static_cast<double>(call_wall.size()) / call_wall_sum;
  l["wall.latency_p50_ms"] = quantile(call_wall, 0.50) * 1e3;
  l["wall.latency_p99_ms"] = quantile(call_wall, 0.99) * 1e3;
  l["host.steal_share"] = steal / (wall * host_cpus());
  l["data.generate_s"] = median(generate_cpu);
  if (!lossless)
    l["progressive.retrieve_gbps"] = per_pass_median(bare, [](const Pass& p) {
      return p.retrieve_raw / p.retrieve.wall / 1e9;
    });
  std::printf("passes %zu, public-API calls %zu\n", bare.size(), call_wall.size());
  std::printf("per-pass compress GB/cpu-s:");
  for (const Pass& p : bare) std::printf(" %.4f", compress_gbps(p));
  std::printf("\n");

  if (!args.trace) return out;
  span_metrics(*cp, traced, lossless, out);
  const double traced_gbps = per_pass_median(traced, compress_gbps);
  l["trace.compress_overhead"] = 1.0 - traced_gbps / gbps;
  std::printf("tracing overhead: compress_gbps traced %.4f vs untraced %.4f "
              "GB/cpu-s (%.2f%%)\n",
              traced_gbps, gbps, 100.0 * (1.0 - traced_gbps / gbps));
  const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  cp->log.write_chrome(path);
  std::printf("spans written to %s\n", path.c_str());
  return out;
}

}  // namespace perfbench
