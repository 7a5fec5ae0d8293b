#ifndef HPDR_PERFBENCH_TRACE_HPP
#define HPDR_PERFBENCH_TRACE_HPP

/// \file trace.hpp
/// Outside-in tracing for the benchmark. Spans are recorded from the
/// benchmark's own files only: around each public-API call it makes, and
/// inside TimedCompressor, a decorator handed to the pipeline in place of
/// the codec so every codec call the pipeline makes -- on whichever pool
/// worker makes it -- is timed as a child of the API call that caused it.
/// Spans stay in memory and are written out when the run ends.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "compressor/compressor.hpp"

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::uint64_t trace = 0;   ///< checkpoint pass or serve request
  std::string name;          ///< "pipeline.compress", "codec.zfp-x.compress"
  int worker = 0;            ///< ThreadPool::worker_id() of the recording thread
  double t0 = 0.0;           ///< seconds since the log was created
  double t1 = 0.0;
  std::uint64_t bytes = 0;   ///< output bytes of a codec compress, input bytes otherwise
};

class SpanLog {
 public:
  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  double now() const;
  /// Seconds between the log's creation and `t`.
  double at(std::chrono::steady_clock::time_point t) const;
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void add(Span s);
  std::vector<Span> spans() const;
  void clear();
  /// Chrome-trace JSON array (one complete event per span, ids in args).
  void write_chrome(const std::string& path) const;

 private:
  const std::chrono::steady_clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// The span a pipeline call is running under. The benchmark sets it on the
/// calling thread before the call; codec calls on pool workers read it, so
/// it is shared rather than thread-local. Only one traced API call is in
/// flight at a time.
struct TraceContext {
  std::atomic<std::uint64_t> trace{0};
  std::atomic<std::uint64_t> parent{0};
};

/// Forwards every Compressor call to `inner` unchanged; compress and
/// decompress are timed into `log` as children of `ctx.parent`.
class TimedCompressor final : public hpdr::Compressor {
 public:
  TimedCompressor(std::shared_ptr<const hpdr::Compressor> inner, SpanLog& log,
                  const TraceContext& ctx);

  std::string name() const override { return inner_->name(); }
  bool lossless() const override { return inner_->lossless(); }
  hpdr::KernelClass compress_kernel() const override {
    return inner_->compress_kernel();
  }
  hpdr::KernelClass decompress_kernel() const override {
    return inner_->decompress_kernel();
  }
  bool uses_context_cache() const override {
    return inner_->uses_context_cache();
  }
  int allocs_per_call() const override { return inner_->allocs_per_call(); }
  double kernel_derate() const override { return inner_->kernel_derate(); }
  double contention_exposure(bool compress_dir) const override {
    return inner_->contention_exposure(compress_dir);
  }

  std::vector<std::uint8_t> compress(const hpdr::Device& dev, const void* data,
                                     const hpdr::Shape& shape,
                                     hpdr::DType dtype,
                                     double param) const override;
  void decompress(const hpdr::Device& dev,
                  std::span<const std::uint8_t> stream, void* out,
                  const hpdr::Shape& shape, hpdr::DType dtype) const override;

 private:
  std::shared_ptr<const hpdr::Compressor> inner_;
  SpanLog& log_;
  const TraceContext& ctx_;
  const std::string compress_name_;
  const std::string decompress_name_;
};

/// For every span with children in `all`: the seconds of its own interval
/// covered by the union of its children's intervals (children overlap when
/// they run on different pool workers). A span's self time is its duration
/// minus this.
std::unordered_map<std::uint64_t, double> child_coverage(
    const std::vector<Span>& all);

}  // namespace perfbench

#endif  // HPDR_PERFBENCH_TRACE_HPP
