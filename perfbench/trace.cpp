#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "core/thread_pool.hpp"

namespace perfbench {

SpanLog::SpanLog() : origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 14);
}

double SpanLog::now() const { return at(std::chrono::steady_clock::now()); }

double SpanLog::at(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration<double>(t - origin_).count();
}

void SpanLog::add(Span s) {
  std::lock_guard<std::mutex> g(mu_);
  spans_.push_back(std::move(s));
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> g(mu_);
  return spans_;
}

void SpanLog::clear() {
  std::lock_guard<std::mutex> g(mu_);
  spans_.clear();
}

void SpanLog::write_chrome(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  f << "[";
  bool first = true;
  char buf[512];
  for (const Span& s : spans()) {
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace\":%llu,"
                  "\"span\":%llu,\"parent\":%llu,\"bytes\":%llu}}",
                  first ? "" : ",", s.name.c_str(), s.worker, s.t0 * 1e6,
                  (s.t1 - s.t0) * 1e6,
                  static_cast<unsigned long long>(s.trace),
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.bytes));
    f << buf;
    first = false;
  }
  f << "\n]\n";
}

TimedCompressor::TimedCompressor(std::shared_ptr<const hpdr::Compressor> inner,
                                 SpanLog& log, const TraceContext& ctx)
    : inner_(std::move(inner)),
      log_(log),
      ctx_(ctx),
      compress_name_("codec." + inner_->name() + ".compress"),
      decompress_name_("codec." + inner_->name() + ".decompress") {}

std::vector<std::uint8_t> TimedCompressor::compress(
    const hpdr::Device& dev, const void* data, const hpdr::Shape& shape,
    hpdr::DType dtype, double param) const {
  Span s;
  s.t0 = log_.now();
  auto out = inner_->compress(dev, data, shape, dtype, param);
  s.t1 = log_.now();
  s.id = log_.next_id();
  s.parent = ctx_.parent.load(std::memory_order_relaxed);
  s.trace = ctx_.trace.load(std::memory_order_relaxed);
  s.name = compress_name_;
  s.worker = hpdr::ThreadPool::worker_id();
  s.bytes = out.size();
  log_.add(std::move(s));
  return out;
}

void TimedCompressor::decompress(const hpdr::Device& dev,
                                 std::span<const std::uint8_t> stream,
                                 void* out, const hpdr::Shape& shape,
                                 hpdr::DType dtype) const {
  Span s;
  s.t0 = log_.now();
  inner_->decompress(dev, stream, out, shape, dtype);
  s.t1 = log_.now();
  s.id = log_.next_id();
  s.parent = ctx_.parent.load(std::memory_order_relaxed);
  s.trace = ctx_.trace.load(std::memory_order_relaxed);
  s.name = decompress_name_;
  s.worker = hpdr::ThreadPool::worker_id();
  s.bytes = stream.size();
  log_.add(std::move(s));
}

std::unordered_map<std::uint64_t, double> child_coverage(
    const std::vector<Span>& all) {
  std::unordered_map<std::uint64_t, const Span*> by_id;
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      kids;
  for (const Span& s : all) {
    by_id[s.id] = &s;
    if (s.parent != 0) kids[s.parent].emplace_back(s.t0, s.t1);
  }
  std::unordered_map<std::uint64_t, double> covered;
  for (auto& [parent, iv] : kids) {
    const auto it = by_id.find(parent);
    if (it == by_id.end()) continue;
    const double lo = it->second->t0;
    const double hi = it->second->t1;
    std::sort(iv.begin(), iv.end());
    double sum = 0.0;
    double cur_a = 0.0;
    double cur_b = -1.0;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (a > cur_b) {
        if (cur_b > cur_a) sum += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) sum += cur_b - cur_a;
    covered[parent] = sum;
  }
  return covered;
}

}  // namespace perfbench
