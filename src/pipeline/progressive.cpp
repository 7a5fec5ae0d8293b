#include "pipeline/progressive.hpp"

#include <algorithm>
#include <cstring>

#include "algorithms/mgard/progressive.hpp"
#include "core/bitstream.hpp"
#include "core/checksum.hpp"
#include "core/error.hpp"
#include "core/thread_pool.hpp"
#include "fault/cancel.hpp"
#include "pipeline/adaptive.hpp"
#include "telemetry/span.hpp"

namespace hpdr::pipeline {
namespace {

constexpr std::uint8_t kMagic = 0x48;  // 'H' — same container family
constexpr std::uint8_t kV3 = 3;

/// Cache key salts for materialized chunk prefixes: distinct from the v2
/// frame/raw salts so a v3 prefix entry can never answer a v2 lookup.
constexpr std::uint64_t kProgContentSalt = 0xa0761d6478bd642full;
constexpr std::uint64_t kProgMetaSalt = 0xe7037ed1a0b428dbull;

struct CompRef {
  std::size_t size = 0;
  std::size_t offset = 0;  ///< absolute offset into the stream
  double bound = 0.0;      ///< abs bound of the prefix ending here
  std::uint64_t checksum = 0;
};

struct ChunkState {
  std::size_t rows = 0;
  std::size_t row_begin = 0;
  std::uint8_t mode = 0;
  double abs_eb = 0.0;
  double eb_scale = 1.0;
  double initial_bound = 0.0;
  std::vector<CompRef> comps;
  std::uint64_t content = 0;  ///< content hash for the dedup cache

  std::unique_ptr<mgard::ProgressiveChunkDecoder> dec;
  std::size_t consumed = 0;      ///< components parsed into `dec`
  std::size_t materialized = 0;  ///< prefix the output buffer reflects
  bool poisoned = false;         ///< Skip recovery froze this chunk
  std::vector<std::uint8_t> read_count;  ///< per-component fetch counter

  double bound_after(std::size_t k) const {
    return k == 0 ? initial_bound : comps[k - 1].bound;
  }
};

}  // namespace

std::vector<std::uint8_t> progressive_compress(const Device& dev,
                                               const void* data,
                                               const Shape& shape,
                                               DType dtype,
                                               const Options& opts) {
  HPDR_REQUIRE(shape.rank() >= 1 && shape.size() > 0,
               "progressive pipeline needs a non-empty tensor");
  HPDR_REQUIRE(opts.param > 0, "error bound must be positive");
  telemetry::Span span_all("pipeline.progressive.compress", "pipeline");
  const std::size_t rows = shape[0];
  const std::size_t slab_bytes =
      (shape.size() / rows) * dtype_size(dtype);
  const std::size_t total_bytes = shape.size() * dtype_size(dtype);
  // Same granule as the v2 chunk loop, so full refinement can be
  // byte-compared against a v2 decode.
  const std::vector<std::size_t> schedule =
      opts.mode == Mode::None
          ? std::vector<std::size_t>{total_bytes}
          : fixed_schedule(total_bytes, slab_granule(rows, slab_bytes),
                           opts.fixed_chunk_bytes);
  const std::size_t nchunks = schedule.size();
  const RowPlan plan = plan_rows(schedule, slab_bytes, rows);

  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::vector<mgard::ProgressiveChunk> chunks(nchunks);
  std::vector<std::vector<std::uint64_t>> sums(nchunks);
  ThreadPool::instance().parallel_for(nchunks, [&](std::size_t c) {
    fault::poll_cancel();
    Shape cshape = shape;
    cshape[0] = plan.rows[c];
    chunks[c] = mgard::progressive_encode(
        dev, bytes + plan.begin[c] * slab_bytes, cshape, dtype, opts.param);
    sums[c].reserve(chunks[c].components.size());
    for (const auto& comp : chunks[c].components)
      sums[c].push_back(fnv1a64(comp.payload));
  });

  ByteWriter out;
  out.put_u8(kMagic);
  out.put_u8(kV3);
  out.put_string("mgard-x");
  out.put_u8(static_cast<std::uint8_t>(dtype));
  out.put_u8(static_cast<std::uint8_t>(shape.rank()));
  for (std::size_t d = 0; d < shape.rank(); ++d) out.put_varint(shape[d]);
  out.put_f64(opts.param);
  out.put_varint(nchunks);
  for (std::size_t c = 0; c < nchunks; ++c) {
    const auto& ch = chunks[c];
    out.put_varint(plan.rows[c]);
    out.put_u8(ch.mode);
    out.put_f64(ch.abs_eb);
    out.put_f64(ch.eb_scale);
    out.put_f64(ch.initial_bound);
    out.put_varint(ch.components.size());
    for (std::size_t k = 0; k < ch.components.size(); ++k) {
      out.put_varint(ch.components[k].payload.size());
      out.put_f64(ch.components[k].bound);
      out.put_u64(sums[c][k]);
    }
  }
  for (const auto& ch : chunks)
    for (const auto& comp : ch.components) out.put_bytes(comp.payload);
  return out.take();
}

struct ProgressiveReader::Impl {
  std::span<const std::uint8_t> stream;
  Options opts;
  std::string codec;
  Shape shape = Shape::of_rank(1);
  DType dtype = DType::F32;
  double rel_eb = 0.0;
  std::size_t slab_bytes = 0;
  std::vector<ChunkState> chunks;
  std::vector<std::uint8_t> out;
  std::uint64_t meta_base = 0;
  std::size_t payload_total = 0;
  std::size_t comp_total = 0;
  std::size_t comp_consumed = 0;
  std::size_t bytes_consumed = 0;
  std::size_t bytes_reread = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;

  void parse();
  std::size_t refine(const Device& dev, double rel_bound);
  std::size_t target_prefix(const ChunkState& cs, double rel_bound) const;
};

void ProgressiveReader::Impl::parse() {
  ByteReader in(stream);
  HPDR_REQUIRE(in.get_u8() == kMagic, "not an HPDR pipeline container");
  HPDR_REQUIRE(in.get_u8() == kV3, "not a v3 progressive container");
  codec = in.get_string();
  const auto dtype_raw = in.get_u8();
  HPDR_REQUIRE(dtype_raw <= 1, "corrupt container dtype");
  dtype = static_cast<DType>(dtype_raw);
  const std::size_t rank = in.get_u8();
  HPDR_REQUIRE(rank >= 1 && rank <= kMaxRank, "corrupt container rank");
  shape = Shape::of_rank(rank);
  for (std::size_t d = 0; d < rank; ++d) shape[d] = in.get_varint();
  HPDR_REQUIRE(shape.size() > 0 && shape.size() <= (std::size_t{1} << 40),
               "implausible v3 tensor size");
  rel_eb = in.get_f64();
  slab_bytes = (shape.size() / shape[0]) * dtype_size(dtype);
  const std::size_t nchunks = in.get_varint();
  HPDR_REQUIRE(nchunks >= 1 && nchunks <= shape[0],
               "implausible v3 chunk count");
  chunks.resize(nchunks);
  std::size_t row = 0;
  for (auto& cs : chunks) {
    cs.rows = in.get_varint();
    cs.row_begin = row;
    row += cs.rows;
    HPDR_REQUIRE(cs.rows >= 1 && row <= shape[0],
                 "v3 chunks overrun the tensor");
    cs.mode = in.get_u8();
    HPDR_REQUIRE(cs.mode <= 1, "corrupt v3 chunk mode");
    cs.abs_eb = in.get_f64();
    cs.eb_scale = in.get_f64();
    cs.initial_bound = in.get_f64();
    const std::size_t ncomp = in.get_varint();
    // An index row is at least 17 bytes; cap before allocating.
    HPDR_REQUIRE(ncomp >= 1 && ncomp <= in.remaining() / 17 + 1,
                 "implausible v3 component count");
    cs.comps.resize(ncomp);
    cs.read_count.assign(ncomp, 0);
    std::uint64_t content =
        fnv1a64_fold(cs.abs_eb, fnv1a64_fold(cs.rows, kProgContentSalt));
    for (auto& comp : cs.comps) {
      comp.size = in.get_varint();
      HPDR_REQUIRE(comp.size <= stream.size(),
                   "v3 component exceeds container size");
      comp.bound = in.get_f64();
      comp.checksum = in.get_u64();
      content = fnv1a64_fold(comp.checksum, content);
    }
    cs.content = content;
  }
  HPDR_REQUIRE(row == shape[0], "v3 chunks do not cover the tensor");
  // Payload offsets. The payload may be truncated (that is a per-component
  // consume-time failure under the recovery policy, not a parse error).
  std::size_t off = stream.size() - in.remaining();
  for (auto& cs : chunks)
    for (auto& comp : cs.comps) {
      comp.offset = off;
      off += comp.size;
      payload_total += comp.size;
      ++comp_total;
    }
  meta_base = fnv1a64(
      {reinterpret_cast<const std::uint8_t*>(codec.data()), codec.size()},
      kProgMetaSalt);
  meta_base = fnv1a64_fold(static_cast<std::uint8_t>(dtype), meta_base);
  meta_base = fnv1a64_fold(shape.rank(), meta_base);
  for (std::size_t d = 1; d < shape.rank(); ++d)
    meta_base = fnv1a64_fold(shape[d], meta_base);
  meta_base = fnv1a64_fold(rel_eb, meta_base);
  out.assign(shape.size() * dtype_size(dtype), 0);
}

std::size_t ProgressiveReader::Impl::target_prefix(const ChunkState& cs,
                                                   double rel_bound) const {
  if (rel_bound <= 0) return cs.comps.size();
  const double target = rel_bound * cs.eb_scale;
  // The recorded ladder is monotone non-increasing: binary-search the
  // smallest prefix whose bound meets the target (full prefix if none).
  std::size_t lo = 0, hi = cs.comps.size();
  if (cs.bound_after(hi) > target) return hi;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (cs.bound_after(mid) <= target)
      hi = mid;
    else
      lo = mid + 1;
  }
  return lo;
}

std::size_t ProgressiveReader::Impl::refine(const Device& dev,
                                            double rel_bound) {
  telemetry::Span span("pipeline.progressive.refine", "pipeline");
  const std::size_t fetched0 = bytes_consumed;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    // Chunk boundary: a fired cancel token stops here; every chunk already
    // materialized stays valid, so the reader is reusable after a cancel.
    fault::poll_cancel();
    ChunkState& cs = chunks[c];
    if (cs.poisoned) continue;
    const std::size_t k = target_prefix(cs, rel_bound);
    if (k <= cs.materialized) continue;
    const std::size_t chunk_bytes = cs.rows * slab_bytes;
    std::uint8_t* dst = out.data() + cs.row_begin * slab_bytes;
    if (opts.cache != nullptr && cs.consumed == 0) {
      const std::uint64_t meta =
          fnv1a64_fold(k, fnv1a64_fold(cs.rows, meta_base));
      if (opts.cache->get_raw(cs.content, meta, dst, chunk_bytes)) {
        ++cache_hits;
        cs.materialized = k;
        continue;
      }
      ++cache_misses;
    }
    if (!cs.dec)
      cs.dec = std::make_unique<mgard::ProgressiveChunkDecoder>(
          dev, [&] {
            Shape s = shape;
            s[0] = cs.rows;
            return s;
          }(),
          dtype, cs.mode, cs.abs_eb);
    bool progressed = false;
    for (std::size_t i = cs.consumed; i < k; ++i) {
      const CompRef& comp = cs.comps[i];
      const bool in_range = comp.offset + comp.size <= stream.size();
      bool ok = in_range;
      std::span<const std::uint8_t> payload;
      if (in_range) {
        payload = stream.subspan(comp.offset, comp.size);
        ok = fnv1a64(payload) == comp.checksum;
      }
      if (ok) {
        try {
          cs.dec->consume(payload);
        } catch (const Error& e) {
          if (is_cancellation(e) ||
              opts.recovery == ChunkRecovery::Strict)
            throw;
          ok = false;
        }
      }
      if (!ok) {
        HPDR_REQUIRE(opts.recovery == ChunkRecovery::Skip,
                     "chunk " << c << " component " << i
                              << (in_range ? " corrupt (checksum mismatch)"
                                           : " truncated"));
        // Freeze at the last verified prefix: everything consumed so far
        // still honours its recorded bound.
        cs.poisoned = true;
        break;
      }
      cs.consumed = i + 1;
      ++comp_consumed;
      bytes_consumed += comp.size;
      if (++cs.read_count[i] > 1) bytes_reread += comp.size;
      progressed = true;
    }
    if (progressed || (cs.poisoned && cs.materialized < cs.consumed)) {
      cs.dec->materialize(dev, dst);
      cs.materialized = cs.consumed;
      if (opts.cache != nullptr && !cs.poisoned) {
        const std::uint64_t meta = fnv1a64_fold(
            cs.materialized, fnv1a64_fold(cs.rows, meta_base));
        opts.cache->put_raw(cs.content, meta, {dst, chunk_bytes});
      }
    }
  }
  return bytes_consumed - fetched0;
}

ProgressiveReader::ProgressiveReader(std::span<const std::uint8_t> stream,
                                     Options opts)
    : impl_(std::make_unique<Impl>()) {
  impl_->stream = stream;
  impl_->opts = opts;
  impl_->parse();
}

ProgressiveReader::~ProgressiveReader() = default;
ProgressiveReader::ProgressiveReader(ProgressiveReader&&) noexcept = default;
ProgressiveReader& ProgressiveReader::operator=(ProgressiveReader&&) noexcept =
    default;

std::size_t ProgressiveReader::refine(const Device& dev, double rel_bound) {
  return impl_->refine(dev, rel_bound);
}

std::span<const std::uint8_t> ProgressiveReader::data() const {
  return impl_->out;
}
const Shape& ProgressiveReader::shape() const { return impl_->shape; }
DType ProgressiveReader::dtype() const { return impl_->dtype; }

double ProgressiveReader::achieved_bound() const {
  double worst = 0.0;
  for (const auto& cs : impl_->chunks)
    worst = std::max(worst, cs.bound_after(cs.materialized));
  return worst;
}

double ProgressiveReader::achieved_rel_bound() const {
  double worst = 0.0;
  for (const auto& cs : impl_->chunks)
    worst = std::max(worst, cs.eb_scale > 0
                                ? cs.bound_after(cs.materialized) / cs.eb_scale
                                : cs.bound_after(cs.materialized));
  return worst;
}

std::size_t ProgressiveReader::bytes_consumed() const {
  return impl_->bytes_consumed;
}
std::size_t ProgressiveReader::bytes_reread() const {
  return impl_->bytes_reread;
}
std::size_t ProgressiveReader::total_payload_bytes() const {
  return impl_->payload_total;
}
std::size_t ProgressiveReader::components_total() const {
  return impl_->comp_total;
}
std::size_t ProgressiveReader::components_consumed() const {
  return impl_->comp_consumed;
}
std::size_t ProgressiveReader::poisoned_chunks() const {
  std::size_t n = 0;
  for (const auto& cs : impl_->chunks) n += cs.poisoned ? 1 : 0;
  return n;
}
std::size_t ProgressiveReader::cache_hits() const {
  return impl_->cache_hits;
}
std::size_t ProgressiveReader::cache_misses() const {
  return impl_->cache_misses;
}

StreamInfo progressive_inspect(std::span<const std::uint8_t> stream) {
  ProgressiveReader::Impl impl;
  impl.stream = stream;
  impl.parse();
  StreamInfo info;
  info.compressor = impl.codec;
  info.dtype = impl.dtype;
  info.shape = impl.shape;
  info.num_chunks = impl.chunks.size();
  info.version = kV3;
  info.components = impl.comp_total;
  for (const auto& cs : impl.chunks)
    if (cs.mode == 0) ++info.fallback_chunks;
  return info;
}

}  // namespace hpdr::pipeline
