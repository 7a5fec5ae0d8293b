#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <type_traits>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/bitstream.hpp"
#include "core/checksum.hpp"
#include "core/error.hpp"
#include "core/thread_pool.hpp"
#include "fault/cancel.hpp"
#include "fault/fault.hpp"
#include "pipeline/adaptive.hpp"
#include "pipeline/progressive.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace hpdr::pipeline {
namespace {

/// Pipeline instruments, looked up once (registry lookups take a lock; the
/// references are stable for the life of the process).
struct Instruments {
  telemetry::Counter& compress_calls =
      telemetry::counter("pipeline.compress.calls");
  telemetry::Counter& compress_chunks =
      telemetry::counter("pipeline.compress.chunks");
  telemetry::Counter& compress_raw_bytes =
      telemetry::counter("pipeline.compress.raw_bytes");
  telemetry::Counter& compress_stored_bytes =
      telemetry::counter("pipeline.compress.stored_bytes");
  telemetry::Counter& decompress_calls =
      telemetry::counter("pipeline.decompress.calls");
  telemetry::Counter& decompress_raw_bytes =
      telemetry::counter("pipeline.decompress.raw_bytes");
  telemetry::Counter& rows_calls =
      telemetry::counter("pipeline.decompress_rows.calls");
  telemetry::Counter& rows_chunks_skipped =
      telemetry::counter("pipeline.decompress_rows.chunks_skipped");
  // Resilience counters (DESIGN.md §8) — all under fault.* so a fault-free
  // run asserts to zero across the family.
  telemetry::Counter& encode_retries =
      telemetry::counter("fault.chunk.encode_retries");
  telemetry::Counter& fallbacks =
      telemetry::counter("fault.chunk.fallbacks");
  telemetry::Counter& corrupt_detected =
      telemetry::counter("fault.chunk.corrupt_detected");
  telemetry::Counter& chunks_skipped =
      telemetry::counter("fault.chunk.skipped");
  // 64 KiB … 4 GiB in powers of four.
  telemetry::Histogram& chunk_bytes = telemetry::histogram(
      "pipeline.chunk_bytes", telemetry::exp_buckets(65536.0, 4.0, 9));
  // Peak pool workers concurrently inside a chunk loop (1, 2, 4, … 128):
  // the host execution engine's occupancy record (DESIGN.md §9).
  telemetry::Histogram& pool_occupancy = telemetry::histogram(
      "pipeline.pool.occupancy", telemetry::exp_buckets(1.0, 2.0, 8));

  static Instruments& get() {
    static Instruments i;
    return i;
  }
};

/// Chunk-level vs. intra-kernel parallelism split (DESIGN.md §9): with C
/// chunks on P pool threads, the chunk loop takes min(C, P) workers, so
/// each OpenMP/SimGpu codec invocation is capped to the leftover P/min(C,P)
/// threads — the two levels never oversubscribe the machine. StdThread
/// codecs need no cap: their nested parallel_for shares the chunk pool's
/// task queue and balances automatically.
class KernelWidthSplit {
 public:
  KernelWidthSplit(std::size_t chunks, const Device& dev) {
#ifdef _OPENMP
    if (chunks > 1 && (dev.kind() == DeviceKind::OpenMP ||
                       dev.kind() == DeviceKind::SimGpu)) {
      const unsigned cores = ThreadPool::instance().concurrency();
      const unsigned width =
          static_cast<unsigned>(std::min<std::size_t>(chunks, cores));
      inner_ = static_cast<int>(std::max(1u, cores / width));
      saved_ = omp_get_max_threads();
      active_ = true;
    }
#else
    (void)chunks;
    (void)dev;
#endif
  }

  ~KernelWidthSplit() {
#ifdef _OPENMP
    // Pool workers get their width overwritten by the next apply(); only
    // the calling thread's OpenMP setting outlives the chunk loop.
    if (active_) omp_set_num_threads(saved_);
#endif
  }

  /// Call at the top of each chunk task: caps the executing thread's next
  /// OpenMP parallel region to the intra-kernel share.
  void apply() const {
#ifdef _OPENMP
    if (active_) omp_set_num_threads(inner_);
#endif
  }

 private:
  int inner_ = 1;
  int saved_ = 0;
  bool active_ = false;
};

/// Per-thread decode scratch for chunks that straddle a decoded row range,
/// reused across chunks and calls.
std::vector<std::uint8_t>& decode_scratch(std::size_t bytes) {
  thread_local std::vector<std::uint8_t> scratch;
  if (scratch.size() < bytes) scratch.resize(bytes);
  return scratch;
}

constexpr std::uint8_t kMagic = 0x48;  // 'H'
/// v1: [rows][size] per chunk; v2 adds a codec tag and an FNV-1a checksum
/// per chunk (stream-format v2 chunk framing, DESIGN.md §8). Readers accept
/// both; writers emit v2.
constexpr std::uint8_t kVersion = 2;
constexpr std::uint8_t kMinVersion = 1;
/// Chunk codec tags (v2).
constexpr std::uint8_t kTagCodec = 0;  ///< payload from the named codec
constexpr std::uint8_t kTagRaw = 1;    ///< lossless passthrough fallback
constexpr double kSerializeBytes = 256;  // metadata embedded per chunk
/// Unpipelined baselines copy straight from/to pageable application buffers
/// (§II-B: "host memory is typically used by applications to save output
/// data"); the HPDR pipeline stages through pinned buffers. Pageable
/// transfers sustain roughly a third of the pinned link rate.
constexpr double kPageablePenalty = 0.35;

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::None:
      return "none";
    case Mode::Fixed:
      return "fixed";
    case Mode::Adaptive:
      return "adaptive";
  }
  return "?";
}

/// Chunking geometry: slabs along the slowest dimension.
struct Slabs {
  std::size_t rows = 0;        ///< shape[0]
  std::size_t slab_elems = 0;  ///< elements per slab
  std::size_t slab_bytes = 0;

  Slabs(const Shape& shape, DType dtype) {
    HPDR_REQUIRE(shape.rank() >= 1 && shape.size() > 0,
                 "pipeline needs a non-empty tensor");
    rows = shape[0];
    slab_elems = shape.size() / rows;
    slab_bytes = slab_elems * dtype_size(dtype);
  }

  Shape chunk_shape(const Shape& full, std::size_t chunk_rows) const {
    Shape s = full;
    s[0] = chunk_rows;
    return s;
  }
};

/// One chunk-table row, plus where the chunk sits in the tensor and in the
/// payload.
struct ChunkEntry {
  std::size_t rows = 0;
  std::size_t size = 0;          ///< stored blob bytes
  std::uint8_t tag = kTagCodec;  ///< always kTagCodec in v1 streams
  std::uint64_t checksum = 0;    ///< v2 FNV-1a of the blob
  std::size_t row_begin = 0;     ///< first tensor row
  std::size_t blob_off = 0;      ///< payload-relative blob offset
};

/// Parsed container header + chunk table (both format versions).
struct Header {
  std::uint8_t version = 0;
  std::string compressor;
  DType dtype = DType::F32;
  Shape shape = Shape::of_rank(1);
  std::uint8_t mode = 0;
  std::vector<ChunkEntry> chunks;

  bool framed() const { return version >= 2; }
};

/// Parse and sanity-cap the header; `in` is left at the first chunk blob.
/// Every count/length is bounded against the actual container size before
/// any allocation, so a flipped size field is rejected, not malloc'd, and
/// the chunks must tile the tensor's rows exactly, one slab or more each.
Header parse_header(ByteReader& in) {
  Header h;
  HPDR_REQUIRE(in.get_u8() == kMagic, "not an HPDR pipeline container");
  h.version = in.get_u8();
  HPDR_REQUIRE(h.version >= kMinVersion && h.version <= kVersion,
               "unsupported container version "
                   << static_cast<int>(h.version));
  h.compressor = in.get_string();
  const auto dtype_raw = in.get_u8();
  HPDR_REQUIRE(dtype_raw <= 1, "corrupt container dtype");
  h.dtype = static_cast<DType>(dtype_raw);
  const std::size_t rank = in.get_u8();
  HPDR_REQUIRE(rank >= 1 && rank <= kMaxRank, "corrupt container rank");
  h.shape = Shape::of_rank(rank);
  for (std::size_t d = 0; d < rank; ++d) h.shape[d] = in.get_varint();
  h.mode = in.get_u8();
  const std::size_t nchunks = in.get_varint();
  // A chunk holds at least one slab, its table entry at least two bytes.
  HPDR_REQUIRE(nchunks <= h.shape[0] && nchunks <= in.remaining() / 2 + 1,
               "implausible chunk count");
  h.chunks.resize(nchunks);
  std::size_t row = 0;
  std::size_t total = 0;
  for (ChunkEntry& e : h.chunks) {
    e.rows = in.get_varint();
    HPDR_REQUIRE(e.rows >= 1 && e.rows <= h.shape[0] - row,
                 "chunks overrun the tensor");
    e.row_begin = row;
    row += e.rows;
    e.size = in.get_varint();
    if (h.framed()) {
      e.tag = in.get_u8();
      HPDR_REQUIRE(e.tag <= kTagRaw, "corrupt chunk codec tag");
      e.checksum = in.get_u64();
    }
    e.blob_off = total;
    total += e.size;
    HPDR_REQUIRE(e.size <= in.remaining() && total <= in.remaining(),
                 "chunk table exceeds container size");
  }
  HPDR_REQUIRE(row == h.shape[0], "chunks do not cover the tensor");
  return h;
}

/// Dedup-cache key derivation (DESIGN.md §14). A key is the pair
/// (content hash, meta hash): the content hash addresses the bytes being
/// transformed (raw chunk on encode; the v2 framing checksum on decode —
/// reused, never recomputed, per the serving-path contract), and the meta
/// hash pins everything else that shapes the output. Direction salts keep
/// an encode entry from ever answering a decode lookup of colliding hashes.
constexpr std::uint64_t kCacheFrameSalt = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kCacheRawSalt = 0xc2b2ae3d27d4eb4full;

/// Per-call meta base: codec identity, dtype and the chunk-invariant shape
/// dims (dim 0 varies per chunk and is folded per lookup). `param` is the
/// error bound for encode keys; decode is param-independent (frames are
/// self-describing), callers pass 0.
std::uint64_t cache_meta_base(std::uint64_t salt, const std::string& codec,
                              DType dtype, const Shape& shape, double param) {
  std::uint64_t h = fnv1a64(
      {reinterpret_cast<const std::uint8_t*>(codec.data()), codec.size()},
      salt);
  h = fnv1a64_fold(static_cast<std::uint8_t>(dtype), h);
  h = fnv1a64_fold(shape.rank(), h);
  for (std::size_t d = 1; d < shape.rank(); ++d) h = fnv1a64_fold(shape[d], h);
  return fnv1a64_fold(param, h);
}

double wall_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Cache participation gate for one pipeline call: opt-in via Options,
/// never while a fault plan is armed (hits would skip indexed fault draws
/// and diverge from cache-off accounting), never in degraded passthrough
/// mode (cached frames are codec-tagged).
ChunkCacheBase* cache_for(const Options& opts) {
  if (opts.cache == nullptr || opts.force_passthrough) return nullptr;
  if (fault::Injector::instance().armed()) return nullptr;
  return opts.cache;
}

void check_stream_matches(const Header& h, const Compressor& comp,
                          const Shape& shape, DType dtype) {
  HPDR_REQUIRE(h.compressor == comp.name(),
               "stream was produced by '" << h.compressor << "', not '"
                                          << comp.name() << "'");
  HPDR_REQUIRE(h.dtype == dtype, "container dtype mismatch");
  HPDR_REQUIRE(h.shape == shape, "container shape " << h.shape.to_string()
                                                    << " != "
                                                    << shape.to_string());
}

/// What one chunk task reports back to its loop. Every loop keeps one
/// record per chunk, filled by whichever worker runs the chunk, and folds
/// them into its result in chunk order afterwards — so streams, manifests
/// and fault accounting never depend on how chunks interleave.
struct ChunkOutcome {
  /// Encode: false when the chunk was stored through the raw passthrough.
  /// Decode: false when the chunk was corrupt and zero-filled (Skip).
  bool ok = true;
  std::vector<std::uint8_t> blob;  ///< encode: the stored frame
  std::uint64_t checksum = 0;      ///< encode: FNV-1a of the frame
  std::size_t retries = 0;         ///< encode: codec re-attempts absorbed
  int worker = 0;                  ///< pool slot that ran the chunk
  bool cache_hit = false;
  bool cache_miss = false;
  double codec_s = 0.0;  ///< wall seconds inside the codec
  double hit_s = 0.0;    ///< wall seconds serving a cache hit
};

/// The chunk engine both directions run on: fans `n` chunk tasks
/// `task(i, outcome)` across the pool under the kernel-width split and
/// returns the outcomes in chunk order. The pool carries the caller's
/// trace and cancel token into every task.
template <class Task>
std::vector<ChunkOutcome> run_chunks(const Device& dev, std::size_t n,
                                     Task&& task) {
  auto& pool = ThreadPool::instance();
  pool.reset_peak();
  const KernelWidthSplit split(n, dev);
  std::vector<ChunkOutcome> outcomes(n);
  pool.parallel_for(n, [&](std::size_t i) {
    // Chunk boundary: a fired token aborts here; parallel_for propagates
    // the throw and early-exits the remaining chunks, so a cancelled job
    // stops within one chunk's work.
    fault::poll_cancel();
    split.apply();
    outcomes[i].worker = ThreadPool::worker_id();
    task(i, outcomes[i]);
  });
  Instruments::get().pool_occupancy.observe(pool.peak_active());
  return outcomes;
}

/// Fold chunk outcomes into a result; outcome i belongs to chunk first + i.
template <class Result>
void tally(const std::vector<ChunkOutcome>& outcomes, std::size_t first,
           Result& r) {
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const ChunkOutcome& o = outcomes[i];
    r.cache_hits += o.cache_hit;
    r.cache_misses += o.cache_miss;
    r.codec_s += o.codec_s;
    r.cache_hit_s += o.hit_s;
    if constexpr (std::is_same_v<Result, CompressResult>) {
      r.codec_retries += o.retries;
      r.fallback_chunks += !o.ok;
    } else if (!o.ok) {
      r.corrupt_chunks.push_back(first + i);
    }
  }
}

/// Decode chunk `c` into `dst` with checksum verification and containment.
/// Returns true on success; false when the chunk is corrupt and `recovery`
/// is Skip (dst is zero-filled, telemetry recorded). Throws under Strict.
///
/// With a cache, codec-tagged framed chunks first consult the raw-bytes
/// store keyed on the framing checksum the chunk table already carries
/// (satellite of DESIGN.md §14: the serving path never rehashes the
/// payload). A hit skips both the verification hash and the codec — the
/// cached bytes were produced from a frame whose payload hashed to
/// exactly this key. A miss verifies and decodes as before, then
/// populates the store so the next request for this frame is a memcpy.
bool decode_chunk(const Device& dev, const Compressor& comp, const Header& h,
                  std::size_t c, std::span<const std::uint8_t> blob,
                  std::uint8_t* dst, const Shape& chunk_shape,
                  std::size_t chunk_bytes, ChunkRecovery recovery,
                  ChunkCacheBase* cache, std::uint64_t meta_base,
                  ChunkOutcome& o) {
  auto& ins = Instruments::get();
  const ChunkEntry& e = h.chunks[c];
  std::uint64_t cmeta = 0;
  const bool cacheable = cache != nullptr && h.framed() && e.tag == kTagCodec;
  if (cacheable) {
    cmeta = fnv1a64_fold(blob.size(), fnv1a64_fold(e.rows, meta_base));
    const auto t0 = std::chrono::steady_clock::now();
    if (cache->get_raw(e.checksum, cmeta, dst, chunk_bytes)) {
      o.cache_hit = true;
      o.hit_s = wall_since(t0);
      return true;
    }
    o.cache_miss = true;
  }
  const char* why = nullptr;
  if (h.framed() && fnv1a64(blob) != e.checksum) {
    ins.corrupt_detected.add();
    why = "checksum mismatch";
  } else if (e.tag == kTagRaw) {
    if (blob.size() != chunk_bytes) {
      ins.corrupt_detected.add();
      why = "passthrough chunk size mismatch";
    } else {
      std::memcpy(dst, blob.data(), blob.size());
      return true;
    }
  } else {
    try {
      const auto t0 = std::chrono::steady_clock::now();
      comp.decompress(dev, blob, dst, chunk_shape, h.dtype);
      o.codec_s = wall_since(t0);
      if (cacheable) cache->put_raw(e.checksum, cmeta, {dst, chunk_bytes});
      return true;
    } catch (const Error& err) {
      // A fired cancel token is a job abort, not chunk corruption: Skip
      // recovery must not zero-fill and carry on.
      if (is_cancellation(err)) throw;
      if (recovery == ChunkRecovery::Strict) throw;
      ins.corrupt_detected.add();
      why = "decode failure";
    }
  }
  HPDR_REQUIRE(recovery == ChunkRecovery::Skip,
               "chunk " << c << " corrupt (" << why << ")");
  std::memset(dst, 0, chunk_bytes);
  ins.chunks_skipped.add();
  return false;
}

/// True for a v3 progressive container (handled by ProgressiveReader, not
/// the v1/v2 chunk-table paths below).
bool is_progressive_stream(std::span<const std::uint8_t> stream) {
  return stream.size() >= 2 && stream[0] == kMagic && stream[1] == 3;
}

/// A decoded row range: the parsed stream and the chunks [first, last)
/// that overlap the range — what the entry points bill.
struct RangePlan {
  Header h;
  std::size_t slab_bytes = 0;
  std::size_t first = 0;
  std::size_t last = 0;
};

/// The one decode loop behind decompress and decompress_rows. Parses and
/// checks the stream, then decodes every chunk overlapping rows
/// [row_begin, row_end) across the pool into `out`, which holds exactly
/// that range: chunks the range covers decode straight into place,
/// boundary chunks decode into the per-thread scratch and are cropped.
/// Corrupt chunks zero-fill under ChunkRecovery::Skip and reject the
/// stream under Strict. Fills `result`'s corrupt-chunk and cache fields.
RangePlan decode_range(const Device& dev, const Compressor& comp,
                       std::span<const std::uint8_t> stream,
                       std::uint8_t* out, const Shape& shape, DType dtype,
                       std::size_t row_begin, std::size_t row_end,
                       const Options& opts, DecompressResult& result) {
  HPDR_REQUIRE(!is_progressive_stream(stream),
               "v3 progressive container: decode through "
               "pipeline::ProgressiveReader (refine to a bound)");
  ByteReader in(stream);
  RangePlan p{parse_header(in)};
  check_stream_matches(p.h, comp, shape, dtype);
  const Slabs slabs(shape, dtype);
  p.slab_bytes = slabs.slab_bytes;
  const std::vector<ChunkEntry>& chunks = p.h.chunks;
  // The chunks tile the rows in order, so the overlapping ones are a
  // contiguous index range.
  while (p.first < chunks.size() &&
         chunks[p.first].row_begin + chunks[p.first].rows <= row_begin)
    ++p.first;
  p.last = p.first;
  while (p.last < chunks.size() && chunks[p.last].row_begin < row_end)
    ++p.last;

  const std::uint8_t* payload =
      stream.data() + (stream.size() - in.remaining());
  // Overlapping subdomain reads are the dedup cache's decode sweet spot:
  // a boundary chunk decoded for one row range hits for every neighbouring
  // range that touches the same chunk.
  ChunkCacheBase* const cache = cache_for(opts);
  const std::uint64_t meta_base =
      cache != nullptr
          ? cache_meta_base(kCacheRawSalt, p.h.compressor, p.h.dtype, shape,
                            0.0)
          : 0;
  const auto outcomes = run_chunks(
      dev, p.last - p.first, [&](std::size_t i, ChunkOutcome& o) {
        const std::size_t c = p.first + i;
        const ChunkEntry& e = chunks[c];
        const std::size_t chunk_bytes = e.rows * slabs.slab_bytes;
        const std::size_t ov_begin = std::max(e.row_begin, row_begin);
        const std::size_t ov_end = std::min(e.row_begin + e.rows, row_end);
        std::uint8_t* dst = out + (ov_begin - row_begin) * slabs.slab_bytes;
        const bool whole = ov_end - ov_begin == e.rows;
        std::uint8_t* target =
            whole ? dst : decode_scratch(chunk_bytes).data();
        o.ok = decode_chunk(dev, comp, p.h, c, {payload + e.blob_off, e.size},
                            target, slabs.chunk_shape(shape, e.rows),
                            chunk_bytes, opts.recovery, cache, meta_base, o);
        if (!whole)
          std::memcpy(dst,
                      target + (ov_begin - e.row_begin) * slabs.slab_bytes,
                      (ov_end - ov_begin) * slabs.slab_bytes);
      });
  tally(outcomes, p.first, result);
  return p;
}

}  // namespace

const char* to_string(Mode m) { return mode_name(m); }

CompressResult compress(const Device& dev, const Compressor& comp,
                        const void* data, const Shape& shape, DType dtype,
                        const Options& opts) {
  const Slabs slabs(shape, dtype);
  const std::size_t total_bytes = shape.size() * dtype_size(dtype);
  const GpuPerfModel model(dev.spec());
  auto& ins = Instruments::get();
  ins.compress_calls.add();
  ins.compress_raw_bytes.add(total_bytes);
  telemetry::Span span_all("pipeline.compress", "pipeline");

  // Chunk schedule in bytes (whole slabs, in granules).
  const std::size_t granule = slab_granule(slabs.rows, slabs.slab_bytes);
  // Alg. 4's C_limit is "the maximum chunk size limited by GPU memory":
  // the double-buffered pipeline holds two input and two output buffers
  // plus the kernel workspace (~2× input for the codecs here), so a chunk
  // may use at most ~1/6 of device memory.
  const std::size_t mem_limit =
      dev.spec().is_gpu() ? dev.spec().memory_bytes / 6 : SIZE_MAX;
  std::vector<std::size_t> schedule;
  {
    telemetry::Span span("pipeline.schedule", "pipeline");
    switch (opts.mode) {
      case Mode::None:
        schedule = {total_bytes};
        break;
      case Mode::Fixed:
        schedule = fixed_schedule(
            total_bytes, granule,
            std::min(opts.fixed_chunk_bytes, mem_limit));
        break;
      case Mode::Adaptive:
        schedule = adaptive_schedule(
            model, comp.compress_kernel(), total_bytes, granule,
            std::min(opts.init_chunk_bytes, mem_limit),
            std::min(opts.max_chunk_bytes, mem_limit));
        break;
    }
  }
  ins.compress_chunks.add(schedule.size());
  for (std::size_t b : schedule)
    ins.chunk_bytes.observe(static_cast<double>(b));

  // Compress every chunk with the real codec (eagerly: task durations for
  // D2H need the actual compressed sizes). Chunks are independent, so the
  // loop fans out across the process thread pool; every fault draw is
  // keyed by the chunk index, so the stream, manifest, and fault accounting
  // are byte-identical to the serial order no matter how the chunks
  // interleave. Per-chunk containment: a codec failure — injected at the
  // hdem.task site or genuine — is retried up to opts.codec_retries times,
  // then the chunk falls back to the lossless passthrough codec so the run
  // completes with that chunk stored raw.
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  const std::size_t nchunks = schedule.size();
  const RowPlan plan = plan_rows(schedule, slabs.slab_bytes, slabs.rows);
  ChunkCacheBase* const cache = cache_for(opts);
  const std::uint64_t meta_base =
      cache != nullptr
          ? cache_meta_base(kCacheFrameSalt, comp.name(), dtype, shape,
                            opts.param)
          : 0;
  CompressResult result;
  std::vector<ChunkOutcome> chunks;
  {
    telemetry::Span span("pipeline.encode", "pipeline");
    const auto max_attempts =
        static_cast<std::size_t>(std::max(0, opts.codec_retries));
    chunks = run_chunks(dev, nchunks, [&](std::size_t c, ChunkOutcome& o) {
      const Shape cshape = slabs.chunk_shape(shape, plan.rows[c]);
      const std::uint8_t* src = bytes + plan.begin[c] * slabs.slab_bytes;
      // Dedup lookup: content hash of the raw chunk + the call's meta key
      // (codec, eb, dtype, chunk geometry). A hit returns the frame an
      // identical cache-off run would have produced — the codec is
      // deterministic over exactly the fields the key pins — along with
      // its insert-time checksum, so the framing rehash is skipped too.
      std::uint64_t raw_hash = 0;
      std::uint64_t cmeta = 0;
      if (cache != nullptr) {
        raw_hash = fnv1a64({src, schedule[c]});
        cmeta = fnv1a64_fold(plan.rows[c], meta_base);
        const auto t0 = std::chrono::steady_clock::now();
        if (cache->get_frame(raw_hash, cmeta, o.blob, o.checksum)) {
          o.cache_hit = true;
          o.hit_s = wall_since(t0);
          fault::corrupt_at("chunk.corrupt", c, o.blob);
          return;
        }
        o.cache_miss = true;
      }
      if (opts.force_passthrough) {
        // Degraded mode: raw framing without touching the codec at all.
        o.blob.assign(src, src + schedule[c]);
        o.ok = false;
        ins.fallbacks.add();
      } else {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t attempt = 0;; ++attempt) {
          try {
            if (fault::should_fire_at("hdem.task", c, attempt))
              throw Error(ErrorKind::Fault, "injected hdem.task fault");
            o.blob = comp.compress(dev, src, cshape, dtype, opts.param);
            break;
          } catch (const Error& e) {
            // Deadline/cancel aborts the job; it must not be absorbed as
            // one more transient codec failure and retried or stored raw.
            if (is_cancellation(e)) throw;
            if (attempt < max_attempts) {
              ++o.retries;
              ins.encode_retries.add();
              continue;
            }
            // Lossless passthrough: the chunk's raw bytes, trivially
            // within any error bound, decodable without the codec.
            o.blob.assign(src, src + schedule[c]);
            o.ok = false;
            ins.fallbacks.add();
            break;
          }
        }
        o.codec_s = wall_since(t0);
      }
      // Checksum the payload as produced, then let the fault plan corrupt
      // the stored bytes — decode detects exactly this mismatch. Only a
      // clean codec frame is cacheable: passthrough fallbacks depend on
      // retry state, not content, and raw frames gain nothing over memcpy.
      o.checksum = fnv1a64(o.blob);
      if (cache != nullptr && o.ok)
        cache->put_frame(raw_hash, cmeta, o.blob, o.checksum);
      fault::corrupt_at("chunk.corrupt", c, o.blob);
    });
    tally(chunks, 0, result);
  }

  // Build and run the HDEM task DAG (Fig. 9 top).
  telemetry::Span span_sim("pipeline.simulate", "pipeline");
  HdemSimulator sim(3);
  const bool gpu = dev.spec().is_gpu();
  const bool pipelined = opts.overlap && opts.mode != Mode::None;
  std::vector<std::uint32_t> serialize_id(nchunks);
  std::vector<std::uint32_t> d2h_id(nchunks);
  std::vector<std::uint32_t> h2d_id(nchunks);
  std::vector<std::uint32_t> reduce_id(nchunks);
  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::uint32_t q =
        pipelined ? static_cast<std::uint32_t>(c % 3) : 0;
    // Non-CMM baselines pay device memory management on every invocation.
    if (!comp.uses_context_cache()) {
      const double alloc_s =
          gpu ? comp.allocs_per_call() *
                    model.alloc_seconds(schedule[c] / std::max(
                        1, comp.allocs_per_call()))
              : 0.0;
      sim.submit(q, EngineId::Compute, "alloc", alloc_s);
    }
    // H2D of the input chunk; Fig. 9 dotted edge: the buffer pair frees
    // when chunk c-2's serialize finishes.
    std::vector<std::uint32_t> h2d_deps;
    if (pipelined && c >= 2) h2d_deps.push_back(serialize_id[c - 2]);
    const double page = pipelined ? 1.0 : kPageablePenalty;
    h2d_id[c] = sim.submit(q, EngineId::H2D, "h2d",
                           gpu ? model.h2d().seconds(schedule[c]) / page : 0.0,
                           {}, std::move(h2d_deps));
    // Reduction kernel; output buffer frees when chunk c-2's D2H finishes.
    const double kernel_s =
        comp.kernel_derate() *
        model.kernel_seconds(comp.compress_kernel(), schedule[c]);
    // A retried codec task re-executes on the device: each absorbed retry
    // bills one extra kernel occurrence before the successful run.
    for (std::size_t r = 0; r < chunks[c].retries; ++r)
      sim.submit(q, EngineId::Compute, "reduce-retry", kernel_s);
    std::vector<std::uint32_t> comp_deps;
    if (pipelined && c >= 2) comp_deps.push_back(d2h_id[c - 2]);
    reduce_id[c] = sim.submit(q, EngineId::Compute, "reduce", kernel_s, {},
                              std::move(comp_deps));
    // D2H of the compressed output (real size!), then serialization.
    d2h_id[c] = sim.submit(
        q, EngineId::D2H, "d2h",
        gpu ? model.d2h().seconds(chunks[c].blob.size()) / page : 0.0);
    serialize_id[c] = sim.submit(
        q, EngineId::D2H, "serialize",
        gpu ? model.d2h().seconds(static_cast<std::size_t>(kSerializeBytes))
            : 0.0);
    // Unoverlapped baselines synchronize the device after every chunk.
    if (!pipelined && nchunks > 1)
      sim.submit(q, EngineId::Compute, "sync",
                 gpu ? 4 * dev.spec().kernel_launch_us * 1e-6 : 0.0);
  }

  result.timeline = sim.run();
  result.raw_bytes = total_bytes;
  result.chunk_rows = plan.rows;
  span_sim.end();

  // Per-chunk manifest records: what the Φ/Θ models predicted vs. what the
  // simulated schedule realized (task ids index the timeline directly).
  result.decisions.resize(nchunks);
  for (std::size_t c = 0; c < nchunks; ++c) {
    telemetry::ChunkDecision& d = result.decisions[c];
    d.index = c;
    d.bytes = schedule[c];
    d.rows = plan.rows[c];
    d.stored_bytes = chunks[c].blob.size();
    d.predicted_compute_s =
        comp.kernel_derate() *
        model.kernel_seconds(comp.compress_kernel(), schedule[c]);
    d.predicted_h2d_s = gpu ? model.h2d().seconds(schedule[c]) : 0.0;
    d.realized_compute_s = result.timeline.tasks[reduce_id[c]].duration();
    d.realized_h2d_s = result.timeline.tasks[h2d_id[c]].duration();
    d.fallback = !chunks[c].ok;
    d.retries = chunks[c].retries;
    d.worker = chunks[c].worker;
  }

  // Container (v2: per-chunk codec tag + checksum framing). The header and
  // chunk table are tiny and go through a ByteWriter; the payload region's
  // exact size is known from the chunk table, so the stream is sized once
  // and every blob is copied straight to its final offset — in parallel —
  // instead of growing a second full-size buffer byte by byte.
  telemetry::Span span_ser("pipeline.serialize", "pipeline");
  ByteWriter head;
  head.put_u8(kMagic);
  head.put_u8(kVersion);
  head.put_string(comp.name());
  head.put_u8(static_cast<std::uint8_t>(dtype));
  head.put_u8(static_cast<std::uint8_t>(shape.rank()));
  for (std::size_t d = 0; d < shape.rank(); ++d) head.put_varint(shape[d]);
  head.put_u8(static_cast<std::uint8_t>(opts.mode));
  head.put_varint(nchunks);
  std::vector<std::size_t> blob_off(nchunks);
  std::size_t payload = 0;
  for (std::size_t c = 0; c < nchunks; ++c) {
    head.put_varint(plan.rows[c]);
    head.put_varint(chunks[c].blob.size());
    head.put_u8(chunks[c].ok ? kTagCodec : kTagRaw);
    head.put_u64(chunks[c].checksum);
    blob_off[c] = payload;
    payload += chunks[c].blob.size();
  }
  result.stream = head.take();
  const std::size_t base = result.stream.size();
  result.stream.resize(base + payload);
  ThreadPool::instance().parallel_for(nchunks, [&](std::size_t c) {
    const std::vector<std::uint8_t>& blob = chunks[c].blob;
    if (!blob.empty())
      std::memcpy(result.stream.data() + base + blob_off[c], blob.data(),
                  blob.size());
  });
  ins.compress_stored_bytes.add(result.stream.size());
  return result;
}

DecompressResult decompress_rows(const Device& dev, const Compressor& comp,
                                 std::span<const std::uint8_t> stream,
                                 void* out, const Shape& shape, DType dtype,
                                 std::size_t row_begin, std::size_t row_end,
                                 const Options& opts) {
  HPDR_REQUIRE(row_begin < row_end && row_end <= shape[0],
               "row range [" << row_begin << ", " << row_end
                             << ") out of bounds");
  auto& ins = Instruments::get();
  ins.rows_calls.add();
  telemetry::Span span_all("pipeline.decompress_rows", "pipeline");
  DecompressResult result;
  const RangePlan p =
      decode_range(dev, comp, stream, static_cast<std::uint8_t*>(out), shape,
                   dtype, row_begin, row_end, opts, result);
  ins.rows_chunks_skipped.add(p.h.chunks.size() - (p.last - p.first));

  // Bill only the touched chunks, queues assigned in touched order.
  const GpuPerfModel model(dev.spec());
  const bool gpu = dev.spec().is_gpu();
  HdemSimulator sim(3);
  for (std::size_t c = p.first; c < p.last; ++c) {
    const ChunkEntry& e = p.h.chunks[c];
    const auto q = static_cast<std::uint32_t>((c - p.first) % 3);
    const std::size_t overlap = std::min(e.row_begin + e.rows, row_end) -
                                std::max(e.row_begin, row_begin);
    sim.submit(q, EngineId::H2D, "copy-in",
               gpu ? model.h2d().seconds(e.size) : 0.0);
    sim.submit(q, EngineId::Compute, "reconstruct",
               comp.kernel_derate() *
                   model.kernel_seconds(comp.decompress_kernel(),
                                        e.rows * p.slab_bytes));
    sim.submit(q, EngineId::D2H, "copy-out",
               gpu ? model.d2h().seconds(overlap * p.slab_bytes) : 0.0);
  }
  result.timeline = sim.run();
  result.raw_bytes = (row_end - row_begin) * p.slab_bytes;
  return result;
}

StreamInfo inspect(std::span<const std::uint8_t> stream) {
  if (is_progressive_stream(stream)) return progressive_inspect(stream);
  ByteReader in(stream);
  const Header h = parse_header(in);
  StreamInfo info;
  info.compressor = h.compressor;
  info.dtype = h.dtype;
  info.shape = h.shape;
  info.num_chunks = h.chunks.size();
  info.version = h.version;
  for (const ChunkEntry& e : h.chunks)
    if (e.tag == kTagRaw) ++info.fallback_chunks;
  return info;
}

DecompressResult decompress(const Device& dev, const Compressor& comp,
                            std::span<const std::uint8_t> stream, void* out,
                            const Shape& shape, DType dtype,
                            const Options& opts) {
  auto& ins = Instruments::get();
  ins.decompress_calls.add();
  telemetry::Span span_all("pipeline.decompress", "pipeline");
  DecompressResult result;
  telemetry::Span span_decode("pipeline.decode", "pipeline");
  const RangePlan p =
      decode_range(dev, comp, stream, static_cast<std::uint8_t*>(out), shape,
                   dtype, 0, shape[0], opts, result);
  span_decode.end();
  const std::vector<ChunkEntry>& chunks = p.h.chunks;
  const std::size_t nchunks = chunks.size();

  // HDEM reconstruction DAG (Fig. 9 bottom) with the launch-order
  // optimization: chunk c+1's deserialize is issued before chunk c's
  // output copy so both D2H-engine clients don't serialize behind the
  // (large) output copy.
  const GpuPerfModel model(dev.spec());
  const bool gpu = dev.spec().is_gpu();
  const bool pipelined = opts.overlap;
  const double page = pipelined ? 1.0 : kPageablePenalty;
  HdemSimulator sim(3);
  std::vector<std::uint32_t> comp_id(nchunks);
  std::vector<std::uint32_t> copyout_id(nchunks);
  auto submit_copyout = [&](std::size_t c) {
    const std::uint32_t q =
        pipelined ? static_cast<std::uint32_t>(c % 3) : 0;
    copyout_id[c] = sim.submit(
        q, EngineId::D2H, "copy-out",
        gpu ? model.d2h().seconds(chunks[c].rows * p.slab_bytes) / page
            : 0.0);
  };
  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::uint32_t q =
        pipelined ? static_cast<std::uint32_t>(c % 3) : 0;
    const std::size_t chunk_bytes = chunks[c].rows * p.slab_bytes;
    if (!comp.uses_context_cache()) {
      const double alloc_s =
          gpu ? comp.allocs_per_call() *
                    model.alloc_seconds(chunk_bytes /
                                        std::max(1, comp.allocs_per_call()))
              : 0.0;
      sim.submit(q, EngineId::Compute, "alloc", alloc_s);
    }
    // Input buffer pair frees once chunk c-2's kernel consumed it.
    std::vector<std::uint32_t> in_deps;
    if (pipelined && c >= 2) in_deps.push_back(comp_id[c - 2]);
    sim.submit(q, EngineId::H2D, "copy-in",
               gpu ? model.h2d().seconds(chunks[c].size) / page : 0.0, {},
               std::move(in_deps));
    // Default (unoptimized) order: the previous output copy is issued to
    // the D2H engine before this chunk's deserialization, delaying it.
    if (!opts.reorder_launches && c >= 1) submit_copyout(c - 1);
    sim.submit(q, EngineId::D2H, "deserialize",
               gpu ? model.d2h().seconds(
                         static_cast<std::size_t>(kSerializeBytes))
                   : 0.0);
    std::vector<std::uint32_t> k_deps;
    if (pipelined && c >= 2) k_deps.push_back(copyout_id[c - 2]);
    comp_id[c] = sim.submit(
        q, EngineId::Compute, "reconstruct",
        comp.kernel_derate() *
            model.kernel_seconds(comp.decompress_kernel(), chunk_bytes),
        {}, std::move(k_deps));
    if (opts.reorder_launches && c >= 1) submit_copyout(c - 1);
  }
  if (nchunks > 0) submit_copyout(nchunks - 1);

  result.timeline = sim.run();
  result.raw_bytes = shape.size() * dtype_size(dtype);
  ins.decompress_raw_bytes.add(result.raw_bytes);
  return result;
}

}  // namespace hpdr::pipeline
