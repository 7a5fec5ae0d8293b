// Content-addressed dedup ChunkCache (DESIGN.md §14): shard store
// semantics, the unified arena-budget ledger (evict-first cache entries,
// sessions never displaced), pipeline wiring on both directions, and the
// byte-identity guarantee across any hit/miss mix — including chunks a
// cancelled job left behind.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "hpdr.hpp"

namespace hpdr {
namespace {

class ChunkCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Injector::instance().disarm();
    ThreadPool::instance().resize(4);
  }
  void TearDown() override {
    fault::Injector::instance().disarm();
    ThreadPool::instance().resize(ThreadPool::default_threads());
  }
};

std::vector<std::uint8_t> bytes_of(std::size_t n, std::uint8_t fill) {
  return std::vector<std::uint8_t>(n, fill);
}

// --- Shard store ---------------------------------------------------------

TEST_F(ChunkCacheTest, FrameRoundTripReturnsInsertTimeChecksum) {
  auto budget = std::make_shared<svc::ArenaBudget>(std::size_t{1} << 20);
  svc::ChunkCache cache(budget);
  const auto blob = bytes_of(1000, 0xAB);
  cache.put_frame(/*raw_hash=*/1, /*meta_hash=*/2, blob, /*checksum=*/777);
  std::vector<std::uint8_t> out;
  std::uint64_t checksum = 0;
  ASSERT_TRUE(cache.get_frame(1, 2, out, checksum));
  EXPECT_EQ(out, blob);
  EXPECT_EQ(checksum, 777u);  // no rehash on the hit path
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.inserts(), 1u);
  EXPECT_EQ(cache.bytes(), blob.size());
  EXPECT_EQ(budget->cache_bytes(), blob.size());
}

TEST_F(ChunkCacheTest, KeyIsContentAndMetaTogether) {
  auto budget = std::make_shared<svc::ArenaBudget>(std::size_t{1} << 20);
  svc::ChunkCache cache(budget);
  cache.put_frame(1, 2, bytes_of(64, 1), 11);
  std::vector<std::uint8_t> out;
  std::uint64_t c = 0;
  EXPECT_FALSE(cache.get_frame(1, 3, out, c));  // same content, other meta
  EXPECT_FALSE(cache.get_frame(9, 2, out, c));  // other content, same meta
  EXPECT_TRUE(cache.get_frame(1, 2, out, c));
  EXPECT_EQ(cache.misses(), 2u);
}

TEST_F(ChunkCacheTest, RawHitCopiesExactlyAndSizeMismatchMisses) {
  auto budget = std::make_shared<svc::ArenaBudget>(std::size_t{1} << 20);
  svc::ChunkCache cache(budget);
  const auto raw = bytes_of(4096, 0x5C);
  cache.put_raw(/*frame_checksum=*/42, /*meta_hash=*/7, raw);
  std::vector<std::uint8_t> dst(4096, 0);
  ASSERT_TRUE(cache.get_raw(42, 7, dst.data(), dst.size()));
  EXPECT_EQ(dst, raw);
  // An entry of a different size must read as a miss, never a short copy.
  std::vector<std::uint8_t> wrong(2048);
  EXPECT_FALSE(cache.get_raw(42, 7, wrong.data(), wrong.size()));
}

TEST_F(ChunkCacheTest, OversizedAndUnfundedInsertsAreSkipped) {
  auto budget = std::make_shared<svc::ArenaBudget>(std::size_t{256} << 10);
  auto arena = svc::make_arena(budget);
  svc::ChunkCache cache(budget);
  // > budget/4: never admitted, whatever the free space.
  cache.put_frame(1, 1, bytes_of((std::size_t{256} << 10) / 4 + 1, 9), 0);
  EXPECT_EQ(cache.inserts(), 0u);
  EXPECT_EQ(budget->cache_bytes(), 0u);
  // Sessions hold the budget: the insert is skipped, never queued, and the
  // lease is untouched (the evict-first asymmetry's other half).
  auto lease = arena->lease(200 << 10);
  cache.put_frame(2, 2, bytes_of(60 << 10, 9), 0);
  EXPECT_EQ(cache.inserts(), 0u);
  EXPECT_EQ(budget->committed(), svc::SessionArena::bucket_for(200 << 10));
}

// --- Unified budget: evict-first cache entries ---------------------------

TEST_F(ChunkCacheTest, SessionLeaseEvictsCacheEntriesBeforeBlocking) {
  const std::size_t budget_bytes = std::size_t{256} << 10;
  auto budget = std::make_shared<svc::ArenaBudget>(budget_bytes);
  auto arena = svc::make_arena(budget);
  svc::ChunkCache cache(budget);
  cache.put_raw(1, 1, bytes_of(60 << 10, 1));
  cache.put_raw(2, 2, bytes_of(60 << 10, 2));
  EXPECT_EQ(budget->cache_bytes(), std::size_t{120} << 10);
  // The lease needs the whole budget; a short timeout would fire if it
  // queued. It must instead drain the cache and return promptly.
  auto lease = arena->lease(200 << 10, /*timeout_s=*/0.5);
  EXPECT_EQ(lease.capacity(), std::size_t{256} << 10);
  EXPECT_EQ(budget->cache_bytes(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_GE(cache.evictions(), 2u);
  EXPECT_LE(budget->high_water(), budget_bytes);
}

TEST_F(ChunkCacheTest, CommittedIsZeroAfterDrainWithWarmCache) {
  auto budget = std::make_shared<svc::ArenaBudget>(std::size_t{1} << 20);
  svc::ChunkCache cache(budget);
  cache.put_frame(5, 5, bytes_of(8 << 10, 3), 0);
  {
    auto arena = svc::make_arena(budget);
    auto lease = arena->lease(16 << 10);
    EXPECT_GT(budget->committed(), 0u);
  }
  // Session gone: its bytes are fully returned. The warm cache stays warm
  // on its own ledger — committed()==0 is the drain liveness gate and must
  // not be polluted by cached entries.
  EXPECT_EQ(budget->committed(), 0u);
  EXPECT_EQ(budget->cache_bytes(), std::size_t{8} << 10);
  std::vector<std::uint8_t> out;
  std::uint64_t c = 0;
  EXPECT_TRUE(cache.get_frame(5, 5, out, c));
}

TEST_F(ChunkCacheTest, LruOrderSpansBothPopulations) {
  // Budget 160 KiB, cache entry 24 KiB (under the budget/4 admission
  // guard), parked buffer 128 KiB, trigger lease 16 KiB.
  const std::size_t kBudget = std::size_t{160} << 10;
  const std::size_t kEntry = std::size_t{24} << 10;
  // Case 1: cache entry older than the parked buffer -> cache goes first.
  {
    auto budget = std::make_shared<svc::ArenaBudget>(kBudget);
    auto arena = svc::make_arena(budget);
    svc::ChunkCache cache(budget);
    cache.put_raw(1, 1, bytes_of(kEntry, 1));      // tick t
    { auto l = arena->lease(100 << 10); }          // parked at tick t+1
    auto lease = arena->lease(100 << 10);          // warm hit, no eviction
    ASSERT_EQ(cache.evictions(), 0u);
    auto second = arena->lease(12 << 10);          // needs the cache's bytes
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(budget->cache_bytes(), 0u);
  }
  // Case 2: parked buffer older than the cache entry -> parked goes first.
  {
    auto budget = std::make_shared<svc::ArenaBudget>(kBudget);
    auto arena = svc::make_arena(budget);
    svc::ChunkCache cache(budget);
    { auto l = arena->lease(100 << 10); }          // parked at tick t
    cache.put_raw(1, 1, bytes_of(kEntry, 1));      // tick t+1
    auto lease = arena->lease(12 << 10);           // must evict someone
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_EQ(budget->cache_bytes(), kEntry);      // cache survived
    EXPECT_GE(budget->evictions(), 1u);            // the parked buffer went
  }
}

TEST_F(ChunkCacheTest, InsertEvictsOwnLruToFit) {
  auto budget = std::make_shared<svc::ArenaBudget>(std::size_t{64} << 10);
  svc::ChunkCache cache(budget);
  cache.put_raw(1, 1, bytes_of(15 << 10, 1));
  cache.put_raw(2, 2, bytes_of(15 << 10, 2));
  cache.put_raw(3, 3, bytes_of(15 << 10, 3));
  cache.put_raw(4, 4, bytes_of(15 << 10, 4));
  // Refresh entry 1 so entry 2 is the LRU victim.
  std::vector<std::uint8_t> dst(15 << 10);
  ASSERT_TRUE(cache.get_raw(1, 1, dst.data(), dst.size()));
  cache.put_raw(5, 5, bytes_of(15 << 10, 5));
  EXPECT_GE(cache.evictions(), 1u);
  EXPECT_TRUE(cache.get_raw(1, 1, dst.data(), dst.size()));
  EXPECT_FALSE(cache.get_raw(2, 2, dst.data(), dst.size()));
  EXPECT_LE(budget->cache_bytes(), budget->budget());
}

// --- Pipeline wiring: both directions, byte identity ---------------------

pipeline::Options chunked_opts() {
  pipeline::Options opts;
  opts.mode = pipeline::Mode::Fixed;
  opts.fixed_chunk_bytes = 16 << 10;
  opts.param = 1e-3;
  return opts;
}

TEST_F(ChunkCacheTest, RepeatCompressionHitsEveryChunkByteIdentically) {
  const auto ds = data::make("nyx", data::Size::Tiny);
  const Device dev = Device::serial();
  auto comp = make_compressor("zfp-x");
  pipeline::Options opts = chunked_opts();
  const auto direct =
      pipeline::compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts);

  auto budget = std::make_shared<svc::ArenaBudget>(std::size_t{64} << 20);
  svc::ChunkCache cache(budget);
  opts.cache = &cache;
  const auto cold =
      pipeline::compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts);
  EXPECT_EQ(cold.stream, direct.stream);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, cold.chunk_rows.size());
  const auto warm =
      pipeline::compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts);
  EXPECT_EQ(warm.stream, direct.stream);  // identity across the hit path
  EXPECT_EQ(warm.cache_hits, warm.chunk_rows.size());
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_GT(cache.hits(), 0u);
}

TEST_F(ChunkCacheTest, HotDecompressionServesRawBytesFromCache) {
  const auto ds = data::make("e3sm", data::Size::Tiny);
  const Device dev = Device::serial();
  auto comp = make_compressor("mgard-x");
  pipeline::Options opts = chunked_opts();
  const auto stream =
      pipeline::compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts)
          .stream;
  std::vector<std::uint8_t> direct(ds.size_bytes());
  pipeline::decompress(dev, *comp, stream, direct.data(), ds.shape, ds.dtype,
                       opts);

  auto budget = std::make_shared<svc::ArenaBudget>(std::size_t{64} << 20);
  svc::ChunkCache cache(budget);
  opts.cache = &cache;
  std::vector<std::uint8_t> cold(ds.size_bytes());
  const auto dr0 = pipeline::decompress(dev, *comp, stream, cold.data(),
                                        ds.shape, ds.dtype, opts);
  EXPECT_EQ(cold, direct);
  EXPECT_EQ(dr0.cache_hits, 0u);
  std::vector<std::uint8_t> warm(ds.size_bytes());
  const auto dr1 = pipeline::decompress(dev, *comp, stream, warm.data(),
                                        ds.shape, ds.dtype, opts);
  EXPECT_EQ(warm, direct);
  EXPECT_GT(dr1.cache_hits, 0u);
  EXPECT_EQ(dr1.cache_misses, 0u);
}

TEST_F(ChunkCacheTest, PartialRetrievalSharesTheDecodeCache) {
  const auto ds = data::make("nyx", data::Size::Tiny);
  const Device dev = Device::serial();
  auto comp = make_compressor("zfp-x");
  pipeline::Options opts = chunked_opts();
  const auto stream =
      pipeline::compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts)
          .stream;
  auto budget = std::make_shared<svc::ArenaBudget>(std::size_t{64} << 20);
  svc::ChunkCache cache(budget);
  opts.cache = &cache;
  // Full decode populates; the row-range read then hits for every chunk it
  // touches — the overlapping-subdomain serving pattern.
  std::vector<std::uint8_t> full(ds.size_bytes());
  pipeline::decompress(dev, *comp, stream, full.data(), ds.shape, ds.dtype,
                       opts);
  const std::size_t rows = ds.shape[0];
  const std::size_t slab = ds.size_bytes() / rows;
  std::vector<std::uint8_t> part((rows / 2) * slab);
  const auto dr = pipeline::decompress_rows(dev, *comp, stream, part.data(),
                                            ds.shape, ds.dtype, rows / 4,
                                            rows / 4 + rows / 2, opts);
  EXPECT_GT(dr.cache_hits, 0u);
  EXPECT_EQ(dr.cache_misses, 0u);
  EXPECT_EQ(std::memcmp(part.data(),
                        full.data() + (rows / 4) * slab, part.size()),
            0);
}

TEST_F(ChunkCacheTest, FullDecodeAndFullRowRangeAgreeOnCorruptStream) {
  // decompress and decompress_rows(0, rows) run one decode loop: on a
  // stream with a corrupt chunk under Skip recovery, with the cache on,
  // they give the same bytes, corrupt chunks and cache outcome, cold and
  // warm.
  const auto ds = data::make("nyx", data::Size::Tiny);
  const Device dev = Device::serial();
  auto comp = make_compressor("zfp-x");
  pipeline::Options opts = chunked_opts();
  fault::Injector::instance().configure("chunk.corrupt:nth=1,flip=2", 1);
  const auto cr =
      pipeline::compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts);
  fault::Injector::instance().disarm();
  ASSERT_GT(cr.chunk_rows.size(), 2u);
  opts.recovery = pipeline::ChunkRecovery::Skip;
  svc::ChunkCache full_cache(
      std::make_shared<svc::ArenaBudget>(std::size_t{64} << 20));
  svc::ChunkCache rows_cache(
      std::make_shared<svc::ArenaBudget>(std::size_t{64} << 20));
  for (const char* pass : {"cold", "warm"}) {
    SCOPED_TRACE(pass);
    std::vector<std::uint8_t> full(ds.size_bytes(), 0xAB);
    std::vector<std::uint8_t> rows(ds.size_bytes(), 0xCD);
    opts.cache = &full_cache;
    const auto fr = pipeline::decompress(dev, *comp, cr.stream, full.data(),
                                         ds.shape, ds.dtype, opts);
    opts.cache = &rows_cache;
    const auto rr =
        pipeline::decompress_rows(dev, *comp, cr.stream, rows.data(),
                                  ds.shape, ds.dtype, 0, ds.shape[0], opts);
    EXPECT_EQ(full, rows);
    ASSERT_EQ(fr.corrupt_chunks.size(), 1u);
    EXPECT_EQ(fr.corrupt_chunks, rr.corrupt_chunks);
    EXPECT_EQ(fr.cache_hits, rr.cache_hits);
    EXPECT_EQ(fr.cache_misses, rr.cache_misses);
    EXPECT_EQ(fr.raw_bytes, rr.raw_bytes);
  }
  // Warm: every clean chunk hit; the corrupt one is never cached.
  std::vector<std::uint8_t> out(ds.size_bytes());
  opts.cache = &full_cache;
  const auto warm = pipeline::decompress(dev, *comp, cr.stream, out.data(),
                                         ds.shape, ds.dtype, opts);
  EXPECT_EQ(warm.cache_hits, cr.chunk_rows.size() - 1);
  EXPECT_EQ(warm.cache_misses, 1u);
}

TEST_F(ChunkCacheTest, ArmedFaultPlanBypassesTheCache) {
  const auto ds = data::make("nyx", data::Size::Tiny);
  const Device dev = Device::serial();
  auto comp = make_compressor("zfp-x");
  pipeline::Options opts = chunked_opts();
  auto budget = std::make_shared<svc::ArenaBudget>(std::size_t{64} << 20);
  svc::ChunkCache cache(budget);
  opts.cache = &cache;
  // A plan targeting an unrelated site still bypasses: a hit would skip
  // the chunk's indexed fault draws and diverge from cache-off behaviour.
  fault::Injector::instance().configure("bplite.read:nth=100000", 0);
  pipeline::compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts);
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
  EXPECT_EQ(cache.inserts(), 0u);
  fault::Injector::instance().disarm();
  // Disarmed again: the same Options now consult the cache.
  pipeline::compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts);
  EXPECT_GT(cache.inserts(), 0u);
}

TEST_F(ChunkCacheTest, ForcePassthroughSkipsTheCache) {
  const auto ds = data::make("nyx", data::Size::Tiny);
  const Device dev = Device::serial();
  auto comp = make_compressor("zfp-x");
  pipeline::Options opts = chunked_opts();
  auto budget = std::make_shared<svc::ArenaBudget>(std::size_t{64} << 20);
  svc::ChunkCache cache(budget);
  opts.cache = &cache;
  opts.force_passthrough = true;  // degraded streams must stay raw-tagged
  const auto r =
      pipeline::compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts);
  EXPECT_EQ(r.fallback_chunks, r.chunk_rows.size());
  EXPECT_EQ(cache.hits() + cache.misses() + cache.inserts(), 0u);
}

TEST_F(ChunkCacheTest, ByteIdentityAcrossThreadWidthsAndWarmth) {
  const auto ds = data::make("e3sm", data::Size::Tiny);
  const Device dev = Device::serial();
  auto comp = make_compressor("zfp-x");
  pipeline::Options opts = chunked_opts();
  const auto direct =
      pipeline::compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts)
          .stream;
  auto budget = std::make_shared<svc::ArenaBudget>(std::size_t{64} << 20);
  svc::ChunkCache cache(budget);
  opts.cache = &cache;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    ThreadPool::instance().resize(threads);
    const auto r =
        pipeline::compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts);
    EXPECT_EQ(r.stream, direct)
        << "threads=" << threads << " hits=" << r.cache_hits;
  }
}

// --- Cancelled jobs: completed chunks stay usable ------------------------

TEST_F(ChunkCacheTest, CancelledRunLeavesCompletedChunksCached) {
  // Single pool thread => chunks complete one at a time, and each finished
  // chunk inserts before the next cancel poll. Cancelling mid-run must not
  // discard what already completed.
  ThreadPool::instance().resize(1);
  const auto ds = data::make("nyx", data::Size::Tiny);
  const Device dev = Device::serial();
  auto comp = make_compressor("mgard-x");
  pipeline::Options opts = chunked_opts();
  opts.fixed_chunk_bytes = 4 << 10;  // many chunks: a wide cancel window
  auto budget = std::make_shared<svc::ArenaBudget>(std::size_t{64} << 20);
  svc::ChunkCache cache(budget);
  opts.cache = &cache;

  auto token = fault::CancelToken::make();
  std::atomic<bool> stop{false};
  std::thread watcher([&] {
    while (!stop.load() && cache.inserts() < 2)
      std::this_thread::yield();
    token.cancel();
  });
  bool cancelled = false;
  try {
    const fault::CancelScope scope(token);
    pipeline::compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts);
  } catch (const Error& e) {
    cancelled = true;
    EXPECT_EQ(e.kind(), ErrorKind::Cancelled);
  }
  stop.store(true);
  watcher.join();
  // Whether the cancel landed mid-run or the job won the race, the chunks
  // that completed are in the cache...
  const auto salvaged = cache.inserts();
  EXPECT_GE(salvaged, 2u);
  // ...and a retry harvests them while producing the exact cache-off bytes.
  const auto retry =
      pipeline::compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts);
  EXPECT_GE(retry.cache_hits, salvaged);
  pipeline::Options plain = opts;
  plain.cache = nullptr;
  EXPECT_EQ(retry.stream,
            pipeline::compress(dev, *comp, ds.data(), ds.shape, ds.dtype,
                               plain)
                .stream);
  if (!cancelled)
    GTEST_LOG_(INFO) << "compress finished before the cancel landed";
}

}  // namespace
}  // namespace hpdr
