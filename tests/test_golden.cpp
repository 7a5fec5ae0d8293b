// Golden-stream compatibility corpus (tests/golden/, regenerated with
// `hpdr write-golden`): byte-exact v1, v2 and v3 reference containers plus
// the expected decodes. Two guarantees are locked here:
//   * decoder compatibility — today's reader decodes streams written by
//     the v1 (legacy, unframed) and v2 (tagged + checksummed) writers to
//     exactly the recorded bytes;
//   * writer stability — re-encoding the recorded input with the recorded
//     configuration reproduces the committed streams bit for bit, so any
//     accidental format drift fails loudly instead of shipping.

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "hpdr.hpp"

#ifndef HPDR_GOLDEN_DIR
#error "tests/CMakeLists.txt must define HPDR_GOLDEN_DIR"
#endif

namespace hpdr {
namespace {

std::vector<std::uint8_t> slurp(const std::string& name) {
  const std::string path = std::string(HPDR_GOLDEN_DIR) + "/" + name;
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(f.good()) << "missing golden file " << path
                        << " (regenerate with `hpdr write-golden`)";
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(f.tellg()));
  f.seekg(0);
  f.read(reinterpret_cast<char*>(bytes.data()),
         static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

Shape golden_shape() {
  Shape s = Shape::of_rank(3);
  s[0] = s[1] = s[2] = 16;
  return s;
}

/// The exact configuration write-golden used: serial device, fixed 4-row
/// chunks, eb 1e-3.
pipeline::Options golden_opts() {
  pipeline::Options opts;
  opts.mode = pipeline::Mode::Fixed;
  opts.fixed_chunk_bytes = 4 * 16 * 16 * sizeof(float);
  opts.param = 1e-3;
  return opts;
}

/// Every committed v2 stream: codec, container, recorded decode. The
/// mgard-x decode is the v3 full-refinement file (byte-identity guarantee);
/// huffman-x is lossless, so its decode is the input itself.
struct V2Stream {
  const char* codec;
  const char* stream;
  const char* decoded;
};
constexpr V2Stream kV2Streams[] = {
    {"zfp-x", "v2_zfp.hpdr", "v2_zfp.raw"},
    {"huffman-x", "v2_huffman.hpdr", "input.raw"},
    {"mgard-x", "v2_mgard.hpdr", "v3_mgard.raw"},
    {"cusz", "v2_cusz.hpdr", "v2_cusz.raw"},
    {"sz3-interp", "v2_sz3interp.hpdr", "v2_sz3interp.raw"},
};

TEST(Golden, CorpusInputIsTheRecordedGenerator) {
  const auto input = slurp("input.raw");
  const auto field = data::nyx_density(golden_shape(), 1234);
  ASSERT_EQ(input.size(), golden_shape().size() * sizeof(float));
  EXPECT_EQ(0, std::memcmp(input.data(), field.data(), input.size()))
      << "data::nyx_density(16^3, seed 1234) drifted from the corpus";
}

TEST(Golden, InspectReportsBothContainerVersions) {
  const auto v1 = pipeline::inspect(slurp("v1_zfp.hpdr"));
  EXPECT_EQ(v1.version, 1);
  EXPECT_EQ(v1.compressor, "zfp-x");
  EXPECT_EQ(v1.num_chunks, 4u);
  for (const auto& g : kV2Streams) {
    const auto v2 = pipeline::inspect(slurp(g.stream));
    EXPECT_EQ(v2.version, 2) << g.stream;
    EXPECT_EQ(v2.compressor, g.codec);
    EXPECT_EQ(v2.num_chunks, 4u) << g.stream;
  }
}

TEST(Golden, V1LegacyStreamDecodesToRecordedBytes) {
  const auto stream = slurp("v1_zfp.hpdr");
  const auto expected = slurp("v2_zfp.raw");
  const Device dev = machine::make_device("serial");
  auto comp = make_compressor("zfp-x");
  std::vector<std::uint8_t> out(expected.size());
  pipeline::decompress(dev, *comp, stream, out.data(), golden_shape(),
                       DType::F32, {});
  EXPECT_EQ(out, expected);
}

TEST(Golden, V2StreamDecodesToRecordedBytes) {
  const Device dev = machine::make_device("serial");
  for (const auto& g : kV2Streams) {
    const auto expected = slurp(g.decoded);
    auto comp = make_compressor(g.codec);
    std::vector<std::uint8_t> out(expected.size());
    pipeline::decompress(dev, *comp, slurp(g.stream), out.data(),
                         golden_shape(), DType::F32, {});
    EXPECT_EQ(out, expected) << g.stream;
  }
}

TEST(Golden, LosslessStreamRoundTripsToInput) {
  const auto stream = slurp("v2_huffman.hpdr");
  const auto input = slurp("input.raw");
  const Device dev = machine::make_device("serial");
  auto comp = make_compressor("huffman-x");
  std::vector<std::uint8_t> out(input.size());
  pipeline::decompress(dev, *comp, stream, out.data(), golden_shape(),
                       DType::F32, {});
  EXPECT_EQ(out, input);
}

TEST(Golden, RecordedDecodeHonorsTheErrorBound) {
  const auto input = slurp("input.raw");
  // zfp at eb 1e-3 is rate-bounded, so it only gets 1e-2; the
  // error-bounded codecs hold 1e-3 of each chunk's range, hence of the
  // whole field's.
  for (const auto& [file, bound] :
       {std::pair{"v2_zfp.raw", 1e-2}, std::pair{"v3_mgard.raw", 1e-3},
        std::pair{"v2_cusz.raw", 1e-3}, std::pair{"v2_sz3interp.raw", 1e-3}}) {
    const auto decoded = slurp(file);
    const auto stats = compute_error_stats(
        {reinterpret_cast<const float*>(input.data()), input.size() / 4},
        {reinterpret_cast<const float*>(decoded.data()), decoded.size() / 4});
    EXPECT_LE(stats.max_rel_error, bound) << file;
  }
}

TEST(Golden, WriterIsByteStable) {
  const auto input = slurp("input.raw");
  const Device dev = machine::make_device("serial");
  for (const auto& g : kV2Streams) {
    auto comp = make_compressor(g.codec);
    const auto again = pipeline::compress(dev, *comp, input.data(),
                                          golden_shape(), DType::F32,
                                          golden_opts());
    EXPECT_EQ(again.stream, slurp(g.stream))
        << g.codec << " v2 writer drifted: bump its version (and add a new "
        << "golden stream) instead of silently changing the format";
  }
}

// ---- Stream-format v3: the progressive refinement container
// (DESIGN.md §15). Same raster, same chunk split, mgard-x refinement
// components. The committed v3_mgard.raw is the full-refinement decode,
// which the byte-identity guarantee makes equal to a one-shot v2 decode.

TEST(Golden, V3InspectReportsProgressiveContainer) {
  const auto stream = slurp("v3_mgard.hpdr");
  const auto info = pipeline::inspect(stream);
  EXPECT_EQ(info.version, 3);
  EXPECT_EQ(info.compressor, "mgard-x");
  EXPECT_EQ(info.num_chunks, 4u);
  EXPECT_GT(info.components, info.num_chunks);  // several per chunk
  EXPECT_EQ(info.fallback_chunks, 0u);
  EXPECT_EQ(info.shape.to_string(), golden_shape().to_string());
  // The one-shot decoder must refuse the v3 container loudly instead of
  // misparsing it; ProgressiveReader is the only v3 read path.
  const Device dev = machine::make_device("serial");
  auto mg = make_compressor("mgard-x");
  std::vector<std::uint8_t> out(golden_shape().size() * sizeof(float));
  EXPECT_THROW(pipeline::decompress(dev, *mg, stream, out.data(),
                                    golden_shape(), DType::F32, {}),
               Error);
}

TEST(Golden, V3FullRefineDecodesToRecordedBytes) {
  const auto stream = slurp("v3_mgard.hpdr");
  const auto expected = slurp("v3_mgard.raw");
  const Device dev = machine::make_device("serial");
  pipeline::ProgressiveReader reader(stream);
  reader.refine_full(dev);
  ASSERT_EQ(reader.data().size(), expected.size());
  EXPECT_EQ(0, std::memcmp(reader.data().data(), expected.data(),
                           expected.size()));
  EXPECT_EQ(reader.bytes_reread(), 0u);
  EXPECT_EQ(reader.components_consumed(), reader.components_total());
}

TEST(Golden, V3FullRefineMatchesOneShotV2MgardDecode) {
  // Differential oracle for the byte-identity guarantee: a fresh v2
  // mgard-x pipeline decode of the same tensor and options must equal the
  // committed v3 full-refinement bytes exactly.
  const auto input = slurp("input.raw");
  const auto expected = slurp("v3_mgard.raw");
  const Device dev = machine::make_device("serial");
  auto mg = make_compressor("mgard-x");
  const auto v2 = pipeline::compress(dev, *mg, input.data(), golden_shape(),
                                     DType::F32, golden_opts());
  std::vector<std::uint8_t> out(input.size());
  pipeline::decompress(dev, *mg, v2.stream, out.data(), golden_shape(),
                       DType::F32, {});
  EXPECT_EQ(out, expected)
      << "v3 refinement decode drifted from the v2 mgard-x decode";
}

TEST(Golden, V3WriterIsByteStable) {
  const auto input = slurp("input.raw");
  const Device dev = machine::make_device("serial");
  const auto stream = pipeline::progressive_compress(
      dev, input.data(), golden_shape(), DType::F32, golden_opts());
  EXPECT_EQ(stream, slurp("v3_mgard.hpdr"))
      << "v3 writer drifted: bump the container version (and add a new "
         "golden stream) instead of silently changing the format";
}

TEST(Golden, V3WriterIsByteStableAcrossThreadWidths) {
  const auto input = slurp("input.raw");
  const auto expected = slurp("v3_mgard.hpdr");
  const Device dev = machine::make_device("serial");
  for (unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
    ThreadPool::instance().resize(threads);
    const auto stream = pipeline::progressive_compress(
        dev, input.data(), golden_shape(), DType::F32, golden_opts());
    EXPECT_EQ(stream, expected) << "threads=" << threads;
  }
  ThreadPool::instance().resize(ThreadPool::default_threads());
}

TEST(Golden, WriterIsByteStableAcrossThreadWidths) {
  const auto input = slurp("input.raw");
  const Device dev = machine::make_device("serial");
  for (unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
    ThreadPool::instance().resize(threads);
    for (const auto& g : kV2Streams) {
      auto comp = make_compressor(g.codec);
      const auto stream = pipeline::compress(dev, *comp, input.data(),
                                             golden_shape(), DType::F32,
                                             golden_opts())
                              .stream;
      EXPECT_EQ(stream, slurp(g.stream))
          << g.codec << " threads=" << threads;
    }
  }
  ThreadPool::instance().resize(ThreadPool::default_threads());
}

}  // namespace
}  // namespace hpdr
