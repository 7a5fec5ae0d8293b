// Robustness: corrupt streams must never crash a decoder. Every truncation
// or byte flip either throws hpdr::Error or decodes to (possibly wrong)
// data — no UB, no unbounded allocation, no hang. This is the contract a
// reduction framework needs before its streams cross facility boundaries.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>

#include "core/bitstream.hpp"
#include "core/checksum.hpp"
#include "compressor/compressor.hpp"
#include "core/stats.hpp"
#include "data/generators.hpp"
#include "io/bplite.hpp"
#include "machine/device_registry.hpp"
#include "pipeline/pipeline.hpp"
#include "runtime/trace.hpp"

namespace hpdr {
namespace {

const data::Dataset& tiny_nyx() {
  static data::Dataset ds = data::make("nyx", data::Size::Tiny);
  return ds;
}

/// Attempt to decode; the only acceptable outcomes are success or Error.
template <class Fn>
void expect_no_crash(Fn&& decode) {
  try {
    decode();
  } catch (const Error&) {
    // rejected — fine
  }
}

class CorruptStreams : public ::testing::TestWithParam<const char*> {};

TEST_P(CorruptStreams, TruncationsNeverCrash) {
  const Device dev = Device::serial();
  auto comp = make_compressor(GetParam());
  const auto& ds = tiny_nyx();
  pipeline::Options opts;
  opts.mode = pipeline::Mode::Fixed;
  opts.param = 1e-2;
  opts.fixed_chunk_bytes = 16 << 10;
  auto result =
      pipeline::compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts);
  std::vector<std::uint8_t> out(ds.size_bytes());
  // Truncate at a spread of positions including boundaries.
  for (double frac : {0.0, 0.01, 0.1, 0.5, 0.9, 0.99}) {
    auto cut = result.stream;
    cut.resize(static_cast<std::size_t>(cut.size() * frac));
    expect_no_crash([&] {
      pipeline::decompress(dev, *comp, cut, out.data(), ds.shape, ds.dtype,
                           opts);
    });
  }
}

TEST_P(CorruptStreams, ByteFlipsNeverCrash) {
  const Device dev = Device::serial();
  auto comp = make_compressor(GetParam());
  const auto& ds = tiny_nyx();
  pipeline::Options opts;
  opts.mode = pipeline::Mode::Fixed;
  opts.param = 1e-2;
  opts.fixed_chunk_bytes = 16 << 10;
  auto result =
      pipeline::compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts);
  std::vector<std::uint8_t> out(ds.size_bytes());
  std::mt19937_64 rng(1234);
  for (int trial = 0; trial < 60; ++trial) {
    auto bad = result.stream;
    // Flip 1-4 random bytes (headers, tables, and payload all get hit).
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f)
      bad[rng() % bad.size()] ^= static_cast<std::uint8_t>(1 + rng() % 255);
    expect_no_crash([&] {
      pipeline::decompress(dev, *comp, bad, out.data(), ds.shape, ds.dtype,
                           opts);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(AllPipelines, CorruptStreams,
                         ::testing::Values("mgard-x", "zfp-x", "huffman-x",
                                           "sz3-interp", "cusz",
                                           "nvcomp-lz4"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

TEST(CorruptStreamsExtra, MutatedCodecPayloadsDecodeOrThrowError) {
  // The pipeline's frame checksum rejects most corrupted chunks before a
  // decoder sees them, so this feeds mutated Compressor::compress payloads
  // straight to Compressor::decompress: byte flips anywhere, flips within
  // the header bytes, and truncations. Success and Error are the only
  // acceptable outcomes (not std::bad_alloc, not a crash).
  const Device dev = Device::serial();
  const auto& ds = tiny_nyx();
  std::vector<std::uint8_t> out(ds.size_bytes());
  std::mt19937_64 rng(20251015);
  for (const auto& name : compressor_names()) {
    auto comp = make_compressor(name);
    const auto payload = comp->compress(dev, ds.data(), ds.shape, ds.dtype,
                                        1e-2);
    auto decode = [&](const std::vector<std::uint8_t>& bad, int trial) {
      try {
        comp->decompress(dev, bad, out.data(), ds.shape, ds.dtype);
      } catch (const Error&) {
        // rejected — fine
      } catch (const std::exception& e) {
        ADD_FAILURE() << name << " mutation " << trial << ": " << e.what();
      }
    };
    for (int trial = 0; trial < 200; ++trial) {
      auto bad = payload;
      const int kind = trial % 3;
      if (kind == 2) {
        bad.resize(rng() % bad.size());
      } else {
        const std::size_t span =
            kind == 1 ? std::min<std::size_t>(64, bad.size()) : bad.size();
        const int flips = 1 + static_cast<int>(rng() % 4);
        for (int f = 0; f < flips; ++f)
          bad[rng() % span] ^= static_cast<std::uint8_t>(1 + rng() % 255);
      }
      decode(bad, trial);
    }
  }
}

TEST(CorruptStreamsExtra, EmptyAndGarbageInputsThrow) {
  const Device dev = Device::serial();
  std::vector<std::uint8_t> empty;
  std::vector<std::uint8_t> garbage(64, 0xAB);
  std::vector<std::uint8_t> out(tiny_nyx().size_bytes());
  for (const auto& name : compressor_names()) {
    auto comp = make_compressor(name);
    EXPECT_THROW(pipeline::decompress(dev, *comp, empty, out.data(),
                                      tiny_nyx().shape, tiny_nyx().dtype,
                                      {}),
                 Error)
        << name;
    EXPECT_THROW(pipeline::decompress(dev, *comp, garbage, out.data(),
                                      tiny_nyx().shape, tiny_nyx().dtype,
                                      {}),
                 Error)
        << name;
  }
}

TEST(CorruptStreamsExtra, HostileHeaderSizesAreRejectedBeforeAllocation) {
  // Current-version codec headers claiming 2^13 x 2^13 x 2^13 = 2^39
  // elements (under the decoders' 2^40 sanity cap): the caller's shape
  // must reject them before anything is allocated from the header.
  const Device dev = Device::serial();
  const Shape shape{4, 16};
  std::vector<float> out(shape.size());
  auto header = [](std::uint8_t magic, std::uint8_t version) {
    ByteWriter w;
    w.put_u8(magic);
    w.put_u8(version);
    w.put_u8(0);  // f32
    w.put_u8(3);  // rank
    for (int d = 0; d < 3; ++d) w.put_varint(std::size_t{1} << 13);
    return w;
  };
  ByteWriter mg = header(0x47, 2);  // MGARD 'G' v2
  mg.put_u8(1);                     // lossy mode
  mg.put_f64(1e-3);                 // abs_eb
  mg.put_f64(0.0);                  // s
  mg.put_u8(0);                     // uniform grid
  mg.put_varint(0);                 // no outliers
  ByteWriter dq = header(0x44, 1);  // dual-quant 'D' v1
  ByteWriter in = header(0x49, 1);  // interp 'I' v1
  for (ByteWriter* w : {&dq, &in}) {
    w->put_f64(1e-3);  // abs_eb
    w->put_varint(0);  // no outliers
  }
  const std::pair<const char*, std::vector<std::uint8_t>> forged[] = {
      {"mgard-x", mg.take()}, {"cusz", dq.take()}, {"sz3-interp", in.take()}};
  for (const auto& [name, bytes] : forged)
    EXPECT_THROW(make_compressor(name)->decompress(dev, bytes, out.data(),
                                                   shape, DType::F32),
                 Error)
        << name;
}

TEST(CorruptStreamsExtra, ForgedChunkRowsThatWrapAreRejected) {
  // A v2 chunk table whose row counts wrap around 2^64 back to the tensor
  // height, with valid frame checksums: the parser must reject it, not
  // hand a chunk of 2^64-1 rows to the decode loop (under Skip recovery it
  // would zero-fill a wrapped chunk size).
  const Device dev = Device::serial();
  auto comp = make_compressor("nvcomp-lz4");
  const Shape shape{4, 16};
  const std::vector<std::uint8_t> blob = {1, 2, 3};
  ByteWriter w;
  w.put_u8(0x48);  // pipeline container magic
  w.put_u8(2);     // framed v2
  w.put_string(comp->name());
  w.put_u8(0);  // f32
  w.put_u8(2);  // rank
  w.put_varint(shape[0]);
  w.put_varint(shape[1]);
  w.put_u8(1);  // Fixed
  const std::uint64_t rows[] = {1, ~std::uint64_t{0}, 4};  // sums to 4
  w.put_varint(3);
  for (std::uint64_t r : rows) {
    w.put_varint(r);
    w.put_varint(blob.size());
    w.put_u8(0);  // codec-tagged
    w.put_u64(fnv1a64(blob));
  }
  for (int c = 0; c < 3; ++c) w.put_bytes(blob);
  const auto forged = w.take();
  pipeline::Options opts;
  opts.recovery = pipeline::ChunkRecovery::Skip;
  std::vector<float> out(shape.size());
  EXPECT_THROW(pipeline::decompress(dev, *comp, forged, out.data(), shape,
                                    DType::F32, opts),
               Error);
  EXPECT_THROW(pipeline::decompress_rows(dev, *comp, forged, out.data(),
                                         shape, DType::F32, 0, 4, opts),
               Error);
  EXPECT_THROW(pipeline::inspect(forged), Error);
}

// ---------------------------------------------------------------------------
// BPLite containers under hostile bytes: every truncation or byte flip must
// either throw hpdr::Error on open/read or yield data that fails the
// payload checksum — never crash, hang, or allocate unboundedly from a
// forged size field.
// ---------------------------------------------------------------------------

namespace {

struct ScratchFile {
  std::string path;
  explicit ScratchFile(const std::string& name)
      : path((std::filesystem::temp_directory_path() / name).string()) {}
  ~ScratchFile() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

std::vector<std::uint8_t> valid_bplite_bytes(const std::string& path) {
  {
    io::BPWriter w(path);
    std::vector<float> vals(256);
    for (std::size_t i = 0; i < vals.size(); ++i)
      vals[i] = static_cast<float>(i) * 0.5f;
    for (int step = 0; step < 2; ++step) {
      w.begin_step();
      w.put("rho", Shape{16, 16}, DType::F32,
            {reinterpret_cast<const std::uint8_t*>(vals.data()),
             vals.size() * 4});
      w.put("vx", Shape{256}, DType::F32,
            {reinterpret_cast<const std::uint8_t*>(vals.data()),
             vals.size() * 4});
      w.end_step();
    }
    w.close();
  }
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Open + fully read a BPLite file; success and Error are the only
/// acceptable outcomes.
void expect_bplite_no_crash(const std::string& path) {
  expect_no_crash([&] {
    io::BPReader r(path);
    for (std::size_t s = 0; s < r.num_steps(); ++s)
      for (const auto& v : r.variables(s)) r.read_payload(s, v);
  });
}

}  // namespace

TEST(BPLiteRobustness, TruncationsNeverCrash) {
  ScratchFile tmp("hpdr_rob_bplite_trunc.bp");
  const auto bytes = valid_bplite_bytes(tmp.path);
  for (double frac : {0.0, 0.01, 0.1, 0.5, 0.9, 0.99}) {
    auto cut = bytes;
    cut.resize(static_cast<std::size_t>(cut.size() * frac));
    write_bytes(tmp.path, cut);
    expect_bplite_no_crash(tmp.path);
  }
  // Off-by-a-few truncations around the trailer (u64 offset + magic).
  for (std::size_t back = 1; back <= 16; ++back) {
    auto cut = bytes;
    cut.resize(bytes.size() - back);
    write_bytes(tmp.path, cut);
    expect_bplite_no_crash(tmp.path);
  }
}

TEST(BPLiteRobustness, ByteFlipsNeverCrash) {
  ScratchFile tmp("hpdr_rob_bplite_flip.bp");
  const auto bytes = valid_bplite_bytes(tmp.path);
  std::mt19937_64 rng(2026);
  std::uniform_int_distribution<std::size_t> pos(0, bytes.size() - 1);
  // Single-byte flips at random offsets plus every byte of the trailer
  // (index offset and magic — the highest-leverage corruption targets).
  std::vector<std::size_t> targets;
  for (int i = 0; i < 64; ++i) targets.push_back(pos(rng));
  for (std::size_t back = 1; back <= 12; ++back)
    targets.push_back(bytes.size() - back);
  for (std::size_t t : targets) {
    auto bad = bytes;
    bad[t] ^= 0xFF;
    write_bytes(tmp.path, bad);
    expect_bplite_no_crash(tmp.path);
  }
}

TEST(BPLiteRobustness, ForgedIndexCountsAreRejectedWithoutAllocating) {
  ScratchFile tmp("hpdr_rob_bplite_forged.bp");
  // A minimal file whose index claims 2^60 steps: header, one-varint index
  // region, trailer pointing at it. The reader must reject the count
  // against the file size instead of trying to reserve 2^60 records.
  ByteWriter w;
  w.put_u32(0x544C5042u);  // "BPLT"
  w.put_u32(2);            // version
  const std::uint64_t index_offset = w.size();
  w.put_varint(std::size_t{1} << 60);  // nsteps, absurd
  const std::uint64_t trailer_offset_field = index_offset;
  w.put_u64(trailer_offset_field);
  w.put_u32(0x544C5042u);
  write_bytes(tmp.path, w.take());
  EXPECT_THROW(io::BPReader r(tmp.path), Error);
}

TEST(BPLiteRobustness, PayloadCorruptionFailsChecksumNotDecode) {
  ScratchFile tmp("hpdr_rob_bplite_payload.bp");
  auto bytes = valid_bplite_bytes(tmp.path);
  // Flip one byte inside the first payload (data region starts at 8).
  bytes[12] ^= 0x01;
  write_bytes(tmp.path, bytes);
  io::BPReader r(tmp.path);
  EXPECT_THROW(r.read_payload(0, "rho"), Error);
}

TEST(Trace, ChromeJsonIsWellFormedEnough) {
  const Device dev = machine::make_device("V100");
  auto comp = make_compressor("zfp-x");
  const auto& ds = tiny_nyx();
  pipeline::Options opts;
  opts.mode = pipeline::Mode::Fixed;
  opts.param = 1e-2;
  opts.fixed_chunk_bytes = 16 << 10;
  auto result =
      pipeline::compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts);
  const std::string json = to_chrome_trace(result.timeline);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  // Balanced braces and one slice per nonzero-duration task.
  std::size_t opens = 0, closes = 0;
  for (char c : json) {
    opens += c == '{';
    closes += c == '}';
  }
  EXPECT_EQ(opens, closes);
  std::size_t slices = 0;
  for (std::size_t p = json.find("\"ph\":\"X\""); p != std::string::npos;
       p = json.find("\"ph\":\"X\"", p + 1))
    ++slices;
  std::size_t nonzero = 0;
  for (const auto& t : result.timeline.tasks)
    if (t.duration() > 0) ++nonzero;
  EXPECT_EQ(slices, nonzero);
}

}  // namespace
}  // namespace hpdr
