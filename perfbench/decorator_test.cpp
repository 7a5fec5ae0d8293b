// TimedCompressor must be invisible to the pipeline: for every codec the
// benchmark wraps, at pool widths 1 and 2, the stream written through the
// decorator and the bytes decoded through it are identical to those of the
// bare codec, and every chunk's codec call is recorded as a child span.
// Exit code = number of failed checks.
#include <cstdio>
#include <cstring>

#include "hpdr.hpp"
#include "trace.hpp"

using namespace hpdr;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL %s\n", what.c_str());
}

}  // namespace

int main() {
  const std::vector<data::Dataset> inputs = {
      data::make("nyx", data::Size::Small, 11),
      data::make("xgc", data::Size::Tiny, 12)};
  const Device dev = Device::serial();
  pipeline::Options opts;
  opts.mode = pipeline::Mode::Fixed;
  opts.fixed_chunk_bytes = 256 << 10;
  opts.param = 1e-3;

  for (unsigned width : {1u, 2u}) {
    ThreadPool::set_default_threads(width);
    ThreadPool::instance().resize(width);
    for (const char* name : {"mgard-x", "zfp-x", "cusz", "sz3-interp",
                             "nvcomp-lz4", "huffman-x"}) {
      const auto bare = make_compressor(name);
      perfbench::SpanLog log;
      perfbench::TraceContext ctx;
      ctx.trace = 1;
      ctx.parent = 42;
      const perfbench::TimedCompressor timed(bare, log, ctx);
      for (const auto& ds : inputs) {
        const std::string what = std::string(name) + " " + ds.name + " width " +
                                 std::to_string(width);
        const auto a = pipeline::compress(dev, *bare, ds.data(), ds.shape,
                                          ds.dtype, opts);
        const auto b = pipeline::compress(dev, timed, ds.data(), ds.shape,
                                          ds.dtype, opts);
        expect(a.stream == b.stream, what + ": streams differ");
        std::vector<std::uint8_t> da(ds.size_bytes()), db(ds.size_bytes());
        pipeline::decompress(dev, *bare, a.stream, da.data(), ds.shape,
                             ds.dtype, opts);
        pipeline::decompress(dev, timed, b.stream, db.data(), ds.shape,
                             ds.dtype, opts);
        expect(da == db, what + ": decoded bytes differ");

        const auto spans = log.spans();
        std::size_t comp = 0, decomp = 0;
        bool linked = true;
        for (const auto& s : spans) {
          comp += s.name == "codec." + std::string(name) + ".compress";
          decomp += s.name == "codec." + std::string(name) + ".decompress";
          linked = linked && s.parent == 42 && s.trace == 1 && s.t1 >= s.t0;
        }
        const std::size_t chunks = a.chunk_rows.size();
        expect(comp == chunks && decomp == chunks,
               what + ": expected one compress and one decompress span per "
                      "chunk, got " +
                   std::to_string(comp) + "/" + std::to_string(decomp) +
                   " for " + std::to_string(chunks) + " chunks");
        expect(linked, what + ": span without its parent link");
        log.clear();
      }
    }
  }
  std::printf("decorator transparency: %d failure(s)\n", failures);
  return failures;
}
