// Progressive retrieval: write a climate field once as a stream-format v3
// container (DESIGN.md §15), then refine one reader through a ladder of
// tightening bounds and show the accuracy-vs-bytes tradeoff — the
// incremental-retrieval workflow of the data-refactoring line of work the
// HPDR paper builds on (its MGARD hierarchy makes this nearly free). Each
// step fetches only the components the previous steps did not.
//
//   ./examples/progressive_retrieval [rel_eb]
#include <cstdio>
#include <cstdlib>

#include "hpdr.hpp"

using namespace hpdr;

int main(int argc, char** argv) {
  const double rel_eb = argc > 1 ? std::atof(argv[1]) : 1e-4;
  const Device dev = Device::openmp();
  auto ds = data::make("e3sm", data::Size::Small);
  std::printf("dataset : %s/%s %s (%.1f MB), eb %g\n", ds.name.c_str(),
              ds.field.c_str(), ds.shape.to_string().c_str(),
              ds.size_bytes() / 1048576.0, rel_eb);

  pipeline::Options opts;
  opts.param = rel_eb;
  const auto stream =
      pipeline::progressive_compress(dev, ds.data(), ds.shape, ds.dtype, opts);
  pipeline::ProgressiveReader reader(stream);
  std::printf("v3 container: %zu components, %.2f MB payload (%.1fx)\n\n",
              reader.components_total(),
              reader.total_payload_bytes() / 1048576.0,
              double(ds.size_bytes()) / double(reader.total_payload_bytes()));

  std::printf("%-12s %14s %12s %14s %10s\n", "bound", "bytes fetched",
              "% of full", "max rel error", "psnr(dB)");
  // 0 = full write-time precision.
  for (const double bound : {0.5, 1e-1, 1e-2, 1e-3, 0.0}) {
    reader.refine(dev, bound);
    const std::span<const float> approx{
        reinterpret_cast<const float*>(reader.data().data()),
        reader.shape().size()};
    const auto stats = compute_error_stats(ds.as_f32(), approx);
    std::printf("%-12g %14zu %11.1f%% %14.3g %10.1f\n",
                bound > 0 ? bound : rel_eb, reader.bytes_consumed(),
                100.0 * reader.bytes_consumed() / reader.total_payload_bytes(),
                stats.max_rel_error, stats.psnr_db);
  }
  std::printf(
      "\nA reader with a loose accuracy target stops early and fetches a "
      "fraction of the bytes;\nrefining to full precision reaches the "
      "write-time error bound (%g) and re-reads %zu bytes.\n",
      rel_eb, reader.bytes_reread());
  return reader.bytes_reread() == 0 ? 0 : 1;
}
