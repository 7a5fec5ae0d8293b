// Tests for the interpolation-predictor SZ pipeline (SZ3-style, the
// paper's ref [16]): traversal coverage, error bounds, smooth-data
// advantage over Lorenzo, and registry integration.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "data/generators.hpp"

#include "algorithms/sz/interp.hpp"
#include "algorithms/sz/sz.hpp"
#include "compressor/compressor.hpp"
#include "core/stats.hpp"
#include "machine/device_registry.hpp"

namespace hpdr::sz {
namespace {

class InterpErrorBound
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(InterpErrorBound, RandomFieldsRespectBound) {
  const auto& [rel_eb, rank] = GetParam();
  const Device dev = Device::serial();
  Shape shape = rank == 1   ? Shape{2000}
                : rank == 2 ? Shape{53, 47}
                : rank == 3 ? Shape{19, 17, 15}
                            : Shape{7, 9, 11, 5};
  NDArray<float> a(shape);
  std::mt19937_64 rng(static_cast<unsigned>(rank * 31));
  std::normal_distribution<float> d(0.f, 3.f);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = d(rng);
  auto back = decompress_interp_f32(dev, compress_interp(dev, a.view(), rel_eb));
  ASSERT_EQ(back.shape(), shape);
  auto stats = compute_error_stats(a.span(), back.span());
  EXPECT_LE(stats.max_rel_error, rel_eb * 1.0001);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InterpErrorBound,
    ::testing::Combine(::testing::Values(1e-1, 1e-2, 1e-3, 1e-5),
                       ::testing::Values(1, 2, 3, 4)));

TEST(Interp, EverySampleReconstructedEvenOnAwkwardShapes) {
  // Coverage of the multilevel traversal: decompression must visit every
  // point exactly once, including prime extents and rank-4 tensors.
  const Device dev = Device::serial();
  for (const Shape& shape :
       {Shape{1}, Shape{2}, Shape{7}, Shape{13, 11}, Shape{5, 3, 17},
        Shape{3, 2, 5, 7}}) {
    NDArray<float> a(shape);
    for (std::size_t i = 0; i < a.size(); ++i)
      a[i] = float(i) * 0.37f + 1.0f;
    auto back = decompress_interp_f32(
        dev, compress_interp(dev, a.view(), 1e-6));
    for (std::size_t i = 0; i < a.size(); ++i)
      EXPECT_NEAR(back[i], a[i],
                  1e-6 * (float(a.size()) * 0.37f) * 1.01)
          << shape.to_string() << " @" << i;
  }
}

TEST(Interp, BeatsLorenzoOnRealisticData) {
  // The point of interpolation prediction (the SZ3 line of work): on
  // fields with smooth structure plus measurement-scale noise — i.e., real
  // science data — the two-point interpolation stencil amplifies noise far
  // less than Lorenzo's 7-term stencil and wins consistently. (On
  // perfectly noiseless analytic fields Lorenzo's higher-order stencil can
  // win; see the experiment log in this test's history.)
  const Device dev = Device::serial();
  NDArray<float> a(Shape{64, 64, 64});
  std::mt19937_64 rng(7);
  std::normal_distribution<float> noise(0.f, 0.01f);
  for (std::size_t i = 0; i < 64; ++i)
    for (std::size_t j = 0; j < 64; ++j)
      for (std::size_t k = 0; k < 64; ++k)
        a.at(i, j, k) =
            std::sin(0.08f * float(i)) * std::cos(0.06f * float(j)) +
            std::sin(0.05f * float(k)) + noise(rng);
  for (double eb : {1e-3, 1e-4}) {
    auto interp = compress_interp(dev, a.view(), eb);
    auto lorenzo = compress_dualquant(dev, a.view(), eb);
    EXPECT_LT(interp.size(), lorenzo.size()) << "eb=" << eb;
    auto back = decompress_interp_f32(dev, interp);
    EXPECT_LE(compute_error_stats(a.span(), back.span()).max_rel_error, eb);
  }
  // And on the NYX-like cosmology field at a tight bound.
  auto ds = data::make("nyx", data::Size::Tiny);
  NDView<const float> v(reinterpret_cast<const float*>(ds.data()),
                        ds.shape);
  EXPECT_LT(compress_interp(dev, v, 1e-4).size(),
            compress_dualquant(dev, v, 1e-4).size());
}

TEST(Interp, DoublePrecision) {
  const Device dev = Device::serial();
  NDArray<double> a(Shape{31, 29});
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = 1e6 * std::sin(0.001 * double(i));
  auto back = decompress_interp_f64(dev, compress_interp(dev, a.view(), 1e-6));
  EXPECT_LE(compute_error_stats(a.span(), back.span()).max_rel_error, 1e-6);
}

TEST(Interp, PortableAcrossAdapters) {
  NDArray<float> a(Shape{33, 21});
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = std::cos(0.05f * float(i));
  const Device cpu = Device::serial();
  const Device gpu = machine::make_device("V100");
  EXPECT_EQ(compress_interp(cpu, a.view(), 1e-3),
            compress_interp(gpu, a.view(), 1e-3));
}

TEST(Interp, RegisteredInCompressorRegistry) {
  auto names = compressor_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "sz3-interp"),
            names.end());
  auto comp = make_compressor("sz3-interp");
  EXPECT_FALSE(comp->lossless());
  EXPECT_TRUE(comp->uses_context_cache());
}

TEST(Interp, CorruptStreamThrows) {
  const Device dev = Device::serial();
  NDArray<float> a(Shape{16, 16}, 2.5f);
  auto stream = compress_interp(dev, a.view(), 1e-3);
  stream.resize(stream.size() / 2);
  EXPECT_THROW(decompress_interp_f32(dev, stream), Error);
}

}  // namespace
}  // namespace hpdr::sz
