#include "algorithms/sz/interp.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "algorithms/sz/stream.hpp"
#include "algorithms/sz/sz.hpp"
#include "core/error.hpp"
#include "core/stats.hpp"

namespace hpdr::sz {
namespace {

constexpr std::uint8_t kMagic = 0x49;  // 'I'
using detail::kRadius;

/// Number of refinement levels: limited by the largest dimension so even a
/// thin tensor refines usefully along its long axes (dimensions shorter
/// than the current stride simply don't refine at that level).
std::size_t interp_levels(const Shape& shape) {
  std::size_t max_dim = 0;
  for (std::size_t d = 0; d < shape.rank(); ++d)
    max_dim = std::max(max_dim, shape[d]);
  if (max_dim < 2) return 0;
  return static_cast<std::size_t>(std::bit_width(max_dim - 1));
}

/// Visits every grid point exactly once in the deterministic multilevel
/// traversal shared by encoder and decoder:
///   1. the base lattice (coords ≡ 0 mod 2^L), raster order;
///   2. per level (stride s = 2^(L−l+1), half h = s/2), per dimension d:
///      points with coord_d ≡ h (mod s), coords before d on the h-lattice,
///      coords after d on the s-lattice — predicted along d from the
///      already-visited ±h neighbours.
/// The visitor gets (flat index, flat index of left/right predictor
/// neighbours or SIZE_MAX when absent).
template <class Visit>
void traverse(const Shape& shape, const Visit& visit) {
  const std::size_t rank = shape.rank();
  const auto strides = shape.strides();
  const std::size_t L = interp_levels(shape);
  const std::size_t base = std::size_t{1} << L;

  // Recursive lattice walker: for each dimension a (start, step) pair.
  std::array<std::size_t, kMaxRank> start{}, step{}, idx{};
  auto walk = [&](auto&& self, std::size_t d, std::size_t flat,
                  std::size_t pred_dim) -> void {
    if (d == rank) {
      // Predictor neighbours at ±h along pred_dim; both lie on lattices
      // visited earlier (coarser levels, or earlier dimensions of this
      // level), so their reconstructions are available.
      const std::size_t h = step[pred_dim] / 2;
      const std::size_t left = flat - h * strides[pred_dim];
      const std::size_t right = idx[pred_dim] + h < shape[pred_dim]
                                    ? flat + h * strides[pred_dim]
                                    : SIZE_MAX;
      visit(flat, left, right);
      return;
    }
    for (std::size_t c = start[d]; c < shape[d]; c += step[d]) {
      idx[d] = c;
      self(self, d + 1, flat + c * strides[d], pred_dim);
    }
  };

  // Phase 1: base lattice, no interpolation predictor (visitor sees
  // SIZE_MAX neighbours and delta-predicts).
  for (std::size_t d = 0; d < rank; ++d) {
    start[d] = 0;
    step[d] = base;
  }
  {
    auto walk_base = [&](auto&& self, std::size_t d,
                         std::size_t flat) -> void {
      if (d == rank) {
        visit(flat, SIZE_MAX, SIZE_MAX);
        return;
      }
      for (std::size_t c = 0; c < shape[d]; c += base)
        self(self, d + 1, flat + c * strides[d]);
    };
    walk_base(walk_base, 0, 0);
  }

  // Phase 2: refinement levels.
  for (std::size_t s = base; s >= 2; s /= 2) {
    const std::size_t h = s / 2;
    for (std::size_t pd = 0; pd < rank; ++pd) {
      if (h >= shape[pd]) continue;  // dimension too short at this level
      for (std::size_t d = 0; d < rank; ++d) {
        if (d < pd) {
          start[d] = 0;
          step[d] = h;  // dims already refined at this level
        } else if (d == pd) {
          start[d] = h;
          step[d] = s;  // the new points along pd
        } else {
          start[d] = 0;
          step[d] = s;  // dims not yet refined at this level
        }
      }
      // Make the predictor stride available to the leaf: step[pd] == s, so
      // h = step[pd]/2 inside the leaf — consistent by construction.
      walk(walk, 0, 0, pd);
    }
  }
}

template <class T>
std::vector<std::uint8_t> compress_impl(const Device& dev,
                                        NDView<const T> data,
                                        double rel_eb) {
  HPDR_REQUIRE(data.size() > 0, "empty input");
  HPDR_REQUIRE(rel_eb > 0, "error bound must be positive");
  const Shape shape = data.shape();
  const double abs_eb = abs_error_bound(value_range(data.span()), rel_eb);
  const double bin = 2.0 * abs_eb;

  std::vector<double> recon(shape.size(),
                            std::numeric_limits<double>::quiet_NaN());
  std::vector<std::uint32_t> symbols;
  symbols.reserve(shape.size());
  std::vector<detail::Outlier<T>> outliers;
  double prev_base = 0.0;  // delta predictor for the base lattice

  traverse(shape, [&](std::size_t flat, std::size_t left,
                      std::size_t right) {
    const double x = static_cast<double>(data.data()[flat]);
    double pred;
    if (left == SIZE_MAX) {
      pred = prev_base;  // base lattice: delta from previous base point
    } else if (right != SIZE_MAX) {
      pred = 0.5 * (recon[left] + recon[right]);
    } else {
      pred = recon[left];
    }
    const double q = std::nearbyint((x - pred) / bin);
    const double rec = pred + q * bin;
    const double rec_t = static_cast<double>(static_cast<T>(rec));
    double stored;
    if (!std::isfinite(q) || q < double(-kRadius) || q > double(kRadius) ||
        std::abs(rec_t - x) > abs_eb) {
      symbols.push_back(0);
      outliers.emplace_back(flat, static_cast<T>(x));
      stored = x;
    } else {
      symbols.push_back(static_cast<std::uint32_t>(
          static_cast<std::int64_t>(q) + kRadius + 1));
      stored = rec;
    }
    recon[flat] = stored;
    if (left == SIZE_MAX) prev_base = stored;
  });
  HPDR_ASSERT(symbols.size() == shape.size());

  return detail::write_stream<T>(dev, kMagic, shape, abs_eb, outliers,
                                 symbols);
}

template <class T>
NDArray<T> decompress_impl(const Device& dev,
                           std::span<const std::uint8_t> stream,
                           std::size_t expect_size) {
  const auto in = detail::read_stream<T>(dev, kMagic, "interp-SZ", stream,
                                         expect_size);
  const Shape& shape = in.shape;
  const double bin = 2.0 * in.abs_eb;

  NDArray<T> result(shape);
  std::vector<double> recon(shape.size());
  std::size_t cursor = 0;
  double prev_base = 0.0;
  traverse(shape, [&](std::size_t flat, std::size_t left,
                      std::size_t right) {
    const std::uint32_t sym = in.symbols[cursor++];
    double rec;
    if (sym == 0) {
      HPDR_REQUIRE(in.is_outlier[flat],
                   "outlier marker without stored value");
      rec = static_cast<double>(in.outlier_value[flat]);
    } else {
      double pred;
      if (left == SIZE_MAX)
        pred = prev_base;
      else if (right != SIZE_MAX)
        pred = 0.5 * (recon[left] + recon[right]);
      else
        pred = recon[left];
      rec = pred + static_cast<double>(static_cast<std::int64_t>(sym) -
                                       kRadius - 1) *
                       bin;
    }
    recon[flat] = rec;
    result.data()[flat] = static_cast<T>(rec);
    if (left == SIZE_MAX) prev_base = rec;
  });
  return result;
}

}  // namespace

std::vector<std::uint8_t> compress_interp(const Device& dev,
                                          NDView<const float> data,
                                          double rel_eb) {
  return compress_impl(dev, data, rel_eb);
}
std::vector<std::uint8_t> compress_interp(const Device& dev,
                                          NDView<const double> data,
                                          double rel_eb) {
  return compress_impl(dev, data, rel_eb);
}
NDArray<float> decompress_interp_f32(const Device& dev,
                                     std::span<const std::uint8_t> stream,
                                     std::size_t expect_size) {
  return decompress_impl<float>(dev, stream, expect_size);
}
NDArray<double> decompress_interp_f64(const Device& dev,
                                      std::span<const std::uint8_t> stream,
                                      std::size_t expect_size) {
  return decompress_impl<double>(dev, stream, expect_size);
}

}  // namespace hpdr::sz
