#ifndef HPDR_ALGORITHMS_SZ_INTERP_HPP
#define HPDR_ALGORITHMS_SZ_INTERP_HPP

/// \file interp.hpp
/// Interpolation-based error-bounded compression in the style of SZ3 /
/// "dynamic spline interpolation" SZ — the paper's reference [16] and the
/// algorithm family behind cuSZ's successors. Extension beyond the paper's
/// three case-study pipelines (DESIGN.md lists it as optional work).
///
/// The predictor is multi-level: grid points are visited coarsest level
/// first, and each finer point is predicted by *linear interpolation of
/// already-reconstructed* coarser neighbours along one dimension
/// (dimension-alternating refinement). Quantization is in the loop —
/// prediction always uses reconstructed values — so the absolute error
/// bound holds unconditionally, like the Lorenzo pipeline, but with far
/// better prediction on smooth fields at tight bounds.

#include <cstdint>
#include <span>
#include <vector>

#include "adapter/device.hpp"
#include "core/ndarray.hpp"

namespace hpdr::sz {

/// Compress with a relative L∞ error bound.
std::vector<std::uint8_t> compress_interp(const Device& dev,
                                          NDView<const float> data,
                                          double rel_eb);
std::vector<std::uint8_t> compress_interp(const Device& dev,
                                          NDView<const double> data,
                                          double rel_eb);

/// `expect_size` as for decompress_dualquant_f32 (sz.hpp).
NDArray<float> decompress_interp_f32(const Device& dev,
                                     std::span<const std::uint8_t> stream,
                                     std::size_t expect_size = 0);
NDArray<double> decompress_interp_f64(const Device& dev,
                                      std::span<const std::uint8_t> stream,
                                      std::size_t expect_size = 0);

}  // namespace hpdr::sz

#endif  // HPDR_ALGORITHMS_SZ_INTERP_HPP
