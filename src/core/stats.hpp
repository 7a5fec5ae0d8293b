#ifndef HPDR_CORE_STATS_HPP
#define HPDR_CORE_STATS_HPP

/// \file stats.hpp
/// Reconstruction-quality and reduction metrics reported by every experiment:
/// L-infinity error, PSNR, value range, and compression ratio. These match
/// the metrics the paper reports (error bounds are *relative* to the data
/// range, compression ratio is original/compressed bytes).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

namespace hpdr {

/// Summary of a lossy round trip.
struct ErrorStats {
  double max_abs_error = 0.0;   ///< L∞(original − reconstructed)
  double max_rel_error = 0.0;   ///< L∞ divided by the original value range
  double mse = 0.0;             ///< mean squared error
  double psnr_db = 0.0;         ///< 20·log10(range) − 10·log10(mse)
  double original_min = 0.0;
  double original_max = 0.0;
};

/// Compute error statistics between an original and a reconstruction.
ErrorStats compute_error_stats(std::span<const float> original,
                               std::span<const float> reconstructed);
ErrorStats compute_error_stats(std::span<const double> original,
                               std::span<const double> reconstructed);

/// min/max of a span (returns {0,0} for empty input).
template <class T>
struct Range {
  T lo{};
  T hi{};
  T extent() const { return hi - lo; }
};
Range<float> value_range(std::span<const float> v);
Range<double> value_range(std::span<const double> v);

/// The absolute L∞ bound that a relative bound means for data spanning
/// `range`: rel_eb × extent. A constant field (zero extent) falls back to
/// rel_eb × max(1, |lo|), since any positive bin reproduces it. Every
/// error-bounded codec derives its bound here, so they all agree on what
/// "relative" means.
template <class T>
double abs_error_bound(const Range<T>& range, double rel_eb) {
  double abs_eb = rel_eb * static_cast<double>(range.extent());
  if (abs_eb <= 0)
    abs_eb = rel_eb * std::max(1.0, std::abs(double(range.lo)));
  return abs_eb;
}

/// Stream dtype byte shared by the codec headers: 0 = f32, 1 = f64.
template <class T>
constexpr std::uint8_t dtype_of() {
  return sizeof(T) == 4 ? 0 : 1;
}

/// original_bytes / compressed_bytes; 0 if compressed is empty.
inline double compression_ratio(std::size_t original_bytes,
                                std::size_t compressed_bytes) {
  return compressed_bytes == 0
             ? 0.0
             : static_cast<double>(original_bytes) /
                   static_cast<double>(compressed_bytes);
}

/// Shannon entropy (bits/symbol) of a byte histogram — used by tests to
/// sanity-check the synthetic dataset generators.
double shannon_entropy_bits(std::span<const std::size_t> histogram);

}  // namespace hpdr

#endif  // HPDR_CORE_STATS_HPP
