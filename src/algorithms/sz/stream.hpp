#ifndef HPDR_ALGORITHMS_SZ_STREAM_HPP
#define HPDR_ALGORITHMS_SZ_STREAM_HPP

/// \file stream.hpp
/// Stream backend shared by the SZ-family codecs: dual-quant (`cusz`,
/// magic 'D') and interpolation (`sz3-interp`, magic 'I'). Both predictors
/// reduce a tensor to quantization symbols in which 0 marks an outlier
/// stored exactly, and both frame them the same way (version 1):
///
///   u8 magic | u8 version | u8 dtype | u8 rank | rank × varint dim
///   | f64 abs_eb | varint n_outliers | n_outliers × (varint pos, varint bits)
///   | varint blob size | huffman::encode_u32 blob of the symbols
///
/// `bits` are the outlier value's raw IEEE bits. Outliers are written in
/// the caller's order — ascending raster positions for dual-quant,
/// traversal order for interp — and the reader accepts any order.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "adapter/device.hpp"
#include "core/shape.hpp"

namespace hpdr::sz::detail {

/// A symbol-0 element: flat position and its exact value.
template <class T>
using Outlier = std::pair<std::uint64_t, T>;

template <class T>
std::vector<std::uint8_t> write_stream(const Device& dev, std::uint8_t magic,
                                       const Shape& shape, double abs_eb,
                                       std::span<const Outlier<T>> outliers,
                                       std::span<const std::uint32_t> symbols);

/// A parsed stream: the outliers come back as a dense mask plus dense
/// values over the tensor (`outlier_value` is empty when there are none).
template <class T>
struct Stream {
  Shape shape;
  double abs_eb = 0.0;
  std::vector<std::uint8_t> is_outlier;
  std::vector<T> outlier_value;
  std::vector<std::uint32_t> symbols;  ///< one per element
};

/// Parse a stream written with `magic`; `what` names the codec in errors.
/// A non-zero `expect_size` is the element count the caller will accept: a
/// header claiming any other count is rejected before anything is
/// allocated from it.
template <class T>
Stream<T> read_stream(const Device& dev, std::uint8_t magic, const char* what,
                      std::span<const std::uint8_t> bytes,
                      std::size_t expect_size);

}  // namespace hpdr::sz::detail

#endif  // HPDR_ALGORITHMS_SZ_STREAM_HPP
