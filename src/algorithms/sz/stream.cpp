#include "algorithms/sz/stream.hpp"

#include <cstring>

#include "algorithms/huffman/huffman.hpp"
#include "algorithms/sz/sz.hpp"
#include "core/bitstream.hpp"
#include "core/error.hpp"
#include "core/stats.hpp"

namespace hpdr::sz::detail {
namespace {

constexpr std::uint8_t kVersion = 1;

}  // namespace

template <class T>
std::vector<std::uint8_t> write_stream(const Device& dev, std::uint8_t magic,
                                       const Shape& shape, double abs_eb,
                                       std::span<const Outlier<T>> outliers,
                                       std::span<const std::uint32_t> symbols) {
  ByteWriter out;
  out.put_u8(magic);
  out.put_u8(kVersion);
  out.put_u8(dtype_of<T>());
  out.put_u8(static_cast<std::uint8_t>(shape.rank()));
  for (std::size_t d = 0; d < shape.rank(); ++d) out.put_varint(shape[d]);
  out.put_f64(abs_eb);
  out.put_varint(outliers.size());
  for (const auto& [pos, val] : outliers) {
    out.put_varint(pos);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &val, sizeof(T));
    out.put_varint(bits);
  }
  const auto blob = huffman::encode_u32(dev, symbols, kAlphabet);
  out.put_varint(blob.size());
  out.put_bytes(blob);
  return out.take();
}

template <class T>
Stream<T> read_stream(const Device& dev, std::uint8_t magic, const char* what,
                      std::span<const std::uint8_t> bytes,
                      std::size_t expect_size) {
  ByteReader in(bytes);
  HPDR_REQUIRE(in.get_u8() == magic, what << " stream magic mismatch");
  HPDR_REQUIRE(in.get_u8() == kVersion, what << " stream version");
  HPDR_REQUIRE(in.get_u8() == dtype_of<T>(), what << " dtype mismatch");
  Stream<T> s;
  s.shape = get_shape(in, expect_size, what);
  const std::size_t n = s.shape.size();
  s.abs_eb = in.get_f64();
  const std::size_t n_outliers = in.get_varint();
  HPDR_REQUIRE(n_outliers <= n, "implausible outlier count");
  s.is_outlier.assign(n, 0);
  s.outlier_value.resize(n_outliers ? n : 0);
  for (std::size_t o = 0; o < n_outliers; ++o) {
    const std::size_t pos = in.get_varint();
    HPDR_REQUIRE(pos < n, "outlier out of range");
    const std::uint64_t bits = in.get_varint();
    s.is_outlier[pos] = 1;
    std::memcpy(&s.outlier_value[pos], &bits, sizeof(T));
  }
  const std::size_t blob_size = in.get_varint();
  s.symbols = huffman::decode_u32(dev, in.get_bytes(blob_size));
  HPDR_REQUIRE(s.symbols.size() == n, "symbol count mismatch");
  return s;
}

#define HPDR_SZ_STREAM_INSTANTIATE(T)                                       \
  template std::vector<std::uint8_t> write_stream<T>(                       \
      const Device&, std::uint8_t, const Shape&, double,                    \
      std::span<const Outlier<T>>, std::span<const std::uint32_t>);         \
  template Stream<T> read_stream<T>(const Device&, std::uint8_t,            \
                                    const char*,                            \
                                    std::span<const std::uint8_t>,          \
                                    std::size_t);
HPDR_SZ_STREAM_INSTANTIATE(float)
HPDR_SZ_STREAM_INSTANTIATE(double)
#undef HPDR_SZ_STREAM_INSTANTIATE

}  // namespace hpdr::sz::detail
