// Out-of-line serialization helpers (the stream classes are header-only).
#include "core/bitstream.hpp"

namespace hpdr {

Shape get_shape(ByteReader& in, std::size_t expect_size, const char* what) {
  constexpr std::size_t kMaxElements = std::size_t{1} << 40;
  const std::size_t rank = in.get_u8();
  HPDR_REQUIRE(rank >= 1 && rank <= kMaxRank, "corrupt " << what << " rank");
  Shape shape = Shape::of_rank(rank);
  std::size_t n = 1;
  for (std::size_t d = 0; d < rank; ++d) {
    shape[d] = in.get_varint();
    HPDR_REQUIRE(shape[d] >= 1 && shape[d] <= kMaxElements / n,
                 "implausible " << what << " tensor size");
    n *= shape[d];
  }
  HPDR_REQUIRE(expect_size == 0 || n == expect_size,
               what << " stream holds " << n << " elements, expected "
                    << expect_size);
  return shape;
}

}  // namespace hpdr
