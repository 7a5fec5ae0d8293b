// cuSZ dual-quantization codec (see sz.hpp).
#include <algorithm>
#include <cmath>
#include <cstring>

#include "adapter/abstractions.hpp"
#include "algorithms/huffman/huffman.hpp"
#include "algorithms/sz/sz.hpp"
#include "core/bitstream.hpp"
#include "core/error.hpp"
#include "core/isa.hpp"
#include "core/stats.hpp"

#if HPDR_ISA_X86
#include <immintrin.h>
#endif

namespace hpdr::sz {
namespace {

constexpr std::uint8_t kMagic = 0x44;  // 'D'
constexpr std::uint8_t kVersion = 1;
using detail::kAlphabet;
using detail::kMaxPrequant;
using detail::kRadius;

template <class T>
constexpr std::uint8_t dtype_of() {
  return sizeof(T) == 4 ? 0 : 1;
}

Shape codec_shape(const Shape& s) {
  if (s.rank() <= 3) return s;
  return Shape{s[0] * s[1], s[2], s[3]};
}

/// Row geometry shared by the row-wise Lorenzo passes: treat the tensor as
/// `rows` rows of `nk` contiguous elements (nk = fastest dimension).
struct RowGeom {
  std::size_t nk;     ///< row length (fastest dimension)
  std::size_t nj;     ///< rows per plane (1 unless rank >= 2)
  std::size_t nrows;  ///< total rows
  std::size_t rank;

  explicit RowGeom(const Shape& cs)
      : nk(cs[cs.rank() - 1]),
        nj(cs.rank() >= 2 ? cs[cs.rank() - 2] : 1),
        nrows(cs.size() / cs[cs.rank() - 1]),
        rank(cs.rank()) {}
};

}  // namespace

namespace detail {

namespace {

template <class T>
void prequantize_impl(const Device& dev, const T* data, std::size_t n,
                      double bin, double abs_eb, std::int64_t* P,
                      std::uint8_t* oob) {
  // Chunked so each Global work item amortizes dispatch over a cache-sized
  // run and the inner loop vectorizes (nearbyint and the double↔int64
  // casts all have vector forms).
  constexpr std::size_t kChunk = 4096;
  const std::size_t nchunks = (n + kChunk - 1) / kChunk;
  global_stage(dev, nchunks, [&](std::size_t c) {
    const std::size_t begin = c * kChunk;
    const std::size_t end = std::min(begin + kChunk, n);
#pragma omp simd
    for (std::size_t flat = begin; flat < end; ++flat) {
      const double x = static_cast<double>(data[flat]);
      const double q = std::nearbyint(x / bin);
      const std::int64_t Pq =
          std::isfinite(q) ? static_cast<std::int64_t>(
                                 std::clamp(q, -kMaxPrequant, kMaxPrequant))
                           : 0;
      P[flat] = Pq;
      const double rec_t = static_cast<double>(
          static_cast<T>(static_cast<double>(Pq) * bin));
      oob[flat] = !std::isfinite(q) || std::abs(q) > kMaxPrequant ||
                  std::abs(rec_t - x) > abs_eb;
    }
  });
}

/// Interior of one Lorenzo row (k in [1, nk)): 7-term stencil, residual
/// range check, symbol emission. The k = 0 column stays in the caller (its
/// stencil is different). Dispatched per ISA level; every variant computes
/// the exact integer sequence of the scalar loop, so symbol streams are
/// byte-identical across levels.
using LorenzoRowFn = void (*)(const std::int64_t* cur, const std::int64_t* up,
                              const std::int64_t* back,
                              const std::int64_t* upback,
                              const std::uint8_t* ob, std::uint32_t* sym,
                              std::size_t nk);

void lorenzo_row_scalar(const std::int64_t* cur, const std::int64_t* up,
                        const std::int64_t* back, const std::int64_t* upback,
                        const std::uint8_t* ob, std::uint32_t* sym,
                        std::size_t nk) {
  // Interior: full 7-term stencil from already-known lattice values —
  // pure reads of P, so the loop carries no dependence and vectorizes.
#pragma omp simd
  for (std::size_t k = 1; k < nk; ++k) {
    const std::int64_t pred = cur[k - 1] + up[k] + back[k] - up[k - 1] -
                              back[k - 1] - upback[k] + upback[k - 1];
    const std::int64_t r = cur[k] - pred;
    sym[k] = (ob[k] || r < -kRadius || r > kRadius)
                 ? 0u
                 : static_cast<std::uint32_t>(r + kRadius + 1);
  }
}

#if HPDR_ISA_X86

HPDR_ISA_TARGET_AVX2 inline __m256i loadu256(const std::int64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

HPDR_ISA_TARGET_AVX2 void lorenzo_row_avx2(
    const std::int64_t* cur, const std::int64_t* up, const std::int64_t* back,
    const std::int64_t* upback, const std::uint8_t* ob, std::uint32_t* sym,
    std::size_t nk) {
  const __m256i lo = _mm256_set1_epi64x(-kRadius);
  const __m256i hi = _mm256_set1_epi64x(kRadius);
  const __m256i bias = _mm256_set1_epi64x(kRadius + 1);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i pack_idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  std::size_t k = 1;
  for (; k + 4 <= nk; k += 4) {
    __m256i pred = _mm256_add_epi64(loadu256(cur + k - 1), loadu256(up + k));
    pred = _mm256_add_epi64(pred, loadu256(back + k));
    pred = _mm256_sub_epi64(pred, loadu256(up + k - 1));
    pred = _mm256_sub_epi64(pred, loadu256(back + k - 1));
    pred = _mm256_sub_epi64(pred, loadu256(upback + k));
    pred = _mm256_add_epi64(pred, loadu256(upback + k - 1));
    const __m256i r = _mm256_sub_epi64(loadu256(cur + k), pred);
    // In-range and not-an-outlier lanes keep r + kRadius + 1; others get 0.
    std::uint32_t ob4 = 0;
    std::memcpy(&ob4, ob + k, 4);
    const __m256i obq =
        _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(ob4)));
    const __m256i ob_zero = _mm256_cmpeq_epi64(obq, zero);
    const __m256i out_lo = _mm256_cmpgt_epi64(lo, r);
    const __m256i out_hi = _mm256_cmpgt_epi64(r, hi);
    const __m256i good =
        _mm256_andnot_si256(_mm256_or_si256(out_lo, out_hi), ob_zero);
    const __m256i sym64 = _mm256_and_si256(good, _mm256_add_epi64(r, bias));
    // Narrow 4×i64 → 4×i32 and store 16 bytes.
    const __m256i packed = _mm256_permutevar8x32_epi32(sym64, pack_idx);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(sym + k),
                     _mm256_castsi256_si128(packed));
  }
  for (; k < nk; ++k) {
    const std::int64_t pred = cur[k - 1] + up[k] + back[k] - up[k - 1] -
                              back[k - 1] - upback[k] + upback[k - 1];
    const std::int64_t r = cur[k] - pred;
    sym[k] = (ob[k] || r < -kRadius || r > kRadius)
                 ? 0u
                 : static_cast<std::uint32_t>(r + kRadius + 1);
  }
}

HPDR_ISA_TARGET_AVX512 void lorenzo_row_avx512(
    const std::int64_t* cur, const std::int64_t* up, const std::int64_t* back,
    const std::int64_t* upback, const std::uint8_t* ob, std::uint32_t* sym,
    std::size_t nk) {
  const __m512i lo = _mm512_set1_epi64(-kRadius);
  const __m512i hi = _mm512_set1_epi64(kRadius);
  const __m512i bias = _mm512_set1_epi64(kRadius + 1);
  const __m512i zero = _mm512_setzero_si512();
  std::size_t k = 1;
  for (; k + 8 <= nk; k += 8) {
    __m512i pred =
        _mm512_add_epi64(_mm512_loadu_si512(cur + k - 1), _mm512_loadu_si512(up + k));
    pred = _mm512_add_epi64(pred, _mm512_loadu_si512(back + k));
    pred = _mm512_sub_epi64(pred, _mm512_loadu_si512(up + k - 1));
    pred = _mm512_sub_epi64(pred, _mm512_loadu_si512(back + k - 1));
    pred = _mm512_sub_epi64(pred, _mm512_loadu_si512(upback + k));
    pred = _mm512_add_epi64(pred, _mm512_loadu_si512(upback + k - 1));
    const __m512i r = _mm512_sub_epi64(_mm512_loadu_si512(cur + k), pred);
    // maskz forms: GCC's plain cvt intrinsics route through
    // _mm512_undefined_epi32 and trip -Wmaybe-uninitialized under -Werror.
    const __m512i obq = _mm512_maskz_cvtepu8_epi64(
        static_cast<__mmask8>(-1),
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(ob + k)));
    const __mmask8 good = _mm512_cmpeq_epi64_mask(obq, zero) &
                          _mm512_cmple_epi64_mask(lo, r) &
                          _mm512_cmple_epi64_mask(r, hi);
    const __m512i sym64 = _mm512_maskz_add_epi64(good, r, bias);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sym + k),
                        _mm512_maskz_cvtepi64_epi32(static_cast<__mmask8>(-1), sym64));
  }
  for (; k < nk; ++k) {
    const std::int64_t pred = cur[k - 1] + up[k] + back[k] - up[k - 1] -
                              back[k - 1] - upback[k] + upback[k - 1];
    const std::int64_t r = cur[k] - pred;
    sym[k] = (ob[k] || r < -kRadius || r > kRadius)
                 ? 0u
                 : static_cast<std::uint32_t>(r + kRadius + 1);
  }
}

#endif  // HPDR_ISA_X86

const isa::Table<LorenzoRowFn> kLorenzoRow = {
    lorenzo_row_scalar,
#if HPDR_ISA_X86
    lorenzo_row_avx2, lorenzo_row_avx512,
#else
    nullptr, nullptr,
#endif
    // NEON slot: the scalar loop autovectorizes well on AArch64 (no 64-bit
    // lane-narrowing quirks to work around), so it doubles as the neon path.
    nullptr,
};

}  // namespace

void prequantize(const Device& dev, const float* data, std::size_t n,
                 double bin, double abs_eb, std::int64_t* P,
                 std::uint8_t* oob) {
  prequantize_impl(dev, data, n, bin, abs_eb, P, oob);
}
void prequantize(const Device& dev, const double* data, std::size_t n,
                 double bin, double abs_eb, std::int64_t* P,
                 std::uint8_t* oob) {
  prequantize_impl(dev, data, n, bin, abs_eb, P, oob);
}

void lorenzo_residuals(const Device& dev, const std::int64_t* P,
                       const std::uint8_t* oob, const Shape& cs,
                       std::uint32_t* symbols) {
  const RowGeom g(cs);
  // Missing neighbour rows (domain border) read from a shared zero row, so
  // the inner loop is branch-free and identical for every row.
  const std::vector<std::int64_t> zeros(g.nk, 0);
  global_stage(dev, g.nrows, [&](std::size_t row) {
    const std::size_t j = g.rank >= 2 ? row % g.nj : 0;
    const std::size_t i = g.rank >= 3 ? row / g.nj : 0;
    const std::int64_t* cur = P + row * g.nk;
    const std::int64_t* up =
        (g.rank >= 2 && j > 0) ? cur - g.nk : zeros.data();
    const std::int64_t* back =
        (g.rank >= 3 && i > 0) ? cur - g.nj * g.nk : zeros.data();
    const std::int64_t* upback = (g.rank >= 3 && i > 0 && j > 0)
                                     ? cur - g.nj * g.nk - g.nk
                                     : zeros.data();
    const std::uint8_t* ob = oob + row * g.nk;
    std::uint32_t* sym = symbols + row * g.nk;
    // k = 0: the k−1 terms of the Lorenzo stencil drop out.
    {
      const std::int64_t r = cur[0] - (up[0] + back[0] - upback[0]);
      sym[0] = (ob[0] || r < -kRadius || r > kRadius)
                   ? 0u
                   : static_cast<std::uint32_t>(r + kRadius + 1);
    }
    kLorenzoRow.get()(cur, up, back, upback, ob, sym, g.nk);
  });
}

}  // namespace detail

namespace {

template <class T>
std::vector<std::uint8_t> compress_impl(const Device& dev,
                                        NDView<const T> data,
                                        double rel_eb) {
  HPDR_REQUIRE(data.size() > 0, "empty input");
  HPDR_REQUIRE(rel_eb > 0, "error bound must be positive");
  const Shape orig = data.shape();
  const Shape cs = codec_shape(orig);
  const auto range = value_range(data.span());
  double abs_eb = rel_eb * static_cast<double>(range.extent());
  if (abs_eb <= 0)
    abs_eb = rel_eb * std::max(1.0, std::abs(double(range.lo)));
  const double bin = 2.0 * abs_eb;

  // Phase 1 (prequantization) — embarrassingly parallel, Global
  // abstraction. Every element gets a lattice value P even when it will be
  // stored as an outlier: P is derived from the exact value by a rule the
  // decoder reproduces bit-for-bit (it holds the same exact value), so
  // neighbours' predictions agree on both sides no matter why an element
  // became an outlier.
  const std::size_t n = cs.size();
  std::vector<std::int64_t> P(n);
  std::vector<std::uint8_t> oob(n, 0);
  detail::prequantize(dev, data.data(), n, bin, abs_eb, P.data(),
                      oob.data());

  // Phase 2 (integer Lorenzo residuals) — also fully parallel, since P is
  // already known everywhere; no error feedback loop. Row-wise SIMD kernel.
  std::vector<std::uint32_t> symbols(n);
  detail::lorenzo_residuals(dev, P.data(), oob.data(), cs, symbols.data());
  // Outliers gathered sequentially (rare path; keeps the parallel stage
  // race free).
  std::vector<std::pair<std::uint64_t, T>> outliers;
  for (std::size_t flat = 0; flat < n; ++flat)
    if (symbols[flat] == 0) outliers.emplace_back(flat, data.data()[flat]);

  ByteWriter out;
  out.put_u8(kMagic);
  out.put_u8(kVersion);
  out.put_u8(dtype_of<T>());
  out.put_u8(static_cast<std::uint8_t>(orig.rank()));
  for (std::size_t d = 0; d < orig.rank(); ++d) out.put_varint(orig[d]);
  out.put_f64(abs_eb);
  out.put_varint(outliers.size());
  for (auto [pos, val] : outliers) {
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
NDArray<T> decompress_impl(const Device& dev,
                           std::span<const std::uint8_t> stream) {
  ByteReader in(stream);
  HPDR_REQUIRE(in.get_u8() == kMagic, "not a dual-quant SZ stream");
  HPDR_REQUIRE(in.get_u8() == kVersion, "dual-quant stream version");
  HPDR_REQUIRE(in.get_u8() == dtype_of<T>(), "dual-quant dtype mismatch");
  const std::size_t rank0 = in.get_u8();
  HPDR_REQUIRE(rank0 >= 1 && rank0 <= kMaxRank, "corrupt rank");
  Shape orig = Shape::of_rank(rank0);
  for (std::size_t d = 0; d < rank0; ++d) orig[d] = in.get_varint();
  HPDR_REQUIRE(orig.size() > 0 && orig.size() <= (std::size_t{1} << 40),
               "implausible tensor size");
  const double abs_eb = in.get_f64();
  const double bin = 2.0 * abs_eb;
  const std::size_t n_outliers = in.get_varint();
  HPDR_REQUIRE(n_outliers <= orig.size(), "implausible outlier count");
  std::vector<std::uint8_t> oob(orig.size(), 0);
  std::vector<T> oob_val(n_outliers ? orig.size() : 0);
  for (std::size_t o = 0; o < n_outliers; ++o) {
    const std::size_t pos = in.get_varint();
    HPDR_REQUIRE(pos < orig.size(), "outlier out of range");
    const std::uint64_t bits = in.get_varint();
    oob[pos] = 1;
    std::memcpy(&oob_val[pos], &bits, sizeof(T));
  }
  const std::size_t blob_size = in.get_varint();
  const auto symbols = huffman::decode_u32(dev, in.get_bytes(blob_size));
  const Shape cs = codec_shape(orig);
  HPDR_REQUIRE(symbols.size() == cs.size(), "symbol count mismatch");

  // Rebuild P with a raster scan: each element's Lorenzo neighbours have
  // strictly smaller raster indices, so one forward pass suffices. The
  // scan is inherently sequential (each element predicts from its left
  // neighbour), but walking it row-wise hoists the neighbour-row pointers
  // and removes the per-element coordinate div/mod of the naive loop.
  NDArray<T> result(orig);
  std::vector<std::int64_t> P(cs.size());
  const RowGeom g(cs);
  const std::vector<std::int64_t> zeros(g.nk, 0);
  for (std::size_t row = 0; row < g.nrows; ++row) {
    const std::size_t j = g.rank >= 2 ? row % g.nj : 0;
    const std::size_t i = g.rank >= 3 ? row / g.nj : 0;
    std::int64_t* cur = P.data() + row * g.nk;
    const std::int64_t* up =
        (g.rank >= 2 && j > 0) ? cur - g.nk : zeros.data();
    const std::int64_t* back =
        (g.rank >= 3 && i > 0) ? cur - g.nj * g.nk : zeros.data();
    const std::int64_t* upback = (g.rank >= 3 && i > 0 && j > 0)
                                     ? cur - g.nj * g.nk - g.nk
                                     : zeros.data();
    T* res = result.data() + row * g.nk;
    for (std::size_t k = 0; k < g.nk; ++k) {
      const std::size_t flat = row * g.nk + k;
      const std::uint32_t sym = symbols[flat];
      if (sym == 0) {
        HPDR_REQUIRE(oob[flat], "outlier marker without stored value");
        // Reproduce the encoder's lattice value from the exact stored
        // value.
        const double q =
            std::nearbyint(static_cast<double>(oob_val[flat]) / bin);
        cur[k] = std::isfinite(q)
                     ? static_cast<std::int64_t>(
                           std::clamp(q, -kMaxPrequant, kMaxPrequant))
                     : 0;
        res[k] = oob_val[flat];
      } else {
        std::int64_t pred = up[k] + back[k] - upback[k];
        if (k > 0)
          pred += cur[k - 1] - up[k - 1] - back[k - 1] + upback[k - 1];
        const std::int64_t r =
            static_cast<std::int64_t>(sym) - kRadius - 1;
        cur[k] = r + pred;
        res[k] = static_cast<T>(static_cast<double>(cur[k]) * bin);
      }
    }
  }
  return result;
}

}  // namespace

std::vector<std::uint8_t> compress_dualquant(const Device& dev,
                                             NDView<const float> data,
                                             double rel_eb) {
  return compress_impl(dev, data, rel_eb);
}
std::vector<std::uint8_t> compress_dualquant(const Device& dev,
                                             NDView<const double> data,
                                             double rel_eb) {
  return compress_impl(dev, data, rel_eb);
}
NDArray<float> decompress_dualquant_f32(
    const Device& dev, std::span<const std::uint8_t> stream) {
  return decompress_impl<float>(dev, stream);
}
NDArray<double> decompress_dualquant_f64(
    const Device& dev, std::span<const std::uint8_t> stream) {
  return decompress_impl<double>(dev, stream);
}

}  // namespace hpdr::sz
