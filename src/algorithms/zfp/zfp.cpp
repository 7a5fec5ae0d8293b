#include "algorithms/zfp/zfp.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <mutex>
#include <numeric>

#include "adapter/abstractions.hpp"
#include "core/bitstream.hpp"
#include "core/error.hpp"
#include "core/isa.hpp"

#if HPDR_ISA_X86
#include <immintrin.h>
#endif
#if HPDR_ISA_NEON
#include <arm_neon.h>
#endif

namespace hpdr::zfp {
namespace detail {

void fwd_lift4(std::int64_t* p, std::size_t s) {
  // Two-level integer S-transform: exactly invertible, near-orthogonal.
  // Level 1 on pairs (p0,p1), (p2,p3): mean + difference.
  std::int64_t a0 = p[0], b0 = p[s], a1 = p[2 * s], b1 = p[3 * s];
  const std::int64_t d0 = b0 - a0;
  a0 += d0 >> 1;
  const std::int64_t d1 = b1 - a1;
  a1 += d1 >> 1;
  // Level 2 on the two means.
  const std::int64_t D = a1 - a0;
  const std::int64_t A = a0 + (D >> 1);
  p[0] = A;      // lowest frequency
  p[s] = D;      // mid
  p[2 * s] = d0; // high
  p[3 * s] = d1; // high
}

void inv_lift4(std::int64_t* p, std::size_t s) {
  const std::int64_t A = p[0], D = p[s], d0 = p[2 * s], d1 = p[3 * s];
  std::int64_t a0 = A - (D >> 1);
  std::int64_t a1 = D + a0;
  std::int64_t x0 = a0 - (d0 >> 1);
  std::int64_t x1 = d0 + x0;
  std::int64_t x2 = a1 - (d1 >> 1);
  std::int64_t x3 = d1 + x2;
  p[0] = x0;
  p[s] = x1;
  p[2 * s] = x2;
  p[3 * s] = x3;
}

namespace {

constexpr std::uint64_t kNbMask = 0xaaaaaaaaaaaaaaaaull;

/// `kLanes` independent 4-point lifts, lane l operating on elements
/// p[l + j*s] for j = 0..3. Lanes are contiguous in memory, so the lane
/// loop vectorizes to plain vector loads/stores (the block never exceeds
/// 64 values — all of it sits in registers/L1). The arithmetic is the
/// exact integer sequence of fwd_lift4, so results are bit-identical.
template <int kLanes>
inline void fwd_lift_lanes(std::int64_t* p, std::size_t s) {
#pragma omp simd
  for (int l = 0; l < kLanes; ++l) {
    std::int64_t a0 = p[l], b0 = p[l + s];
    std::int64_t a1 = p[l + 2 * s], b1 = p[l + 3 * s];
    const std::int64_t d0 = b0 - a0;
    a0 += d0 >> 1;
    const std::int64_t d1 = b1 - a1;
    a1 += d1 >> 1;
    const std::int64_t D = a1 - a0;
    p[l] = a0 + (D >> 1);
    p[l + s] = D;
    p[l + 2 * s] = d0;
    p[l + 3 * s] = d1;
  }
}

template <int kLanes>
inline void inv_lift_lanes(std::int64_t* p, std::size_t s) {
#pragma omp simd
  for (int l = 0; l < kLanes; ++l) {
    const std::int64_t A = p[l], D = p[l + s];
    const std::int64_t d0 = p[l + 2 * s], d1 = p[l + 3 * s];
    const std::int64_t a0 = A - (D >> 1);
    const std::int64_t a1 = D + a0;
    const std::int64_t x0 = a0 - (d0 >> 1);
    const std::int64_t x2 = a1 - (d1 >> 1);
    p[l] = x0;
    p[l + s] = d0 + x0;
    p[l + 2 * s] = x2;
    p[l + 3 * s] = d1 + x2;
  }
}

}  // namespace

std::uint64_t to_negabinary(std::int64_t x) {
  return (static_cast<std::uint64_t>(x) + kNbMask) ^ kNbMask;
}

std::int64_t from_negabinary(std::uint64_t u) {
  return static_cast<std::int64_t>((u ^ kNbMask) - kNbMask);
}

std::span<const std::uint16_t> sequency_order(std::size_t rank) {
  HPDR_REQUIRE(rank >= 1 && rank <= 3, "zfp codec rank must be 1..3");
  static std::array<std::vector<std::uint16_t>, 4> tables;
  static std::once_flag once;
  std::call_once(once, [] {
    // Per-axis frequency weight of the transform output positions
    // [A, D, d0, d1] → weights 0,1,2,2 (d0/d1 are both high frequency).
    constexpr int w[4] = {0, 1, 2, 2};
    for (std::size_t r = 1; r <= 3; ++r) {
      const std::size_t n = std::size_t{1} << (2 * r);  // 4^r
      std::vector<std::uint16_t> idx(n);
      std::iota(idx.begin(), idx.end(), 0);
      auto weight = [&](std::uint16_t i) {
        int total = 0;
        for (std::size_t d = 0; d < r; ++d) {
          total += w[i & 3];
          i >>= 2;
        }
        return total;
      };
      std::stable_sort(idx.begin(), idx.end(),
                       [&](std::uint16_t a, std::uint16_t b) {
                         return weight(a) < weight(b);
                       });
      tables[r] = std::move(idx);
    }
  });
  return tables[rank];
}

namespace {

// ---------------------------------------------------------------------------
// Scalar dispatch slot: the PR 5 layout (unit-stride rows serial, contiguous
// lanes autovectorized with `omp simd`). Retained verbatim as the
// differential-test reference for the intrinsic variants below.
// ---------------------------------------------------------------------------

void fwd_transform_scalar(std::int64_t* q, std::size_t rank) {
  // The along-row pass has unit stride per lift (good scalar ILP); the
  // cross-row/cross-plane passes have contiguous *lanes*, so they run as
  // lane-parallel SIMD lifts. Same integer ops in the same per-lift order
  // as serial fwd_lift4 — streams stay byte-identical.
  if (rank == 1) {
    fwd_lift4(q, 1);
    return;
  }
  if (rank == 2) {
    for (std::size_t i = 0; i < 4; ++i) fwd_lift4(q + 4 * i, 1);
    fwd_lift_lanes<4>(q, 4);
    return;
  }
  for (std::size_t i = 0; i < 16; ++i) fwd_lift4(q + 4 * i, 1);
  for (std::size_t i = 0; i < 4; ++i) fwd_lift_lanes<4>(q + 16 * i, 4);
  fwd_lift_lanes<16>(q, 16);
}

void inv_transform_scalar(std::int64_t* q, std::size_t rank) {
  if (rank == 1) {
    inv_lift4(q, 1);
    return;
  }
  if (rank == 2) {
    inv_lift_lanes<4>(q, 4);
    for (std::size_t i = 0; i < 4; ++i) inv_lift4(q + 4 * i, 1);
    return;
  }
  inv_lift_lanes<16>(q, 16);
  for (std::size_t i = 0; i < 4; ++i) inv_lift_lanes<4>(q + 16 * i, 4);
  for (std::size_t i = 0; i < 16; ++i) inv_lift4(q + 4 * i, 1);
}

#if HPDR_ISA_X86

// ---------------------------------------------------------------------------
// AVX2 slot. AVX2 has no 64-bit arithmetic right shift, so `x >> 1` is
// emulated as a logical shift with the sign bit re-inserted — bit-identical
// to the scalar `>> 1` for every int64 value.
// ---------------------------------------------------------------------------

HPDR_ISA_TARGET_AVX2 inline __m256i srai1_epi64_avx2(__m256i x) {
  const __m256i sign = _mm256_cmpgt_epi64(_mm256_setzero_si256(), x);
  return _mm256_or_si256(_mm256_srli_epi64(x, 1), _mm256_slli_epi64(sign, 63));
}

/// Four independent 4-point forward lifts, lane l on p[l + j*s], j = 0..3.
HPDR_ISA_TARGET_AVX2 inline void fwd_lift4x4_avx2(std::int64_t* p,
                                                  std::size_t s) {
  __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + s));
  __m256i a1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 2 * s));
  __m256i b1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 3 * s));
  const __m256i d0 = _mm256_sub_epi64(b0, a0);
  a0 = _mm256_add_epi64(a0, srai1_epi64_avx2(d0));
  const __m256i d1 = _mm256_sub_epi64(b1, a1);
  a1 = _mm256_add_epi64(a1, srai1_epi64_avx2(d1));
  const __m256i D = _mm256_sub_epi64(a1, a0);
  const __m256i A = _mm256_add_epi64(a0, srai1_epi64_avx2(D));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), A);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + s), D);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + 2 * s), d0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + 3 * s), d1);
}

HPDR_ISA_TARGET_AVX2 inline void inv_lift4x4_avx2(std::int64_t* p,
                                                  std::size_t s) {
  const __m256i A = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  const __m256i D = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + s));
  const __m256i d0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 2 * s));
  const __m256i d1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 3 * s));
  const __m256i a0 = _mm256_sub_epi64(A, srai1_epi64_avx2(D));
  const __m256i a1 = _mm256_add_epi64(D, a0);
  const __m256i x0 = _mm256_sub_epi64(a0, srai1_epi64_avx2(d0));
  const __m256i x2 = _mm256_sub_epi64(a1, srai1_epi64_avx2(d1));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), x0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + s), _mm256_add_epi64(d0, x0));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + 2 * s), x2);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + 3 * s),
                      _mm256_add_epi64(d1, x2));
}

HPDR_ISA_TARGET_AVX2 void fwd_transform_avx2(std::int64_t* q,
                                             std::size_t rank) {
  if (rank == 1) {
    fwd_lift4(q, 1);
    return;
  }
  if (rank == 2) {
    for (std::size_t i = 0; i < 4; ++i) fwd_lift4(q + 4 * i, 1);
    fwd_lift4x4_avx2(q, 4);
    return;
  }
  for (std::size_t i = 0; i < 16; ++i) fwd_lift4(q + 4 * i, 1);
  for (std::size_t i = 0; i < 4; ++i) fwd_lift4x4_avx2(q + 16 * i, 4);
  // The 16-lane cross-plane pass: lanes 4c..4c+3 at stride 16.
  for (std::size_t c = 0; c < 4; ++c) fwd_lift4x4_avx2(q + 4 * c, 16);
}

HPDR_ISA_TARGET_AVX2 void inv_transform_avx2(std::int64_t* q,
                                             std::size_t rank) {
  if (rank == 1) {
    inv_lift4(q, 1);
    return;
  }
  if (rank == 2) {
    inv_lift4x4_avx2(q, 4);
    for (std::size_t i = 0; i < 4; ++i) inv_lift4(q + 4 * i, 1);
    return;
  }
  for (std::size_t c = 0; c < 4; ++c) inv_lift4x4_avx2(q + 4 * c, 16);
  for (std::size_t i = 0; i < 4; ++i) inv_lift4x4_avx2(q + 16 * i, 4);
  for (std::size_t i = 0; i < 16; ++i) inv_lift4(q + 4 * i, 1);
}

// ---------------------------------------------------------------------------
// AVX-512 slot: native 64-bit arithmetic shifts, 8 lanes per vector for the
// 16-lane cross-plane pass, 256-bit VL forms for the 4-lane passes.
// ---------------------------------------------------------------------------

HPDR_ISA_TARGET_AVX512 inline __m512i srai1_epi64_avx512(__m512i x) {
  // maskz form: GCC's plain _mm512_srai_epi64 routes through
  // _mm512_undefined_epi32 and trips -Wmaybe-uninitialized under -Werror.
  return _mm512_maskz_srai_epi64(static_cast<__mmask8>(-1), x, 1);
}

HPDR_ISA_TARGET_AVX512 inline void fwd_lift8x8_avx512(std::int64_t* p,
                                                      std::size_t s) {
  __m512i a0 = _mm512_loadu_si512(p);
  __m512i b0 = _mm512_loadu_si512(p + s);
  __m512i a1 = _mm512_loadu_si512(p + 2 * s);
  __m512i b1 = _mm512_loadu_si512(p + 3 * s);
  const __m512i d0 = _mm512_sub_epi64(b0, a0);
  a0 = _mm512_add_epi64(a0, srai1_epi64_avx512(d0));
  const __m512i d1 = _mm512_sub_epi64(b1, a1);
  a1 = _mm512_add_epi64(a1, srai1_epi64_avx512(d1));
  const __m512i D = _mm512_sub_epi64(a1, a0);
  const __m512i A = _mm512_add_epi64(a0, srai1_epi64_avx512(D));
  _mm512_storeu_si512(p, A);
  _mm512_storeu_si512(p + s, D);
  _mm512_storeu_si512(p + 2 * s, d0);
  _mm512_storeu_si512(p + 3 * s, d1);
}

HPDR_ISA_TARGET_AVX512 inline void inv_lift8x8_avx512(std::int64_t* p,
                                                      std::size_t s) {
  const __m512i A = _mm512_loadu_si512(p);
  const __m512i D = _mm512_loadu_si512(p + s);
  const __m512i d0 = _mm512_loadu_si512(p + 2 * s);
  const __m512i d1 = _mm512_loadu_si512(p + 3 * s);
  const __m512i a0 = _mm512_sub_epi64(A, srai1_epi64_avx512(D));
  const __m512i a1 = _mm512_add_epi64(D, a0);
  const __m512i x0 = _mm512_sub_epi64(a0, srai1_epi64_avx512(d0));
  const __m512i x2 = _mm512_sub_epi64(a1, srai1_epi64_avx512(d1));
  _mm512_storeu_si512(p, x0);
  _mm512_storeu_si512(p + s, _mm512_add_epi64(d0, x0));
  _mm512_storeu_si512(p + 2 * s, x2);
  _mm512_storeu_si512(p + 3 * s, _mm512_add_epi64(d1, x2));
}

HPDR_ISA_TARGET_AVX512 inline void fwd_lift4x4_avx512(std::int64_t* p,
                                                      std::size_t s) {
  __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + s));
  __m256i a1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 2 * s));
  __m256i b1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 3 * s));
  const __m256i d0 = _mm256_sub_epi64(b0, a0);
  a0 = _mm256_add_epi64(a0, _mm256_srai_epi64(d0, 1));
  const __m256i d1 = _mm256_sub_epi64(b1, a1);
  a1 = _mm256_add_epi64(a1, _mm256_srai_epi64(d1, 1));
  const __m256i D = _mm256_sub_epi64(a1, a0);
  const __m256i A = _mm256_add_epi64(a0, _mm256_srai_epi64(D, 1));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), A);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + s), D);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + 2 * s), d0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + 3 * s), d1);
}

HPDR_ISA_TARGET_AVX512 inline void inv_lift4x4_avx512(std::int64_t* p,
                                                      std::size_t s) {
  const __m256i A = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  const __m256i D = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + s));
  const __m256i d0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 2 * s));
  const __m256i d1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 3 * s));
  const __m256i a0 = _mm256_sub_epi64(A, _mm256_srai_epi64(D, 1));
  const __m256i a1 = _mm256_add_epi64(D, a0);
  const __m256i x0 = _mm256_sub_epi64(a0, _mm256_srai_epi64(d0, 1));
  const __m256i x2 = _mm256_sub_epi64(a1, _mm256_srai_epi64(d1, 1));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), x0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + s), _mm256_add_epi64(d0, x0));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + 2 * s), x2);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + 3 * s),
                      _mm256_add_epi64(d1, x2));
}

HPDR_ISA_TARGET_AVX512 void fwd_transform_avx512(std::int64_t* q,
                                                 std::size_t rank) {
  if (rank == 1) {
    fwd_lift4(q, 1);
    return;
  }
  if (rank == 2) {
    for (std::size_t i = 0; i < 4; ++i) fwd_lift4(q + 4 * i, 1);
    fwd_lift4x4_avx512(q, 4);
    return;
  }
  for (std::size_t i = 0; i < 16; ++i) fwd_lift4(q + 4 * i, 1);
  for (std::size_t i = 0; i < 4; ++i) fwd_lift4x4_avx512(q + 16 * i, 4);
  fwd_lift8x8_avx512(q, 16);
  fwd_lift8x8_avx512(q + 8, 16);
}

HPDR_ISA_TARGET_AVX512 void inv_transform_avx512(std::int64_t* q,
                                                 std::size_t rank) {
  if (rank == 1) {
    inv_lift4(q, 1);
    return;
  }
  if (rank == 2) {
    inv_lift4x4_avx512(q, 4);
    for (std::size_t i = 0; i < 4; ++i) inv_lift4(q + 4 * i, 1);
    return;
  }
  inv_lift8x8_avx512(q, 16);
  inv_lift8x8_avx512(q + 8, 16);
  for (std::size_t i = 0; i < 4; ++i) inv_lift4x4_avx512(q + 16 * i, 4);
  for (std::size_t i = 0; i < 16; ++i) inv_lift4(q + 4 * i, 1);
}

#endif  // HPDR_ISA_X86

#if HPDR_ISA_NEON

// NEON slot: 2 int64 lanes per vector, vshrq_n_s64 is a native arithmetic
// shift. Two vectors cover each 4-lane pass.
inline void fwd_lift4x2_neon(std::int64_t* p, std::size_t s) {
  int64x2_t a0 = vld1q_s64(p);
  int64x2_t b0 = vld1q_s64(p + s);
  int64x2_t a1 = vld1q_s64(p + 2 * s);
  int64x2_t b1 = vld1q_s64(p + 3 * s);
  const int64x2_t d0 = vsubq_s64(b0, a0);
  a0 = vaddq_s64(a0, vshrq_n_s64(d0, 1));
  const int64x2_t d1 = vsubq_s64(b1, a1);
  a1 = vaddq_s64(a1, vshrq_n_s64(d1, 1));
  const int64x2_t D = vsubq_s64(a1, a0);
  const int64x2_t A = vaddq_s64(a0, vshrq_n_s64(D, 1));
  vst1q_s64(p, A);
  vst1q_s64(p + s, D);
  vst1q_s64(p + 2 * s, d0);
  vst1q_s64(p + 3 * s, d1);
}

inline void inv_lift4x2_neon(std::int64_t* p, std::size_t s) {
  const int64x2_t A = vld1q_s64(p);
  const int64x2_t D = vld1q_s64(p + s);
  const int64x2_t d0 = vld1q_s64(p + 2 * s);
  const int64x2_t d1 = vld1q_s64(p + 3 * s);
  const int64x2_t a0 = vsubq_s64(A, vshrq_n_s64(D, 1));
  const int64x2_t a1 = vaddq_s64(D, a0);
  const int64x2_t x0 = vsubq_s64(a0, vshrq_n_s64(d0, 1));
  const int64x2_t x2 = vsubq_s64(a1, vshrq_n_s64(d1, 1));
  vst1q_s64(p, x0);
  vst1q_s64(p + s, vaddq_s64(d0, x0));
  vst1q_s64(p + 2 * s, x2);
  vst1q_s64(p + 3 * s, vaddq_s64(d1, x2));
}

void fwd_transform_neon(std::int64_t* q, std::size_t rank) {
  if (rank == 1) {
    fwd_lift4(q, 1);
    return;
  }
  if (rank == 2) {
    for (std::size_t i = 0; i < 4; ++i) fwd_lift4(q + 4 * i, 1);
    fwd_lift4x2_neon(q, 4);
    fwd_lift4x2_neon(q + 2, 4);
    return;
  }
  for (std::size_t i = 0; i < 16; ++i) fwd_lift4(q + 4 * i, 1);
  for (std::size_t i = 0; i < 4; ++i) {
    fwd_lift4x2_neon(q + 16 * i, 4);
    fwd_lift4x2_neon(q + 16 * i + 2, 4);
  }
  for (std::size_t c = 0; c < 8; ++c) fwd_lift4x2_neon(q + 2 * c, 16);
}

void inv_transform_neon(std::int64_t* q, std::size_t rank) {
  if (rank == 1) {
    inv_lift4(q, 1);
    return;
  }
  if (rank == 2) {
    inv_lift4x2_neon(q, 4);
    inv_lift4x2_neon(q + 2, 4);
    for (std::size_t i = 0; i < 4; ++i) inv_lift4(q + 4 * i, 1);
    return;
  }
  for (std::size_t c = 0; c < 8; ++c) inv_lift4x2_neon(q + 2 * c, 16);
  for (std::size_t i = 0; i < 4; ++i) {
    inv_lift4x2_neon(q + 16 * i, 4);
    inv_lift4x2_neon(q + 16 * i + 2, 4);
  }
  for (std::size_t i = 0; i < 16; ++i) inv_lift4(q + 4 * i, 1);
}

#endif  // HPDR_ISA_NEON

const isa::Table<void (*)(std::int64_t*, std::size_t)> kFwdTransform = {
    fwd_transform_scalar,
#if HPDR_ISA_X86
    fwd_transform_avx2, fwd_transform_avx512,
#else
    nullptr, nullptr,
#endif
#if HPDR_ISA_NEON
    fwd_transform_neon,
#else
    nullptr,
#endif
};

const isa::Table<void (*)(std::int64_t*, std::size_t)> kInvTransform = {
    inv_transform_scalar,
#if HPDR_ISA_X86
    inv_transform_avx2, inv_transform_avx512,
#else
    nullptr, nullptr,
#endif
#if HPDR_ISA_NEON
    inv_transform_neon,
#else
    nullptr,
#endif
};

}  // namespace

void fwd_transform(std::int64_t* q, std::size_t rank) {
  kFwdTransform.get()(q, rank);
}

void inv_transform(std::int64_t* q, std::size_t rank) {
  kInvTransform.get()(q, rank);
}

}  // namespace detail

namespace {

constexpr std::uint8_t kMagic = 0x5A;  // 'Z'
constexpr std::uint8_t kVersion = 2;

template <class T>
struct Traits;

template <>
struct Traits<float> {
  static constexpr int precision = 28;  ///< fixed-point magnitude bits
  static constexpr unsigned ebits = 9;
  static constexpr int ebias = 256;
  static constexpr std::uint8_t dtype = 0;
};

template <>
struct Traits<double> {
  static constexpr int precision = 52;
  static constexpr unsigned ebits = 12;
  static constexpr int ebias = 2048;
  static constexpr std::uint8_t dtype = 1;
};

/// Codec geometry: fold rank-4 shapes into rank-3 (leading dims merge) and
/// keep folding while the leading dimension is thinner than a 4-block —
/// otherwise every block along it pads by replication and the fixed-rate
/// stream inflates by up to 4× (thin slabs are exactly what the chunked
/// pipeline produces).
Shape codec_shape(const Shape& s) {
  std::vector<std::size_t> dims;
  for (std::size_t d = 0; d < s.rank(); ++d) dims.push_back(s[d]);
  while (dims.size() > 3 || (dims.size() > 1 && dims[0] < 4)) {
    dims[1] *= dims[0];
    dims.erase(dims.begin());
  }
  Shape f = Shape::of_rank(dims.size());
  for (std::size_t d = 0; d < dims.size(); ++d) f[d] = dims[d];
  return f;
}

struct BlockGrid {
  Shape domain;                       // codec shape
  std::size_t rank;
  std::array<std::size_t, 3> nblocks{1, 1, 1};
  std::size_t total_blocks = 1;

  explicit BlockGrid(const Shape& s) : domain(s), rank(s.rank()) {
    total_blocks = 1;
    for (std::size_t d = 0; d < rank; ++d) {
      nblocks[d] = (s[d] + 3) / 4;
      total_blocks *= nblocks[d];
    }
  }

  std::size_t block_values() const { return std::size_t{1} << (2 * rank); }
};

/// Gather a (possibly clipped) 4^rank block, clamping reads at the domain
/// edge (ZFP's pad-by-replication).
template <class T>
void gather(const BlockGrid& g, const T* data, std::size_t bx, std::size_t by,
            std::size_t bz, T* block) {
  const std::size_t r = g.rank;
  std::size_t dim[3] = {1, 1, 1};
  for (std::size_t d = 0; d < r; ++d) dim[d] = g.domain[d];
  const std::size_t o0 = bx * 4, o1 = by * 4, o2 = bz * 4;
  std::size_t stride1 = r >= 2 ? dim[r - 1] : 1;
  std::size_t stride0 = r >= 3 ? dim[1] * dim[2] : 0;
  const std::size_t n1 = r >= 2 ? 4 : 1, n0 = r >= 3 ? 4 : 1;
  // Interior fast path: every row of the block lies fully inside the
  // domain, so the per-element edge clamps vanish and each row is one
  // contiguous 4-element copy. This is the overwhelmingly common case for
  // the large tensors the pipeline chunks.
  bool interior = o0 + 4 <= dim[0];
  if (r >= 2) interior = interior && o1 + 4 <= dim[1];
  if (r >= 3) interior = interior && o2 + 4 <= dim[2];
  if (interior) {
    if (r == 1) {
      std::memcpy(block, data + o0, 4 * sizeof(T));
    } else if (r == 2) {
      const T* src = data + o0 * stride1 + o1;
      for (std::size_t j = 0; j < 4; ++j)
        std::memcpy(block + 4 * j, src + j * stride1, 4 * sizeof(T));
    } else {
      const T* src = data + o0 * stride0 + o1 * stride1 + o2;
      for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j)
          std::memcpy(block + 16 * i + 4 * j,
                      src + i * stride0 + j * stride1, 4 * sizeof(T));
    }
    return;
  }
  std::size_t out = 0;
  for (std::size_t i = 0; i < n0; ++i) {
    const std::size_t ci = r >= 3 ? std::min(o0 + i, dim[0] - 1) : 0;
    for (std::size_t j = 0; j < n1; ++j) {
      const std::size_t cj =
          r >= 3 ? std::min(o1 + j, dim[1] - 1)
                 : (r == 2 ? std::min(o0 + j, dim[0] - 1) : 0);
      for (std::size_t k = 0; k < 4; ++k) {
        const std::size_t ck =
            std::min((r == 3   ? o2
                      : r == 2 ? o1
                               : o0) +
                         k,
                     dim[r - 1] - 1);
        block[out++] = data[ci * stride0 + cj * stride1 + ck];
      }
    }
  }
}

/// Scatter a decoded block back, skipping padded positions.
template <class T>
void scatter(const BlockGrid& g, T* data, std::size_t bx, std::size_t by,
             std::size_t bz, const T* block) {
  const std::size_t r = g.rank;
  std::size_t dim[3] = {1, 1, 1};
  for (std::size_t d = 0; d < r; ++d) dim[d] = g.domain[d];
  const std::size_t o0 = bx * 4, o1 = by * 4, o2 = bz * 4;
  std::size_t stride1 = r >= 2 ? dim[r - 1] : 1;
  std::size_t stride0 = r >= 3 ? dim[1] * dim[2] : 0;
  const std::size_t n1 = r >= 2 ? 4 : 1, n0 = r >= 3 ? 4 : 1;
  // Interior fast path — mirror of gather's: no padded positions, whole
  // rows copy out contiguously.
  bool interior = o0 + 4 <= dim[0];
  if (r >= 2) interior = interior && o1 + 4 <= dim[1];
  if (r >= 3) interior = interior && o2 + 4 <= dim[2];
  if (interior) {
    if (r == 1) {
      std::memcpy(data + o0, block, 4 * sizeof(T));
    } else if (r == 2) {
      T* dst = data + o0 * stride1 + o1;
      for (std::size_t j = 0; j < 4; ++j)
        std::memcpy(dst + j * stride1, block + 4 * j, 4 * sizeof(T));
    } else {
      T* dst = data + o0 * stride0 + o1 * stride1 + o2;
      for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j)
          std::memcpy(dst + i * stride0 + j * stride1,
                      block + 16 * i + 4 * j, 4 * sizeof(T));
    }
    return;
  }
  std::size_t in = 0;
  for (std::size_t i = 0; i < n0; ++i, in += 0) {
    for (std::size_t j = 0; j < n1; ++j) {
      for (std::size_t k = 0; k < 4; ++k, ++in) {
        const std::size_t ci = r >= 3 ? o0 + i : 0;
        const std::size_t cj = r >= 3 ? o1 + j : (r == 2 ? o0 + j : 0);
        const std::size_t ck = (r == 3 ? o2 : r == 2 ? o1 : o0) + k;
        if (r >= 3 && ci >= dim[0]) continue;
        if (r >= 2 && cj >= dim[r - 2]) continue;
        if (ck >= dim[r - 1]) continue;
        data[ci * stride0 + cj * stride1 + ck] = block[in];
      }
    }
  }
}

/// Embedded bitplane encoder: ZFP's per-plane value pass (raw bits of the
/// already-significant prefix) followed by the unary group-test pass, all
/// truncated at `budget` bits. `sig` is the significance watermark: it only
/// grows, and it advances past every position the group-test scan has
/// consumed — exactly the `n` counter in ZFP's encode_ints. The decoder
/// mirrors every budget decrement, so both sides stay in bit lockstep even
/// when the budget runs out mid-plane.
std::size_t encode_planes(BitWriter& w, const std::uint64_t* u,
                          std::size_t n, int intprec, std::size_t budget,
                          int kmin = 0) {
  std::size_t bits = budget;
  std::size_t sig = 0;
  for (int k = intprec - 1; k >= kmin && bits; --k) {
    // Gather plane k into a word (bit i = coefficient i's bit; n ≤ 64).
    std::uint64_t x = 0;
#pragma omp simd reduction(| : x)
    for (std::size_t i = 0; i < n; ++i) x |= ((u[i] >> k) & 1u) << i;
    // Value pass.
    const std::size_t m = std::min(sig, bits);
    w.put(x, static_cast<unsigned>(m));
    bits -= m;
    x = m < 64 ? x >> m : 0;
    // Group-test pass.
    std::size_t i = sig;
    while (i < n && bits) {
      --bits;
      const bool any = x != 0;
      w.put_bit(any);
      if (!any) break;
      // Emit value bits until a 1 is emitted; the last position's test bit
      // doubles as its value bit (group of one).
      while (i < n - 1 && bits) {
        --bits;
        const bool bit = x & 1u;
        w.put_bit(bit);
        if (bit) break;
        x >>= 1;
        ++i;
      }
      // Consume the significant (or implied/unfinished) position.
      x >>= 1;
      ++i;
    }
    sig = i;
  }
  return budget - bits;
}

}  // namespace

std::size_t block_bits(double rate, std::size_t rank) {
  const std::size_t n = std::size_t{1} << (2 * rank);
  return static_cast<std::size_t>(
      std::ceil(rate * static_cast<double>(n)));
}

namespace {

/// Exact mirror of encode_planes; reconstructs negabinary coefficients.
void decode_planes(BitReader& r, std::uint64_t* u, std::size_t n,
                   int intprec, std::size_t budget, int kmin = 0) {
  std::fill(u, u + n, 0);
  std::size_t bits = budget;
  std::size_t sig = 0;
  for (int k = intprec - 1; k >= kmin && bits; --k) {
    const std::size_t m = std::min(sig, bits);
    std::uint64_t x = r.get(static_cast<unsigned>(m));
    bits -= m;
    std::size_t i = sig;
    while (i < n && bits) {
      --bits;
      const bool any = r.get_bit();
      if (!any) break;
      while (i < n - 1 && bits) {
        --bits;
        const bool bit = r.get_bit();
        if (bit) break;
        ++i;
      }
      x |= std::uint64_t{1} << i;
      ++i;
    }
    sig = i;
    // Branch-free plane deposit (vectorizes; `-(bit)` is an all-ones mask).
#pragma omp simd
    for (std::size_t j = 0; j < n; ++j)
      u[j] |= (std::uint64_t{0} - ((x >> j) & 1u)) & (std::uint64_t{1} << k);
  }
}

}  // namespace

namespace {

template <class T>
struct ModeParams {
  ZfpMode mode = ZfpMode::FixedRate;
  double rate = 8.0;        // FixedRate
  unsigned precision = 0;   // FixedPrecision
  double tolerance = 0.0;   // FixedAccuracy
};

/// Per-block plane budget and minimum plane for a mode. `e` is the block's
/// frexp exponent; P the fixed-point precision of the dtype.
template <class T>
void block_limits(const ModeParams<T>& mp, int intprec, int e,
                  std::size_t rank, std::size_t fixed_payload_bits,
                  std::size_t* budget, int* kmin) {
  using Tr = Traits<T>;
  switch (mp.mode) {
    case ZfpMode::FixedRate:
      *budget = fixed_payload_bits;
      *kmin = 0;
      break;
    case ZfpMode::FixedPrecision:
      *budget = SIZE_MAX / 2;
      *kmin = std::max(0, intprec - static_cast<int>(mp.precision));
      break;
    case ZfpMode::FixedAccuracy: {
      *budget = SIZE_MAX / 2;
      // Dropping planes below kmin leaves per-coefficient fixed-point
      // error < 2^kmin, i.e. real error < 2^(kmin + e - P); the inverse
      // transform amplifies by at most 2^rank. Solve for the largest safe
      // kmin: kmin + e - P + rank ≤ log2(tol).
      const int log_tol = static_cast<int>(
          std::floor(std::log2(std::max(mp.tolerance, 1e-300))));
      int k = log_tol - e + Tr::precision - static_cast<int>(rank);
      *kmin = std::clamp(k, 0, intprec);
      break;
    }
  }
}

template <class T>
std::vector<std::uint8_t> compress_generic(const Device& dev,
                                           NDView<const T> data,
                                           const ModeParams<T>& mp) {
  using Tr = Traits<T>;
  const Shape orig = data.shape();
  HPDR_REQUIRE(orig.rank() >= 1 && orig.rank() <= 4,
               "zfp supports rank 1..4");
  HPDR_REQUIRE(orig.size() > 0, "empty input");
  const Shape cs = codec_shape(orig);
  const BlockGrid grid(cs);
  const std::size_t bn = grid.block_values();
  const bool fixed_rate = mp.mode == ZfpMode::FixedRate;
  const std::size_t maxbits =
      fixed_rate ? block_bits(mp.rate, grid.rank) : 0;
  if (fixed_rate)
    HPDR_REQUIRE(maxbits > Tr::ebits,
                 "rate too small to store block exponents");
  const int intprec = Tr::precision + static_cast<int>(grid.rank) + 1;
  const auto order = detail::sequency_order(grid.rank);

  std::vector<BitWriter> writers(grid.total_blocks);
  // Locality abstraction: each 4^d block is one group (Alg. 3 lines 2-4).
  locality(
      dev, Shape{grid.total_blocks}, Shape{1}, [&](const Block& blk) {
        const std::size_t b = blk.origin[0];
        std::size_t bx = 0, by = 0, bz = 0;
        if (grid.rank == 1) {
          bx = b;
        } else if (grid.rank == 2) {
          bx = b / grid.nblocks[1];
          by = b % grid.nblocks[1];
        } else {
          bx = b / (grid.nblocks[1] * grid.nblocks[2]);
          by = (b / grid.nblocks[2]) % grid.nblocks[1];
          bz = b % grid.nblocks[2];
        }
        T vals[64];
        gather(grid, data.data(), bx, by, bz, vals);
        // Exponent alignment (block floating point).
        T vmax = 0;
        for (std::size_t i = 0; i < bn; ++i)
          vmax = std::max(vmax, std::abs(vals[i]));
        BitWriter& w = writers[b];
        if (vmax == 0 || !std::isfinite(static_cast<double>(vmax))) {
          w.put(0, Tr::ebits);  // zero (or unencodable) block marker
        } else {
          int e;
          std::frexp(static_cast<double>(vmax), &e);
          w.put(static_cast<std::uint64_t>(e + Tr::ebias), Tr::ebits);
          std::size_t budget;
          int kmin;
          block_limits(mp, intprec, e, grid.rank,
                       fixed_rate ? maxbits - Tr::ebits : 0, &budget,
                       &kmin);
          if (kmin < intprec) {
            const double scale = std::ldexp(1.0, Tr::precision - e);
            std::int64_t q[64];
            for (std::size_t i = 0; i < bn; ++i)
              q[i] = static_cast<std::int64_t>(
                  static_cast<double>(vals[i]) * scale);
            detail::fwd_transform(q, grid.rank);
            std::uint64_t u[64];
            for (std::size_t i = 0; i < bn; ++i)
              u[i] = detail::to_negabinary(q[order[i]]);
            encode_planes(w, u, bn, intprec, budget, kmin);
          }
        }
        // Fixed rate: every block occupies exactly maxbits bits.
        if (fixed_rate) {
          while (w.bit_size() < maxbits) {
            const unsigned pad = static_cast<unsigned>(
                std::min<std::size_t>(64, maxbits - w.bit_size()));
            w.put(0, pad);
          }
        }
      });

  ByteWriter out;
  out.put_u8(kMagic);
  out.put_u8(kVersion);
  out.put_u8(Tr::dtype);
  out.put_u8(static_cast<std::uint8_t>(orig.rank()));
  for (std::size_t d = 0; d < orig.rank(); ++d) out.put_varint(orig[d]);
  out.put_u8(static_cast<std::uint8_t>(mp.mode));
  switch (mp.mode) {
    case ZfpMode::FixedRate:
      out.put_f64(mp.rate);
      break;
    case ZfpMode::FixedPrecision:
      out.put_varint(mp.precision);
      break;
    case ZfpMode::FixedAccuracy:
      out.put_f64(mp.tolerance);
      break;
  }
  if (!fixed_rate) {
    // Variable-length blocks: per-block bit counts make decode parallel.
    for (const auto& w : writers) out.put_varint(w.bit_size());
  }
  BitWriter payload;
  for (const auto& w : writers) payload.append(w);
  const auto bytes = payload.to_bytes();
  out.put_varint(bytes.size());
  out.put_bytes(bytes);
  return out.take();
}

template <class T>
NDArray<T> decompress_impl(const Device& dev,
                           std::span<const std::uint8_t> stream,
                           std::size_t expect_size) {
  using Tr = Traits<T>;
  ByteReader in(stream);
  HPDR_REQUIRE(in.get_u8() == kMagic, "not a zfp stream");
  HPDR_REQUIRE(in.get_u8() == kVersion, "zfp stream version mismatch");
  HPDR_REQUIRE(in.get_u8() == Tr::dtype, "zfp dtype mismatch");
  const Shape orig = get_shape(in, expect_size, "zfp");
  ModeParams<T> mp;
  mp.mode = static_cast<ZfpMode>(in.get_u8());
  switch (mp.mode) {
    case ZfpMode::FixedRate:
      mp.rate = in.get_f64();
      break;
    case ZfpMode::FixedPrecision:
      mp.precision = static_cast<unsigned>(in.get_varint());
      break;
    case ZfpMode::FixedAccuracy:
      mp.tolerance = in.get_f64();
      break;
    default:
      HPDR_REQUIRE(false, "corrupt zfp mode byte");
  }

  const Shape cs = codec_shape(orig);
  const BlockGrid grid(cs);
  const std::size_t bn = grid.block_values();
  const bool fixed_rate = mp.mode == ZfpMode::FixedRate;
  const std::size_t maxbits =
      fixed_rate ? block_bits(mp.rate, grid.rank) : 0;
  const int intprec = Tr::precision + static_cast<int>(grid.rank) + 1;
  const auto order = detail::sequency_order(grid.rank);

  // Per-block bit offsets.
  std::vector<std::size_t> bit_offset(grid.total_blocks + 1, 0);
  if (fixed_rate) {
    for (std::size_t b = 0; b < grid.total_blocks; ++b)
      bit_offset[b + 1] = (b + 1) * maxbits;
  } else {
    for (std::size_t b = 0; b < grid.total_blocks; ++b)
      bit_offset[b + 1] = bit_offset[b] + in.get_varint();
  }
  const std::size_t payload_bytes = in.get_varint();
  auto payload = in.get_bytes(payload_bytes);
  HPDR_REQUIRE(payload.size() * 8 >= bit_offset[grid.total_blocks],
               "zfp payload truncated");

  NDArray<T> out(orig);
  locality(dev, Shape{grid.total_blocks}, Shape{1}, [&](const Block& blk) {
    const std::size_t b = blk.origin[0];
    std::size_t bx = 0, by = 0, bz = 0;
    if (grid.rank == 1) {
      bx = b;
    } else if (grid.rank == 2) {
      bx = b / grid.nblocks[1];
      by = b % grid.nblocks[1];
    } else {
      bx = b / (grid.nblocks[1] * grid.nblocks[2]);
      by = (b / grid.nblocks[2]) % grid.nblocks[1];
      bz = b % grid.nblocks[2];
    }
    BitReader r(payload, bit_offset[b + 1]);
    r.seek(bit_offset[b]);
    const std::uint64_t estore = r.get(Tr::ebits);
    T vals[64];
    if (estore == 0) {
      std::fill(vals, vals + bn, T{0});
    } else {
      const int e = static_cast<int>(estore) - Tr::ebias;
      std::size_t budget;
      int kmin;
      block_limits(mp, intprec, e, grid.rank,
                   fixed_rate ? maxbits - Tr::ebits : 0, &budget, &kmin);
      std::uint64_t u[64];
      if (kmin < intprec) {
        decode_planes(r, u, bn, intprec, budget, kmin);
      } else {
        std::fill(u, u + bn, 0);
      }
      std::int64_t q[64];
      for (std::size_t i = 0; i < bn; ++i)
        q[order[i]] = detail::from_negabinary(u[i]);
      detail::inv_transform(q, grid.rank);
      const double scale = std::ldexp(1.0, e - Tr::precision);
      for (std::size_t i = 0; i < bn; ++i)
        vals[i] = static_cast<T>(static_cast<double>(q[i]) * scale);
    }
    scatter(grid, out.data(), bx, by, bz, vals);
  });
  return out;
}

}  // namespace

std::vector<std::uint8_t> compress(const Device& dev,
                                   NDView<const float> data, double rate) {
  ModeParams<float> mp;
  mp.mode = ZfpMode::FixedRate;
  mp.rate = std::clamp(rate, 1.0, 32.0);
  return compress_generic(dev, data, mp);
}
std::vector<std::uint8_t> compress(const Device& dev,
                                   NDView<const double> data, double rate) {
  ModeParams<double> mp;
  mp.mode = ZfpMode::FixedRate;
  mp.rate = std::clamp(rate, 1.0, 64.0);
  return compress_generic(dev, data, mp);
}

std::vector<std::uint8_t> compress_precision(const Device& dev,
                                             NDView<const float> data,
                                             unsigned precision) {
  HPDR_REQUIRE(precision >= 1, "precision must be positive");
  ModeParams<float> mp;
  mp.mode = ZfpMode::FixedPrecision;
  mp.precision = precision;
  return compress_generic(dev, data, mp);
}
std::vector<std::uint8_t> compress_precision(const Device& dev,
                                             NDView<const double> data,
                                             unsigned precision) {
  HPDR_REQUIRE(precision >= 1, "precision must be positive");
  ModeParams<double> mp;
  mp.mode = ZfpMode::FixedPrecision;
  mp.precision = precision;
  return compress_generic(dev, data, mp);
}

std::vector<std::uint8_t> compress_accuracy(const Device& dev,
                                            NDView<const float> data,
                                            double tolerance) {
  HPDR_REQUIRE(tolerance > 0, "tolerance must be positive");
  ModeParams<float> mp;
  mp.mode = ZfpMode::FixedAccuracy;
  mp.tolerance = tolerance;
  return compress_generic(dev, data, mp);
}
std::vector<std::uint8_t> compress_accuracy(const Device& dev,
                                            NDView<const double> data,
                                            double tolerance) {
  HPDR_REQUIRE(tolerance > 0, "tolerance must be positive");
  ModeParams<double> mp;
  mp.mode = ZfpMode::FixedAccuracy;
  mp.tolerance = tolerance;
  return compress_generic(dev, data, mp);
}

NDArray<float> decompress_f32(const Device& dev,
                              std::span<const std::uint8_t> stream,
                              std::size_t expect_size) {
  return decompress_impl<float>(dev, stream, expect_size);
}
NDArray<double> decompress_f64(const Device& dev,
                               std::span<const std::uint8_t> stream,
                               std::size_t expect_size) {
  return decompress_impl<double>(dev, stream, expect_size);
}

namespace {

template <class T>
NDArray<T> decompress_region_impl(const Device& dev,
                                  std::span<const std::uint8_t> stream,
                                  const Shape& lo, const Shape& hi) {
  using Tr = Traits<T>;
  ByteReader in(stream);
  HPDR_REQUIRE(in.get_u8() == kMagic, "not a zfp stream");
  HPDR_REQUIRE(in.get_u8() == kVersion, "zfp stream version mismatch");
  HPDR_REQUIRE(in.get_u8() == Tr::dtype, "zfp dtype mismatch");
  const Shape orig = get_shape(in, 0, "zfp");
  const std::size_t rank = orig.rank();
  HPDR_REQUIRE(static_cast<ZfpMode>(in.get_u8()) == ZfpMode::FixedRate,
               "region decoding needs a fixed-rate stream");
  const double rate = in.get_f64();
  const Shape cs = codec_shape(orig);
  HPDR_REQUIRE(cs == orig,
               "region decoding unsupported for folded geometries (rank 4 "
               "or thin leading dimensions)");
  HPDR_REQUIRE(lo.rank() == rank && hi.rank() == rank,
               "region rank mismatch");
  Shape out_shape = Shape::of_rank(rank);
  for (std::size_t d = 0; d < rank; ++d) {
    HPDR_REQUIRE(lo[d] < hi[d] && hi[d] <= orig[d],
                 "region out of bounds in dimension " << d);
    out_shape[d] = hi[d] - lo[d];
  }

  const BlockGrid grid(cs);
  const std::size_t bn = grid.block_values();
  const std::size_t maxbits = block_bits(rate, grid.rank);
  const int intprec = Tr::precision + static_cast<int>(grid.rank) + 1;
  const auto order = detail::sequency_order(grid.rank);
  const std::size_t payload_bytes = in.get_varint();
  auto payload = in.get_bytes(payload_bytes);
  HPDR_REQUIRE(payload.size() * 8 >= grid.total_blocks * maxbits,
               "zfp payload truncated");

  // Covered block ranges per dimension.
  std::array<std::size_t, 3> b_lo{0, 0, 0}, b_hi{1, 1, 1};
  for (std::size_t d = 0; d < rank; ++d) {
    b_lo[d] = lo[d] / 4;
    b_hi[d] = (hi[d] + 3) / 4;
  }
  std::size_t covered = 1;
  for (std::size_t d = 0; d < rank; ++d) covered *= b_hi[d] - b_lo[d];

  NDArray<T> out(out_shape);
  const auto out_strides = out_shape.strides();
  locality(dev, Shape{covered}, Shape{1}, [&](const Block& blk) {
    // Decode covered block index → (bx, by, bz).
    std::size_t rem = blk.origin[0];
    std::array<std::size_t, 3> bc{0, 0, 0};
    for (std::size_t d = rank; d-- > 0;) {
      const std::size_t extent = b_hi[d] - b_lo[d];
      bc[d] = b_lo[d] + rem % extent;
      rem /= extent;
    }
    // Linear block id in the full grid (random access by offset).
    std::size_t b = 0;
    for (std::size_t d = 0; d < rank; ++d) b = b * grid.nblocks[d] + bc[d];
    BitReader r(payload, (b + 1) * maxbits);
    r.seek(b * maxbits);
    const std::uint64_t estore = r.get(Tr::ebits);
    T vals[64];
    if (estore == 0) {
      std::fill(vals, vals + bn, T{0});
    } else {
      const int e = static_cast<int>(estore) - Tr::ebias;
      std::uint64_t u[64];
      decode_planes(r, u, bn, intprec, maxbits - Tr::ebits);
      std::int64_t q[64];
      for (std::size_t i = 0; i < bn; ++i)
        q[order[i]] = detail::from_negabinary(u[i]);
      detail::inv_transform(q, grid.rank);
      const double scale = std::ldexp(1.0, e - Tr::precision);
      for (std::size_t i = 0; i < bn; ++i)
        vals[i] = static_cast<T>(static_cast<double>(q[i]) * scale);
    }
    // Scatter the block's intersection with the region.
    std::size_t idx = 0;
    const std::size_t n0 = rank >= 3 ? 4 : 1, n1 = rank >= 2 ? 4 : 1;
    for (std::size_t i = 0; i < n0; ++i)
      for (std::size_t j = 0; j < n1; ++j)
        for (std::size_t k = 0; k < 4; ++k, ++idx) {
          std::array<std::size_t, 3> g{0, 0, 0};
          if (rank == 1) {
            g[0] = bc[0] * 4 + k;
          } else if (rank == 2) {
            g[0] = bc[0] * 4 + j;
            g[1] = bc[1] * 4 + k;
          } else {
            g[0] = bc[0] * 4 + i;
            g[1] = bc[1] * 4 + j;
            g[2] = bc[2] * 4 + k;
          }
          bool inside = true;
          std::size_t flat = 0;
          for (std::size_t d = 0; d < rank; ++d) {
            if (g[d] < lo[d] || g[d] >= hi[d]) {
              inside = false;
              break;
            }
            flat += (g[d] - lo[d]) * out_strides[d];
          }
          if (inside) out.data()[flat] = vals[idx];
        }
  });
  return out;
}

}  // namespace

NDArray<float> decompress_region_f32(const Device& dev,
                                     std::span<const std::uint8_t> stream,
                                     const Shape& lo, const Shape& hi) {
  return decompress_region_impl<float>(dev, stream, lo, hi);
}
NDArray<double> decompress_region_f64(const Device& dev,
                                      std::span<const std::uint8_t> stream,
                                      const Shape& lo, const Shape& hi) {
  return decompress_region_impl<double>(dev, stream, lo, hi);
}

ZfpMode stream_mode(std::span<const std::uint8_t> stream) {
  ByteReader in(stream);
  HPDR_REQUIRE(in.get_u8() == kMagic, "not a zfp stream");
  HPDR_REQUIRE(in.get_u8() == kVersion, "zfp stream version mismatch");
  in.get_u8();  // dtype
  get_shape(in, 0, "zfp");
  const std::uint8_t m = in.get_u8();
  HPDR_REQUIRE(m <= 2, "corrupt zfp mode byte");
  return static_cast<ZfpMode>(m);
}

}  // namespace hpdr::zfp
