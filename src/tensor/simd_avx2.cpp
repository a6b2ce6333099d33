// AVX2 kernel table (requires avx2+fma+f16c at runtime; this TU is built
// with -mavx2 -mfma -mf16c -ffp-contract=off and must only be entered
// through the dispatch in simd_dispatch.cpp).
//
// Every kernel except the _fma GEMM variant is bit-identical to the scalar
// table: vector lanes perform the same fl(mul) -> fl(add) sequence per
// element in the same order the scalar loops do, F16C NaN lanes are patched
// through the scalar converter (hardware quietizes sNaN payloads), and the
// qint8 round-half-away is emulated exactly (see qint8_quantize below).

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "tensor/simd_tables.h"
#include "util/f16.h"

namespace fedclust::tensor::simd {
namespace detail {

namespace {

// ------------------------------------------------------------------ gemm
//
// Register-blocked microkernel: MR x NR C tile held in ymm registers, A
// packed (alpha pre-applied — same fl(alpha*a) the scalar kernel computes
// per use) into an MR-interleaved KC panel, B read in place. For a fixed C
// element the k terms still accumulate in ascending p with mul and add
// rounded separately, so the result is bit-identical to the scalar loop.
//
// Every tile, full or partial (mr < kMr rows or nr < kNr columns), runs
// the one microkernel with vmaskmov lane masks: masked-off lanes neither
// read nor write memory, rows past mr keep pack_a's zero padding in
// accumulators that are never stored, and every live lane performs the
// same ascending-p fl(mul) -> fl(add) sequence.

constexpr std::size_t kMr = 6;
constexpr std::size_t kNr = 16;  // two __m256 per row
constexpr std::size_t kKc = 256;

void pack_a(const float* a, std::size_t lda, std::size_t i0, std::size_t mr,
            std::size_t kb, std::size_t kc, float alpha, float* apack) {
  for (std::size_t p = 0; p < kc; ++p) {
    for (std::size_t r = 0; r < kMr; ++r) {
      apack[p * kMr + r] =
          r < mr ? alpha * a[(i0 + r) * lda + kb + p] : 0.0f;
    }
  }
}

// Lane mask with lanes [0, live) set, live clamped to [0, 8].
__m256i lane_mask(std::ptrdiff_t live) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(live)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// One mr x nr tile (mr <= kMr, nr <= kNr) through lane masks; a full tile
// simply has every lane live.
template <bool kFma>
void microkernel(const float* apack, std::size_t kc, std::size_t mr,
                 std::size_t nr, const float* b, std::size_t ldb, float* c,
                 std::size_t ldc) {
  const auto live = static_cast<std::ptrdiff_t>(nr);
  const __m256i bm0 = lane_mask(live);
  const __m256i bm1 = lane_mask(live - 8);
  const __m256i none = _mm256_setzero_si256();
  __m256i m0[kMr];
  __m256i m1[kMr];
  __m256 acc0[kMr];
  __m256 acc1[kMr];
  for (std::size_t r = 0; r < kMr; ++r) {
    m0[r] = r < mr ? bm0 : none;
    m1[r] = r < mr ? bm1 : none;
    acc0[r] = _mm256_maskload_ps(c + r * ldc, m0[r]);
    acc1[r] = _mm256_maskload_ps(c + r * ldc + 8, m1[r]);
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const float* bp = b + p * ldb;
    const __m256 b0 = _mm256_maskload_ps(bp, bm0);
    const __m256 b1 = _mm256_maskload_ps(bp + 8, bm1);
    const float* ap = apack + p * kMr;
    for (std::size_t r = 0; r < kMr; ++r) {
      const __m256 av = _mm256_broadcast_ss(ap + r);
      if constexpr (kFma) {
        acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
        acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
      } else {
        acc0[r] = _mm256_add_ps(acc0[r], _mm256_mul_ps(av, b0));
        acc1[r] = _mm256_add_ps(acc1[r], _mm256_mul_ps(av, b1));
      }
    }
  }
  for (std::size_t r = 0; r < kMr; ++r) {
    _mm256_maskstore_ps(c + r * ldc, m0[r], acc0[r]);
    _mm256_maskstore_ps(c + r * ldc + 8, m1[r], acc1[r]);
  }
}

template <bool kFma>
void gemm_nn_range_avx2(std::size_t m0, std::size_t m1, std::size_t n,
                        std::size_t k, float alpha, const float* a,
                        std::size_t lda, const float* b, std::size_t ldb,
                        float* c, std::size_t ldc) {
  // Thread-local pack panel: ~6 KiB, reused across calls, one per worker.
  thread_local std::vector<float> apack_buf;
  apack_buf.resize(kMr * kKc);
  float* apack = apack_buf.data();

  for (std::size_t i0 = m0; i0 < m1; i0 += kMr) {
    const std::size_t mr = std::min(kMr, m1 - i0);
    for (std::size_t kb = 0; kb < k; kb += kKc) {
      const std::size_t kc = std::min(kKc, k - kb);
      pack_a(a, lda, i0, mr, kb, kc, alpha, apack);
      for (std::size_t j0 = 0; j0 < n; j0 += kNr) {
        const std::size_t nr = std::min(kNr, n - j0);
        microkernel<kFma>(apack, kc, mr, nr, b + kb * ldb + j0, ldb,
                          c + i0 * ldc + j0, ldc);
      }
    }
  }
}

// ----------------------------------------------------------------- scale

void scale_avx2(float* c, std::size_t n, float beta) {
  const __m256 vb = _mm256_set1_ps(beta);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(c + i, _mm256_mul_ps(_mm256_loadu_ps(c + i), vb));
  }
  for (; i < n; ++i) c[i] *= beta;
}

// ------------------------------------------------------------- transpose

// 8x8 blocks through registers, the ragged right and bottom edges element
// by element. Each block loads source rows j and j+4 into the two 128-bit
// halves of one register (the lane crossing rides on the load), then
// transposes the two 4x4 halves in place with unpack + shuffle.
void transpose_avx2(std::size_t rows, std::size_t cols, const float* x,
                    std::size_t ldx, float* out, std::size_t ldo) {
  const std::size_t rows8 = rows & ~std::size_t{7};
  const std::size_t cols8 = cols & ~std::size_t{7};
  const auto pair = [ldx](const float* s, std::size_t j) {
    return _mm256_insertf128_ps(
        _mm256_castps128_ps256(_mm_loadu_ps(s + j * ldx)),
        _mm_loadu_ps(s + (j + 4) * ldx), 1);
  };
  for (std::size_t r0 = 0; r0 < rows8; r0 += 8) {
    for (std::size_t c0 = 0; c0 < cols8; c0 += 8) {
      const float* s = x + c0 * ldx + r0;
      float* d = out + r0 * ldo + c0;
      for (std::size_t half = 0; half < 8; half += 4) {
        // Source columns r0+half .. r0+half+3 become output rows.
        const __m256 v0 = pair(s + half, 0);
        const __m256 v1 = pair(s + half, 1);
        const __m256 v2 = pair(s + half, 2);
        const __m256 v3 = pair(s + half, 3);
        const __m256 t0 = _mm256_unpacklo_ps(v0, v1);
        const __m256 t1 = _mm256_unpackhi_ps(v0, v1);
        const __m256 t2 = _mm256_unpacklo_ps(v2, v3);
        const __m256 t3 = _mm256_unpackhi_ps(v2, v3);
        float* dh = d + half * ldo;
        _mm256_storeu_ps(dh, _mm256_shuffle_ps(t0, t2, 0x44));
        _mm256_storeu_ps(dh + ldo, _mm256_shuffle_ps(t0, t2, 0xEE));
        _mm256_storeu_ps(dh + 2 * ldo, _mm256_shuffle_ps(t1, t3, 0x44));
        _mm256_storeu_ps(dh + 3 * ldo, _mm256_shuffle_ps(t1, t3, 0xEE));
      }
    }
  }
  for (std::size_t c = 0; c < cols; ++c) {
    const float* src = x + c * ldx;
    for (std::size_t r = c < cols8 ? rows8 : 0; r < rows; ++r) {
      out[r * ldo + c] = src[r];
    }
  }
}

// ------------------------------------------------------------------- f16

void f16_encode_avx2(const float* src, std::size_t n, std::uint16_t* dst) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(src + i);
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(dst + i),
        _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
    const int nan_lanes =
        _mm256_movemask_ps(_mm256_cmp_ps(v, v, _CMP_UNORD_Q));
    if (nan_lanes != 0) {
      // vcvtps2ph quietizes sNaN payloads; the wire format preserves the
      // scalar converter's payload bits, so NaN lanes go the scalar way.
      for (int l = 0; l < 8; ++l) {
        if (nan_lanes & (1 << l)) dst[i + l] = util::f32_to_f16(src[i + l]);
      }
    }
  }
  for (; i < n; ++i) dst[i] = util::f32_to_f16(src[i]);
}

void f16_decode_avx2(const std::uint16_t* src, std::size_t n, float* dst) {
  const __m128i mag_mask = _mm_set1_epi16(0x7fff);
  const __m128i inf16 = _mm_set1_epi16(0x7c00);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
    // NaN halves: (h & 0x7fff) > 0x7c00 (both operands are non-negative in
    // the signed 16-bit compare).
    const int nan_bytes = _mm_movemask_epi8(
        _mm_cmpgt_epi16(_mm_and_si128(h, mag_mask), inf16));
    if (nan_bytes != 0) {
      for (int l = 0; l < 8; ++l) {
        if (nan_bytes & (1 << (2 * l))) dst[i + l] = util::f16_to_f32(src[i + l]);
      }
    }
  }
  for (; i < n; ++i) dst[i] = util::f16_to_f32(src[i]);
}

// ----------------------------------------------------------------- qint8

void minmax_finite_avx2(const float* src, std::size_t n, float* lo,
                        float* hi, bool* finite) {
  const float inf = std::numeric_limits<float>::infinity();
  float mn = inf;
  float mx = -inf;
  bool ok = true;
  std::size_t i = 0;
  if (n >= 8) {
    const __m256 vinf = _mm256_set1_ps(inf);
    const __m256 abs_mask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    __m256 vmn = vinf;
    __m256 vmx = _mm256_set1_ps(-inf);
    __m256 vok = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
    for (; i + 8 <= n; i += 8) {
      const __m256 v = _mm256_loadu_ps(src + i);
      // |v| < inf is false for NaN (unordered) and for inf itself.
      vok = _mm256_and_ps(
          vok, _mm256_cmp_ps(_mm256_and_ps(v, abs_mask), vinf, _CMP_LT_OQ));
      vmn = _mm256_min_ps(vmn, v);
      vmx = _mm256_max_ps(vmx, v);
    }
    ok = _mm256_movemask_ps(vok) == 0xff;
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, vmn);
    for (float lane : lanes) mn = std::min(mn, lane);
    _mm256_store_ps(lanes, vmx);
    for (float lane : lanes) mx = std::max(mx, lane);
  }
  for (; i < n; ++i) {
    if (!std::isfinite(src[i])) ok = false;
    mn = std::min(mn, src[i]);
    mx = std::max(mx, src[i]);
  }
  *lo = mn + 0.0f;  // canonicalize -0.0 (see scalar kernel)
  *hi = mx + 0.0f;
  *finite = ok;
}

void qint8_quantize_avx2(const float* src, std::size_t n, float lo,
                         float scale, std::uint8_t* dst) {
  const __m256 vlo = _mm256_set1_ps(lo);
  const __m256 vs = _mm256_set1_ps(scale);
  const __m256 vhalf = _mm256_set1_ps(0.5f);
  const __m256 vone = _mm256_set1_ps(1.0f);
  const __m256 vzero = _mm256_setzero_ps();
  const __m256 v255 = _mm256_set1_ps(255.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 t =
        _mm256_div_ps(_mm256_sub_ps(_mm256_loadu_ps(src + i), vlo), vs);
    // lroundf emulation (round half away from zero, t >= -0 here): split
    // t into trunc + exact fraction (Sterbenz: tr <= t <= 2*tr), bump when
    // the fraction reaches one half, then clamp. Bit-identical to the
    // scalar kernel's lroundf+clamp over the codec's domain.
    const __m256 tr =
        _mm256_round_ps(t, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256 frac = _mm256_sub_ps(t, tr);
    const __m256 bump =
        _mm256_and_ps(_mm256_cmp_ps(frac, vhalf, _CMP_GE_OQ), vone);
    __m256 r = _mm256_add_ps(tr, bump);
    r = _mm256_min_ps(_mm256_max_ps(r, vzero), v255);
    const __m256i q = _mm256_cvtps_epi32(r);  // integral-valued -> exact
    const __m128i p16 = _mm_packus_epi32(_mm256_castsi256_si128(q),
                                         _mm256_extracti128_si256(q, 1));
    const __m128i p8 = _mm_packus_epi16(p16, p16);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + i), p8);
  }
  for (; i < n; ++i) {
    const float t = (src[i] - lo) / scale;
    const long r = std::lroundf(t);
    dst[i] = static_cast<std::uint8_t>(r < 0 ? 0 : (r > 255 ? 255 : r));
  }
}

void qint8_dequantize_avx2(const std::uint8_t* src, std::size_t n, float lo,
                           float scale, float* dst) {
  const __m256 vlo = _mm256_set1_ps(lo);
  const __m256 vs = _mm256_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i q32 = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + i)));
    const __m256 qf = _mm256_cvtepi32_ps(q32);
    _mm256_storeu_ps(dst + i, _mm256_add_ps(vlo, _mm256_mul_ps(vs, qf)));
  }
  for (; i < n; ++i) dst[i] = lo + scale * static_cast<float>(src[i]);
}

void qint8_accumulate_avx2(std::int64_t* acc, const std::uint8_t* q,
                           std::size_t n, std::int32_t m) {
  const __m256i vm = _mm256_set1_epi32(m);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i q32 = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + i)));
    const __m256i prod = _mm256_mullo_epi32(q32, vm);  // |m|*255 < 2^31
    const __m256i p0 =
        _mm256_cvtepi32_epi64(_mm256_castsi256_si128(prod));
    const __m256i p1 =
        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(prod, 1));
    auto* a = reinterpret_cast<__m256i*>(acc + i);
    _mm256_storeu_si256(a, _mm256_add_epi64(_mm256_loadu_si256(a), p0));
    auto* a1 = reinterpret_cast<__m256i*>(acc + i + 4);
    _mm256_storeu_si256(a1, _mm256_add_epi64(_mm256_loadu_si256(a1), p1));
  }
  const auto m64 = static_cast<std::int64_t>(m);
  for (; i < n; ++i) acc[i] += m64 * static_cast<std::int64_t>(q[i]);
}

// ---------------------------------------------------------- l2 distances
//
// A slab of up to 32 columns is eight 4-lane double accumulators, so every
// k step runs eight independent add chains. vmaskmov loads and stores
// keep masked lanes off memory, so partial slabs run the same code. Each
// live lane performs the scalar kernel's subtract, multiply, add in
// ascending k, then the same sqrt and float rounding.
constexpr int kL2Acc = 8;
constexpr std::size_t kL2Slab = 4 * kL2Acc;

void l2_distances_avx2(const float* a, const float* b, std::size_t dim,
                       std::size_t ncols, std::size_t ldb, float* out) {
  const __m128i lane = _mm_setr_epi32(0, 1, 2, 3);
  for (std::size_t j0 = 0; j0 < ncols; j0 += kL2Slab) {
    const std::size_t w = std::min(kL2Slab, ncols - j0);
    __m128i m[kL2Acc];
    __m256d s[kL2Acc];
    for (int u = 0; u < kL2Acc; ++u) {
      const std::size_t lo = 4 * static_cast<std::size_t>(u);
      const std::size_t live = w > lo ? std::min<std::size_t>(4, w - lo) : 0;
      m[u] = _mm_cmpgt_epi32(_mm_set1_epi32(static_cast<int>(live)), lane);
      s[u] = _mm256_setzero_pd();
    }
    for (std::size_t k = 0; k < dim; ++k) {
      const __m256d ak = _mm256_set1_pd(static_cast<double>(a[k]));
      const float* row = b + k * ldb + j0;
      for (int u = 0; u < kL2Acc; ++u) {
        const __m256d bk =
            _mm256_cvtps_pd(_mm_maskload_ps(row + 4 * u, m[u]));
        const __m256d d = _mm256_sub_pd(ak, bk);
        s[u] = _mm256_add_pd(s[u], _mm256_mul_pd(d, d));
      }
    }
    for (int u = 0; u < kL2Acc; ++u) {
      _mm_maskstore_ps(out + j0 + 4 * u, m[u],
                       _mm256_cvtpd_ps(_mm256_sqrt_pd(s[u])));
    }
  }
}

}  // namespace

const KernelTable* avx2_table() {
  static const KernelTable table = {
      util::SimdIsa::kAvx2,
      &gemm_nn_range_avx2<false>,
      &gemm_nn_range_avx2<true>,
      &scale_avx2,
      &transpose_avx2,
      &f16_encode_avx2,
      &f16_decode_avx2,
      &minmax_finite_avx2,
      &qint8_quantize_avx2,
      &qint8_dequantize_avx2,
      &qint8_accumulate_avx2,
      &l2_distances_avx2,
  };
  return &table;
}

}  // namespace detail
}  // namespace fedclust::tensor::simd

#else  // non-x86 build: no AVX2 table

#include "tensor/simd_tables.h"

namespace fedclust::tensor::simd::detail {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace fedclust::tensor::simd::detail

#endif
