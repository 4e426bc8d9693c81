/* colearn's native kernels: one Adam step in one pass over the parameters,
 * and the first layer of the evaluation screen on AMX int8 tiles.
 *
 * The Adam loop gives each element the operations of the numpy step in
 * colearn/_kernels.py, in the same order, each correctly rounded:
 *
 *     m = m * beta1 + (1 - beta1) * g
 *     v = v * beta2 + (1 - beta2) * (g * g)
 *     theta -= (alpha_t * m) / (sqrt(v) + eps_t)
 *
 * so the results are bit for bit those of numpy. The caller folds the bias
 * corrections into alpha_t and eps_t, as the numpy step does. The bits hold
 * only when the compiler fuses no multiply into an add on its own
 * (-ffp-contract=off) and keeps every division a division (no -ffast-math);
 * -fno-math-errno lets sqrt compile to the correctly rounded instruction.
 *
 * The caller checks every array's type, length and layout: these functions
 * trust their pointers.
 */

#include <math.h>
#include <stddef.h>

void colearn_adam_step(double *theta, const double *grad, double *m, double *v, size_t n,
                       double alpha_t, double beta1, double beta2, double eps_t)
{
    for (size_t i = 0; i < n; i++) {
        const double g = grad[i];
        const double mi = m[i] * beta1 + (1.0 - beta1) * g;
        const double vi = v[i] * beta2 + (1.0 - beta2) * (g * g);
        m[i] = mi;
        v[i] = vi;
        theta[i] -= (alpha_t * mi) / (sqrt(vi) + eps_t);
    }
}

/* The first layer on AMX: pixel bytes b (u8) times the weights W as
 * V = fl(W / 255), split per output column j into three int8 limbs,
 *
 *     V_kj = s_j (q1 + 2^-7 q2 + 2^-14 q3) + r_kj,   |q1| <= 127, |q2|, |q3| <= 64,
 *
 * with s_j = 2^e_j the least power of two where max_k |V_kj| <= 127 s_j, so
 * |r_kj| <= 2^-15 s_j. Each step of the split is exact in float64: a scale
 * by a power of two, a round to the nearest integer, a subtraction and a
 * multiply by 128. TDPBUSD sums the u8 x s8 products of each limb exactly in
 * int32 while d * 255 * 127 < 2^31 (the caller checks d); the three sums
 * A0 + 2^-7 A1 + 2^-14 A2 need at most 46 bits, so they combine exactly in
 * float64, are scaled by s_j exactly, and round once to float32.
 *
 * Limbs are packed as TDPBUSD's B tiles: for each block of 16 output
 * columns, each block of 64 inputs and each limb, one 16 x 64-byte tile
 * whose row r holds, for each column c of the block, the limbs of inputs
 * 4r .. 4r + 3 in bytes 4c .. 4c + 3. The limbs of inputs past d and of
 * columns past n are zero. Built only where the compiler knows AMX (GCC 11
 * on); elsewhere the library holds the Adam loop alone. */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 11

#include <cpuid.h>
#include <errno.h>
#include <immintrin.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <unistd.h>

#define ARCH_REQ_XCOMP_PERM 0x1023
#define XFEATURE_XTILEDATA 18
#define TILE 1024 /* bytes of one tile: 16 rows of 64 */

/* XCR0 bits the kernels below need the OS to enable: SSE and AVX (1, 2),
 * the AVX-512 opmask and ZMM registers (5-7), and the tile config and
 * tile data (17, 18) */
#define XCR0_NEEDED 0x600e6ull

/* 0 where this thread's process may run AMX int8 tiles and the AVX-512
 * code around them; -1 where the CPU lacks AMX-TILE, AMX-INT8, AVX512F,
 * AVX512BW or AVX512VL, or the OS does not enable their state; else the
 * errno of the kernel's refusal of the process's request for tile data.
 * The request is per process. */
int colearn_amx_ready(void)
{
    unsigned a, b, c, d, lo, hi;
    /* OSXSAVE: the OS manages extended state, so XGETBV may run */
    if (!__get_cpuid(1, &a, &b, &c, &d) || !(c & (1u << 27)))
        return -1;
    __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
    if (((((unsigned long long)hi << 32) | lo) & XCR0_NEEDED) != XCR0_NEEDED)
        return -1;
    /* AMX-TILE, AMX-INT8 (EDX 24, 25); AVX512F, AVX512BW, AVX512VL (EBX 16, 30, 31) */
    if (!__get_cpuid_count(7, 0, &a, &b, &c, &d) || (d & 0x3000000u) != 0x3000000u
        || (b & 0xc0010000u) != 0xc0010000u)
        return -1;
    if (syscall(SYS_arch_prctl, ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA) != 0)
        return errno ? errno : EINVAL;
    return 0;
}

#pragma GCC push_options
#pragma GCC target("amx-tile,amx-int8,avx512f,avx512bw,avx512vl")

/* the three limbs of 8 values already scaled to |a| <= 127 */
static inline void limbs8(__m512d a, __m512i *q1, __m512i *q2, __m512i *q3)
{
    const __m512d k128 = _mm512_set1_pd(128.0);
    const int near = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
    __m512d q = _mm512_roundscale_pd(a, near);
    __m512d r = _mm512_mul_pd(_mm512_sub_pd(a, q), k128);
    *q1 = _mm512_castsi256_si512(_mm512_cvtpd_epi32(q));
    q = _mm512_roundscale_pd(r, near);
    r = _mm512_mul_pd(_mm512_sub_pd(r, q), k128);
    *q2 = _mm512_castsi256_si512(_mm512_cvtpd_epi32(q));
    *q3 = _mm512_castsi256_si512(_mm512_cvtpd_epi32(_mm512_roundscale_pd(r, near)));
}

/* Packs W (k x n float64, row major) into the B tiles above, and s_j into
 * scales (n). Returns 0, or 1 where a weight is not finite or a nonzero
 * column's s_j falls below the normal range; an all-zero column gets zero
 * limbs and the least normal s_j. */
int colearn_pack_limbs(const double *w, size_t k, size_t n, int8_t *packed, double *scales)
{
    const size_t kb = (k + 63) / 64, nb = (n + 15) / 16;
    /* the largest |W_kj| per column, in scales */
    int bad = 0;
    for (size_t j = 0; j < n; j++)
        scales[j] = 0.0;
    for (size_t i = 0; i < k; i++) {
        const double *row = w + i * n;
        for (size_t j = 0; j < n; j++) {
            const double x = fabs(row[j]);
            bad |= !(x <= 1.7976931348623157e308);
            scales[j] = x > scales[j] ? x : scales[j];
        }
    }
    if (bad)
        return 1;
    /* fl(max |W| / 255) is max |fl(W / 255)|: rounding is monotonic */
    for (size_t j = 0; j < n; j++) {
        int e;
        const double f = frexp(scales[j] / 255.0, &e);
        if (f == 0.0) {
            scales[j] = 0x1p-1022;
            continue;
        }
        e -= f <= 127.0 / 128.0 ? 7 : 6;
        if (e < -1022)
            return 1;
        scales[j] = ldexp(1.0, e);
    }
    const __m512d k255 = _mm512_set1_pd(255.0), one = _mm512_set1_pd(1.0);
    const __m512i low = _mm512_set1_epi32(0xff);
    for (size_t b = 0; b < nb; b++) {
        const size_t j0 = b * 16;
        const __mmask8 m0 = j0 + 8 <= n ? 0xff : j0 < n ? (__mmask8)((1u << (n - j0)) - 1) : 0;
        const __mmask8 m1 = j0 + 16 <= n ? 0xff
                            : j0 + 8 < n ? (__mmask8)((1u << (n - j0 - 8)) - 1) : 0;
        /* 1 / s_j, exact for a power of two; 0 past n */
        const __m512d inv0 = _mm512_maskz_div_pd(m0, one, _mm512_maskz_loadu_pd(m0, scales + j0));
        const __m512d inv1 = _mm512_maskz_div_pd(m1, one, _mm512_maskz_loadu_pd(m1, scales + j0 + 8));
        for (size_t t = 0; t < kb; t++) {
            int8_t *tile = packed + (b * kb + t) * 3 * TILE;
            for (size_t r = 0; r < 16; r++) {
                __m512i word[3] = {_mm512_setzero_si512(), _mm512_setzero_si512(),
                                   _mm512_setzero_si512()};
                for (unsigned i = 0; i < 4; i++) {
                    const size_t kk = t * 64 + 4 * r + i;
                    if (kk >= k)
                        break;
                    const double *row = w + kk * n + j0;
                    __m512i lo[3], hi[3];
                    limbs8(_mm512_mul_pd(_mm512_div_pd(_mm512_maskz_loadu_pd(m0, row), k255),
                                         inv0), &lo[0], &lo[1], &lo[2]);
                    limbs8(_mm512_mul_pd(_mm512_div_pd(_mm512_maskz_loadu_pd(m1, row + 8), k255),
                                         inv1), &hi[0], &hi[1], &hi[2]);
                    for (int l = 0; l < 3; l++) {
                        /* 16 columns' limbs as int32, the low byte of each moved to byte i */
                        const __m512i q = _mm512_inserti64x4(lo[l], _mm512_castsi512_si256(hi[l]), 1);
                        word[l] = _mm512_or_si512(
                            word[l], _mm512_slli_epi32(_mm512_and_si512(q, low), 8 * i));
                    }
                }
                for (int l = 0; l < 3; l++)
                    _mm512_storeu_si512(tile + l * TILE + r * 64, word[l]);
            }
        }
    }
    return 0;
}

struct tile_config {
    uint8_t palette;
    uint8_t start_row;
    uint8_t reserved[14];
    uint16_t colsb[16];
    uint8_t rows[16];
};

/* The first layer of m rows of d bytes at `rows`: for row i and column
 * j < n, out[i n + j] = (float)(s_j (A0 + 2^-7 A1 + 2^-14 A2)). Each block of 32
 * rows is first copied to rows of ceil64(d) bytes on cache lines, which
 * tiles load at twice the speed of rows that straddle lines. Tiles 0-5
 * accumulate two 16-row blocks times three limbs, tile 6 holds a row
 * block's 64 inputs and tile 7 a limb tile. Returns 0, or 1 where the
 * 32 ceil64(d) bytes of the copy could not be allocated. */
int colearn_first_layer(const uint8_t *rows, size_t m, size_t d, const int8_t *packed,
                        const double *scales, size_t n, float *out)
{
    const size_t kb = (d + 63) / 64, nb = (n + 15) / 16, stride = kb * 64;
    uint8_t *a0 = aligned_alloc(64, 32 * stride), *a1 = a0 + 16 * stride;
    if (a0 == NULL)
        return 1;
    memset(a0, 0, 32 * stride);
    struct tile_config config __attribute__((aligned(64))) = {.palette = 1};
    for (int t = 0; t < 8; t++) {
        config.colsb[t] = 64;
        config.rows[t] = 16;
    }
    _tile_loadconfig(&config);
    int32_t acc[6][16][16];
    const __m512d k7 = _mm512_set1_pd(0x1p-7), k14 = _mm512_set1_pd(0x1p-14);
    for (size_t i0 = 0; i0 < m; i0 += 32) {
        const size_t block = m - i0 < 32 ? m - i0 : 32;
        const int two = block > 16;
        /* inputs past d stay zero; rows past m keep the last block's
         * bytes, and their sums are dropped */
        for (size_t r = 0; r < block; r++)
            memcpy(a0 + r * stride, rows + (i0 + r) * d, d);
        for (size_t b = 0; b < nb; b++) {
            const int8_t *tiles = packed + b * kb * 3 * TILE;
            _tile_zero(0);
            _tile_zero(1);
            _tile_zero(2);
            _tile_zero(3);
            _tile_zero(4);
            _tile_zero(5);
            for (size_t t = 0; t < kb; t++, tiles += 3 * TILE) {
/* tile numbers are spelled into the instruction, so each is a literal */
#define LIMB(l, below)                                            \
                _tile_loadd(7, tiles + l * TILE, 64);             \
                _tile_loadd(6, a0 + t * 64, stride);              \
                _tile_dpbusd(l, 6, 7);                            \
                if (two) {                                        \
                    _tile_loadd(6, a1 + t * 64, stride);          \
                    _tile_dpbusd(below, 6, 7);                    \
                }
                LIMB(0, 3)
                LIMB(1, 4)
                LIMB(2, 5)
#undef LIMB
            }
            _tile_stored(0, acc[0], 64);
            _tile_stored(1, acc[1], 64);
            _tile_stored(2, acc[2], 64);
            _tile_stored(3, acc[3], 64);
            _tile_stored(4, acc[4], 64);
            _tile_stored(5, acc[5], 64);
            const size_t j0 = b * 16, cols = n - j0 < 16 ? n - j0 : 16;
            const __mmask8 m0 = cols >= 8 ? 0xff : (__mmask8)((1u << cols) - 1);
            const __mmask8 m1 = cols >= 16 ? 0xff : cols > 8 ? (__mmask8)((1u << (cols - 8)) - 1) : 0;
            for (size_t r = 0; r < block; r++) {
                const size_t i = i0 + r;
                const int32_t *c0 = acc[r / 16 * 3][r % 16], *c1 = acc[r / 16 * 3 + 1][r % 16],
                              *c2 = acc[r / 16 * 3 + 2][r % 16];
                for (int h = 0; h < 2; h++) {
                    /* columns j0 + 8h .. j0 + 8h + 7: the sums in float64, exactly */
                    const __m512d s0 = _mm512_cvtepi32_pd(_mm256_loadu_si256((const void *)(c0 + 8 * h)));
                    const __m512d s1 = _mm512_cvtepi32_pd(_mm256_loadu_si256((const void *)(c1 + 8 * h)));
                    const __m512d s2 = _mm512_cvtepi32_pd(_mm256_loadu_si256((const void *)(c2 + 8 * h)));
                    const __m512d sum = _mm512_add_pd(_mm512_add_pd(s0, _mm512_mul_pd(s1, k7)),
                                                      _mm512_mul_pd(s2, k14));
                    const __mmask8 mask = h ? m1 : m0;
                    const __m512d scale = _mm512_maskz_loadu_pd(mask, scales + j0 + 8 * h);
                    _mm256_mask_storeu_ps(out + i * n + j0 + 8 * h, mask,
                                          _mm512_cvtpd_ps(_mm512_mul_pd(scale, sum)));
                }
            }
        }
    }
    _tile_release();
    free(a0);
    return 0;
}

/* Each row's byte sum and sum of squares, exactly, for m rows of d bytes. */
void colearn_byte_sums(const uint8_t *rows, size_t m, size_t d, double *sum, double *sumsq)
{
    const __m512i ones = _mm512_set1_epi16(1);
    for (size_t i = 0; i < m; i++) {
        const uint8_t *row = rows + i * d;
        /* each int32 lane adds at most 2 * 255^2 per 32 bytes: below 2^31 for d <= 2^19 */
        __m512i s = _mm512_setzero_si512(), q = _mm512_setzero_si512();
        for (size_t k = 0; k < d; k += 32) {
            const __mmask32 mask = d - k >= 32 ? 0xffffffffu : (__mmask32)((1u << (d - k)) - 1);
            const __m512i x = _mm512_cvtepu8_epi16(_mm256_maskz_loadu_epi8(mask, row + k));
            s = _mm512_add_epi32(s, _mm512_madd_epi16(x, ones));
            q = _mm512_add_epi32(q, _mm512_madd_epi16(x, x));
        }
        /* below 2^53: exact as doubles */
        sum[i] = (double)_mm512_reduce_add_epi32(s);
        sumsq[i] = (double)_mm512_reduce_add_epi64(_mm512_add_epi64(
            _mm512_cvtepu32_epi64(_mm512_castsi512_si256(q)),
            _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64(q, 1))));
    }
}

#pragma GCC pop_options

#endif
