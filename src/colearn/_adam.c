/* One Adam step in one pass over the parameters, in two loops that give the
 * same bits.
 *
 * Each element goes through the operations of the blocked numpy step in
 * colearn/_kernels.py, in the same order, each correctly rounded:
 *
 *     m = m * beta1 + (1 - beta1) * g
 *     v = v * beta2 + (1 - beta2) * (g * g)
 *     theta -= alpha * (m / bc1) / (sqrt(v / bc2) + eps)
 *
 * so the results are bit for bit those of numpy. That holds only when the
 * compiler fuses no multiply into an add on its own (-ffp-contract=off) and
 * keeps every division a division (no -ffast-math); -fno-math-errno lets
 * sqrt compile to the correctly rounded instruction. The bias corrections
 * bc1 and bc2 come from the caller, computed as the numpy step computes
 * them.
 *
 * colearn_adam_step_portable is that loop as written, for any CPU.
 *
 * colearn_adam_step_fma runs four elements at a time on AVX2 and replaces
 * the divides m / bc1 and v / bc2, which bound the portable loop, by
 * multiplies and fused multiply-adds. With y = 1.0 / bc, divided once per
 * call, the quotient q = a / bc is
 *
 *     q = a * y;  r = fma(-q, bc, a);  q = fma(r, y, q);
 *                 r = fma(-q, bc, a);  q = fma(r, y, q);
 *
 * After the first correction q is within one ulp of a / bc. Markstein's
 * theorem (IBM J. Res. Dev. 34(1), 1990) then makes the second correction
 * return the correctly rounded a / bc, because y is within half an ulp of
 * 1 / bc, and neither the quotient nor the residual r underflows or
 * overflows. The loop guards those conditions:
 *  - a call whose bc lies outside [2^-64, 1] runs the portable loop;
 *  - an a of magnitude outside [2^-900, 2^900], NaN or inf takes the true
 *    divide, where the residual could leave the normal range;
 *  - m = -0 passes through unchanged: m / bc is then -0, which the
 *    corrections would turn into +0. A zero takes the quotient, not the
 *    divide, so that parameters with zero gradients cost nothing extra;
 *    v is never -0 after its update, as (1 - beta2) * (g * g) is not.
 * The last divide and the square root stay as they are. The loop is
 * compiled for AVX2 and FMA through a target attribute, not -march, so the
 * library still loads on any CPU of its machine type; colearn_adam_has_fma
 * says whether this CPU may run it.
 *
 * The caller checks that the four arrays are float64, contiguous and n long.
 */

#include <math.h>
#include <stddef.h>

static inline void adam_element(double *theta, const double *grad, double *m, double *v,
                                size_t i, double alpha, double beta1, double beta2,
                                double eps, double bc1, double bc2)
{
    const double g = grad[i];
    const double mi = m[i] * beta1 + (1.0 - beta1) * g;
    const double vi = v[i] * beta2 + (1.0 - beta2) * (g * g);
    m[i] = mi;
    v[i] = vi;
    theta[i] -= (alpha * (mi / bc1)) / (sqrt(vi / bc2) + eps);
}

void colearn_adam_step_portable(double *theta, const double *grad, double *m, double *v,
                                size_t n, double alpha, double beta1, double beta2,
                                double eps, double bc1, double bc2)
{
    for (size_t i = 0; i < n; i++)
        adam_element(theta, grad, m, v, i, alpha, beta1, beta2, eps, bc1, bc2);
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>

int colearn_adam_has_fma(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

/* a / bc for four elements, within one ulp before the second correction and
 * correctly rounded after it, where a is in range; y = 1.0 / bc */
__attribute__((target("avx2,fma")))
static inline __m256d quotient(__m256d a, __m256d bc, __m256d y)
{
    __m256d q = _mm256_mul_pd(a, y);
    __m256d r = _mm256_fnmadd_pd(q, bc, a);
    q = _mm256_fmadd_pd(r, y, q);
    r = _mm256_fnmadd_pd(q, bc, a);
    return _mm256_fmadd_pd(r, y, q);
}

/* lanes whose a the quotient takes: magnitude in [2^-900, 2^900], or zero;
 * ordered compares, so NaN is not one of them */
__attribute__((target("avx2,fma")))
static inline __m256d in_range(__m256d a)
{
    const __m256d abs_a = _mm256_andnot_pd(_mm256_set1_pd(-0.0), a);
    return _mm256_or_pd(
        _mm256_and_pd(_mm256_cmp_pd(abs_a, _mm256_set1_pd(0x1p-900), _CMP_GE_OQ),
                      _mm256_cmp_pd(abs_a, _mm256_set1_pd(0x1p900), _CMP_LE_OQ)),
        _mm256_cmp_pd(a, _mm256_setzero_pd(), _CMP_EQ_OQ));
}

__attribute__((target("avx2,fma")))
void colearn_adam_step_fma(double *theta, const double *grad, double *m, double *v,
                           size_t n, double alpha, double beta1, double beta2, double eps,
                           double bc1, double bc2)
{
    if (!(bc1 >= 0x1p-64 && bc1 <= 1.0 && bc2 >= 0x1p-64 && bc2 <= 1.0)) {
        colearn_adam_step_portable(theta, grad, m, v, n, alpha, beta1, beta2, eps, bc1, bc2);
        return;
    }
    const __m256d b1 = _mm256_set1_pd(beta1), c1 = _mm256_set1_pd(1.0 - beta1);
    const __m256d b2 = _mm256_set1_pd(beta2), c2 = _mm256_set1_pd(1.0 - beta2);
    const __m256d al = _mm256_set1_pd(alpha), ep = _mm256_set1_pd(eps);
    const __m256d d1 = _mm256_set1_pd(bc1), y1 = _mm256_set1_pd(1.0 / bc1);
    const __m256d d2 = _mm256_set1_pd(bc2), y2 = _mm256_set1_pd(1.0 / bc2);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d g = _mm256_loadu_pd(grad + i);
        const __m256d mi = _mm256_add_pd(_mm256_mul_pd(_mm256_loadu_pd(m + i), b1),
                                         _mm256_mul_pd(c1, g));
        const __m256d vi = _mm256_add_pd(_mm256_mul_pd(_mm256_loadu_pd(v + i), b2),
                                         _mm256_mul_pd(c2, _mm256_mul_pd(g, g)));
        _mm256_storeu_pd(m + i, mi);
        _mm256_storeu_pd(v + i, vi);
        __m256d mq = quotient(mi, d1, y1), vq = quotient(vi, d2, y2);
        const __m256d ok = _mm256_and_pd(in_range(mi), in_range(vi));
        if (_mm256_movemask_pd(ok) != 0xF) {
            mq = _mm256_blendv_pd(_mm256_div_pd(mi, d1), mq, in_range(mi));
            vq = _mm256_blendv_pd(_mm256_div_pd(vi, d2), vq, in_range(vi));
        }
        /* -0 / bc is -0, where the corrections give +0 */
        mq = _mm256_blendv_pd(mq, mi, _mm256_cmp_pd(mi, _mm256_setzero_pd(), _CMP_EQ_OQ));
        const __m256d num = _mm256_mul_pd(al, mq);
        const __m256d den = _mm256_add_pd(_mm256_sqrt_pd(vq), ep);
        _mm256_storeu_pd(theta + i, _mm256_sub_pd(_mm256_loadu_pd(theta + i),
                                                  _mm256_div_pd(num, den)));
    }
    /* the last n % 4 elements: the portable arithmetic, the same bits */
    for (; i < n; i++)
        adam_element(theta, grad, m, v, i, alpha, beta1, beta2, eps, bc1, bc2);
}
#else
int colearn_adam_has_fma(void)
{
    return 0;
}
#endif
