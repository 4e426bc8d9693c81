/* One Adam step in one pass over the parameters.
 *
 * Each element goes through exactly the operations of the blocked numpy step
 * in colearn/_kernels.py, in the same order, each rounded once:
 *
 *     m = m * beta1 + (1 - beta1) * g
 *     v = v * beta2 + (1 - beta2) * (g * g)
 *     theta -= alpha * (m / bc1) / (sqrt(v / bc2) + eps)
 *
 * so the results are bit for bit those of numpy. That holds only when the
 * compiler fuses no multiply into an add (-ffp-contract=off) and keeps every
 * division a division (no -ffast-math); -fno-math-errno lets sqrt compile to
 * the correctly rounded instruction. The bias corrections bc1 and bc2 come
 * from the caller, computed as the numpy step computes them.
 *
 * The caller checks that the four arrays are float64, contiguous and n long.
 */

#include <math.h>
#include <stddef.h>

void colearn_adam_step(double *theta, const double *grad, double *m, double *v,
                       size_t n, double alpha, double beta1, double beta2, double eps,
                       double bc1, double bc2)
{
    const double c1 = 1.0 - beta1;
    const double c2 = 1.0 - beta2;
    for (size_t i = 0; i < n; i++) {
        const double g = grad[i];
        const double mi = m[i] * beta1 + c1 * g;
        const double vi = v[i] * beta2 + c2 * (g * g);
        m[i] = mi;
        v[i] = vi;
        theta[i] -= (alpha * (mi / bc1)) / (sqrt(vi / bc2) + eps);
    }
}
