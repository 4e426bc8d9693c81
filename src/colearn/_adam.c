/* One Adam step in one pass over the parameters.
 *
 * Each element goes through the operations of the blocked numpy step in
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
 * The caller checks that the four arrays are float64, contiguous and n long.
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
