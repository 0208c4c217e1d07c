/* Thomas elimination for layersolve.solver, loaded through ctypes.

   Each function performs the operations of the Python loop it replaces
   (solver._solve_py and solver._resolve_py) in the same order.  Built with
   -ffp-contract=off, so that no a - b*c becomes a fused multiply-add, it
   returns bitwise the same doubles as those loops. */
#include <math.h>

#define PIVOT_FLOOR 1e-300 /* solver.PIVOT_FLOOR */

static void back_substitute(long n, const double *c, double *x)
{
    for (long i = n - 2; i >= 0; i--)
        x[i] = x[i] - c[i] * x[i + 1];
}

/* Eliminate, writing the multipliers c and the pivots, then back-substitute
   into x.  Returns -1, or the first row whose pivot has magnitude below
   PIVOT_FLOOR (a NaN pivot is not below it). */
long thomas_solve(long n, const double *sub, const double *diag,
                  const double *sup, const double *rhs,
                  double *c, double *piv, double *x)
{
    double p = diag[0];
    if (fabs(p) < PIVOT_FLOOR)
        return 0;
    piv[0] = p;
    c[0] = sup[0] / p;
    x[0] = rhs[0] / p;
    for (long i = 1; i < n; i++) {
        p = diag[i] - sub[i] * c[i - 1];
        if (fabs(p) < PIVOT_FLOOR)
            return i;
        piv[i] = p;
        c[i] = sup[i] / p;
        x[i] = (rhs[i] - sub[i] * x[i - 1]) / p;
    }
    back_substitute(n, c, x);
    return -1;
}

/* The forward and back sweeps of thomas_solve on its stored sub, pivots and
   multipliers, for a new right-hand side. */
void thomas_resolve(long n, const double *sub, const double *piv,
                    const double *c, const double *rhs, double *x)
{
    x[0] = rhs[0] / piv[0];
    for (long i = 1; i < n; i++)
        x[i] = (rhs[i] - sub[i] * x[i - 1]) / piv[i];
    back_substitute(n, c, x);
}
