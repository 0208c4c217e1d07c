/* Thomas elimination for layersolve.solver, loaded through ctypes.  Each
   function performs the operations of the Python loop it replaces
   (solver._solve_py, _resolve_py and _advance_py) in the same order; built
   with -ffp-contract=off, so that no a - b*c becomes a fused multiply-add,
   it returns bitwise the same doubles as those loops. */
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

/* thomas_solve's sweeps on its sub, pivots and multipliers for a new rhs. */
static void resolve(long n, const double *sub, const double *piv,
                    const double *c, const double *rhs, double *x)
{
    x[0] = rhs[0] / piv[0];
    for (long i = 1; i < n; i++)
        x[i] = (rhs[i] - sub[i] * x[i - 1]) / piv[i];
    back_substitute(n, c, x);
}

/* Row i of A u as discretization._tridiagonal_apply forms it. */
static double apply_row(long n, long i, const double *sub, const double *diag,
                        const double *sup, const double *u)
{
    double y = diag[i] * u[i];
    if (i > 0)
        y += sub[i] * u[i - 1];
    if (i < n - 1)
        y += sup[i] * u[i + 1];
    return y;
}

/* max(m, |v|), NaN once either is NaN, as numpy's max of absolute values. */
static double max_abs(double m, double v)
{
    v = fabs(v);
    return (v > m || isnan(v)) ? v : m;
}

/* Advance u (steps + 1 rows of n) by `steps` steps of one matrix.  Step k
   forms discretization.step_rhs into rhs from row k of u, the n - 2 source
   samples of row k of f and the boundary values ends[2k], ends[2k+1]; solves
   as thomas_solve at k = 0, which writes c and piv, and as resolve after;
   writes max|A x - rhs|, max|rhs| and max|x| (zeros without audit) into
   norms[k], norms[steps + k] and norms[2 steps + k]; then stores x, rows 0
   and n - 1 pinned to the boundary values, as row k + 1.  Returns -1, the
   first step whose x is not finite, or -2 - row for a zero pivot at row. */
long thomas_advance(long steps, long n, long audit, const double *sub,
                    const double *diag, const double *sup, const double *c4dt,
                    const double *f, const double *ends, double *u,
                    double *rhs, double *c, double *piv, double *norms)
{
    for (long k = 0, row; k < steps; k++) {
        const double *prev = u + k * n;
        double *x = u + (k + 1) * n;
        double res = 0.0, rhs_max = 0.0, x_max = 0.0;
        for (long i = 1; i < n - 1; i++)
            rhs[i] = c4dt[i] * prev[i] - apply_row(n, i, sub, diag, sup, prev)
                     - 2.0 * f[k * (n - 2) + i - 1];
        rhs[0] = ends[2 * k];
        rhs[n - 1] = ends[2 * k + 1];
        rhs[(n - 1) / 2] = 0.0;
        if (k)
            resolve(n, sub, piv, c, rhs, x);
        else if ((row = thomas_solve(n, sub, diag, sup, rhs, c, piv, x)) >= 0)
            return -2 - row;
        for (long i = 0; i < n; i++)
            if (!isfinite(x[i]))
                return k;
        for (long i = 0; audit && i < n; i++) {
            res = max_abs(res, apply_row(n, i, sub, diag, sup, x) - rhs[i]);
            rhs_max = max_abs(rhs_max, rhs[i]);
            x_max = max_abs(x_max, x[i]);
        }
        norms[k] = res;
        norms[steps + k] = rhs_max;
        norms[2 * steps + k] = x_max;
        x[0] = rhs[0];
        x[n - 1] = rhs[n - 1];
    }
    return -1;
}
