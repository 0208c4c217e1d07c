/* The march kernel of layersolve.solver, loaded through ctypes.
   thomas_advance is its one Thomas elimination: it builds each step matrix,
   forms the right side and eliminates in one pass over the rows.  Each value
   is computed by the operations of the Python code it replaces
   (solver._advance_py and _solve_py, discretization._bands and step_rhs) in
   the same order; built with -ffp-contract=off, so that no a - b*c becomes a
   fused multiply-add, it returns bitwise the same doubles as that code.
   format_level writes the text solver._format_py writes, byte for byte. */
#include <math.h>
#include <string.h>

#define PIVOT_FLOOR 1e-300 /* solver.PIVOT_FLOOR */

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

/* Row i of the step matrix's bands (sub, diag, sup and c4dt, n each) into
   band, as discretization._bands builds it from the mesh's weights w (4 rows
   of n, discretization.stencil_weights) and the samples a, b and c of rows
   1 to n - 2. */
static void build_row(long n, long i, const double *w, double mu, double dt,
                      const double *a, const double *b, const double *c, double *band)
{
    if (i == 0 || i == (n - 1) / 2 || i == n - 1) { /* stored in w as it is */
        band[i] = w[i];
        band[n + i] = w[n + i];
        band[2 * n + i] = w[2 * n + i];
        band[3 * n + i] = 0.0;
        return;
    }
    double cbar = b[i - 1] + 2.0 * c[i - 1] / dt;
    double conv = mu * a[i - 1] / w[3 * n + i];
    double w_minus = w[i], w_center = w[n + i] - cbar, w_plus = w[2 * n + i];
    if (i < (n - 1) / 2) {
        w_minus -= conv;
        w_center += conv;
    } else {
        w_plus += conv;
        w_center -= conv;
    }
    band[i] = -w_minus;
    band[n + i] = -w_center;
    band[2 * n + i] = -w_plus;
    band[3 * n + i] = 4.0 * c[i - 1] / dt;
}

/* Advance u (steps + 1 rows of n) by `steps` steps.  Step k forms
   discretization.step_rhs into rhs from row k of u, the n - 2 source samples
   of row k of f and the boundary values ends[2k], ends[2k+1], and solves.
   At step 0 and at each step k with is_new[k] it builds the step matrix
   from w, mu, dt and the next row of a, b and cc (n - 2 samples each, one
   row per built matrix) into the next slot (4 n doubles) of bands, and
   eliminates as solver._solve_py, writing the multipliers c and the pivots
   piv: row by row, each row built, its rhs formed and eliminated in one
   pass.  The other steps sweep on c and piv.  Then it writes max|A x - rhs|,
   max|rhs| and max|x| (zeros without audit) into norms[3k..3k+2] and stores
   x, rows 0 and n - 1 pinned to the boundary values, as row k + 1.  Returns
   -1, the first step whose x is not finite, or -2 - (k n + row) for the
   first pivot of magnitude below PIVOT_FLOOR (a NaN pivot is not below it),
   at row of step k, after building the rest of its matrix. */
long thomas_advance(long steps, long n, long audit, double mu, double dt,
                    const double *w, const double *a, const double *b,
                    const double *cc, const unsigned char *is_new,
                    const double *f, const double *ends, double *u,
                    double *bands, double *norms, double *rhs, double *c,
                    double *piv)
{
    double *sub = bands, *diag = bands + n, *sup = bands + 2 * n, *c4dt = bands + 3 * n;
    for (long k = 0, at = 0, built = 0; k < steps; k++) {
        const double *prev = u + k * n, *fk = f + k * (n - 2);
        double *x = u + (k + 1) * n;
        double res = 0.0, rhs_max = 0.0, x_max = 0.0, ci = 0.0, xi = 0.0;
        int fresh = k == 0 || is_new[k];
        if (fresh) {
            at = built * (n - 2);
            sub = bands + 4 * n * built++;
            diag = sub + n;
            sup = sub + 2 * n;
            c4dt = sub + 3 * n;
        }
        for (long i = 0; i < n; i++) {
            if (fresh)
                build_row(n, i, w, mu, dt, a + at, b + at, cc + at, sub);
            if (i == 0 || i == n - 1)
                rhs[i] = ends[2 * k + (i > 0)];
            else if (i == (n - 1) / 2)
                rhs[i] = 0.0;
            else
                rhs[i] = c4dt[i] * prev[i] - apply_row(n, i, sub, diag, sup, prev)
                         - 2.0 * fk[i - 1];
            if (fresh) {
                double p = i ? diag[i] - sub[i] * ci : diag[0];
                if (fabs(p) < PIVOT_FLOOR) {
                    for (long r = i + 1; r < n; r++)
                        build_row(n, r, w, mu, dt, a + at, b + at, cc + at, sub);
                    return -2 - (k * n + i);
                }
                piv[i] = p;
                c[i] = ci = sup[i] / p;
            }
            x[i] = xi = (i ? rhs[i] - sub[i] * xi : rhs[0]) / piv[i];
        }
        for (long i = n - 2; i >= 0; i--)
            x[i] = xi = x[i] - c[i] * xi;
        for (long i = 0; i < n; i++)
            if (!isfinite(x[i]))
                return k;
        for (long i = 0; audit && i < n; i++) {
            res = max_abs(res, apply_row(n, i, sub, diag, sup, x) - rhs[i]);
            rhs_max = max_abs(rhs_max, rhs[i]);
            x_max = max_abs(x_max, x[i]);
        }
        norms[3 * k] = res;
        norms[3 * k + 1] = rhs_max;
        norms[3 * k + 2] = x_max;
        x[0] = rhs[0];
        x[n - 1] = rhs[n - 1];
    }
    return -1;
}

static const unsigned long long POW5[28] = { /* every 5^k below 2^64 */
    1, 5, 25, 125, 625, 3125, 15625, 78125, 390625, 1953125, 9765625, 48828125,
    244140625, 1220703125, 6103515625, 30517578125, 152587890625, 762939453125,
    3814697265625, 19073486328125, 95367431640625, 476837158203125, 2384185791015625,
    11920928955078125, 59604644775390625, 298023223876953125, 1490116119384765625,
    7450580596923828125};

/* v as Python's '%.17g' % v writes it, into out; returns its length, or -1
   unless v is zero, not finite or 1e-16 < |v| < 1e17 (the double 1e-16 is
   below 10^-16).  With |v| = m 2^(e-52) and decimal exponent x, the 17
   digits D = m 5^s 2^(e-52+s), s = 16 - x, are rounded half to even from
   the exact 128-bit product, so they are the correctly rounded ones. */
static long format_g17(double v, char *out)
{
    const char *word = isnan(v) ? "nan" : isinf(v) ? "inf" : v == 0.0 ? "0" : NULL;
    char *p = out + (signbit(v) && !isnan(v)), buf[21] = "0000", *dig = buf + 4;
    unsigned long long bits;
    unsigned __int128 q;
    *out = '-'; /* kept only when p is past it */
    if (word)
        return memcpy(p, word, strlen(word)), p - out + (long)strlen(word);
    if (!(fabs(v) > 1e-16 && fabs(v) < 1e17))
        return -1;
    memcpy(&bits, &v, sizeof bits);
    int e = (int)(bits >> 52 & 0x7ff) - 1023, x = e * 1233 >> 12; /* floor(e log10 2) */
    for (x = x < -16 ? -16 : x;; x++) { /* x is the decimal exponent or one below */
        int s = 16 - x, k = e - 52 + s;
        q = (unsigned __int128)((bits & 0xfffffffffffffULL) | 1ULL << 52)
            * POW5[s < 27 ? s : 27] * (s > 27 ? POW5[s - 27] : 1);
        unsigned __int128 half = k < 0 ? (unsigned __int128)1 << (-k - 1) : 0,
                          rem = k < 0 ? q & (2 * half - 1) : 0;
        q = k < 0 ? q >> -k : q << k;
        q += rem > half || (half && rem == half && (q & 1));
        if (q < 100000000000000000ULL)
            break;
    }
    unsigned hi = (unsigned)(q / 100000000), lo = (unsigned)(q % 100000000);
    for (int i = 16; i > 8; i--, hi /= 10, lo /= 10) /* two independent chains */
        dig[i] = (char)('0' + lo % 10), dig[i - 8] = (char)('0' + hi % 10);
    dig[0] = (char)('0' + hi);
    int nd = 17;
    while (dig[nd - 1] == '0')
        nd--;
    int shift = x >= -4 && x < 0 ? -x : 0;
    dig -= shift, nd += shift, x += shift; /* 0.000ddd is 000ddd at x = 0 */
    int whole = x >= 0 && x <= 16 ? x + 1 : 1, frac = nd > whole ? nd - whole : 0;
    memcpy(p, dig, whole); /* dig[nd:] are zeros */
    p[whole] = '.';        /* kept only when digits follow it */
    memcpy(p + whole + 1, dig + whole, frac);
    p += whole + (frac > 0) + frac;
    if (x < -4 || x > 16) { /* e-XX */
        *p++ = 'e';
        *p++ = x < 0 ? '-' : '+';
        *p++ = (char)('0' + (x < 0 ? -x : x) / 10);
        *p++ = (char)('0' + (x < 0 ? -x : x) % 10);
    }
    return p - out;
}

/* For each node i < n: lead, its piece xs[off[i]:off[i + 1]], u[i] as format_g17 writes
   it and '\n', into out.  Returns the byte count, or -1 if format_g17 refuses a u[i]. */
long format_level(long n, const char *lead, long lead_len, const char *xs,
                  const long *off, const double *u, char *out)
{
    char *p = out;
    for (long i = 0; i < n; i++) {
        memcpy(p, lead, lead_len);
        memcpy(p + lead_len, xs + off[i], off[i + 1] - off[i]);
        p += lead_len + off[i + 1] - off[i];
        long len = format_g17(u[i], p);
        if (len < 0)
            return -1;
        p[len] = '\n';
        p += len + 1;
    }
    return p - out;
}
