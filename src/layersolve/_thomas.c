/* The march kernel of layersolve.solver, loaded through ctypes.
   thomas_advance is its one Thomas elimination: it builds each step matrix,
   forms the right side and eliminates in one pass over the rows.  Each value
   is computed by the operations of the Python code it replaces
   (solver._advance_py and _solve_py, discretization._bands and step_rhs) in
   the same order; built with -ffp-contract=off, so that no a - b*c becomes a
   fused multiply-add, it returns bitwise the same doubles as that code.
   The audit norms are taken where their products are already formed: the
   residual A x - rhs of a step whose matrix the next step re-solves reuses
   the A U of that next step's right side.
   format_levels writes the text solver._format_py writes, byte for byte. */
#include <math.h>
#include <string.h>

#define PIVOT_FLOOR 1e-300 /* solver.PIVOT_FLOOR */

/* Row i of A u as discretization._tridiagonal_apply forms it. */
static inline double apply_row(long n, long i, const double *sub, const double *diag,
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

/* Row i's |A x - rhs|, |rhs| and |x| into the maxima m[0], m[1] and m[2]. */
static inline void take_norms(long n, long i, const double *sub, const double *diag,
                              const double *sup, const double *x, const double *rhs,
                              double *m)
{
    m[0] = max_abs(m[0], apply_row(n, i, sub, diag, sup, x) - rhs[i]);
    m[1] = max_abs(m[1], rhs[i]);
    m[2] = max_abs(m[2], x[i]);
}

/* Row i of the step matrix's bands (sub, diag, sup and c4dt, n each) into
   band, as discretization._bands builds it from the mesh's weights w (4 rows
   of n, discretization.stencil_weights) and one step's samples of a, b and
   c on rows 1 to n - 2: sample r of s[v] is s[v][r * col[v]]. */
static void build_row(long n, long i, const double *w, double mu, double dt,
                      const double *const s[3], const long col[3], double *band)
{
    if (i == 0 || i == (n - 1) / 2 || i == n - 1) { /* stored in w as it is */
        band[i] = w[i];
        band[n + i] = w[n + i];
        band[2 * n + i] = w[2 * n + i];
        band[3 * n + i] = 0.0;
        return;
    }
    double a = s[0][(i - 1) * col[0]], b = s[1][(i - 1) * col[1]], c = s[2][(i - 1) * col[2]];
    double cbar = b + 2.0 * c / dt;
    double conv = mu * a / w[3 * n + i];
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
    band[3 * n + i] = 4.0 * c / dt;
}

/* Whether x[r * sx] and y[r * sy] differ in any bit for some r < len: -0.0
   differs from 0.0, and NaNs are compared by their bits. */
static int differ(long len, const double *x, long sx, const double *y, long sy)
{
    for (long r = 0; r < len; r++) {
        unsigned long long p, q;
        memcpy(&p, x + r * sx, sizeof p);
        memcpy(&q, y + r * sy, sizeof q);
        if (p != q)
            return 1;
    }
    return 0;
}

/* Advance u (steps + 1 rows of n) by steps >= 1 steps.  a, b, cc and f hold
   n - 2 samples a step, of rows 1 to n - 2, read through their strides in
   bytes, multiples of 8 (a_k over the steps and a_r over the rows for a,
   and so on).  In st, the same in doubles, sample r of step k of the v-th
   of them is at [k * st[2v] + r * st[2v + 1]].  A stride may be 0 (a
   sample that ignores t, or one constant in x) or negative.
   First is_new[k] gets whether step k's a, b and cc differ in a bit from
   step k - 1's (differ); a step stride of 0 means that they do not.  Step
   0 is compared with last (3 rows of n - 2: the a, b and cc of the step
   before the chunk) when have_last, and is new otherwise.  Unless bands
   has a slot (4 n doubles; it has `slots`) for step 0 and each later new
   step, the call returns -2 before any step; else the last step's a, b and
   cc are copied into last.
   Step k forms discretization.step_rhs into rhs from row k of u, step k
   of f and the boundary values ends[2k], ends[2k+1], and solves.  At step
   0 and at each new step it builds the step matrix from w, mu, dt and the
   step's a, b and cc into the next slot of bands, and eliminates as
   solver._solve_py, writing the multipliers c and the pivots piv (scratch
   holds 4 n doubles: rhs, c, piv and the right side of the step before):
   row by row, each row built, its rhs formed and eliminated in one pass.
   The other steps sweep on c and piv.  norms[3k..3k+2] get max|A x - rhs|,
   max|rhs| and max|x| of step k (zeros without audit).  The back sweep
   checks that x is finite and takes the norms as it goes; but when step
   k + 1 re-solves step k's matrix, it takes them only on rows 0, 1,
   (n - 1)/2, n - 2 and n - 1, and step k + 1 takes the other rows' as it
   forms its right side, from the A x it needs (x is row k + 1 of u, equal
   to the solved x but on the pinned rows 0 and n - 1).  x, rows 0 and
   n - 1 pinned to the boundary values, is stored as row k + 1.  Returns
   -1, the first step k whose x is not finite (its x, not pinned, is row
   k + 1), or -3 - (k n + row) for the first pivot of magnitude below
   PIVOT_FLOOR (a NaN pivot is not below it), at row of step k, after
   building the rest of its matrix; row k + 1 of u is then unspecified. */
long thomas_advance(long steps, long n, long audit, long slots, double mu, double dt,
                    const double *w, const double *a, const double *b,
                    const double *cc, const double *f, long a_k, long a_r, long b_k,
                    long b_r, long c_k, long c_r, long f_k, long f_r,
                    const double *ends, double *u, double *bands, double *norms,
                    unsigned char *is_new, double *last, long have_last,
                    double *scratch)
{
    double *rhs = scratch, *c = scratch + n, *piv = scratch + 2 * n, *before = scratch + 3 * n;
    const long d = (long)sizeof(double), st[8] = {a_k / d, a_r / d, b_k / d, b_r / d,
                                                  c_k / d, c_r / d, f_k / d, f_r / d};
    const double *s[3] = {a, b, cc};
    const long col[3] = {st[1], st[3], st[5]}; /* the strides over the rows */
    long builds = 0;
    for (long k = 0; k < steps; k++) {
        int fresh = k == 0 && !have_last;
        for (int v = 0; v < 3 && !fresh; v++) {
            const double *x = s[v] + k * st[2 * v];
            if (k == 0)
                fresh = differ(n - 2, x, col[v], last + v * (n - 2), 1);
            else if (st[2 * v]) /* else equal; one sample tells when constant in x */
                fresh = differ(col[v] ? n - 2 : 1, x, col[v], x - st[2 * v], col[v]);
        }
        is_new[k] = (unsigned char)fresh;
        builds += k == 0 || fresh;
    }
    if (builds > slots)
        return -2;
    for (int v = 0; v < 3; v++)
        for (long r = 0; r < n - 2; r++)
            last[v * (n - 2) + r] = s[v][(steps - 1) * st[2 * v] + r * col[v]];

    double *sub = bands, *diag = bands + n, *sup = bands + 2 * n, *c4dt = bands + 3 * n;
    const double *step[3] = {a, b, cc};
    double m[3] = {0.0, 0.0, 0.0}, mp[3]; /* the norms of this step and of the one before */
    for (long k = 0, built = 0; k < steps; k++) {
        const double *prev = u + k * n, *fk = f + k * st[6];
        double *x = u + (k + 1) * n, ci = 0.0, xi = 0.0, *t = before;
        int fresh = k == 0 || is_new[k];
        /* share: step k - 1's norms are finished here; pend: step k's are
           finished by step k + 1 */
        int share = audit && !fresh, pend = audit && k + 1 < steps && !is_new[k + 1];
        before = rhs; /* step k - 1's right side */
        rhs = t;
        memcpy(mp, m, sizeof m);
        m[0] = m[1] = m[2] = 0.0;
        if (fresh) {
            for (int v = 0; v < 3; v++)
                step[v] = s[v] + k * st[2 * v];
            sub = bands + 4 * n * built++;
            diag = sub + n;
            sup = sub + 2 * n;
            c4dt = sub + 3 * n;
        }
        if (share) {
            /* the right side's A prev is step k - 1's A x on the rows that read
               neither pinned end (2 to n - 3): one product serves both */
            for (long i = 0; i < n; i++) {
                if (i == (n - 1) / 2)
                    rhs[i] = 0.0;
                else if (i == 0 || i == n - 1)
                    rhs[i] = ends[2 * k + (i > 0)];
                else {
                    double ax = apply_row(n, i, sub, diag, sup, prev);
                    rhs[i] = c4dt[i] * prev[i] - ax - 2.0 * fk[(i - 1) * st[7]];
                    if (i > 1 && i < n - 2) {
                        mp[0] = max_abs(mp[0], ax - before[i]);
                        mp[1] = max_abs(mp[1], before[i]);
                        mp[2] = max_abs(mp[2], prev[i]);
                    }
                }
                x[i] = xi = (i ? rhs[i] - sub[i] * xi : rhs[0]) / piv[i];
            }
            memcpy(norms + 3 * (k - 1), mp, sizeof mp);
        } else {
            for (long i = 0; i < n; i++) {
                if (fresh)
                    build_row(n, i, w, mu, dt, step, col, sub);
                if (i == (n - 1) / 2) /* before the ends: row 0 when n = 2, as in step_rhs */
                    rhs[i] = 0.0;
                else if (i == 0 || i == n - 1)
                    rhs[i] = ends[2 * k + (i > 0)];
                else
                    rhs[i] = c4dt[i] * prev[i] - apply_row(n, i, sub, diag, sup, prev)
                             - 2.0 * fk[(i - 1) * st[7]];
                if (fresh) {
                    double p = i ? diag[i] - sub[i] * ci : diag[0];
                    if (fabs(p) < PIVOT_FLOOR) {
                        for (long r = i + 1; r < n; r++)
                            build_row(n, r, w, mu, dt, step, col, sub);
                        return -3 - (k * n + i);
                    }
                    piv[i] = p;
                    c[i] = ci = sup[i] / p;
                }
                x[i] = xi = (i ? rhs[i] - sub[i] * xi : rhs[0]) / piv[i];
            }
        }
        /* the back sweep; once x[i - 1] is known, row i is final, and its
           norms are taken (max_abs does not depend on the order of the rows) */
        int finite = isfinite(xi);
        if (audit && !pend) {
            for (long i = n - 1; i > 0; i--) {
                x[i - 1] = xi = x[i - 1] - c[i - 1] * xi;
                finite &= isfinite(xi);
                take_norms(n, i, sub, diag, sup, x, rhs, m);
            }
            take_norms(n, 0, sub, diag, sup, x, rhs, m);
        } else {
            for (long i = n - 2; i >= 0; i--) {
                x[i] = xi = x[i] - c[i] * xi;
                finite &= isfinite(xi);
            }
        }
        if (!finite)
            return k;
        if (pend) { /* the rows step k + 1 leaves: A x reads a pinned end, or
                       its right side has no product */
            const long rows[5] = {0, 1, (n - 1) / 2, n - 2, n - 1};
            for (int r = 0; r < 5; r++)
                take_norms(n, rows[r], sub, diag, sup, x, rhs, m);
        } else
            memcpy(norms + 3 * k, m, sizeof m);
        x[0] = ends[2 * k];
        x[n - 1] = ends[2 * k + 1];
    }
    return -1;
}

static const unsigned long long POW5[28] = { /* every 5^k below 2^64 */
    1, 5, 25, 125, 625, 3125, 15625, 78125, 390625, 1953125, 9765625, 48828125,
    244140625, 1220703125, 6103515625, 30517578125, 152587890625, 762939453125,
    3814697265625, 19073486328125, 95367431640625, 476837158203125, 2384185791015625,
    11920928955078125, 59604644775390625, 298023223876953125, 1490116119384765625,
    7450580596923828125};

static const double POW10_UP[34] = { /* the least double >= 10^j, j = -16..17 */
    1.0000000000000001e-16, 1e-15, 1.0000000000000002e-14, 1e-13, 1.0000000000000002e-12,
    1.0000000000000001e-11, 1e-10, 1e-09, 1e-08, 1.0000000000000001e-07,
    1.0000000000000002e-06, 1e-05, 1e-04, 1e-03, 1e-02, 1e-01, 1e0, 1e1, 1e2, 1e3, 1e4,
    1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17};

#define D1(s) s "0" s "1" s "2" s "3" s "4" s "5" s "6" s "7" s "8" s "9"
#define D2(s) D1(s "0") D1(s "1") D1(s "2") D1(s "3") D1(s "4") D1(s "5") D1(s "6") \
    D1(s "7") D1(s "8") D1(s "9")
#define D3(s) D2(s "0") D2(s "1") D2(s "2") D2(s "3") D2(s "4") D2(s "5") D2(s "6") \
    D2(s "7") D2(s "8") D2(s "9")
static const char DIGITS4[] = /* "0000" to "9999" */
    D3("0") D3("1") D3("2") D3("3") D3("4") D3("5") D3("6") D3("7") D3("8") D3("9");

/* The digits of g < 10^4 and h < 10^4 (DIGITS4), g's first digit in the
   lowest byte. */
static inline unsigned long long digits8(unsigned g, unsigned h)
{
    unsigned w[2];
    memcpy(w, DIGITS4 + 4 * g, 4);
    memcpy(w + 1, DIGITS4 + 4 * h, 4);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    w[0] = __builtin_bswap32(w[0]), w[1] = __builtin_bswap32(w[1]);
#endif
    return w[0] | (unsigned long long)w[1] << 32;
}

/* The 8 bytes of w, its lowest byte first in memory. */
static inline void store8(char *p, unsigned long long w)
{
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    w = __builtin_bswap64(w);
#endif
    memcpy(p, &w, 8);
}

/* v as Python's '%.17g' % v writes it, into out; returns its length, or -1
   unless v is zero, not finite or 1e-16 < |v| < 1e17 (the double 1e-16 is
   below 10^-16).  With |v| = m 2^(e-52) and decimal exponent x, the 17
   digits D = m 5^s 2^(e-52+s), s = 16 - x, are rounded half to even from
   the exact product m 5^s, normalised so that its top 64 bits hold D
   shifted left by 6 to 10 bits, so they are the correctly rounded ones.
   Writes up to 40 bytes past out. */
static inline long format_g17(double v, char *out)
{
    unsigned long long bits, least, limit, up;
    memcpy(&bits, &v, sizeof bits);
    memcpy(&least, &POW10_UP[0], sizeof least);
    memcpy(&limit, &POW10_UP[33], sizeof limit);
    unsigned long long a = bits & ~(1ULL << 63); /* |v|, ordered as its value */
    char *p = out + (bits != a);
    *out = '-'; /* kept only when p is past it */
    if (a - least >= limit - least) { /* not 10^-16 <= |v| < 10^17 */
        const char *word = isnan(v) ? "nan" : isinf(v) ? "inf" : a == 0 ? "0" : NULL;
        if (!word)
            return -1;
        if (isnan(v)) /* unsigned */
            p = out;
        memcpy(p, word, strlen(word));
        return p + strlen(word) - out;
    }
    int e = (int)(a >> 52) - 1023, x = e * 1233 >> 12; /* floor(e log10 2) */
    memcpy(&up, &POW10_UP[x + 17], sizeof up);
    x += a >= up; /* floor(log10 |v|) */
    int s = 16 - x, sh;
    unsigned long long m = (a & 0xfffffffffffffULL) | 1ULL << 52, q, sticky;
    if (s < 28) { /* 5^s is one word: both factors normalised to 2^63 or more */
        int z = __builtin_clzll(POW5[s]);
        unsigned __int128 prod = (unsigned __int128)(m << 11) * (POW5[s] << z);
        q = (unsigned long long)(prod >> 64), sticky = (unsigned long long)prod != 0;
        sh = z - e - s - 1;
    } else {
        unsigned __int128 prod = (unsigned __int128)m * POW5[27] * POW5[s - 27];
        int z = __builtin_clzll((unsigned long long)(prod >> 64));
        prod <<= z;
        q = (unsigned long long)(prod >> 64), sticky = (unsigned long long)prod != 0;
        sh = z - e - s - 12;
    }
    unsigned long long rem = q & ((1ULL << sh) - 1), half = 1ULL << (sh - 1),
                       zeros = 0x3030303030303030ULL;
    q >>= sh;
    q += rem + ((q & 1) | sticky) > half; /* half to even */
    if (q == 100000000000000000ULL) /* rounded up to 10^17 */
        q = 10000000000000000ULL, x++;
    /* D is d, then the four-digit groups of high and low */
    unsigned upper = (unsigned)(q / 100000000), low = (unsigned)(q % 100000000),
             d = upper / 100000000, high = upper % 100000000;
    unsigned long long head = digits8(high / 10000, high % 10000),
                       tail = digits8(low / 10000, low % 10000);
    int nd = tail != zeros ? 17 - (__builtin_clzll(tail - zeros) >> 3)
             : head != zeros ? 9 - (__builtin_clzll(head - zeros) >> 3) : 1;
    if (x >= -4 && x < 0) { /* 0.000ddd */
        memcpy(p, "0.000000", 8);
        p += 1 - x;
        *p = (char)('0' + d);
        store8(p + 1, head);
        store8(p + 9, tail);
        return p + nd - out;
    }
    *p = (char)('0' + d);
    store8(p + 1, head);
    store8(p + 9, tail);
    if (x >= 0 && x <= 16) { /* ddd.ddd: the digits after the point move right by one */
        memmove(p + x + 2, p + x + 1, 16);
        p[x + 1] = '.';
        return p + (nd > x + 1 ? nd + 1 : x + 1) - out;
    }
    memmove(p + 2, p + 1, 16); /* d.ddde-XX */
    p[1] = '.';
    p += nd > 1 ? nd + 1 : 1;
    memcpy(p, x < 0 ? "e-" : "e+", 2);
    p[2] = (char)('0' + (x < 0 ? -x : x) / 10);
    p[3] = (char)('0' + (x < 0 ? -x : x) % 10);
    return p + 4 - out;
}

/* dst[0:len] = src[0:len] as one 32-byte copy when len <= 32 (src must have
   32 readable bytes and dst 32 writable ones); returns dst + len. */
static inline char *put(char *dst, const char *src, long len)
{
    if (len <= 32)
        memcpy(dst, src, 32);
    else
        memcpy(dst, src, len);
    return dst + len;
}

/* The text of one level into out: head, then for each node i < n lead, the
   piece xs[off[i]:off[i+1]], u[i] as format_g17 writes it and '\n'.
   Returns its bytes, or -1 if format_g17 refuses a u[i]. */
static long format_level(long n, const char *head, long head_len, const char *lead,
                         long lead_len, const char *xs, const long *off, const double *u,
                         char *out)
{
    char *p = put(out, head, head_len);
    for (long i = 0; i < n; i++) {
        p = put(put(p, lead, lead_len), xs + off[i], off[i + 1] - off[i]);
        long len = format_g17(u[i], p);
        if (len < 0)
            return -1;
        p[len] = '\n';
        p += len + 1;
    }
    return p - out;
}

/* `levels` rows of n values u as text into out.  Level l has the head
   text[at[2l]:at[2l+1]] and the lead text[at[2l+1]:at[2l+2]] (format_level).
   Stops before the first level with a value that format_g17 refuses; *done
   is the number of levels written, and the return value their bytes.  text
   and xs need 32 readable bytes past their last piece, and out 64 writable
   bytes past the text. */
long format_levels(long levels, long n, const char *text, const long *at, const char *xs,
                   const long *off, const double *u, char *out, long *done)
{
    char *p = out;
    long l = 0;
    for (long len; l < levels; l++, p += len) {
        len = format_level(n, text + at[2 * l], at[2 * l + 1] - at[2 * l], text + at[2 * l + 1],
                           at[2 * l + 2] - at[2 * l + 1], xs, off, u + l * n, p);
        if (len < 0)
            break;
    }
    *done = l;
    return p - out;
}
