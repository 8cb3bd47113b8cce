/* Straight-line DP kernels for banded cDTW and weighted edit distance.
 *
 * Compiled on demand by repro.distances.kernels.cext with the system C
 * compiler (cc -O3 -fPIC -shared) and loaded through ctypes — no build
 * system, no Python.h dependency.  All arrays are C-contiguous; indices,
 * lengths and symbol codes are int64 (numpy intp on every supported
 * platform), values are float64.
 *
 * The DP kernels mirror the numpy closed-form kernels in numpy_backend.py
 * cell for cell; only the floating-point evaluation order differs (direct
 * recurrence here vs. prefix-scan identity there), which the parity suite
 * bounds at 1e-12.
 *
 * One exception: repro_edit_batch with unit costs (empty table, ins = del =
 * dflt = 1.0) and a query of 1 to 64 symbols runs Myers' bit-vector
 * recurrence instead of the DP (edit_unit_words below).  It computes the
 * same integer distances from the DP's vertical deltas packed one bit per
 * query symbol; the float DP computes those integers exactly too, so the
 * two paths agree bit for bit.  Weighted costs and longer queries run the
 * DP.
 *
 * Every function returns 0 on success, 1 on allocation failure (the
 * ctypes wrapper raises MemoryError).
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define REPRO_INF HUGE_VAL

static double min2(double a, double b) { return a < b ? a : b; }

/* One banded DTW: query xs (n, d) vs one target y (m, d).
 *
 * Precondition: radius >= |n - m| (the callers' _resolve_radius widening),
 * so the band is never empty and shifts by at most one column per row —
 * which is why resetting only the two band-edge cells (instead of the
 * whole row) keeps every cell the next row reads valid. */
static void dtw_one(const double *xs, int64_t n, int64_t d,
                    const double *y, int64_t m, int64_t radius,
                    double *prev, double *cur, double *out)
{
    int64_t i, j, k;
    for (j = 0; j <= m; j++) prev[j] = REPRO_INF;
    prev[0] = 0.0;
    for (i = 1; i <= n; i++) {
        int64_t j_lo = i - radius;
        int64_t j_hi = i + radius;
        double *tmp;
        if (j_lo < 1) j_lo = 1;
        if (j_hi > m) j_hi = m;
        cur[j_lo - 1] = REPRO_INF;
        if (j_hi < m) cur[j_hi + 1] = REPRO_INF;
        for (j = j_lo; j <= j_hi; j++) {
            const double *yv = y + (j - 1) * d;
            const double *xv = xs + (i - 1) * d;
            double acc = 0.0;
            double best;
            for (k = 0; k < d; k++) {
                double diff = yv[k] - xv[k];
                acc += diff * diff;
            }
            best = min2(min2(prev[j], prev[j - 1]), cur[j - 1]);
            cur[j] = sqrt(acc) + best;
        }
        tmp = prev; prev = cur; cur = tmp;
    }
    *out = prev[m];
}

/* Banded DTW from xs (n, d) to a stack ys (g, m, d) of equal-length
 * targets; radius already includes the |n - m| widening. */
int repro_dtw_batch(const double *xs, int64_t n, int64_t d,
                    const double *ys, int64_t g, int64_t m,
                    int64_t radius, double *out)
{
    double *prev = (double *)malloc((size_t)(m + 1) * sizeof(double));
    double *cur = (double *)malloc((size_t)(m + 1) * sizeof(double));
    int64_t t;
    if (prev == NULL || cur == NULL) {
        free(prev);
        free(cur);
        return 1;
    }
    for (t = 0; t < g; t++)
        dtw_one(xs, n, d, ys + t * m * d, m, radius, prev, cur, &out[t]);
    free(prev);
    free(cur);
    return 0;
}

/* Banded DTW from xs (n, d) to zero-padded targets ys (g, m_max, d) with
 * per-target true lengths and band radii. */
int repro_dtw_batch_mixed(const double *xs, int64_t n, int64_t d,
                          const double *ys, int64_t g, int64_t m_max,
                          const int64_t *lengths, const int64_t *radii,
                          double *out)
{
    double *prev = (double *)malloc((size_t)(m_max + 1) * sizeof(double));
    double *cur = (double *)malloc((size_t)(m_max + 1) * sizeof(double));
    int64_t t;
    if (prev == NULL || cur == NULL) {
        free(prev);
        free(cur);
        return 1;
    }
    for (t = 0; t < g; t++)
        dtw_one(xs, n, d, ys + t * m_max * d, lengths[t], radii[t],
                prev, cur, &out[t]);
    free(prev);
    free(cur);
    return 0;
}

/* Unit-cost edit distance from a query of 1 <= n <= 64 symbols, by
 * G. Myers, "A fast bit-vector algorithm for approximate string matching
 * based on dynamic programming", JACM 46(3), 1999, in its global form.
 *
 * Bit i of pv / mv is set when the vertical delta D[i+1][j] - D[i][j] is
 * +1 / -1 (before the first target symbol every delta is +1), and score
 * follows D[n][j] along the last row.  The horizontal deltas ph / mh are
 * shifted up one row, taking in the top row's +1 (D[0][j] = j).  Carries
 * and shifts only move upwards, so the unused bits above n - 1 never reach
 * a used one.  eq is the match mask of the target symbol: a direct table
 * for codes 0..127, a scan over the query's other distinct codes for the
 * rest.  Targets are read only up to their true length. */
static void edit_unit_words(const int64_t *x_codes, int64_t n,
                            const int64_t *stack, int64_t g, int64_t m_max,
                            const int64_t *lengths, double *out)
{
    uint64_t low_masks[128] = {0};
    int64_t other_codes[64];
    uint64_t other_masks[64];
    const uint64_t top = (uint64_t)1 << (n - 1);
    int64_t n_other = 0, t, i, j, k;
    for (i = 0; i < n; i++) {
        int64_t a = x_codes[i];
        if (a >= 0 && a < 128) {
            low_masks[a] |= (uint64_t)1 << i;
            continue;
        }
        for (k = 0; k < n_other && other_codes[k] != a; k++)
            ;
        if (k == n_other) {
            other_codes[k] = a;
            other_masks[k] = 0;
            n_other++;
        }
        other_masks[k] |= (uint64_t)1 << i;
    }
    for (t = 0; t < g; t++) {
        const int64_t *y = stack + t * m_max;
        uint64_t pv = ~(uint64_t)0, mv = 0;
        int64_t score = n;
        for (j = 0; j < lengths[t]; j++) {
            int64_t b = y[j];
            uint64_t eq = 0, xv, xh, ph, mh;
            if (b >= 0 && b < 128) {
                eq = low_masks[b];
            } else {
                for (k = 0; k < n_other; k++)
                    if (other_codes[k] == b) {
                        eq = other_masks[k];
                        break;
                    }
            }
            xv = eq | mv;
            xh = (((eq & pv) + pv) ^ pv) | eq;
            ph = mv | ~(xh | pv);
            mh = pv & xh;
            score += (ph & top) != 0;
            score -= (mh & top) != 0;
            ph = (ph << 1) | 1;
            mh <<= 1;
            pv = mh | ~(xv | ph);
            mv = ph & xv;
        }
        out[t] = (double)score;
    }
}

/* Weighted edit distance from x_codes (n,) to zero-padded code rows
 * stack (g, m_max) with true lengths.  Substitution cost of codes (a, b):
 * 0 if a == b, table[a * n_tabled + b] if both < n_tabled, else dflt.
 * An empty table (n_tabled == 0) reproduces unit costs with dflt = 1;
 * those calls take the word path when the query fits one 64-bit word. */
int repro_edit_batch(const int64_t *x_codes, int64_t n,
                     const int64_t *stack, int64_t g, int64_t m_max,
                     const int64_t *lengths, double ins, double del,
                     const double *table, int64_t n_tabled, double dflt,
                     double *out)
{
    double *prev, *cur;
    int64_t t, i, j;
    if (n >= 1 && n <= 64 && n_tabled == 0 && ins == 1.0 && del == 1.0 &&
        dflt == 1.0) {
        edit_unit_words(x_codes, n, stack, g, m_max, lengths, out);
        return 0;
    }
    prev = (double *)malloc((size_t)(m_max + 1) * sizeof(double));
    cur = (double *)malloc((size_t)(m_max + 1) * sizeof(double));
    if (prev == NULL || cur == NULL) {
        free(prev);
        free(cur);
        return 1;
    }
    for (t = 0; t < g; t++) {
        const int64_t *y = stack + t * m_max;
        int64_t m = lengths[t];
        double *p = prev, *c = cur, *tmp;
        for (j = 0; j <= m; j++) p[j] = j * ins;
        for (i = 1; i <= n; i++) {
            int64_t a = x_codes[i - 1];
            const double *table_row =
                (n_tabled && a < n_tabled) ? table + a * n_tabled : NULL;
            c[0] = i * del;
            if (table_row == NULL) {
                /* Unit / untabled query symbol: sub is 0 or dflt. */
                for (j = 1; j <= m; j++) {
                    double sub = (y[j - 1] == a) ? 0.0 : dflt;
                    c[j] = min2(min2(p[j] + del, c[j - 1] + ins),
                                p[j - 1] + sub);
                }
            } else {
                for (j = 1; j <= m; j++) {
                    int64_t b = y[j - 1];
                    double sub;
                    if (a == b)
                        sub = 0.0;
                    else if (b < n_tabled)
                        sub = table_row[b];
                    else
                        sub = dflt;
                    c[j] = min2(min2(p[j] + del, c[j - 1] + ins),
                                p[j - 1] + sub);
                }
            }
            tmp = p; p = c; c = tmp;
        }
        out[t] = p[m];
    }
    free(prev);
    free(cur);
    return 0;
}
