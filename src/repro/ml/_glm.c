/* Per-tuple SGD epoch loops for the generalized linear models.
 *
 * The compiled twin of repro.ml.kernels.glm_epoch_dense / glm_epoch_sparse,
 * bit-identical to them: every dot product is numpy's own cblas_ddot (set by
 * glm_set_ddot) called the way numpy's DOUBLE_dot calls it, and everything
 * else is the same IEEE arithmetic in the same order (built without
 * -ffast-math and with -ffp-contract=off, so no FMA).  `exp` is libm's, the
 * function math.exp calls.
 *
 * Both loops validate every row they will visit before touching `w`: an
 * out-of-range order entry, CSR pointer or column index returns -1 with
 * nothing written, and the caller runs the numpy kernel, which raises.
 */
#include <limits.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define MIN_SCALE 1e-130               /* kernels._MIN_SCALE */
#define MAX_DOT ((int64_t)1 << 30)     /* numpy's smallest cblas chunk */

typedef double (*ddot64_fn)(int64_t, const double *, int64_t, const double *, int64_t);
typedef double (*ddot32_fn)(int, const double *, int, const double *, int);

static void *ddot_ptr;
static int ddot_ilp64;

void glm_set_ddot(void *fn, int ilp64) { ddot_ptr = fn; ddot_ilp64 = ilp64; }

/* numpy's DOUBLE_dot: a zero sum plus one cblas_ddot call. */
static double dot(int64_t n, const double *x, int64_t incx, const double *v)
{
    double sum = 0.0;
    if (ddot_ilp64)
        sum += ((ddot64_fn)ddot_ptr)(n, x, incx, v, 1);
    else
        sum += ((ddot32_fn)ddot_ptr)((int)n, x, (int)incx, v, 1);
    return sum;
}

/* ScalarLoss.dloss_dz_scalar: 0 logistic (with _sigmoid's ±500 clip), 1 hinge, 2 squared. */
static double dloss(int loss, double z, double y)
{
    if (loss == 0) {
        double t = -(y * z), sig;
        if (t >= 0) {
            if (t > 500.0) t = 500.0;
            sig = 1.0 / (1.0 + exp(-t));
        } else {
            if (t < -500.0) t = -500.0;
            double e = exp(t);
            sig = e / (1.0 + e);
        }
        return -y * sig;
    }
    if (loss == 1) return y * z < 1.0 ? -y : 0.0;
    return z - y;
}

/* Lazy L2: the true weights are s * w.  Returns the updated scale. */
static double decay_scale(double *w, int64_t d, double s, double decay)
{
    s *= decay;
    if (-MIN_SCALE < s && s < MIN_SCALE) {
        for (int64_t j = 0; j < d; j++) w[j] *= s;
        s = 1.0;
    }
    return s;
}

/* Rows order[0..m) of X (byte strides rs, cs; rows 0..m when order is NULL). */
int glm_epoch_dense(double *w, int64_t d, double *b, int loss, const double *X,
                    int64_t n, int64_t rs, int64_t cs, const double *y,
                    const int64_t *order, int64_t m, double lr, double l2, int fit_intercept)
{
    int64_t inc = cs / 8;
    if (d > MAX_DOT || cs <= 0 || cs % 8 || (!ddot_ilp64 && inc > INT_MAX)) return -1;
    for (int64_t k = 0; k < m; k++) {
        int64_t i = order ? order[k] : k;
        if (i < 0 || i >= n) return -1;
    }
    double s = 1.0, bb = *b, decay = 1.0 - lr * l2;
    for (int64_t k = 0; k < m; k++) {
        int64_t i = order ? order[k] : k;
        const double *x = (const double *)((const char *)X + i * rs);
        double coef = dloss(loss, s * dot(d, x, inc, w) + bb, y[i]);
        if (l2 != 0.0) s = decay_scale(w, d, s, decay);
        if (coef != 0.0) {
            double c = (lr * coef) / s;
            for (int64_t j = 0; j < d; j++) w[j] -= c * x[j * inc];
            if (fit_intercept) bb -= lr * coef;
        }
    }
    if (s != 1.0)
        for (int64_t j = 0; j < d; j++) w[j] *= s;
    *b = bb;
    return 0;
}

/* CSR rows order[0..m) (rows 0..m when order is NULL); nnz = len(indices). */
int glm_epoch_sparse(double *w, int64_t d, double *b, int loss, const int64_t *indptr,
                     const int64_t *indices, const double *values, int64_t n, int64_t nnz,
                     const double *y, const int64_t *order, int64_t m, double lr, double l2,
                     int fit_intercept)
{
    int64_t widest = 1;
    for (int64_t k = 0; k < m; k++) {
        int64_t i = order ? order[k] : k;
        if (i < 0 || i >= n) return -1;
        int64_t lo = indptr[i], hi = indptr[i + 1];
        if (lo < 0 || hi < lo || hi > nnz || hi - lo > MAX_DOT) return -1;
        int bad = 0;
        for (int64_t t = lo; t < hi; t++) bad |= (uint64_t)indices[t] >= (uint64_t)d;
        if (bad) return -1;
        if (hi - lo > widest) widest = hi - lo;
    }
    /* w[idx] is gathered into a contiguous buffer before the dot, as fancy
     * indexing does; the in-order scatter-add equals `w[idx] += ...` for
     * unique indices and np.add.at for repeated ones. */
    double *gathered = malloc(widest * sizeof(double));
    if (!gathered) return -1;
    double s = 1.0, bb = *b, decay = 1.0 - lr * l2;
    for (int64_t k = 0; k < m; k++) {
        int64_t i = order ? order[k] : k, lo = indptr[i], len = indptr[i + 1] - lo;
        const int64_t *idx = indices + lo;
        const double *vals = values + lo;
        for (int64_t t = 0; t < len; t++) gathered[t] = w[idx[t]];
        double coef = dloss(loss, s * dot(len, vals, 1, gathered) + bb, y[i]);
        if (l2 != 0.0) s = decay_scale(w, d, s, decay);
        if (coef != 0.0) {
            double scale = -(lr * coef) / s;
            for (int64_t t = 0; t < len; t++) w[idx[t]] += scale * vals[t];
            if (fit_intercept) bb -= lr * coef;
        }
    }
    free(gathered);
    if (s != 1.0)
        for (int64_t j = 0; j < d; j++) w[j] *= s;
    *b = bb;
    return 0;
}

/* X @ w for CSR X: row i sums values[t] * w[indices[t]] from 0.0 in element
 * order, which is how np.bincount(row_ids, weights=values * w[indices])
 * accumulates it.  Returns -1 with nothing written unless indptr runs from 0
 * to nnz without decreasing and every index lies in [0, d). */
int glm_csr_dot(const int64_t *indptr, const int64_t *indices, const double *values,
                int64_t n, int64_t nnz, const double *w, int64_t d, double *out)
{
    if (indptr[0] != 0 || indptr[n] != nnz) return -1;
    for (int64_t i = 0; i < n; i++)
        if (indptr[i + 1] < indptr[i]) return -1;
    int bad = 0;
    for (int64_t t = 0; t < nnz; t++) bad |= (uint64_t)indices[t] >= (uint64_t)d;
    if (bad) return -1;
    for (int64_t i = 0; i < n; i++) {
        double sum = 0.0;
        for (int64_t t = indptr[i]; t < indptr[i + 1]; t++) sum += values[t] * w[indices[t]];
        out[i] = sum;
    }
    return 0;
}
