/* The compiled loops of repro: the per-tuple SGD epochs, the sparse X @ w,
 * the check of a columnar page's header, the decode of a run of columnar
 * pages and the CSR row gather.  Each one is
 * bit-identical to the numpy / Python twin that stays its reference, and each
 * returns -1 with nothing written to its caller's arrays for any input it does
 * not take, so the caller runs the twin, which raises what it raises.
 *
 * The epoch loops are the compiled twins of repro.ml.kernels.glm_epoch_dense /
 * glm_epoch_sparse: every dot product is numpy's own cblas_ddot (set by
 * glm_set_ddot) called the way numpy's DOUBLE_dot calls it, and everything
 * else is the same IEEE arithmetic in the same order (built without
 * -ffast-math and with -ffp-contract=off, so no FMA).  `exp` is libm's, the
 * function math.exp calls.  Both validate every row they will visit before
 * touching `w`: an out-of-range order entry, CSR pointer or column index
 * returns -1.
 */
#include <limits.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* ----------------------------------------------------------------------
 * Columnar run decode: repro.storage.columnar._decode_run for every column
 * of a run of whole-block pages (the layout is columnar.py's: a 16-byte
 * header, 20-byte directory entries, little-endian chunks).
 * ---------------------------------------------------------------------- */

enum { COL_IDS = 1, COL_LABELS, COL_DENSE, COL_INDPTR, COL_INDICES, COL_VALUES };
enum { ENC_F64 = 0, ENC_I64 = 1, ENC_PACKED = 2 };
enum { RAW_F64 = 16, RAW_I64 = 17 };   /* a chunk's stored kind; 1/2/4/8 is a packed width */
#define HEADER_BYTES 16
#define ENTRY_BYTES 20

static uint32_t u32_at(const uint8_t *p) { uint32_t v; memcpy(&v, p, 4); return v; }

typedef struct {
    const uint8_t *values;  /* the first stored value */
    int64_t n;              /* stored values */
    int64_t length;         /* the chunk's bytes, as its directory entry says */
    int kind, delta;        /* a one-value packed chunk counts as delta-coded */
} chunk_t;

/* The row count of payload buf[0..size), checked as _read_directory and
 * decode_block_columnar's schema check check it: magic, version, the
 * directory and every chunk's byte range inside the payload, and a page of
 * sparsity `sparse` and width d.  -1 for anything else. */
static int64_t header_rows(const uint8_t *buf, int64_t size, int sparse, int64_t d)
{
    if (size < HEADER_BYTES || memcmp(buf, "CPB1", 4) != 0 || buf[4] != 1 || buf[5] != 0)
        return -1;
    int64_t n_cols = buf[14];
    if (u32_at(buf + 10) != d || (buf[15] & 1) != sparse || HEADER_BYTES + ENTRY_BYTES * n_cols > size)
        return -1;
    for (int64_t i = 0; i < n_cols; i++) {
        const uint8_t *e = buf + HEADER_BYTES + ENTRY_BYTES * i;
        if ((int64_t)u32_at(e + 4) + u32_at(e + 8) > size) return -1;
    }
    return u32_at(buf + 6);
}

/* header_rows of one page payload, for a pool miss.  Called without ctypes
 * argtypes, whose per-argument conversion costs twice the check, so its
 * arguments are C ints, masked to 32 bits: a masked size only shortens the
 * prefix checked, a width past INT_MAX matches no stored u32 width, and a
 * row count past INT_MAX is refused. */
int columnar_header(const uint8_t *buf, int size, int sparse, int d)
{
    int64_t rows = header_rows(buf, size, sparse, d);
    return rows <= INT_MAX ? (int)rows : -1;
}

/* Column `col`'s chunk of payload buf[0..size), checked as _checked_chunks
 * checks it (known encoding, values inside the chunk's bytes, n x d values
 * for a dense chunk), of a page header_rows accepts for the run's
 * sparsity and width: float64 columns stored raw, ints raw or packed, indptr
 * packed and delta-coded.  0, or -1 for anything else. */
static int find_chunk(const uint8_t *buf, int64_t size, int sparse, int64_t d, int col, chunk_t *c)
{
    int64_t n_tuples = header_rows(buf, size, sparse, d);
    if (n_tuples < 0) return -1;
    for (int64_t i = 0; i < buf[14]; i++) {
        const uint8_t *e = buf + HEADER_BYTES + ENTRY_BYTES * i;
        if (e[0] != col) continue;
        int64_t offset = u32_at(e + 4), item;
        c->length = u32_at(e + 8);
        c->n = u32_at(e + 12);
        if (e[1] == ENC_PACKED && (e[2] == 1 || e[2] == 2 || e[2] == 4 || e[2] == 8)) {
            c->kind = item = e[2];
            c->delta = e[3] != 0 || c->n == 1;
        } else if (e[1] == ENC_F64 || e[1] == ENC_I64) {
            c->kind = e[1] == ENC_F64 ? RAW_F64 : RAW_I64;
            item = 8;
            c->delta = 0;
        } else {
            return -1;
        }
        if (c->n * item > c->length || (col == COL_DENSE && c->n != n_tuples * d)) return -1;
        c->values = buf + offset;
        if (col == COL_LABELS || col == COL_DENSE || col == COL_VALUES)
            return c->kind == RAW_F64 ? 0 : -1;
        if (col == COL_INDPTR)  /* row lengths after a leading 0 */
            return c->kind < RAW_F64 && c->delta && c->n > 0 ? 0 : -1;
        return c->kind != RAW_F64 ? 0 : -1;
    }
    return -1;  /* pruned, or never stored */
}

/* Packed values src[0..n) of width w widened to 64 bits, or their running sum
 * from acc when `sum` is set (uint64 arithmetic: numpy's int64 wraps the
 * same).  Returns the last value written.  One loop per case, so the plain
 * widen carries no per-value branch. */
static uint64_t unpack(const uint8_t *src, int w, int64_t n, int sum, uint64_t acc, int64_t *out)
{
#define UNPACK(T)                                                   \
    if (sum) {                                                      \
        for (int64_t t = 0; t < n; t++) {                           \
            T v;                                                    \
            memcpy(&v, src + t * sizeof(T), sizeof(T));             \
            out[t] = (int64_t)(acc += v);                           \
        }                                                           \
    } else {                                                        \
        for (int64_t t = 0; t < n; t++) {                           \
            T v;                                                    \
            memcpy(&v, src + t * sizeof(T), sizeof(T));             \
            out[t] = (int64_t)v;                                    \
        }                                                           \
        if (n > 0) acc = (uint64_t)out[n - 1];                      \
    }
    switch (w) {
    case 1: UNPACK(uint8_t) break;
    case 2: UNPACK(uint16_t) break;
    case 4: UNPACK(uint32_t) break;
    default: UNPACK(uint64_t)
    }
#undef UNPACK
    return acc;
}

/* Column col's chunk on each of k pages into chunks[0..k), adding its output
 * length to *total and its chunk bytes to *nbytes: -1 unless every chunk
 * passes find_chunk. */
static int check_column(const int64_t *spans, int64_t k, int sparse, int64_t d, int col,
                        chunk_t *chunks, int64_t *total, int64_t *nbytes)
{
    *total = col == COL_INDPTR;
    for (int64_t p = 0; p < k; p++) {
        chunk_t *c = chunks + p;
        const uint8_t *buf = (const uint8_t *)(uintptr_t)spans[2 * p];
        if (find_chunk(buf, spans[2 * p + 1], sparse, d, col, c) != 0) return -1;
        *total += col == COL_INDPTR ? c->n - 1 : c->n;
        *nbytes += c->length;
    }
    return 0;
}

/* The column decoded from its checked chunks, end to end into out. */
static void write_column(const chunk_t *chunks, int64_t k, int col, char *out)
{
    uint64_t acc = 0;
    if (col == COL_INDPTR) {
        memset(out, 0, 8);
        out += 8;
    }
    for (int64_t p = 0; p < k; p++) {
        const chunk_t *c = chunks + p;
        if (col == COL_INDPTR) {  /* the stored lengths after the page's leading 0 */
            acc = unpack(c->values + c->kind, c->kind, c->n - 1, 1, acc, (int64_t *)out);
            out += 8 * (c->n - 1);
        } else if (c->kind >= RAW_F64) {
            memcpy(out, c->values, 8 * c->n);
            out += 8 * c->n;
        } else {
            unpack(c->values, c->kind, c->n, c->delta, 0, (int64_t *)out);
            out += 8 * c->n;
        }
    }
}

/* The run of k pages, page p the spans[2p + 1] bytes at address spans[2p],
 * all sparse or all dense, with n_features d.  With outs NULL, plans:
 * plan[col] is the length of column col's output and plan[0] the run's chunk
 * bytes.  Then with outs[col] pointing at plan[col] values of the column's
 * dtype (int64 ids, indptr, indices; float64 labels, dense, values), decodes
 * each page's chunk by its own stored kind: raw chunks copied, packed ones
 * widened (a delta-coded chunk summed, restarting on every page), indptr the
 * pages' row lengths summed across the run.  Pages of mixed packed widths or
 * delta flags give what _decode_run's page-by-page stack gives them.  -1 for
 * a missing column or any chunk find_chunk refuses. */
int columnar_run(const int64_t *spans, int64_t k, int sparse, int64_t d, int64_t *plan,
                 char *const *outs)
{
    static const int sparse_cols[] = {COL_IDS, COL_LABELS, COL_INDPTR, COL_INDICES, COL_VALUES};
    static const int dense_cols[] = {COL_IDS, COL_LABELS, COL_DENSE};
    const int *cols = sparse ? sparse_cols : dense_cols;
    int n_cols = sparse ? 5 : 3, rc = 0;
    chunk_t *chunks = malloc((k > 0 ? k : 1) * sizeof *chunks);
    if (!chunks) return -1;
    int64_t nbytes = 0;
    for (int j = 0; rc == 0 && j < n_cols; j++) {
        int col = cols[j];
        int64_t total;
        rc = check_column(spans, k, sparse, d, col, chunks, &total, &nbytes);
        if (rc != 0) break;
        if (!outs)
            plan[col] = total;
        else if (plan[col] != total)
            rc = -1;
        else
            write_column(chunks, k, col, outs[col]);
    }
    free(chunks);
    if (rc == 0 && !outs) plan[0] = nbytes;
    return rc;
}

/* ----------------------------------------------------------------------
 * CSR row gather: repro.data.sparse.gather_csr_rows.  csr_gather_plan writes
 * the gathered indptr of rows[0..m) and returns its nnz; csr_gather_copy then
 * copies the rows' segments.  Both return -1, leaving the output indices and
 * data unwritten, for a row outside [0, n) or a segment outside [0, nnz).
 * ---------------------------------------------------------------------- */

int64_t csr_gather_plan(const int64_t *indptr, int64_t n, int64_t nnz, const int64_t *rows,
                        int64_t m, int64_t *out_indptr)
{
    int64_t total = 0;
    out_indptr[0] = 0;
    for (int64_t k = 0; k < m; k++) {
        int64_t r = rows[k];
        if (r < 0 || r >= n) return -1;
        int64_t lo = indptr[r], hi = indptr[r + 1];
        if (lo < 0 || hi < lo || hi > nnz) return -1;
        out_indptr[k + 1] = total += hi - lo;
    }
    return total;
}

int csr_gather_copy(const int64_t *indptr, int64_t n, int64_t nnz, const int64_t *rows,
                    int64_t m, const int64_t *out_indptr, const int64_t *indices,
                    const double *data, int64_t *out_indices, double *out_data)
{
    for (int64_t k = 0; k < m; k++) {
        int64_t r = rows[k];
        if (r < 0 || r >= n) return -1;
        int64_t lo = indptr[r], len = out_indptr[k + 1] - out_indptr[k];
        if (lo < 0 || len < 0 || lo + len > nnz || indptr[r + 1] - lo != len) return -1;
    }
    for (int64_t k = 0; k < m; k++) {
        int64_t lo = indptr[rows[k]], at = out_indptr[k], len = out_indptr[k + 1] - at;
        memcpy(out_indices + at, indices + lo, 8 * len);
        memcpy(out_data + at, data + lo, 8 * len);
    }
    return 0;
}
