/*
 * The candidate stage of distance-graph construction (paper Section III),
 * compiled: the row overlaps of A·Aᵀ, the Hamming weights and the pruning
 * filter in one pass, without forming the product.  It emits what the
 * SciPy path of repro.core.distance emits, in the same order:
 *
 *   - For each row x in [lo, hi), ascending, one counter per row y counts
 *     |row(x) ∩ row(y)| by walking the rows of each of x's columns (the
 *     rows of Aᵀ).  The rows touched are then put in ascending order, so
 *     a row's edges come out by ascending y, as the sorted rows of A·Aᵀ
 *     give them.
 *   - Each touched y gives the edge y -> x with weight
 *     w = nnz(x) + nnz(y) - 2·overlap, kept when 2·overlap - nnz(y) >
 *     alpha (the pruning rule of Section V-C, alpha >= 0), or, for
 *     alpha = -1, when y > x and w < max(nnz(x), nnz(y)) (the undirected
 *     safety filter).  Only y > x can survive that filter, so the
 *     undirected walk reads each column from its highest row down and
 *     stops at x.
 *
 * Aᵀ's rows are sorted (as a.transpose() makes them).  The caller
 * validates the rest: indices in range, and no row's walk longer than an
 * int32 counter holds.  Scratch, per concurrent caller: `counters` (n
 * int32) and `bits` ((n + 63) / 64 words) start zeroed and are left
 * zeroed, and `touched` (n) is overwritten; nothing is static and nothing
 * is allocated.  When a row's edges might not fit in the `capacity`
 * left, the call stops before that row.  Returns the number of edges
 * written to src/dst/w and sets *next_row to the first row not emitted
 * (hi when done).
 */
#include <stdint.h>

static void cand_sift(int64_t *a, int64_t root, int64_t k)
{
    const int64_t v = a[root];
    for (int64_t child; (child = 2 * root + 1) < k; root = child) {
        if (child + 1 < k && a[child + 1] > a[child])
            ++child;
        if (a[child] <= v)
            break;
        a[root] = a[child];
    }
    a[root] = v;
}

/* Sort the distinct values a[0..k) ascending: quicksort, insertion sort
 * for short runs, heapsort once `depth` partitions deep. */
static void cand_sort(int64_t *a, int64_t k, int depth)
{
    while (k > 16) {
        if (depth-- == 0) {
            for (int64_t i = k / 2; i-- > 0;)
                cand_sift(a, i, k);
            while (--k > 0) {
                const int64_t t = a[0];
                a[0] = a[k];
                a[k] = t;
                cand_sift(a, 0, k);
            }
            return;
        }
        /* Median of three into a[0] <= a[mid] <= a[k - 1], then Hoare's
         * partition around a[mid]: both sides come out non-empty. */
        const int64_t mid = k / 2;
        int64_t t;
        if (a[mid] < a[0]) { t = a[mid]; a[mid] = a[0]; a[0] = t; }
        if (a[k - 1] < a[mid]) { t = a[k - 1]; a[k - 1] = a[mid]; a[mid] = t; }
        if (a[mid] < a[0]) { t = a[mid]; a[mid] = a[0]; a[0] = t; }
        const int64_t pivot = a[mid];
        int64_t i = -1, j = k;
        for (;;) {
            while (a[++i] < pivot) {}
            while (a[--j] > pivot) {}
            if (i >= j)
                break;
            t = a[i]; a[i] = a[j]; a[j] = t;
        }
        /* Recurse into the shorter side, loop on the longer. */
        if (j + 1 < k - j - 1) {
            cand_sort(a, j + 1, depth);
            a += j + 1;
            k -= j + 1;
        } else {
            cand_sort(a + j + 1, k - j - 1, depth);
            k = j + 1;
        }
    }
    for (int64_t i = 1; i < k; ++i) {
        const int64_t v = a[i];
        int64_t j = i;
        for (; j > 0 && a[j - 1] > v; --j)
            a[j] = a[j - 1];
        a[j] = v;
    }
}

/* Put the k distinct rows of touched[] in ascending order.  When they
 * span fewer than 4k words of 64 rows (rows near each other, as in
 * clustered graphs or under a hub), set their bits and read the words
 * back, clearing them, at a cost of k plus the span; else sort, at
 * k·log k. */
static void cand_order(int64_t *restrict touched, int64_t k, uint64_t *restrict bits)
{
    if (k > 16) {
        int64_t lo = touched[0], hi = touched[0];
        for (int64_t i = 1; i < k; ++i) {
            lo = touched[i] < lo ? touched[i] : lo;
            hi = touched[i] > hi ? touched[i] : hi;
        }
        if ((hi >> 6) - (lo >> 6) < 4 * k) {
            for (int64_t i = 0; i < k; ++i)
                bits[touched[i] >> 6] |= (uint64_t)1 << (touched[i] & 63);
            int64_t j = 0;
            for (int64_t word = lo >> 6; word <= hi >> 6; ++word) {
                for (uint64_t b = bits[word]; b; b &= b - 1)
                    touched[j++] = (word << 6) + __builtin_ctzll(b);
                bits[word] = 0;
            }
            return;
        }
    }
    int depth = 2;
    for (int64_t m = k; m > 1; m >>= 1)
        depth += 2;
    cand_sort(touched, k, depth);
}

int64_t cbm_candidates(int64_t lo, int64_t hi, const int64_t *indptr, const int64_t *indices,
                       const int64_t *tptr, const int64_t *trows, const int64_t *row_nnz,
                       int64_t alpha, int32_t *restrict counters, int64_t *restrict touched,
                       uint64_t *restrict bits, int64_t capacity, int64_t *src, int64_t *dst,
                       int64_t *w, int64_t *next_row)
{
    int64_t out = 0, x = lo;
    for (; x < hi; ++x) {
        int64_t k = 0;
        const int64_t end = indptr[x + 1];
        for (int64_t p = indptr[x]; p < end; ++p) {
            /* A column's first rows are this loop's cache misses: fetch
             * them two columns ahead. */
            if (p + 2 < end)
                __builtin_prefetch(trows + tptr[indices[p + 2]]);
            const int64_t *col = trows + tptr[indices[p]];
            int64_t len = tptr[indices[p] + 1] - tptr[indices[p]];
            if (alpha < 0) {
                while (len > 0 && col[len - 1] > x) {
                    const int64_t y = col[--len];
                    if (counters[y]++ == 0)
                        touched[k++] = y;
                }
            } else {
                /* x counts itself too; it is skipped below. */
                for (int64_t q = 0; q < len; ++q) {
                    const int64_t y = col[q];
                    if (counters[y]++ == 0)
                        touched[k++] = y;
                }
            }
        }
        if (out + k > capacity) {
            for (int64_t i = 0; i < k; ++i)
                counters[touched[i]] = 0;
            break;
        }
        cand_order(touched, k, bits);
        const int64_t nx = row_nnz[x];
        for (int64_t i = 0; i < k; ++i) {
            const int64_t y = touched[i], ny = row_nnz[y], overlap = counters[y];
            const int64_t weight = nx + ny - 2 * overlap;
            counters[y] = 0;
            if (y == x)
                continue;
            if (alpha < 0 ? weight < (nx > ny ? nx : ny) : 2 * overlap - ny > alpha) {
                src[out] = y;
                dst[out] = x;
                w[out] = weight;
                ++out;
            }
        }
    }
    *next_row = x;
    return out;
}
