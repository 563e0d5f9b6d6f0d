/*
 * The CBM update stage (paper Section IV), compiled.
 *
 * For each tree edge in topological order, row x of the multiply-stage
 * output becomes c[parent(x)] + c[x]: one axpy per edge.  The deferred
 * row scale of the DAD / D1AD2 variants follows as one multiply per
 * element.  Each element sees the same additions, in the same order, as
 * the NumPy level walk (repro.runtime.plan.apply_level_schedule), so the
 * two agree bit for bit; building with -ffp-contract=off keeps the
 * compiler from fusing a multiply into an add where FMA is baseline.
 *
 * c is row-major with `stride` elements between row starts and `width`
 * contiguous elements per row; `rows` and `parents` hold `edges` row
 * indices below `n`; `scale` is NULL or holds `n` factors.  The caller
 * validates all of it.
 */
#include <stdint.h>

#define CBM_WALK(NAME, T)                                                   \
    void NAME(T *c, int64_t stride, int64_t width, const int64_t *rows,     \
              const int64_t *parents, int64_t edges, const T *scale,        \
              int64_t n)                                                    \
    {                                                                       \
        for (int64_t e = 0; e < edges; ++e) {                               \
            T *restrict dst = c + rows[e] * stride;                         \
            const T *restrict src = c + parents[e] * stride;                \
            for (int64_t j = 0; j < width; ++j)                             \
                dst[j] = src[j] + dst[j];                                   \
        }                                                                   \
        if (scale == 0)                                                     \
            return;                                                         \
        for (int64_t i = 0; i < n; ++i) {                                   \
            T *restrict row = c + i * stride;                               \
            const T s = scale[i];                                           \
            for (int64_t j = 0; j < width; ++j)                             \
                row[j] *= s;                                                \
        }                                                                   \
    }

CBM_WALK(cbm_walk_f32, float)
CBM_WALK(cbm_walk_f64, double)
