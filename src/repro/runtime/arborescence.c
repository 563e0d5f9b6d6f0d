/*
 * The contraction rounds of Chu–Liu/Edmonds (paper Section V-C),
 * compiled: the minimum-cost arborescence of the virtual-rooted
 * distance graph.  It computes what the NumPy rounds of
 * repro.core.arborescence compute, so the two give the same tree:
 *
 *   - Edge ids are positions in src/dst/w: the virtual edges root -> x
 *     come first (ids 0..n-1, source n), then the real ones.
 *   - A node's pick is the lowest (weight, edge id) entry of its in-list
 *     (ids are unique within a list, so the order is total), kept at the
 *     list's head.  The rest stay unsorted: nothing else reads their
 *     order, since a contraction keeps the lowest (weight, id) entry per
 *     source wherever it sits.
 *   - Each round walks the pick graph from that round's fresh nodes, in
 *     order (rows 0..n-1 first, then the last round's supernodes), and
 *     contracts every cycle found at once; supernode ids follow
 *     discovery order.
 *   - A supernode's in-list holds its members' entries whose source lies
 *     outside the cycle, each weight reduced by its member's pick; of the
 *     entries from one source only the lowest (weight, id) is kept.
 *   - Expansion replays the contractions newest first: the entry chosen
 *     for a supernode lands on the member it was copied from, and every
 *     other member keeps its pick.
 *
 * Node ids: rows 0..n-1, the root n, then supernodes from n + 1.  Each
 * contraction retires at least two nodes and creates one, so ids stay
 * below 2n + 1.  A node's live node is found through `up` (union-find
 * with path halving), so a round costs the entries it gathers, not a
 * relabelling of every node.
 *
 * The caller validates the input: `edges` entries with 0 <= dst < n,
 * 0 <= src <= n (n only for the virtual edges), src != dst and w >= 0.
 * No allocation is sized by a weight, and nothing is static, so calls
 * may run concurrently.  Returns 0 with each row's chosen edge id in
 * `picked`, CBM_ARB_NOMEM when an allocation fails, or CBM_ARB_DIVERGED
 * when the rounds do not converge.
 */
#include <stdint.h>
#include <stdlib.h>

#define CBM_ARB_NOMEM (-1)
#define CBM_ARB_DIVERGED (-2)

typedef struct {
    int64_t w;    /* weight, reduced to the round its list was made in */
    int64_t eid;  /* original edge id: the tie-breaker and the answer */
    int64_t src;  /* original source node */
    int64_t from; /* slot it was copied from; -1 for an original edge */
} arb_entry;

static inline int arb_less(const arb_entry *a, const arb_entry *b)
{
    return a->w < b->w || (a->w == b->w && a->eid < b->eid);
}

static inline int64_t arb_find(int64_t *up, int64_t x)
{
    while (up[x] != x) {
        up[x] = up[up[x]];
        x = up[x];
    }
    return x;
}

/* Move the lowest (w, eid) entry of a[0..k), k >= 1, to a[0]. */
static void arb_head(arb_entry *a, int64_t k)
{
    int64_t low = 0;
    for (int64_t i = 1; i < k; ++i)
        if (arb_less(&a[i], &a[low]))
            low = i;
    arb_entry t = a[0];
    a[0] = a[low];
    a[low] = t;
}

/* Room for `need` entries past `used`; 0 when the allocation fails. */
static int arb_reserve(arb_entry **pool, int64_t *cap, int64_t used, int64_t need)
{
    if (used + need <= *cap)
        return 1;
    int64_t grown = 2 * *cap > used + need ? 2 * *cap : used + need;
    arb_entry *p = realloc(*pool, (size_t)grown * sizeof *p);
    if (p == 0)
        return 0;
    *pool = p;
    *cap = grown;
    return 1;
}

int64_t cbm_arborescence(int64_t n, int64_t edges, const int64_t *src,
                         const int64_t *dst, const int64_t *w, int64_t *picked)
{
    const int64_t root = n, nodes = 2 * n + 1;
    int64_t status = CBM_ARB_NOMEM;
    /* Per node: its in-list pool[lo..hi), its union-find parent, the
     * walk token that last visited it, the supernode whose gather it
     * last gave an entry to and that entry's slot, and the slot of the
     * entry entering it once expanded. */
    int64_t *lo = calloc((size_t)nodes, sizeof *lo);
    int64_t *hi = malloc((size_t)nodes * sizeof *hi);
    int64_t *up = malloc((size_t)nodes * sizeof *up);
    int64_t *walk = calloc((size_t)nodes, sizeof *walk);
    int64_t *stamp = malloc((size_t)nodes * sizeof *stamp);
    int64_t *best = malloc((size_t)nodes * sizeof *best);
    int64_t *into = malloc((size_t)nodes * sizeof *into);
    /* One walk's nodes, and the members of every supernode in creation
     * order: supernode s owns members[first[s] .. first[s + 1]). */
    int64_t *path = malloc((size_t)nodes * sizeof *path);
    int64_t *members = malloc((size_t)nodes * sizeof *members);
    int64_t *first = malloc((size_t)(nodes + 1) * sizeof *first);
    int64_t cap = edges + 1;
    arb_entry *pool = malloc((size_t)cap * sizeof *pool);
    if (!lo || !hi || !up || !walk || !stamp || !best || !into || !path || !members || !first
        || !pool)
        goto done;

    /* Original in-lists: bucket the edges by destination, each pick at
     * the head of its bucket. */
    for (int64_t e = 0; e < edges; ++e)
        ++lo[dst[e]];
    for (int64_t v = 0, at = 0; v < nodes; ++v) {
        const int64_t count = lo[v];
        lo[v] = hi[v] = at;
        at += count;
    }
    for (int64_t e = 0; e < edges; ++e)
        pool[hi[dst[e]]++] = (arb_entry){w[e], e, src[e], -1};
    for (int64_t v = 0; v < n; ++v)
        arb_head(pool + lo[v], hi[v] - lo[v]);
    for (int64_t v = 0; v < nodes; ++v) {
        up[v] = v;
        stamp[v] = -1;
    }

    int64_t used = edges, next = n + 1, token = 0, joined = 0;
    int64_t fresh_lo = 0, fresh_hi = n;
    first[next] = 0;
    for (int64_t round = 0;; ++round) {
        if (round > n) {
            status = CBM_ARB_DIVERGED;
            goto done;
        }
        /* Walk the picks from each fresh node; a walk that comes back to
         * itself closes a cycle, which becomes the next supernode. */
        const int64_t made = next, base = token + 1;
        for (int64_t start = fresh_lo; start < fresh_hi; ++start) {
            int64_t v = start, len = 0;
            ++token;
            while (v != root && walk[v] < base) {
                walk[v] = token;
                path[len++] = v;
                v = arb_find(up, pool[lo[v]].src);
            }
            if (v == root || walk[v] != token)
                continue;
            if (next >= nodes) {
                status = CBM_ARB_DIVERGED;
                goto done;
            }
            int64_t k = len - 1;
            while (path[k] != v)
                --k;
            for (; k < len; ++k)
                members[joined++] = path[k];
            first[++next] = joined;
        }
        if (next == made)
            break;
        for (int64_t s = made; s < next; ++s)
            for (int64_t i = first[s]; i < first[s + 1]; ++i)
                up[members[i]] = s;

        /* Each supernode's in-list: its members' entries from outside
         * the cycle, the best one per source, the pick at the head. */
        for (int64_t s = made; s < next; ++s) {
            int64_t need = 0;
            for (int64_t i = first[s]; i < first[s + 1]; ++i)
                need += hi[members[i]] - lo[members[i]];
            if (!arb_reserve(&pool, &cap, used, need))
                goto done;
            const int64_t start = used;
            for (int64_t i = first[s]; i < first[s + 1]; ++i) {
                const int64_t m = members[i], pick = pool[lo[m]].w;
                for (int64_t slot = lo[m]; slot < hi[m]; ++slot) {
                    const int64_t from = arb_find(up, pool[slot].src);
                    if (from == s)
                        continue;
                    arb_entry e = {pool[slot].w - pick, pool[slot].eid, pool[slot].src, slot};
                    if (stamp[from] != s) {
                        stamp[from] = s;
                        best[from] = used;
                        pool[used++] = e;
                    } else if (arb_less(&e, &pool[best[from]])) {
                        pool[best[from]] = e;
                    }
                }
            }
            arb_head(pool + start, used - start);
            lo[s] = start;
            hi[s] = used;
        }
        fresh_lo = made;
        fresh_hi = next;
    }

    /* Expand newest first: every node keeps its pick, except the member
     * whose list the entry entering its supernode was copied from. */
    for (int64_t v = 0; v < next; ++v)
        into[v] = lo[v];
    for (int64_t s = next - 1; s > n; --s) {
        const int64_t from = pool[into[s]].from;
        for (int64_t i = first[s]; i < first[s + 1]; ++i) {
            const int64_t m = members[i];
            into[m] = lo[m] <= from && from < hi[m] ? from : lo[m];
        }
    }
    for (int64_t v = 0; v < n; ++v)
        picked[v] = pool[into[v]].eid;
    status = 0;

done:
    free(lo);
    free(hi);
    free(up);
    free(walk);
    free(stamp);
    free(best);
    free(into);
    free(path);
    free(members);
    free(first);
    free(pool);
    return status;
}
