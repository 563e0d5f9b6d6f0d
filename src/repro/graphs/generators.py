"""Synthetic graph generators calibrated to the paper's dataset families.

No network access is available, so each of the paper's eight datasets is
stood in for by a generator that reproduces the structural axes the paper
identifies as the drivers of CBM compression (Sections VI-D and VI-H):
average degree and neighbourhood similarity / clustering coefficient.

* :func:`citation_graph` — Holme–Kim preferential attachment with triadic
  closure: low average degree, tunable moderate clustering (Cora, PubMed).
* :func:`coauthor_graph` — bipartite paper→author projection: authors of a
  paper form a clique (ca-AstroPh, ca-HepPh, COLLAB).
* :func:`copapers_graph` — bipartite author→paper projection: papers of an
  author form a clique; prolific authors produce large cliques of
  near-identical rows, the regime where CBM shines (coPapersDBLP,
  coPapersCiteseer).
* :func:`ppi_graph` — overlapping-community model with dense hubs: very
  high degree, comparatively low clustering (ogbn-proteins).
* :func:`erdos_renyi_graph`, :func:`sbm_graph` — reference models for
  tests and ablations.

All generators return a symmetric binary :class:`~repro.sparse.csr.CSRMatrix`
with zero diagonal and accept a ``seed`` for exact reproducibility.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.adjacency import adjacency_from_edges
from repro.sparse.csr import CSRMatrix
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive


def _edges_from_cliques(cliques: list[np.ndarray]) -> np.ndarray:
    """All pairwise edges inside each clique, concatenated (may duplicate)."""
    chunks = []
    for members in cliques:
        k = len(members)
        if k < 2:
            continue
        iu, ju = np.triu_indices(k, k=1)
        chunks.append(np.column_stack([members[iu], members[ju]]))
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(chunks, axis=0)


def rmat_graph(
    scale: int,
    avg_degree: float = 16.0,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed=None,
) -> CSRMatrix:
    """R-MAT/Kronecker power-law graph (Graph500-style generator).

    Samples ``n · avg_degree / 2`` edges by recursively descending a 2×2
    probability grid ``[[a, b], [c, d]]`` with ``d = 1 - a - b - c``
    (defaults are the Graph500 constants).  All ``scale`` bit decisions
    are drawn vectorised, so generation is O(edges · scale).  Produces
    heavy-tailed degrees and low clustering — a stress test for CBM on
    graphs *without* the clique structure it exploits.
    """
    check_positive(scale, "scale")
    check_positive(avg_degree, "avg_degree")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise ValueError(f"R-MAT quadrant probabilities must sum to <= 1, got {a},{b},{c}")
    rng = as_rng(seed)
    n = 1 << scale
    m = int(n * avg_degree / 2)
    rows = np.zeros(m, dtype=np.int64)
    cols = np.zeros(m, dtype=np.int64)
    # Quadrant thresholds: P(row bit = 0) and P(col bit = 0 | row bit).
    for _bit in range(scale):
        r = rng.random(m)
        row_bit = r >= (a + b)  # bottom half
        r2 = rng.random(m)
        p_right_top = b / max(a + b, 1e-12)
        p_right_bottom = d / max(c + d, 1e-12)
        col_bit = np.where(row_bit, r2 < p_right_bottom, r2 < p_right_top)
        rows = (rows << 1) | row_bit
        cols = (cols << 1) | col_bit
    return adjacency_from_edges(np.column_stack([rows, cols]), n)


def erdos_renyi_graph(n: int, avg_degree: float, *, seed=None) -> CSRMatrix:
    """G(n, M)-style random graph with the requested expected average degree.

    Sampled by drawing ``M = n * avg_degree / 2`` endpoint pairs uniformly
    (duplicates and self-loops removed), which for sparse graphs is
    indistinguishable from G(n, p) and runs in O(M).
    """
    check_positive(n, "n")
    check_positive(avg_degree, "avg_degree")
    rng = as_rng(seed)
    m = int(round(n * avg_degree / 2))
    edges = rng.integers(0, n, size=(m, 2), dtype=np.int64)
    return adjacency_from_edges(edges, n)


def sbm_graph(
    block_sizes: list[int],
    p_in: float,
    p_out: float,
    *,
    seed=None,
) -> CSRMatrix:
    """Stochastic block model with dense diagonal blocks.

    Sparse sampling per block pair: the number of edges in each block pair
    is drawn from a binomial, then endpoints are placed uniformly, so the
    cost is proportional to the number of edges, not to n².
    """
    rng = as_rng(seed)
    n = int(sum(block_sizes))
    starts = np.concatenate([[0], np.cumsum(block_sizes)]).astype(np.int64)
    chunks = []
    k = len(block_sizes)
    for bi in range(k):
        for bj in range(bi, k):
            ni, nj = block_sizes[bi], block_sizes[bj]
            if bi == bj:
                pairs = ni * (ni - 1) // 2
                p = p_in
            else:
                pairs = ni * nj
                p = p_out
            if pairs == 0 or p <= 0:
                continue
            m = rng.binomial(pairs, min(p, 1.0))
            if m == 0:
                continue
            u = rng.integers(starts[bi], starts[bi + 1], size=m, dtype=np.int64)
            v = rng.integers(starts[bj], starts[bj + 1], size=m, dtype=np.int64)
            chunks.append(np.column_stack([u, v]))
    edges = (
        np.concatenate(chunks, axis=0) if chunks else np.empty((0, 2), dtype=np.int64)
    )
    return adjacency_from_edges(edges, n)


def citation_graph(
    n: int,
    avg_degree: float = 5.0,
    *,
    closure: float = 0.3,
    seed=None,
) -> CSRMatrix:
    """Holme–Kim powerlaw-cluster graph: citation-network stand-in.

    Each arriving node attaches ``m ≈ avg_degree / 2`` edges; after each
    preferential attachment, with probability ``closure`` the next edge
    closes a triangle with a random neighbour of the previous target.
    ``closure`` tunes the clustering coefficient: ~0.3 reproduces Cora's
    0.24, ~0.02 reproduces PubMed's 0.06 at matching degrees.
    """
    check_positive(n, "n")
    m = max(1, int(round(avg_degree / 2)))
    if n <= m:
        raise ValueError(f"n={n} must exceed attachment count m={m}")
    rng = as_rng(seed)
    # Repeated-nodes list implements preferential attachment in O(1) per draw.
    targets_pool: list[int] = list(range(m))
    src: list[int] = []
    dst: list[int] = []
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for v in range(m, n):
        added: set[int] = set()
        prev_target = -1
        e = 0
        while e < m:
            close = (
                prev_target >= 0
                and neighbors[prev_target]
                and rng.random() < closure
            )
            if close:
                u = int(neighbors[prev_target][rng.integers(len(neighbors[prev_target]))])
            else:
                u = int(targets_pool[rng.integers(len(targets_pool))])
            if u == v or u in added:
                # Collision: fall back to a uniform node to guarantee progress.
                u = int(rng.integers(v))
                if u in added:
                    e += 1
                    continue
            added.add(u)
            src.append(v)
            dst.append(u)
            neighbors[v].append(u)
            neighbors[u].append(v)
            prev_target = u
            e += 1
        targets_pool.extend(added)
        targets_pool.extend([v] * len(added))
    edges = np.column_stack([np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)])
    return adjacency_from_edges(edges, n)


def coauthor_graph(
    n_authors: int,
    *,
    papers_per_author: float = 4.0,
    authors_per_paper: float = 3.5,
    community_count: int | None = None,
    mega_papers: int = 0,
    mega_team_size: int = 120,
    seed=None,
) -> CSRMatrix:
    """Co-authorship network: project a paper→author bipartite graph.

    Papers are generated with a Poisson number of authors drawn mostly from
    one community (researchers collaborate locally), and all authors of a
    paper are pairwise connected.  Produces the high clustering (cliques)
    and overlapping neighbourhoods of ca-AstroPh / ca-HepPh / COLLAB.

    ``mega_papers`` adds large-collaboration papers of ``mega_team_size``
    authors each (drawn from a shared pool) — the collider-experiment
    pattern that gives ca-HepPh its unusually high compression ratio for
    its clustering level: members of one collaboration have nearly
    identical adjacency rows.
    """
    check_positive(n_authors, "n_authors")
    rng = as_rng(seed)
    n_papers = int(round(n_authors * papers_per_author / max(authors_per_paper, 1.0)))
    k = community_count or max(1, n_authors // 120)
    community = rng.integers(0, k, size=n_authors, dtype=np.int64)
    members: list[np.ndarray] = [np.flatnonzero(community == c) for c in range(k)]
    cliques: list[np.ndarray] = []
    for _ in range(n_papers):
        size = max(2, int(rng.poisson(authors_per_paper)))
        c = int(rng.integers(k))
        pool = members[c]
        if len(pool) < size:
            pool = np.arange(n_authors)
        team = rng.choice(pool, size=min(size, len(pool)), replace=False)
        cliques.append(team.astype(np.int64))
    if mega_papers > 0:
        # Collaborations overlap heavily: successive mega-papers reuse most
        # of the previous roster, so rows inside a collaboration coincide.
        roster = rng.choice(n_authors, size=min(mega_team_size, n_authors), replace=False)
        for _ in range(mega_papers):
            churn = max(1, mega_team_size // 25)
            replacements = rng.choice(n_authors, size=churn, replace=False)
            roster = np.unique(np.concatenate([roster[churn:], replacements]))
            cliques.append(roster.astype(np.int64))
    edges = _edges_from_cliques(cliques)
    return adjacency_from_edges(edges, n_authors)


def copapers_graph(
    n_papers: int,
    *,
    papers_per_author: float = 6.0,
    authors_per_paper: float = 2.5,
    hub_fraction: float = 0.02,
    hub_papers: float = 40.0,
    window_factor: float = 3.0,
    seed=None,
) -> CSRMatrix:
    """Co-papers network: papers sharing an author form a clique.

    Authors pick a Poisson number of papers from a contiguous window (a
    research area), so one prolific author creates a large clique of papers
    whose adjacency rows are nearly identical — the structure behind the
    6–10× CBM compression of coPapersDBLP/coPapersCiteseer.  A small
    ``hub_fraction`` of authors are prolific (``hub_papers`` papers each).
    """
    check_positive(n_papers, "n_papers")
    rng = as_rng(seed)
    n_authors = int(round(n_papers * authors_per_paper / max(papers_per_author, 1.0)))
    n_hubs = max(1, int(round(n_authors * hub_fraction)))
    cliques: list[np.ndarray] = []
    for a in range(n_authors):
        lam = hub_papers if a < n_hubs else papers_per_author
        size = int(rng.poisson(lam))
        if size < 2:
            continue
        # Contiguous topical window keeps cliques overlapping like venues
        # do; smaller window_factor = heavier overlap = more similar rows.
        window = max(int(size * window_factor), 10)
        start = int(rng.integers(max(1, n_papers - window)))
        papers = start + rng.choice(min(window, n_papers - start), size=min(size, min(window, n_papers - start)), replace=False)
        cliques.append(papers.astype(np.int64))
    edges = _edges_from_cliques(cliques)
    return adjacency_from_edges(edges, n_papers)


def ppi_graph(
    n: int,
    avg_degree: float = 100.0,
    *,
    communities: int = 24,
    mixing: float = 0.25,
    hub_exponent: float = 0.85,
    seed=None,
) -> CSRMatrix:
    """Protein-interaction stand-in: hub-weighted overlapping communities.

    Within each community (a functional module), edge endpoints are drawn
    with Zipf-like popularity weights ``rank^{-hub_exponent}``: every
    member interacts mostly with the same few hub proteins.  That gives
    rows of the same community large *overlap* (the CBM compression
    signal: ogbn-proteins compresses 2.1×) without the clique structure
    that would inflate clustering — matching its profile of very high
    degree but clustering far below the co-paper networks.  A ``mixing``
    fraction of edges is global noise.
    """
    check_positive(n, "n")
    check_positive(avg_degree, "avg_degree")
    rng = as_rng(seed)
    # Contiguous-id communities: local noise edges (below) stay mostly
    # intra-community, which is what makes them close triangles.
    community = (np.arange(n, dtype=np.int64) * communities) // n
    chunks = []
    hub_frac = 0.2
    # Members attach to a large random subset of their module's hubs: two
    # members of one module share ~p_hub² of the hub set, the overlap that
    # drives compression.  Hubs do not attach to each other, keeping the
    # clustering coefficient low; member-member noise edges create the
    # paper-level amount of triangles (through shared hubs).
    p_hub = min(0.95, hub_exponent)
    for c in range(communities):
        pool = np.flatnonzero(community == c)
        if len(pool) < 4:
            continue
        h = max(2, int(round(len(pool) * hub_frac)))
        hubs, rest = pool[:h], pool[h:]
        picks = rng.random((len(rest), h)) < p_hub
        ui, hj = np.nonzero(picks)
        chunks.append(np.column_stack([rest[ui], hubs[hj]]))
    m_hub = sum(len(ch) for ch in chunks)
    m_total = int(n * avg_degree / 2)
    m_noise = max(0, m_total - m_hub)
    m_local = int(m_noise * (1.0 - mixing))
    if m_local > 0:
        # Intra-community member-member noise: triangle source.
        u = rng.integers(0, n, size=m_local, dtype=np.int64)
        shift = rng.integers(1, min(50, max(n, 2)), size=m_local)
        v = (u + shift) % n  # nearby ids share a community (contiguous labels)
        chunks.append(np.column_stack([u, v]))
    if m_noise - m_local > 0:
        chunks.append(rng.integers(0, n, size=(m_noise - m_local, 2), dtype=np.int64))
    edges = (
        np.concatenate(chunks, axis=0) if chunks else np.empty((0, 2), dtype=np.int64)
    )
    return adjacency_from_edges(edges, n)
