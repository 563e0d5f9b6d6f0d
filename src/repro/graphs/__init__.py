"""Graph substrate: synthetic datasets, statistics, and normalisation.

The paper evaluates on eight real-world graphs (Table I).  Those exact
files are not available offline, so :mod:`repro.graphs.generators` provides
synthetic family-matched generators (citation, co-authorship, co-papers
projection, PPI) and :mod:`repro.graphs.datasets` registers one calibrated
stand-in per paper dataset, keeping the paper's true statistics alongside
for side-by-side reporting.
"""

from repro.graphs.adjacency import (
    add_self_loops,
    adjacency_from_edges,
    is_symmetric,
    is_undirected_simple,
)
from repro.graphs.datasets import (
    REGISTRY,
    DatasetSpec,
    list_datasets,
    load_dataset,
    paper_stats,
)
from repro.graphs.generators import (
    citation_graph,
    coauthor_graph,
    copapers_graph,
    erdos_renyi_graph,
    ppi_graph,
    rmat_graph,
    sbm_graph,
)
from repro.graphs.laplacian import degree_vector, gcn_normalization, normalized_adjacency
from repro.graphs.ordering import (
    bandwidth,
    bfs_order,
    degree_order,
    permute_symmetric,
    rcm_order,
    signature_order,
)
from repro.graphs.stats import (
    GraphStats,
    average_clustering_coefficient,
    average_degree,
    compute_stats,
    degree_histogram,
    triangle_counts,
)

__all__ = [
    "adjacency_from_edges",
    "add_self_loops",
    "is_symmetric",
    "is_undirected_simple",
    "GraphStats",
    "average_clustering_coefficient",
    "average_degree",
    "compute_stats",
    "degree_histogram",
    "triangle_counts",
    "citation_graph",
    "coauthor_graph",
    "copapers_graph",
    "ppi_graph",
    "rmat_graph",
    "sbm_graph",
    "erdos_renyi_graph",
    "DatasetSpec",
    "REGISTRY",
    "list_datasets",
    "load_dataset",
    "paper_stats",
    "bandwidth",
    "bfs_order",
    "degree_order",
    "permute_symmetric",
    "rcm_order",
    "signature_order",
    "degree_vector",
    "gcn_normalization",
    "normalized_adjacency",
]
