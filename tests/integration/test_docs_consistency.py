"""Documentation consistency: the README/quickstart claims actually run."""

import pathlib
import re


import repro

ROOT = pathlib.Path(__file__).resolve().parents[2]


class TestQuickstartSnippet:
    def test_package_docstring_example_runs(self):
        """The example in repro.__doc__ executes verbatim."""
        doc = repro.__doc__
        code = "\n".join(
            line[4:]
            for line in doc.splitlines()
            if line.startswith("    ") and not line.strip().startswith("#")
        )
        namespace: dict = {}
        exec(code, namespace)  # noqa: S102 - executing our own documented example

    def test_readme_quickstart_runs(self):
        text = (ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
        assert blocks, "README must contain a python quickstart"
        namespace: dict = {}
        exec(blocks[0], namespace)  # noqa: S102


class TestReadmeApiClaims:
    def test_public_names_exist(self):
        for name in (
            "build_cbm",
            "build_clustered",
            "build_bl2001",
            "load_cbm",
            "save_cbm",
            "verify_cbm",
            "CBMMatrix",
            "load_dataset",
            "paper_stats",
        ):
            assert hasattr(repro, name), name

    def test_submodule_claims(self):
        from repro.gnn import GCN, GIN, GraphSAGE, SGC, APPNP, make_operator, train_gcn  # noqa: F401
        from repro.parallel import ThreadedUpdateExecutor, strong_scaling_curve  # noqa: F401
        from repro.graphs import rcm_order, signature_order  # noqa: F401
        from repro.graphs.io import load_edge_list  # noqa: F401
        from repro.core import cut_depth, split_branches  # noqa: F401
        from repro.staf import build_staf  # noqa: F401

    def test_design_doc_mentions_every_bench_file(self):
        design = (ROOT / "DESIGN.md").read_text()
        for bench in sorted((ROOT / "benchmarks").glob("bench_*.py")):
            assert bench.name in design, f"{bench.name} missing from DESIGN.md"

    def test_examples_listed_in_readme(self):
        readme = (ROOT / "README.md").read_text()
        for example in sorted((ROOT / "examples").glob("*.py")):
            assert example.name in readme, f"{example.name} missing from README"
