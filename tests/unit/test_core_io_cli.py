"""Unit tests for CBM persistence and the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.core.builder import build_cbm
from repro.core.io import load_cbm, save_cbm
from repro.errors import FormatError
from repro.sparse.io import save_matrix_market

from tests.conftest import random_adjacency_csr


class TestCbmArchive:
    def test_roundtrip_plain(self, tmp_path):
        a = random_adjacency_csr(25, seed=0)
        cbm, _ = build_cbm(a, alpha=2)
        path = tmp_path / "g.npz"
        save_cbm(path, cbm)
        back = load_cbm(path)
        x = np.random.default_rng(1).random((25, 4)).astype(np.float32)
        assert np.allclose(back.matmul(x), cbm.matmul(x), rtol=1e-6)
        assert back.alpha == 2
        assert back.source_nnz == a.nnz

    def test_roundtrip_dad(self, tmp_path):
        rng = np.random.default_rng(2)
        a = random_adjacency_csr(20, seed=3)
        d = rng.random(20) + 0.5
        cbm, _ = build_cbm(a, alpha=0, variant="DAD", diag=d)
        path = tmp_path / "dad.npz"
        save_cbm(path, cbm)
        back = load_cbm(path)
        assert back.variant.value == "DAD"
        x = rng.random((20, 3)).astype(np.float32)
        assert np.allclose(back.matmul(x), cbm.matmul(x), rtol=1e-6)

    def test_roundtrip_d1ad2(self, tmp_path):
        rng = np.random.default_rng(4)
        a = random_adjacency_csr(20, seed=5)
        d1, d2 = rng.random(20) + 0.5, rng.random(20) + 0.5
        cbm, _ = build_cbm(a, alpha=1, variant="D1AD2", diag=d2, diag_left=d1)
        path = tmp_path / "g2.npz"
        save_cbm(path, cbm)
        back = load_cbm(path)
        x = rng.random((20, 3)).astype(np.float32)
        assert np.allclose(back.matmul(x), cbm.matmul(x), rtol=1e-6)

    def test_rejects_random_npz(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.ones(3))
        with pytest.raises(FormatError):
            load_cbm(path)

    def test_rejects_wrong_version(self, tmp_path):
        import json

        a = random_adjacency_csr(10, seed=6)
        cbm, _ = build_cbm(a)
        path = tmp_path / "v.npz"
        save_cbm(path, cbm)
        data = dict(np.load(path))
        meta = json.loads(bytes(data["meta"]).decode())
        meta["version"] = 99
        data["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **data)
        with pytest.raises(FormatError):
            load_cbm(path)


class TestCli:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "Cora" in out and "coPapersDBLP" in out

    def test_stats_dataset(self, capsys):
        assert main(["stats", "Cora", "--no-clustering"]) == 0
        assert "average degree" in capsys.readouterr().out

    def test_stats_mtx_file(self, tmp_path, capsys):
        a = random_adjacency_csr(15, seed=7)
        path = tmp_path / "g.mtx"
        save_matrix_market(path, a)
        assert main(["stats", str(path)]) == 0
        assert "15 nodes" in capsys.readouterr().out

    def test_unknown_graph_exits(self):
        with pytest.raises(SystemExit):
            main(["stats", "NotAGraph"])

    def test_compress_and_inspect(self, tmp_path, capsys):
        out_file = tmp_path / "c.npz"
        assert main(["compress", "Cora", "-a", "1", "-o", str(out_file)]) == 0
        assert out_file.exists()
        assert main(["inspect", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "compression ratio" in out
        assert "source_nnz" in out

    def test_bench_runs(self, capsys):
        assert main(["bench", "Cora", "-a", "2", "-p", "16", "--repeats", "3"]) == 0
        out = capsys.readouterr().out
        assert "measured speedup" in out
        assert "model speedup" in out

    @pytest.mark.parametrize("repeats", ["1", "2"])
    def test_small_repeat_counts_run(self, repeats, capsys):
        assert main(["bench", "Cora", "-a", "2", "-p", "4", "--repeats", repeats]) == 0
        assert main(["plan", "Cora", "-p", "4", "-t", "2", "--repeats", repeats]) == 0
        assert "planned execute" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "Cora", "-t", "0"],
            ["plan", "Cora", "--repeats", "0"],
            ["plan", "Cora", "-p", "-1"],
            ["bench", "Cora", "--repeats", "-2"],
            ["bench", "Cora", "-p", "0"],
            ["bench", "Cora", "--repeats", "x"],
        ],
    )
    def test_non_positive_counts_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
