"""The soak harness (`repro.soak`): its client loop and what each scenario catches.

Each scenario must be able to fail: a fault planted here (by
monkeypatching the service the soak drives) must turn the matching
check, and ``ok``, false.
"""

from __future__ import annotations

import json
import tempfile

import numpy as np
import pytest

from repro import soak
from repro.cli import main
from repro.graphs.generators import erdos_renyi_graph
from repro.serving.service import InferenceFuture, InferenceService
from repro.sparse.io import save_matrix_market
from repro.sparse.ops import spmm


@pytest.fixture(scope="module")
def er250():
    return erdos_renyi_graph(250, 6.0, seed=13)


class _RawCSRService:
    """Answers every operand with its raw CSR product and rejects none."""

    def __init__(self, a):
        self.a = a

    def submit(self, x, deadline_s=None):
        future = InferenceFuture()
        future.generation = 0
        future._resolve(spmm(self.a, x))
        return future


class TestClient:
    def test_nan_answer_counts_as_wrong(self, er250):
        """A service that stops rejecting poisoned operands serves NaN;
        no such answer may count as verified."""

        def operands():
            return soak._operands(er250.shape[0], 200, 5, widths=(8, 8), nan_fraction=0.1)

        tally = soak.Tally("probe")
        soak._client(_RawCSRService(er250), tally, operands(), soak._against([er250]),
                     deadline_s=2.0)
        nan_answers = sum(not np.isfinite(spmm(er250, x)).all() for x, _ in operands())
        assert nan_answers > 0
        assert tally.counts["wrong"] == nan_answers
        assert tally.counts["ok"] == 200 - nan_answers
        assert tally.counts["rejected"] == 0
        assert len(tally.violations) == nan_answers

    def test_inf_or_misshapen_answer_is_not_a_match(self, er250):
        x = np.ones((er250.shape[0], 2), dtype=np.float32)
        assert soak._matches(spmm(er250, x), er250, x)
        assert not soak._matches(spmm(er250, x)[:, :1], er250, x)
        x[:, 0] = np.inf
        assert not soak._matches(spmm(er250, x), er250, x)

    def test_untyped_error_is_a_violation(self, er250):
        class Crashing(_RawCSRService):
            def submit(self, x, deadline_s=None):
                future = InferenceFuture()
                future._reject(RuntimeError("worker died"))
                return future

        tally = soak.Tally("probe")
        ops = soak._operands(er250.shape[0], 3, 0, widths=(2, 2))
        soak._client(Crashing(er250), tally, ops, soak._against([er250]), deadline_s=2.0)
        assert tally.counts["errors"] == 3
        assert len(tally.violations) == 3 and "RuntimeError" in tally.violations[0]

    def test_burst_window_submits_before_it_waits(self, er250):
        submitted = []

        class Recording(_RawCSRService):
            def submit(self, x, deadline_s=None):
                submitted.append(len(submitted))
                return super().submit(x)

        tally = soak.Tally("burst")
        ops = list(soak._operands(er250.shape[0], 5, 0, widths=(2, 2)))
        soak._client(Recording(er250), tally, ops, soak._against([er250]),
                     deadline_s=2.0, window=len(ops))
        assert submitted == [0, 1, 2, 3, 4]
        assert tally.counts["ok"] == 5 and tally.requests == 5


def _finite_wrong(monkeypatch):
    real = InferenceFuture.result
    monkeypatch.setattr(
        InferenceFuture, "result", lambda self, timeout=None: real(self, timeout) + 1
    )


class TestServe:
    def test_finite_wrong_product_fails_zero_wrong(self, er250, monkeypatch):
        _finite_wrong(monkeypatch)
        report = soak.serve(er250, clients=4, requests=8, p=8, seed=5)
        assert not report["checks"]["zero_wrong"]
        assert not report["ok"]

    def test_unrejected_poison_fails_poison_isolated(self, er250, monkeypatch):
        def serve_raw(self, batch, exc):
            for req in batch.members:
                req.future._resolve(spmm(self._slot.source, req.x))
                self._finish_pending()

        monkeypatch.setattr(InferenceService, "_attribute_poison", serve_raw)
        report = soak.serve(er250, clients=4, requests=8, p=8, seed=5)
        assert not report["checks"]["poison_isolated"]
        assert not report["checks"]["zero_wrong"]  # the NaN answers
        assert not report["ok"]


class TestBatch:
    @pytest.mark.chaos
    def test_quick_batch_soak_passes_all_checks(self, er250):
        report = soak.batch(er250, clients=6, requests=12, seed=3)
        assert list(report["checks"]) == [
            "zero_wrong",
            "zero_hung",
            "zero_cross_generation",
            "coalescing_effective",
            "poison_isolated",
            "swaps_completed",
        ]
        assert report["ok"], (report["checks"], report["violations"])
        assert [ph["phase"] for ph in report["phases"]] == ["healthy", "swap_storm", "poisoned"]

    def test_generation_label_off_by_one_fails_zero_cross_generation(self, er250, monkeypatch):
        monkeypatch.setattr(
            InferenceFuture,
            "generation",
            property(lambda f: None if f._gen is None else f._gen + 1,
                     lambda f, value: setattr(f, "_gen", value)),
            raising=False,
        )
        report = soak.batch(er250, clients=2, requests=6, seed=3)
        assert not report["checks"]["zero_cross_generation"]
        assert not report["ok"]


class TestStream:
    def test_finite_wrong_product_fails_zero_wrong(self, tmp_path, monkeypatch):
        # a failing stream soak keeps its store root; keep it in tmp_path
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        _finite_wrong(monkeypatch)
        report = soak.stream(clients=2, requests=8, mutations=5, trials=1)
        assert not report["checks"]["zero_wrong"]
        assert not report["ok"]
        assert any("bitwise" in v for v in report["violations"])


class TestCli:
    def test_soak_serve_passes_on_a_small_graph(self, er250, tmp_path, capsys):
        graph = tmp_path / "er250.mtx"
        save_matrix_market(graph, er250, field="pattern")
        out = tmp_path / "serve.json"
        code = main(["soak", "serve", str(graph), "--clients", "4", "--requests", "8",
                     "--seed", "5", "--json", str(out)])
        assert code == 0, capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["scenario"] == "serve" and report["ok"]
        assert "OK: 0 failed check(s)" in capsys.readouterr().out

    def test_soak_crash_break_protocol_exits_nonzero(self, tmp_path, monkeypatch):
        # the violating trials keep their store roots; keep them in tmp_path
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        out = tmp_path / "crash.json"
        assert main(["soak", "crash", "--break-protocol", "--trials", "2",
                     "--json", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["checks"]["committed_generations_kept"] is False

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["soak", "serve"], "needs a graph"),
            (["soak", "serve", "Cora", "--trials", "3"], "does not take --trials"),
            (["soak", "crash", "Cora"], "does not take a graph"),
        ],
    )
    def test_options_a_scenario_does_not_take_are_refused(self, argv, message):
        with pytest.raises(SystemExit, match=message):
            main(argv)
