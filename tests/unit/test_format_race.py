"""The serving slot's CBM-vs-CSR format race and its route across swaps.

:meth:`AdjacencySlot.tune` times the slot's CBM plan against a float32
SciPy copy of its source with :func:`repro.utils.timing.interleaved_best`
and serves the faster one; :meth:`InferenceService.swap_slot` re-races
every untuned incoming slot at the outgoing slot's width, so no swap
path — a streaming publish, a background rebuild, an archive swap —
silently drops a CSR route back to CBM.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.io import save_cbm
from repro.recovery import GenerationStore
from repro.serving import AdjacencySlot, InferenceService
from repro.streaming import (
    BackgroundRebuilder,
    EdgeBatch,
    MutableAdjacency,
    publish_snapshot,
)
from repro.utils import timing

from tests.conftest import random_adjacency_csr

#: Fixed race outcomes: the CSR candidate wins by 2x.
CSR_WINS = {"cbm": 2.0, "csr": 1.0}


def _fixed_race(times):
    return mock.patch(
        "repro.serving.service.interleaved_best", lambda candidates: dict(times)
    )


def _float32_scipy(m):
    return sp.csr_matrix((m.data.astype(np.float32), m.indices, m.indptr), shape=m.shape)


class TestInterleavedBest:
    def test_rounds_alternate_and_keep_each_minimum(self, monkeypatch):
        clock = SimpleNamespace(t=0.0)
        monkeypatch.setattr(timing, "time", SimpleNamespace(perf_counter=lambda: clock.t))
        # One untimed warm-up call each, then one call each per round.
        calls = 1 + timing.ROUNDS
        costs = {
            "cbm": iter([9.0] + [5.0 + (k % 3) for k in range(timing.ROUNDS)]),
            "csr": iter([9.0] + [4.0 - (k % 2) for k in range(timing.ROUNDS)]),
        }
        order = []

        def candidate(name):
            def run():
                order.append(name)
                clock.t += next(costs[name])

            return run

        best = timing.interleaved_best({"cbm": candidate("cbm"), "csr": candidate("csr")})
        assert order == ["cbm", "csr"] * calls
        assert best == {"cbm": 5.0, "csr": 3.0}


class TestSlotTune:
    @pytest.mark.parametrize("winner", ["cbm", "csr"])
    def test_tune_picks_the_faster_candidate(self, winner):
        a = random_adjacency_csr(32, density=0.2, seed=2)
        slot = AdjacencySlot.from_graph(a, normalized=True)
        seen = {}

        def race(candidates):
            seen.update(candidates)
            return {name: (1.0 if name == winner else 3.0) for name in candidates}

        with mock.patch("repro.serving.service.interleaved_best", race):
            assert slot.tune(5) == winner
        assert set(seen) == {"cbm", "csr"}
        assert slot.route == winner
        assert slot.tuned_width == 5
        assert slot.raced_s == {winner: 1.0, ({"cbm", "csr"} - {winner}).pop(): 3.0}
        assert (slot.csr is not None) == (winner == "csr")
        # The CSR candidate is the float32 product of the slot's source.
        y = seen["csr"]()
        assert y.dtype == np.float32 and y.shape == (32, 5)

    def test_real_race_serves_the_measured_minimum(self):
        slot = AdjacencySlot.from_graph(random_adjacency_csr(48, density=0.2, seed=3))
        route = slot.tune(4)
        assert set(slot.raced_s) == {"cbm", "csr"}
        assert all(t > 0 for t in slot.raced_s.values())
        assert route == min(slot.raced_s, key=slot.raced_s.get)

    def test_width_validated(self):
        slot = AdjacencySlot.from_graph(random_adjacency_csr(16, density=0.2, seed=4))
        with pytest.raises(ValueError):
            slot.tune(0)


class TestServingSurface:
    def test_health_and_describe_expose_format_block(self):
        a = random_adjacency_csr(40, density=0.2, seed=5)
        slot = AdjacencySlot.from_graph(a)
        with InferenceService(slot) as svc:
            assert svc.health()["format"] == {
                "route": "cbm", "tuned_width": None, "cbm_s": None, "csr_s": None,
            }
            fresh = AdjacencySlot(slot.cbm, slot.source)
            with _fixed_race(CSR_WINS):
                fresh.tune(4)
            svc.swap_slot(fresh)

            expected = {"route": "csr", "tuned_width": 4, "cbm_s": 2.0, "csr_s": 1.0}
            assert svc.health()["format"] == expected
            assert svc.describe()["format"] == expected

            x = np.random.default_rng(0).integers(-3, 4, (40, 3)).astype(np.float32)
            y = svc.submit(x).result(10.0)
            assert y.dtype == np.float32
            assert np.array_equal(y, _float32_scipy(a) @ x)

    def test_tuned_incoming_slot_keeps_its_own_race(self):
        a = random_adjacency_csr(30, density=0.2, seed=6)
        slot = AdjacencySlot.from_graph(a)
        with _fixed_race(CSR_WINS):
            slot.tune(8)
        with InferenceService(slot) as svc:
            fresh = AdjacencySlot(slot.cbm, slot.source)
            with _fixed_race({"cbm": 1.0, "csr": 2.0}):
                fresh.tune(2)
            with _fixed_race(CSR_WINS):
                svc.swap_slot(fresh)
            assert svc.current_slot().route == "cbm"
            assert svc.current_slot().tuned_width == 2


class TestSwapKeepsRoute:
    """Regression: every swap path used to reset a CSR route to CBM."""

    N = 40

    def _assert_csr(self, svc, width):
        slot = svc.current_slot()
        assert slot.tuned_width == width
        assert slot.route == "csr"
        assert svc.health()["format"]["route"] == "csr"
        x = np.random.default_rng(slot.generation).integers(-3, 4, (self.N, 2))
        x = x.astype(np.float32)
        y = svc.submit(x).result(10.0)
        assert y.dtype == np.float32
        assert np.array_equal(y, _float32_scipy(slot.source) @ x)

    def test_publish_rebuild_and_archive_swaps_keep_csr(self, tmp_path):
        a = random_adjacency_csr(self.N, density=0.2, seed=7)
        m = MutableAdjacency.from_graph(a)
        _, cbm, src = m.snapshot()
        slot = AdjacencySlot(cbm, src)
        width = 6
        with _fixed_race(CSR_WINS):
            slot.tune(width)
            with InferenceService(slot) as svc:
                self._assert_csr(svc, width)

                m.apply(EdgeBatch.random(src, inserts=3, deletes=3, seed=1))
                publish_snapshot(m, svc)
                self._assert_csr(svc, width)

                _, _, src = m.snapshot()
                m.apply(EdgeBatch.random(src, inserts=3, deletes=3, seed=2))
                store = GenerationStore(tmp_path / "store")
                report = BackgroundRebuilder(m, store, svc).rebuild_once()
                assert report.published
                self._assert_csr(svc, width)

                path = tmp_path / "archive.npz"
                save_cbm(path, svc.current_slot().cbm)
                svc.swap_archive(path)
                self._assert_csr(svc, width)

                svc.swap_generation(store)
                self._assert_csr(svc, width)
                assert svc.current_slot().generation == 4
