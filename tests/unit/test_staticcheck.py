"""Unit tests for the static-analysis subsystem (repro.staticcheck).

Covers the hazard analyzer against hand-built racy plans AND against
every schedule `plan_update_schedule` produces on the example graphs
(all must be race-free), the contract linter rule by rule, the report
plumbing, and the `repro check` CLI surface.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.builder import build_cbm
from repro.parallel.schedule import (
    ScheduleResult,
    branch_costs_from_branches,
    plan_update_schedule,
)
from repro.runtime.buffers import WorkspacePool
from repro.staticcheck import (
    AuditReport,
    Severity,
    analyze_branches,
    analyze_level_schedule,
    analyze_plan,
    analyze_pool,
    analyze_schedule,
    lint_paths,
    lint_source,
    load_baseline,
)
from tests.conftest import random_adjacency_csr


# ----------------------------------------------------------------------
# Report plumbing


class TestAuditReport:
    def test_add_and_severities(self):
        rep = AuditReport(subject="s")
        rep.add("X001", "boom")
        rep.add("X002", "meh", severity=Severity.WARNING)
        assert not rep.ok
        assert [f.code for f in rep.errors] == ["X001"]
        assert [f.code for f in rep.warnings] == ["X002"]
        assert rep.has("X00") and not rep.has("Y")

    def test_passed_does_not_override_failed(self):
        rep = AuditReport(subject="s")
        rep.failed("a")
        rep.passed("a")
        assert rep.checks["a"] is False

    def test_merge_combines_checks(self):
        a = AuditReport(subject="a")
        a.passed("x")
        b = AuditReport(subject="b")
        b.failed("x")
        b.add("X001", "boom")
        a.merge(b)
        assert a.checks["x"] is False
        assert len(a.findings) == 1

    def test_render_and_dict(self):
        rep = AuditReport(subject="s")
        rep.add("X001", "boom", line=3)
        assert "X001" in rep.render()
        d = rep.to_dict()
        assert d["ok"] is False
        assert d["findings"][0]["line"] == 3
        assert rep.findings[0].render() == "s:3: X001 boom"


# ----------------------------------------------------------------------
# Hazard analyzer: hand-built racy plans


class TestBranchHazards:
    def test_clean_two_branches(self):
        # 0 <- 1, 2 <- 3 (two independent chains off the virtual root).
        parent = np.array([-1, 0, -1, 2])
        branches = [np.array([0, 1]), np.array([2, 3])]
        rep = analyze_branches(branches, parent)
        assert rep.ok, rep.render()

    def test_write_write_shared_row(self):
        parent = np.array([-1, 0, -1, 2])
        branches = [np.array([0, 1]), np.array([2, 3, 1])]
        rep = analyze_branches(branches, parent)
        assert rep.has("HZ-W001")

    def test_write_write_duplicate_within_branch(self):
        parent = np.array([-1, 0])
        branches = [np.array([0, 1, 1])]
        rep = analyze_branches(branches, parent)
        assert rep.has("HZ-W002")

    def test_read_before_write_misordered(self):
        # 1's parent 0 appears after it inside the branch.
        parent = np.array([-1, 0])
        branches = [np.array([1, 0])]
        rep = analyze_branches(branches, parent)
        assert rep.has("HZ-R001") or rep.has("HZ-R002")
        assert not rep.ok

    def test_cross_branch_dependency(self):
        # Branch split mid-chain: branch 2 starts at row 1 whose parent 0
        # lives in (and is written by) branch 1.
        parent = np.array([-1, 0, 1])
        branches = [np.array([0]), np.array([1, 2])]
        rep = analyze_branches(branches, parent)
        assert rep.has("HZ-R002")

    def test_coverage_gap(self):
        parent = np.array([-1, 0, -1])
        branches = [np.array([0, 1])]  # row 2 never replayed
        rep = analyze_branches(branches, parent)
        assert rep.has("HZ-B001")


class TestLevelHazards:
    def test_clean_levels(self):
        # depth-1 rows {1}, depth-2 rows {2} with parents resolved.
        pairs = [(np.array([1]), np.array([0])), (np.array([2]), np.array([1]))]
        rep = analyze_level_schedule(pairs, n_rows=3)
        assert rep.ok, rep.render()

    def test_edge_scheduled_before_parent_level(self):
        # Row 2 reads row 1 in the first level, but row 1 is only written
        # by the second level.
        pairs = [(np.array([2]), np.array([1])), (np.array([1]), np.array([0]))]
        rep = analyze_level_schedule(pairs, n_rows=3)
        assert rep.has("HZ-L001")

    def test_duplicate_write_within_level(self):
        pairs = [(np.array([1, 1]), np.array([0, 0]))]
        rep = analyze_level_schedule(pairs, n_rows=2)
        assert rep.has("HZ-L002")

    def test_row_written_by_two_levels(self):
        pairs = [(np.array([1]), np.array([0])), (np.array([1]), np.array([0]))]
        rep = analyze_level_schedule(pairs, n_rows=2)
        assert rep.has("HZ-L003")

    def test_out_of_range_rows(self):
        pairs = [(np.array([5]), np.array([0]))]
        rep = analyze_level_schedule(pairs, n_rows=3)
        assert rep.has("HZ-L004")


class TestPoolAndWatchdogHazards:
    def test_clean_pool(self):
        pool = WorkspacePool()
        pool.warm((4, 3), count=2)
        rep = analyze_pool(pool)
        assert rep.ok, rep.render()

    def test_duplicate_buffer_flagged(self):
        pool = WorkspacePool()
        buf = np.empty((4, 3), dtype=np.float32)
        # Force the same object into two free lists (bypasses release()'s
        # dedup, as a buggy pool implementation would).
        with pool._lock:
            pool._free[(("a",), "x")] = [buf]
            pool._free[(("b",), "y")] = [buf]
        rep = analyze_pool(pool)
        assert rep.has("HZ-P001")

    def test_view_aliasing_flagged(self):
        pool = WorkspacePool()
        base = np.empty((8, 3), dtype=np.float32)
        with pool._lock:
            pool._free[(("base",), "x")] = [base]
            pool._free[(("view",), "y")] = [base[:4]]
        rep = analyze_pool(pool)
        assert rep.has("HZ-P002")


class TestScheduleHazards:
    def test_simulated_schedules_are_consistent(self):
        costs = np.array([5.0, 3.0, 2.0, 2.0])
        from repro.parallel.schedule import simulate_dynamic_schedule

        for threads in (1, 2, 4, 8):
            res = simulate_dynamic_schedule(costs, threads)
            assert analyze_schedule(res, costs).ok

    def test_impossible_makespan_flagged(self):
        forged = ScheduleResult(
            makespan=1.0,
            total_work=10.0,
            critical_path=5.0,
            threads=2,
            utilisation=5.0,
            tasks=3,
        )
        rep = analyze_schedule(forged, np.array([5.0, 3.0, 2.0]))
        assert rep.has("HZ-S001") and rep.has("HZ-S002")

    def test_cost_disagreement_flagged(self):
        res = ScheduleResult(
            makespan=5.0,
            total_work=5.0,
            critical_path=5.0,
            threads=1,
            utilisation=1.0,
            tasks=1,
        )
        rep = analyze_schedule(res, np.array([7.0]))
        assert rep.has("HZ-S003")


class TestRealPlansAreRaceFree:
    """Acceptance: every plan/schedule on the example graphs proves clean."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0, 2, 4])
    def test_plans_clean(self, seed, alpha):
        a = random_adjacency_csr(48, density=0.2, seed=seed)
        cbm, _ = build_cbm(a, alpha=alpha)
        rep = analyze_plan(cbm.plan(), threads=4)
        assert rep.ok, rep.render()

    @pytest.mark.parametrize("threads", [1, 2, 4, 16])
    def test_every_plan_update_schedule_race_free(self, threads):
        a = random_adjacency_csr(64, density=0.25, seed=9)
        cbm, _ = build_cbm(a, alpha=3)
        plan = cbm.plan()
        for p in (1, 16, 500):
            res = plan_update_schedule(plan, p, threads)
            costs = branch_costs_from_branches(
                plan.branches, p, dad=plan.row_scaled
            )
            assert analyze_schedule(res, costs).ok
        # The branch decomposition the schedule was built from is itself
        # hazard-free — proving, not assuming, Section V-B independence.
        assert analyze_branches(plan.branches, plan._parent).ok


# ----------------------------------------------------------------------
# Contract linter, rule by rule


class TestLintRules:
    def test_sc101_bare_except(self):
        src = "try:\n    x = 1\nexcept:\n    pass\n"
        codes = [f.code for f in lint_source(src)]
        assert codes == ["SC101"]

    def test_sc102_broad_swallow(self):
        src = "try:\n    x = 1\nexcept Exception:\n    x = 2\n"
        assert [f.code for f in lint_source(src)] == ["SC102"]

    def test_sc102_allows_reraise(self):
        src = "try:\n    x = 1\nexcept Exception:\n    raise\n"
        assert lint_source(src) == []

    def test_sc102_allows_bound_use(self):
        src = (
            "try:\n    x = 1\nexcept BaseException as exc:\n"
            "    errors.append(exc)\n"
        )
        assert lint_source(src) == []

    def test_sc201_guardstats_counter(self):
        src = "def f(self):\n    return self.stats.fallbacks\n"
        assert [f.code for f in lint_source(src)] == ["SC201"]

    def test_sc201_ignores_other_counters_and_methods(self):
        src = (
            "def f(self):\n"
            "    self.stats.executions += 1\n"
            "    return self.stats.snapshot()\n"
        )
        assert lint_source(src) == []

    def test_sc201_allowed_inside_guardstats(self):
        src = (
            "class GuardStats:\n"
            "    def snap(self):\n"
            "        return self.stats.calls\n"
        )
        assert lint_source(src) == []

    def test_sc301_undeclared_mutation(self):
        src = "def f(c):\n    c[0] += 1\n"
        assert [f.code for f in lint_source(src)] == ["SC301"]

    @pytest.mark.parametrize(
        "body", ["c[:] = 0", "c += 1", "c.fill(0)", "out[...] = c"]
    )
    def test_sc301_each_mutation_kind(self, body):
        src = f"def f(c, out):\n    {body}\n"
        assert [f.code for f in lint_source(src)] == ["SC301"]

    def test_sc301_declared_in_place_is_clean(self):
        src = 'def f(c):\n    """Zeroes ``c`` in place."""\n    c[:] = 0\n'
        assert lint_source(src) == []

    def test_sc301_ignores_locals(self):
        src = "def f(n):\n    c = [0] * n\n    c[0] += 1\n    return c\n"
        assert lint_source(src) == []

    def test_sc401_sleep_under_lock(self):
        src = (
            "import time\n"
            "def f(self):\n"
            "    with self._lock:\n"
            "        time.sleep(1)\n"
        )
        assert [f.code for f in lint_source(src)] == ["SC401"]

    def test_sc401_sleep_outside_lock(self):
        src = (
            "import time\n"
            "def f(self):\n"
            "    with self._lock:\n"
            "        x = 1\n"
            "    time.sleep(1)\n"
        )
        assert lint_source(src) == []

    def test_sc401_non_lock_context_ok(self):
        src = "import time\ndef f(fh):\n    with fh:\n        time.sleep(1)\n"
        assert lint_source(src) == []

    def test_sc401_queue_get_under_lock(self):
        src = (
            "def f(self):\n"
            "    with self._lock:\n"
            "        item = self._queue.get()\n"
        )
        assert [f.code for f in lint_source(src)] == ["SC401"]

    def test_sc401_queue_get_with_timeout_ok(self):
        src = (
            "def f(self):\n"
            "    with self._lock:\n"
            "        item = self._queue.get(timeout=1.0)\n"
        )
        assert lint_source(src) == []

    def test_sc401_queue_get_outside_lock_ok(self):
        src = "def f(self):\n    return self._queue.get()\n"
        assert lint_source(src) == []

    def test_sc401_dict_get_with_key_ok(self):
        # dict.get(key) takes arguments; only the zero-arg blocking form
        # of queue.get() is flagged.
        src = (
            "def f(self, key):\n"
            "    with self._lock:\n"
            "        return self._cache.get(key)\n"
        )
        assert lint_source(src) == []

    def test_sc401_event_wait_under_lock(self):
        src = (
            "def f(self):\n"
            "    with self._lock:\n"
            "        self._ready.wait()\n"
        )
        assert [f.code for f in lint_source(src)] == ["SC401"]

    def test_sc401_event_wait_with_timeout_ok(self):
        src = (
            "def f(self):\n"
            "    with self._lock:\n"
            "        self._ready.wait(2.0)\n"
        )
        assert lint_source(src) == []

    def test_sc401_condition_wait_exempt(self):
        # cond.wait() releases the condition's own lock while blocked —
        # the idiom, not a convoy.
        src = (
            "def f(self):\n"
            "    with self._cond:\n"
            "        while not self._done:\n"
            "            self._cond.wait()\n"
        )
        assert lint_source(src) == []

    def test_sc501_bare_savez(self):
        src = "import numpy as np\ndef f(path, arrays):\n    np.savez(path, **arrays)\n"
        assert [f.code for f in lint_source(src)] == ["SC501"]

    def test_sc501_bare_savez_compressed_anywhere(self):
        # savez is flagged even outside save_*/write_* functions: the
        # destination is torn regardless of who calls it.
        src = (
            "import numpy as np\n"
            "def refresh(path, arrays):\n"
            "    np.savez_compressed(path, **arrays)\n"
        )
        assert [f.code for f in lint_source(src)] == ["SC501"]

    def test_sc501_savez_through_atomic_handle_ok(self):
        src = (
            "import numpy as np\n"
            "from repro.recovery import atomic_write\n"
            "def save_thing(path, arrays):\n"
            "    with atomic_write(path) as fh:\n"
            "        np.savez_compressed(fh, **arrays)\n"
        )
        assert lint_source(src) == []

    def test_sc501_open_write_in_persist_function(self):
        src = (
            "def save_report(path, body):\n"
            "    with open(path, 'w') as fh:\n"
            "        fh.write(body)\n"
        )
        assert [f.code for f in lint_source(src)] == ["SC501"]

    def test_sc501_open_write_mode_keyword(self):
        src = "def dump_state(path):\n    fh = open(path, mode='wb')\n"
        assert [f.code for f in lint_source(src)] == ["SC501"]

    def test_sc501_open_read_in_persist_function_ok(self):
        src = "def save_copy(path):\n    data = open(path, 'rb').read()\n"
        assert lint_source(src) == []

    def test_sc501_open_write_outside_persist_function_ok(self):
        # open-for-write is only a persistence smell inside save_*/
        # write_*/dump_*/persist_* functions (scratch files elsewhere
        # are legitimate); savez has no such carve-out.
        src = "def make_scratch(path):\n    fh = open(path, 'w')\n"
        assert lint_source(src) == []

    def test_sc501_write_text_in_persist_function(self):
        src = "def write_config(path, body):\n    path.write_text(body)\n"
        assert [f.code for f in lint_source(src)] == ["SC501"]

    def test_sc501_recovery_module_exempt(self):
        src = "import numpy as np\ndef f(path, arrays):\n    np.savez(path, **arrays)\n"
        assert lint_source(src, path="src/repro/recovery/atomic.py") == []

    def test_sc501_pragma_suppresses(self):
        src = (
            "import numpy as np\n"
            "def corrupt(path, arrays):\n"
            "    np.savez_compressed(path, **arrays)  # staticcheck: ignore[SC501]\n"
        )
        assert lint_source(src) == []

    def test_pragma_suppresses_one_code(self):
        src = "def f(c):\n    c[0] += 1  # staticcheck: ignore[SC301]\n"
        assert lint_source(src) == []

    def test_pragma_wrong_code_does_not_suppress(self):
        src = "def f(c):\n    c[0] += 1  # staticcheck: ignore[SC401]\n"
        assert [f.code for f in lint_source(src)] == ["SC301"]

    def test_bare_pragma_suppresses_everything(self):
        src = "try:\n    x = 1\nexcept:  # staticcheck: ignore\n    pass\n"
        assert lint_source(src) == []

    def test_syntax_error_reported_not_raised(self):
        assert [f.code for f in lint_source("def f(:\n")] == ["SC001"]


class TestSC601:
    OFFENDER = (
        "from multiprocessing.shared_memory import SharedMemory\n"
        "def leak():\n"
        "    return SharedMemory(create=True, size=64)\n"
    )

    def test_raw_shared_memory_flagged(self):
        findings = lint_source(self.OFFENDER, path="src/repro/serving/x.py")
        assert any(f.code == "SC601" for f in findings)

    def test_pragma_suppresses(self):
        src = self.OFFENDER.replace(
            "SharedMemory(create=True, size=64)",
            "SharedMemory(create=True, size=64)  # staticcheck: ignore[SC601]",
        )
        findings = lint_source(src, path="src/repro/serving/x.py")
        assert not any(f.code == "SC601" for f in findings)


class TestLintPathsAndBaseline:
    def test_lint_paths_and_baseline_filtering(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(c):\n    c[0] += 1\n")
        findings = lint_paths([tmp_path], root=tmp_path)
        assert len(findings) == 1
        assert findings[0].subject == "bad.py"
        baseline_file = tmp_path / ".baseline"
        baseline_file.write_text(
            "# accepted debt\n" + findings[0].render() + "\n"
        )
        baseline = load_baseline(baseline_file)
        assert lint_paths([tmp_path], root=tmp_path, baseline=baseline) == []

    def test_load_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope") == set()

    def test_stale_baseline_entries_reported(self, tmp_path):
        from repro.staticcheck import lint_paths_with_baseline

        bad = tmp_path / "bad.py"
        bad.write_text("def f(c):\n    c[0] += 1\n")
        (findings,) = [lint_paths([tmp_path], root=tmp_path)]
        live = findings[0].render()
        baseline = {live, "gone.py:3: SC301 ancient suppressed finding"}
        filtered, stale = lint_paths_with_baseline(
            [tmp_path], baseline=baseline, root=tmp_path
        )
        assert filtered == []
        assert stale == {"gone.py:3: SC301 ancient suppressed finding"}

    def test_fully_used_baseline_has_no_stale(self, tmp_path):
        from repro.staticcheck import lint_paths_with_baseline

        bad = tmp_path / "bad.py"
        bad.write_text("def f(c):\n    c[0] += 1\n")
        findings = lint_paths([tmp_path], root=tmp_path)
        filtered, stale = lint_paths_with_baseline(
            [tmp_path], baseline={findings[0].render()}, root=tmp_path
        )
        assert filtered == [] and stale == set()

    def test_clean_tree_with_empty_baseline_no_stale(self, tmp_path):
        from repro.staticcheck import lint_paths_with_baseline

        good = tmp_path / "good.py"
        good.write_text("def f():\n    return 1\n")
        filtered, stale = lint_paths_with_baseline([tmp_path], baseline=set(),
                                                   root=tmp_path)
        assert filtered == [] and stale == set()

    def test_repo_source_tree_is_clean(self):
        """Satellite acceptance: zero contract findings on the final tree."""
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        findings = lint_paths([root / "src" / "repro"], root=root)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_shipped_baseline_is_empty(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        assert load_baseline(root / ".staticcheck.baseline") == set()


# ----------------------------------------------------------------------
# CLI surface


class TestCheckCli:
    def test_check_code_clean_exit_zero(self, capsys):
        from repro.cli import main

        assert main(["check", "code"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_check_code_finds_violation(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("def f(c):\n    c.fill(0)\n")
        assert main(["check", "code", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "SC301" in out and "FAIL" in out

    def test_check_plan_clean_on_dataset(self, capsys):
        from repro.cli import main

        assert main(["check", "plan", "Cora", "-a", "2", "-t", "4"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_check_artifact_graph_spec(self, capsys):
        from repro.cli import main

        assert main(["check", "artifact", "Cora", "-a", "2"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_check_code_stale_baseline_warns_by_default(self, tmp_path, capsys):
        from repro.cli import main

        good = tmp_path / "good.py"
        good.write_text("def f():\n    return 1\n")
        stale = tmp_path / ".baseline"
        stale.write_text("gone.py:1: SC301 long-fixed finding\n")
        assert main(["check", "code", str(good), "--baseline", str(stale)]) == 0
        out = capsys.readouterr().out
        assert "stale baseline entry" in out

    def test_check_code_strict_baseline_fails_on_stale(self, tmp_path, capsys):
        from repro.cli import main

        good = tmp_path / "good.py"
        good.write_text("def f():\n    return 1\n")
        stale = tmp_path / ".baseline"
        stale.write_text("gone.py:1: SC301 long-fixed finding\n")
        assert main(
            ["check", "code", str(good), "--baseline", str(stale),
             "--strict-baseline"]
        ) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_check_code_json_report(self, tmp_path, capsys):
        import json

        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("def f(c):\n    c[0] += 1\n")
        out = tmp_path / "lint.json"
        assert main(
            ["check", "code", str(bad), "--baseline", "", "--json", str(out)]
        ) == 1
        payload = json.loads(out.read_text())
        assert payload["ok"] is False
        assert payload["findings"][0]["code"] == "SC301"
        assert payload["stale_baseline"] == []

    def test_check_concurrency_clean_on_dataset(self, tmp_path, capsys):
        import json

        from repro.cli import main

        out = tmp_path / "conc.json"
        assert main(
            ["check", "concurrency", "Cora", "-a", "2", "--json", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        subjects = [r["subject"] for r in payload["reports"]]
        assert "stream-swap" in subjects and "lock-order" in subjects
        assert any("batch-layout" in s for s in subjects)

    def test_check_concurrency_fails_on_seeded_deadlock(self, tmp_path, capsys):
        from repro.cli import main

        seeded = tmp_path / "ab_ba.py"
        seeded.write_text(
            "import threading\n"
            "a_lock = threading.Lock()\n"
            "b_lock = threading.Lock()\n"
            "def fwd():\n"
            "    with a_lock:\n"
            "        with b_lock:\n"
            "            pass\n"
            "def bwd():\n"
            "    with b_lock:\n"
            "        with a_lock:\n"
            "            pass\n"
        )
        assert main(
            ["check", "concurrency", "Cora", "--paths", str(tmp_path)]
        ) == 1
        assert "SC701" in capsys.readouterr().out
