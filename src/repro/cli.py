"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the registered paper datasets and their stand-in statistics.
``stats <graph>``
    Degree/clustering/memory statistics of a dataset or MatrixMarket file.
``compress <graph> [-a ALPHA] [-o OUT.npz]``
    Compress to CBM, print the Table-II-style report, optionally persist.
``inspect <file.npz>``
    Summarise a stored CBM archive.
``bench <graph> [-a ALPHA] [-p COLUMNS]``
    Time CSR vs CBM SpMM on this machine and print the model's 1/16-core
    predictions at paper scale (for registry datasets).
``check {artifact,plan,code,concurrency} ...``
    Static invariant checks (no kernel runs): audit CBM artifacts and
    archives, prove kernel plans race-free, contract-lint the source
    tree, and run the whole-stack concurrency verifier (unified plan IR
    + happens-before races + lock-order/deadlock analysis, with an
    optional dynamic lock-witness cross-check).  Every subcommand takes
    ``--json`` for a machine-readable report.  Nonzero exit on any
    finding.
``crash-soak``
    Kill-9 chaos soak of the persistence tier: writer/trainer workloads
    SIGKILLed at randomized durability sync points, then recovered and
    checked against the crash-safety invariants.  Nonzero exit on any
    violation.
``tune <graph> [-p WIDTH]``
    Race the GCN serving slot's CBM(DAD) plan against float32 CSR at
    the given operand width and print both times and the chosen route.

``<graph>`` is a registry name (see ``datasets``) or a path to a
MatrixMarket ``.mtx`` file.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from repro.core.builder import build_cbm
from repro.core.io import load_cbm, save_cbm
from repro.graphs.datasets import REGISTRY, load_dataset, paper_stats
from repro.graphs.stats import compute_stats
from repro.parallel.simulate import predict_cbm_spmm, predict_csr_spmm
from repro.sparse.csr import CSRMatrix
from repro.sparse.io import load_matrix_market
from repro.sparse.ops import spmm
from repro.utils.fmt import format_table, human_bytes, human_time
from repro.utils.timing import measure


def _count(text: str) -> int:
    """argparse type for a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _timed(fn, repeats: int):
    """``measure(fn)`` capped at ``repeats`` timed runs (any ``repeats >= 1``)."""
    return measure(fn, min_repeats=min(3, repeats), max_repeats=repeats)


def _load_graph(spec: str) -> tuple[str, CSRMatrix]:
    if spec in REGISTRY:
        return spec, load_dataset(spec)
    if os.path.exists(spec):
        a = load_matrix_market(spec)
        a.data.fill(1)  # treat any weights as structure
        return os.path.basename(spec), a
    raise SystemExit(
        f"unknown graph {spec!r}: not a registered dataset "
        f"({', '.join(sorted(REGISTRY))}) and not a file"
    )


def cmd_datasets(_args) -> int:
    rows = []
    for name, spec in REGISTRY.items():
        a = load_dataset(name)
        ps = spec.paper
        rows.append(
            [
                name,
                spec.family,
                a.shape[0],
                a.nnz,
                f"{a.nnz / a.shape[0]:.1f}",
                ps.nodes,
                ps.edges,
            ]
        )
    print(
        format_table(
            ["Name", "Family", "Nodes", "Edges", "AvgDeg", "Nodes(paper)", "Edges(paper)"],
            rows,
            title="Registered datasets (synthetic stand-ins; paper originals on the right)",
        )
    )
    return 0


def cmd_stats(args) -> int:
    name, a = _load_graph(args.graph)
    st = compute_stats(a, clustering=not args.no_clustering)
    print(f"{name}: {st.nodes} nodes, {st.edges} undirected edges")
    print(f"  average degree        {st.average_degree:.2f}")
    if not args.no_clustering:
        print(f"  average clustering    {st.average_clustering:.3f}")
    print(f"  CSR footprint         {human_bytes(st.csr_bytes)}")
    return 0


def cmd_compress(args) -> int:
    name, a = _load_graph(args.graph)
    cbm, rep = build_cbm(a, alpha=args.alpha)
    print(f"{name}: compressed in {human_time(rep.seconds)} (alpha={args.alpha})")
    print(f"  candidate edges       {rep.candidate_edges}")
    print(f"  tree edges / roots    {rep.tree_edges} / {rep.roots}")
    print(f"  deltas vs nnz         {rep.total_deltas} / {rep.source_nnz}")
    print(f"  S_CBM                 {human_bytes(rep.memory_bytes)}")
    print(f"  compression ratio     {rep.compression_ratio:.2f}x")
    if args.output:
        save_cbm(args.output, cbm)
        print(f"  written to            {args.output}")
    return 0


def cmd_inspect(args) -> int:
    cbm = load_cbm(args.file)
    st = cbm.stats()
    rows = [[k, v if not isinstance(v, float) else f"{v:.4f}"] for k, v in st.items()]
    print(format_table(["field", "value"], rows, title=f"CBM archive {args.file}"))
    return 0


def cmd_bench(args) -> int:
    exit_code = 0
    name, a = _load_graph(args.graph)
    cbm, rep = build_cbm(a, alpha=args.alpha)
    x = np.random.default_rng(0).random((a.shape[1], args.columns), dtype=np.float64)
    x = x.astype(np.float32)
    t_csr = _timed(lambda: spmm(a, x), args.repeats)
    cbm.plan()  # plan once, outside the timed region
    t_cbm = _timed(lambda: cbm.matmul(x), args.repeats)
    print(f"{name} (alpha={args.alpha}, p={args.columns}, ratio={rep.compression_ratio:.2f}x)")
    print(f"  CSR SpMM   {human_time(t_csr.mean)} +- {human_time(t_csr.std)}")
    print(f"  CBM SpMM   {human_time(t_cbm.mean)} +- {human_time(t_cbm.std)} (planned)")
    print(f"  measured speedup (1 core): {t_csr.mean / t_cbm.mean:.2f}x")
    if args.guarded or args.strict:
        from repro.errors import ReproError
        from repro.reliability import GuardedKernel

        guard = GuardedKernel(cbm, source=a, strict=args.strict)
        mode = "strict" if args.strict else "guarded"
        try:
            guard.matmul(x)  # warm (validation buffers, plan reuse)
            t_guard = _timed(lambda: guard.matmul(x), args.repeats)
            overhead = (t_guard.mean / t_cbm.mean - 1.0) * 100.0
            print(
                f"  CBM SpMM   {human_time(t_guard.mean)} +- {human_time(t_guard.std)} "
                f"({mode}, {overhead:+.1f}% vs planned)"
            )
        except ReproError as exc:
            # Strict mode fails fast: surface the error and a nonzero exit
            # code so CI treats any fast-path degradation as a failure.
            print(f"  {mode} guarded run FAILED: {type(exc).__name__}: {exc}")
            exit_code = 1
        gs = guard.stats.snapshot()
        print(
            f"  guard counters: {gs['calls']} calls, {gs['fallbacks']} fallbacks, "
            f"{gs['input_rejections']} input rejections, "
            f"{gs['warnings_suppressed']} warnings suppressed"
        )
        if gs["reasons"]:
            reasons = ", ".join(f"{k}={v}" for k, v in sorted(gs["reasons"].items()))
            print(f"  fallback reasons: {reasons}")
        if args.strict and gs["fallbacks"]:
            print("  strict mode: fallbacks occurred -> exit 1")
            exit_code = 1
    if args.unplanned:
        t_unp = _timed(lambda: cbm.matmul_unplanned(x), args.repeats)
        print(f"  CBM SpMM   {human_time(t_unp.mean)} +- {human_time(t_unp.std)} (unplanned)")
        print(f"  plan amortisation: {t_unp.mean / t_cbm.mean:.2f}x")
    if args.graph in REGISTRY:
        ps = paper_stats(args.graph)
        s_nnz = ps.edges / a.nnz
        s_rows = ps.nodes / a.shape[0]
        for cores in (1, 16):
            c = predict_csr_spmm(a, args.columns, cores=cores, scale_nnz=s_nnz, scale_rows=s_rows)
            b = predict_cbm_spmm(cbm, args.columns, cores=cores, scale_nnz=s_nnz, scale_rows=s_rows)
            print(f"  model speedup at paper scale ({cores:2d} cores): {c.total_s / b.total_s:.2f}x")
    return exit_code


def cmd_model(args) -> int:
    from repro.parallel.report import cost_breakdown, render_breakdown

    name, a = _load_graph(args.graph)
    cbm, rep = build_cbm(a, alpha=args.alpha)
    if args.graph in REGISTRY:
        ps = paper_stats(args.graph)
        s_nnz = ps.edges / a.nnz
        s_rows = ps.nodes / a.shape[0]
        scale_note = "paper scale"
    else:
        s_nnz = s_rows = 1.0
        scale_note = "native scale"
    rows = cost_breakdown(a, cbm, args.columns, scale_nnz=s_nnz, scale_rows=s_rows)
    print(
        render_breakdown(
            rows,
            f"Machine-model cost breakdown — {name} (alpha={args.alpha}, "
            f"p={args.columns}, ratio={rep.compression_ratio:.2f}x, {scale_note})",
        )
    )
    return 0


def cmd_plan(args) -> int:
    from repro.parallel.cache import plan_working_set
    from repro.parallel.schedule import plan_update_schedule

    name, a = _load_graph(args.graph)
    cbm, rep = build_cbm(a, alpha=args.alpha)
    plan = cbm.plan()
    desc = plan.describe()
    rows = [[k, v if not isinstance(v, float) else f"{v:.6f}"] for k, v in desc.items()]
    print(
        format_table(
            ["field", "value"],
            rows,
            title=f"Kernel plan — {name} (alpha={args.alpha}, "
            f"ratio={rep.compression_ratio:.2f}x)",
        )
    )
    sched = plan_update_schedule(plan, args.columns, args.threads)
    ws = plan_working_set(plan, args.columns)
    print(
        f"  update-stage schedule @ {args.threads} threads: "
        f"speedup {sched.speedup:.2f}x, utilisation {sched.utilisation:.0%} "
        f"over {sched.tasks} branches"
    )
    print(f"  working set: sparse {human_bytes(ws.sparse_bytes)}, "
          f"dense {human_bytes(ws.dense_bytes)} at p={args.columns}")
    x = np.random.default_rng(0).random((a.shape[1], args.columns), dtype=np.float64)
    x = x.astype(np.float32)
    t_planned = _timed(lambda: cbm.matmul(x), args.repeats)
    t_unplanned = _timed(lambda: cbm.matmul_unplanned(x), args.repeats)
    print(f"  planned execute   {human_time(t_planned.mean)}")
    print(f"  unplanned matmul  {human_time(t_unplanned.mean)} "
          f"({t_unplanned.mean / t_planned.mean:.2f}x slower)")
    return 0


def cmd_serve_bench(args) -> int:
    """Run the chaos-under-load serving soak and print its report.

    Exit code 0 only when every invariant held: zero results diverging
    from the CSR reference, zero hung requests, and (with chaos on) the
    circuit breaker both tripped to the CSR degraded tier and recovered
    to the fast tier through half-open probing.
    """
    import json
    import warnings as _warnings

    from repro.reliability.guard import FallbackWarning
    from repro.serving import run_batched_soak, run_soak

    name, a = _load_graph(args.graph)
    if args.batched:
        report = run_batched_soak(
            a,
            alpha=args.alpha,
            clients=args.clients,
            requests_per_client=args.requests,
            max_width=args.columns,
            deadline_s=args.deadline,
            max_columns=args.max_columns,
            seed=args.seed,
        )
        print(f"batched serving soak — {name} (alpha={args.alpha}, "
              f"{args.clients} clients, max_width={args.columns}, "
              f"batch<= {args.max_columns} cols)")
        rows = []
        for ph in report["phases"]:
            rows.append([
                ph["phase"], ph["requests"], ph["ok"], ph["wrong"],
                ph["cross_generation"], ph["shed"], ph["deadline_misses"],
                ph["input_rejected"], ph["errors"], ph["hung"],
                f"{ph['latency_p50_ms']:.2f}" if ph["latency_p50_ms"] is not None else "-",
                f"{ph['latency_p99_ms']:.2f}" if ph["latency_p99_ms"] is not None else "-",
            ])
        print(format_table(
            ["phase", "req", "ok", "wrong", "xgen", "shed", "dl", "rej",
             "err", "hung", "p50 ms", "p99 ms"],
            rows,
        ))
        sv = report["service"]
        bt = report["batching"]
        print(f"  service: {sv['batches']} batches, {sv['coalesced']} coalesced, "
              f"{sv['batch_victims']} batch victims, {sv['retries']} retries, "
              f"{sv['swaps']} swaps")
        print(f"  collector: {bt['collector']}")
        for key, ok in report["checks"].items():
            print(f"  [{'ok' if ok else 'FAIL'}] {key}")
        for v in report["violations"]:
            print(f"  violation: {v}")
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(report, fh, indent=1, sort_keys=True)
            print(f"  report written to {args.json}")
        return 0 if report["ok"] else 1
    with _warnings.catch_warnings():
        if not args.verbose:
            _warnings.simplefilter("ignore", FallbackWarning)
        report = run_soak(
            a,
            alpha=args.alpha,
            clients=args.clients,
            requests_per_client=args.requests,
            p=args.columns,
            deadline_s=args.deadline,
            threads=args.threads,
            fail_rate=args.fail_rate,
            stall_rate=args.stall_rate,
            seed=args.seed,
        )
    print(f"serving soak — {name} (alpha={args.alpha}, {args.clients} clients, "
          f"p={args.columns}, deadline {args.deadline:.1f}s)")
    rows = []
    for ph in report["phases"]:
        rows.append([
            ph["phase"], ph["requests"], ph["ok"], ph["wrong"], ph["shed"],
            ph["deadline_misses"], ph["input_rejected"], ph["errors"], ph["hung"],
            f"{ph['latency_p50_ms']:.2f}" if ph["latency_p50_ms"] is not None else "-",
            f"{ph['latency_p99_ms']:.2f}" if ph["latency_p99_ms"] is not None else "-",
        ])
    print(format_table(
        ["phase", "req", "ok", "wrong", "shed", "dl", "rej", "err", "hung",
         "p50 ms", "p99 ms"],
        rows,
    ))
    br = report["breaker"]
    ch = report["chaos"]
    sv = report["service"]
    print(f"  breaker: {br['state']} at tier {br['tier']}, "
          f"{br['transitions']} transitions")
    print(f"  chaos: {ch['injected_failures']} worker kills, "
          f"{ch['injected_stalls']} stalls over {ch['built']} executors")
    print(f"  service: {sv['retries']} retries, {sv['shed']} shed, "
          f"{sv['swaps']} swaps")
    for key, ok in report["checks"].items():
        print(f"  [{'ok' if ok else 'FAIL'}] {key}")
    for v in report["violations"]:
        print(f"  violation: {v}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
        print(f"  report written to {args.json}")
    return 0 if report["ok"] else 1


def _emit_check_reports(reports, json_path, verbose) -> int:
    """Render audit reports, optionally write JSON, return the exit code.

    Exit is nonzero when any report carries a finding — ``repro check``
    is a gate, so a violated invariant must fail the invoking job.
    """
    import json

    findings = 0
    for rep in reports:
        if verbose or not rep.ok:
            print(rep.render())
        else:
            print(f"{rep.subject}: clean ({sum(rep.checks.values())} checks)")
        findings += len(rep.findings)
    if json_path:
        payload = {
            "ok": findings == 0,
            "findings": findings,
            "reports": [rep.to_dict() for rep in reports],
        }
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        print(f"audit report written to {json_path}")
    if findings:
        print(f"FAIL: {findings} finding(s)")
        return 1
    return 0


def cmd_check_artifact(args) -> int:
    """Statically audit CBM artifacts: archives or freshly built matrices."""
    from repro.staticcheck import audit_archive, audit_cbm

    reports = []
    for spec in args.target:
        if os.path.exists(spec) and spec.endswith(".npz"):
            reports.append(audit_archive(spec))
        else:
            name, a = _load_graph(spec)
            cbm, _ = build_cbm(a, alpha=args.alpha)
            reports.append(audit_cbm(cbm, subject=f"{name}(alpha={args.alpha})"))
    return _emit_check_reports(reports, args.json, args.verbose)


def cmd_check_plan(args) -> int:
    """Statically prove a kernel plan's update stage race-free.

    Also audits the batched-serving schedule: a representative
    stacked-operand :class:`BatchLayout` (mixed member widths up to the
    column cap, quantised) is proven free of cross-member aliasing,
    bounds violations, and unowned gap columns alongside each plan.
    """
    from repro.serving.batching import BatchConfig, BatchLayout
    from repro.staticcheck import analyze_plan

    cfg = BatchConfig(max_columns=args.batch_columns)
    widths = []
    w = 1
    while sum(widths) + w <= cfg.max_columns:
        widths.append(w)
        w = min(w * 2, cfg.max_columns - sum(widths) or 1)
    reports = []
    for spec in args.target:
        name, a = _load_graph(spec)
        cbm, _ = build_cbm(a, alpha=args.alpha)
        layout = BatchLayout.pack(widths, quantum=cfg.quantum, n_rows=cbm.shape[0])
        reports.append(
            analyze_plan(
                cbm.plan(),
                threads=args.threads,
                p=args.columns,
                branch_timeout=args.branch_timeout,
                batch_layout=layout,
                subject=f"{name}(alpha={args.alpha})",
            )
        )
    return _emit_check_reports(reports, args.json, args.verbose)


def cmd_check_code(args) -> int:
    """Run the contract linter over the source tree (ruff-style output).

    Baseline hygiene rides along: entries in the baseline file that no
    longer match any current finding are reported as stale (the debt was
    paid but the ledger not updated).  Stale entries warn by default and
    fail the run under ``--strict-baseline``.
    """
    import json

    from repro.staticcheck import lint_paths_with_baseline, load_baseline

    baseline = load_baseline(args.baseline) if args.baseline else set()
    findings, stale = lint_paths_with_baseline(args.paths, baseline=baseline)
    for f in findings:
        print(f.render())
    for entry in sorted(stale):
        print(
            f"{args.baseline}: stale baseline entry `{entry}` no longer "
            "matches any finding — delete it"
        )
    checked = args.paths if len(args.paths) > 1 else args.paths[0]
    failed = bool(findings) or (bool(stale) and args.strict_baseline)
    if args.json:
        payload = {
            "ok": not failed,
            "findings": [f.to_dict() for f in findings],
            "stale_baseline": sorted(stale),
            "baseline_entries": len(baseline),
            "strict_baseline": bool(args.strict_baseline),
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        print(f"lint report written to {args.json}")
    if findings:
        print(f"FAIL: {len(findings)} contract finding(s) in {checked}")
        return 1
    if stale and args.strict_baseline:
        print(f"FAIL: {len(stale)} stale baseline entry(ies) in {args.baseline}")
        return 1
    suffix = f", {len(stale)} stale" if stale else ""
    print(
        f"{checked}: clean (contract lint, baseline {len(baseline)} "
        f"entries{suffix})"
    )
    return 0


def _witness_exercise(a, *, alpha: int, seed: int = 0):
    """Run a miniature serving workload under the lock-witness recorder.

    Builds a small :class:`InferenceService` over ``a``, instruments its
    locks (service, stats, collector, breaker), then drives the paths
    whose lock interplay the static graph models: batched submits, a hot
    slot swap, stats snapshots, and shutdown.  Returns the populated
    :class:`LockWitness`.
    """
    from repro.serving import AdjacencySlot, InferenceService
    from repro.staticcheck import witness_service

    rng = np.random.default_rng(seed)
    slot = AdjacencySlot.from_graph(a, alpha=alpha)
    with InferenceService(slot, seed=seed) as svc:
        witness = witness_service(svc)
        n = a.shape[0]
        futures = [
            svc.submit(rng.standard_normal((n, 1 + (i % 3))))
            for i in range(6)
        ]
        for f in futures:
            f.result(30.0)
        svc.swap_slot(AdjacencySlot.from_graph(a, alpha=alpha))
        futures = [svc.submit(rng.standard_normal((n, 2))) for _ in range(3)]
        for f in futures:
            f.result(30.0)
        svc.stats.snapshot()
    return witness


def cmd_check_concurrency(args) -> int:
    """Whole-stack concurrency verification: IR audits + SC7xx lock pass.

    Lowers every plan shape the benchmarks construct — kernel plans
    (threaded branch replay and sequential level schedules, each with a
    prospective fused row-scaling stage), the stacked-operand batch
    layout, and the streaming snapshot/rebuild/publish protocol — into the
    unified IR and proves each free of span-discipline violations and
    happens-before races (HZ-R4xx).  Then runs the lock-order and
    blocking-call analysis (SC7xx) over the source tree, and with
    ``--witness`` cross-checks the static lock graph against acquisition
    orders recorded from a live miniature serving workload
    (SC704/SC705).  Nonzero exit on any finding.
    """
    from repro.serving.batching import BatchConfig, BatchLayout
    from repro.staticcheck import (
        FusedStage,
        analyze_ir,
        analyze_locks,
        cross_check,
        lower_batch_layout,
        lower_kernel_plan,
        lower_stream_swap,
    )

    cfg = BatchConfig(max_columns=args.batch_columns)
    widths = []
    w = 1
    while sum(widths) + w <= cfg.max_columns:
        widths.append(w)
        w = min(w * 2, cfg.max_columns - sum(widths) or 1)
    reports = []
    for spec in args.target:
        name, a = _load_graph(spec)
        cbm, _ = build_cbm(a, alpha=args.alpha)
        plan = cbm.plan()
        fused = (FusedStage("row-scale", branch=0),) if plan.branches else ()
        for threaded in (True, False):
            mode = "threaded" if threaded else "sequential"
            reports.append(
                analyze_ir(
                    lower_kernel_plan(
                        plan,
                        threaded=threaded,
                        fused=fused if threaded else (),
                        subject=f"{name}(alpha={args.alpha},{mode})",
                    )
                )
            )
        layout = BatchLayout.pack(widths, quantum=cfg.quantum, n_rows=cbm.shape[0])
        reports.append(
            analyze_ir(
                lower_batch_layout(layout, subject=f"{name}(batch-layout)")
            )
        )
    reports.append(analyze_ir(lower_stream_swap()))
    graph = None
    if not args.no_locks:
        lock_report, graph = analyze_locks(args.paths)
        reports.append(lock_report)
    if args.witness:
        if graph is None:
            _, graph = analyze_locks(args.paths)
        _, a = _load_graph(args.target[0])
        witness = _witness_exercise(a, alpha=args.alpha, seed=args.seed)
        print(
            f"witness: {sum(witness.acquisitions.values())} acquisitions "
            f"over {len(witness.acquisitions)} locks, "
            f"{len(witness.edges)} distinct ordered pairs"
        )
        reports.append(cross_check(witness, graph))
    return _emit_check_reports(reports, args.json, args.verbose)


def cmd_crash_soak(args) -> int:
    """Kill-9 soak of the persistence tier (see repro.recovery.crashsim).

    Exit 0 only when every durability invariant held across all trials:
    no committed generation lost, latest() never corrupt, every torn
    temp file quarantined, recovery time within budget.  With
    ``--break-protocol`` the harness runs a deliberately buggy writer
    and the expected outcome inverts: a nonzero exit proves the
    invariant checks detect the bug.
    """
    import json

    from repro.recovery.crashsim import run_soak

    def progress(done, total, trial):
        if args.verbose:
            status = "ok" if trial.ok else "VIOLATION"
            print(
                f"  [{done:3d}/{total}] {trial.workload:8s} crash_at={trial.crash_at:3d} "
                f"{'killed' if trial.killed else 'clean '} "
                f"committed={len(trial.announced)} kept={len(trial.kept)} "
                f"quarantined={trial.quarantined} {status}"
            )

    workloads = (
        ("archive",)
        if args.break_protocol
        else ("archive", "trainer", "multi", "streaming")
    )
    report = run_soak(
        trials=args.trials,
        seed=args.seed,
        workloads=workloads,
        iterations=args.iterations,
        break_protocol=args.break_protocol,
        recovery_budget_s=args.recovery_budget,
        progress=progress,
    )
    print(f"crash soak — {report['trials']} trials, "
          f"{report['killed']} SIGKILLed, {report['clean_exits']} clean exits "
          f"({report['elapsed_s']:.1f}s)")
    print(f"  commits observed        {report['commits_observed']}")
    print(f"  generations quarantined {report['generations_quarantined']}")
    print(f"  stray tmp quarantined   {report['stray_tmp_quarantined']}")
    print(f"  max recovery time       {report['max_recovery_s'] * 1e3:.1f} ms "
          f"(budget {report['recovery_budget_s']:.1f}s)")
    for name, stats in report["workloads"].items():
        print(f"  {name:8s} trials={stats['trials']} kills={stats['kills']} "
              f"violations={stats['violations']}")
    for v in report["violations"]:
        print(f"  violation: {v}")
    print(f"  {'OK' if report['ok'] else 'FAIL'}: "
          f"{len(report['violations'])} violated invariant(s)")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
        print(f"  report written to {args.json}")
    return 0 if report["ok"] else 1


def cmd_stream_soak(args) -> int:
    """Mutation-storm soak of the streaming tier (repro.streaming.soak).

    Concurrent edge mutations + batched inference + background rebuilds
    + kill-9 rebuild crashes over one live system.  Exit 0 only when
    every served result bitwise-matched a published generation within
    the staleness budget, no request was dropped or hung, every crashed
    rebuild recovered or quarantined, the pinned generation survived
    retention pruning, and both the patched and the rebuilt artifacts
    passed their static audits.
    """
    import json

    from repro.streaming import run_mutation_soak

    a = None
    if args.graph:
        _, a = _load_graph(args.graph)

    def progress(msg):
        if args.verbose:
            print(f"  {msg}")

    report = run_mutation_soak(
        a,
        seed=args.seed,
        clients=args.clients,
        requests_per_client=args.requests,
        mutator_batches=args.mutations,
        edges_per_batch=args.edges,
        staleness_budget=args.staleness_budget,
        max_drift=args.max_drift,
        crash_trials=args.crash_trials,
        min_requests=args.min_requests,
        progress=progress,
    )
    w = report["workload"]
    print(
        f"mutation soak — {w['nodes']} nodes, {w['nnz_initial']} edges, "
        f"{w['clients']} clients ({report['elapsed_s']:.1f}s)"
    )
    print(f"  requests served        {report['requests']} "
          f"(verified {report['verified_ok']}, wrong {report['wrong']}, "
          f"hung {report['hung']}, dropped {report['dropped']}, "
          f"errors {report['errors']})")
    print(f"  patches applied        {report['patches_applied']} "
          f"(p50 {report['patch_p50_ms'] or 0:.2f} ms, "
          f"max staleness {report['max_staleness']}/{w['staleness_budget']})")
    print(f"  rebuilds completed     {report['rebuilds']} "
          f"(wall {report['rebuild_wall_s']})")
    print(f"  generations committed  {report['generations_committed']}")
    for t in report["crash"]:
        print(f"  crash trial            crash_at={t['crash_at']} "
              f"{'killed' if t['killed'] else 'clean'} kept={t['kept']} "
              f"quarantined={t['quarantined']} {'ok' if t['ok'] else 'VIOLATION'}")
    for name, ok in report["checks"].items():
        print(f"  {'PASS' if ok else 'FAIL'}  {name}")
    for v in report["violations"]:
        print(f"  violation: {v}")
    print(f"  {'OK' if report['ok'] else 'FAIL'}: "
          f"{len(report['violations'])} violation(s)")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True, default=str)
        print(f"  report written to {args.json}")
    return 0 if report["ok"] else 1


def cmd_tune(args) -> int:
    """Race a graph's GCN serving slot: CBM(DAD) plan vs float32 CSR.

    Builds the slot :class:`~repro.serving.InferenceService` serves GCN
    forwards from, times both formats interleaved at ``-p`` columns
    (:meth:`~repro.serving.AdjacencySlot.tune`), and prints the two
    best times and the route the FAST tier would take.
    """
    import json

    from repro.serving import AdjacencySlot

    name, a = _load_graph(args.graph)
    slot = AdjacencySlot.from_graph(a, alpha=args.alpha, normalized=True)
    route = slot.tune(args.columns)
    cbm_s, csr_s = slot.raced_s["cbm"], slot.raced_s["csr"]
    print(f"{name}: CBM(DAD) vs float32 CSR (p={args.columns}, alpha={args.alpha})")
    print(f"  cbm    {human_time(cbm_s)}")
    print(f"  csr    {human_time(csr_s)}")
    print(f"  route  {route} ({max(cbm_s, csr_s) / min(cbm_s, csr_s):.2f}x faster)")
    if args.json:
        payload = {
            "graph": name,
            "alpha": args.alpha,
            "width": slot.tuned_width,
            "route": route,
            "cbm_s": cbm_s,
            "csr_s": csr_s,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        print(f"  report written to {args.json}")
    return 0


def cmd_verify(args) -> int:
    from repro.core.verify import verify_cbm

    name, a = _load_graph(args.graph)
    cbm, _ = build_cbm(a, alpha=args.alpha)
    report = verify_cbm(cbm, a, runs=args.runs, columns=args.columns)
    print(f"{name}: {report}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="CBM format toolkit (paper reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list registered datasets").set_defaults(fn=cmd_datasets)

    p = sub.add_parser("stats", help="graph statistics")
    p.add_argument("graph")
    p.add_argument("--no-clustering", action="store_true", help="skip the triangle count")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("compress", help="compress a graph to CBM")
    p.add_argument("graph")
    p.add_argument("-a", "--alpha", type=int, default=0)
    p.add_argument("-o", "--output", help="write the CBM archive here (.npz)")
    p.set_defaults(fn=cmd_compress)

    p = sub.add_parser("inspect", help="summarise a stored CBM archive")
    p.add_argument("file")
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("model", help="machine-model cost breakdown (CSR vs CBM, 1/16 cores)")
    p.add_argument("graph")
    p.add_argument("-a", "--alpha", type=int, default=0)
    p.add_argument("-p", "--columns", type=int, default=500)
    p.set_defaults(fn=cmd_model)

    p = sub.add_parser(
        "plan", help="build and summarise the kernel plan (schedule, working set, amortisation)"
    )
    p.add_argument("graph")
    p.add_argument("-a", "--alpha", type=int, default=0)
    p.add_argument("-p", "--columns", type=_count, default=500)
    p.add_argument("-t", "--threads", type=_count, default=16)
    p.add_argument("--repeats", type=_count, default=10)
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser(
        "check",
        help="static invariant checks: artifact audit, plan race detection, "
        "contract lint, whole-stack concurrency verification "
        "(nonzero exit on findings)",
    )
    check_sub = p.add_subparsers(dest="checker", required=True)

    pc = check_sub.add_parser(
        "artifact",
        help="audit CBM artifacts (.npz archives, or graphs compressed on "
        "the fly): tree rootedness, delta consistency, Properties 1-2, "
        "scaling ranges, archive header/payload agreement",
    )
    pc.add_argument("target", nargs="+", help="archive path(s) or graph spec(s)")
    pc.add_argument("-a", "--alpha", type=int, default=0)
    pc.add_argument("--json", help="write the structured audit report here")
    pc.add_argument("--verbose", action="store_true", help="print passed checks too")
    pc.set_defaults(fn=cmd_check_artifact)

    pc = check_sub.add_parser(
        "plan",
        help="prove the branch-parallel update stage race-free for a "
        "graph's kernel plans (branches, levels, workspace pool, "
        "watchdog coverage, schedule accounting)",
    )
    pc.add_argument("target", nargs="+", help="graph spec(s)")
    pc.add_argument("-a", "--alpha", type=int, default=0)
    pc.add_argument("-p", "--columns", type=int, default=16)
    pc.add_argument("-t", "--threads", type=int, default=16)
    pc.add_argument(
        "--batch-columns",
        type=int,
        default=64,
        help="column cap of the representative stacked-operand batch "
        "layout audited alongside each plan",
    )
    pc.add_argument(
        "--branch-timeout",
        type=float,
        default=30.0,
        help="executor watchdog budget assumed per branch (None disables "
        "the timeout owner and flags a coverage gap)",
    )
    pc.add_argument("--json", help="write the structured audit report here")
    pc.add_argument("--verbose", action="store_true", help="print passed checks too")
    pc.set_defaults(fn=cmd_check_plan)

    pc = check_sub.add_parser(
        "code",
        help="contract lint over the source tree (SC1xx-SC4xx rules, "
        "ruff-style output, optional regression baseline)",
    )
    pc.add_argument(
        "paths", nargs="*", default=["src/repro"], help="files or directories to lint"
    )
    pc.add_argument(
        "--baseline",
        default=".staticcheck.baseline",
        help="baseline file of accepted findings (CI fails only on regressions)",
    )
    pc.add_argument(
        "--strict-baseline",
        action="store_true",
        help="fail (not just warn) when baseline entries no longer match "
        "any finding",
    )
    pc.add_argument("--json", help="write the structured lint report here")
    pc.set_defaults(fn=cmd_check_code)

    pc = check_sub.add_parser(
        "concurrency",
        help="whole-stack concurrency verifier: lower every plan shape "
        "(kernel plans, batch layouts, streaming swaps, "
        "prospective fused stages) into the unified IR, prove each free "
        "of span violations and happens-before races (HZ-R4xx), and run "
        "the lock-order/deadlock analysis over the source tree (SC7xx)",
    )
    pc.add_argument(
        "target",
        nargs="*",
        default=["Cora"],
        help="graph spec(s) whose plan shapes to audit (default: Cora)",
    )
    pc.add_argument("-a", "--alpha", type=int, default=0)
    pc.add_argument(
        "--batch-columns",
        type=int,
        default=64,
        help="column cap of the representative stacked-operand batch layout",
    )
    pc.add_argument(
        "--paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories the SC7xx lock analysis scans",
    )
    pc.add_argument(
        "--no-locks",
        action="store_true",
        help="skip the SC7xx lock-order/blocking-call pass",
    )
    pc.add_argument(
        "--witness",
        action="store_true",
        help="run a miniature serving workload under the lock-witness "
        "recorder and cross-check observed acquisition orders against "
        "the static lock graph (SC704/SC705)",
    )
    pc.add_argument("--seed", type=int, default=0,
                    help="seed for the --witness workload operands")
    pc.add_argument("--json", help="write the structured audit report here")
    pc.add_argument("--verbose", action="store_true", help="print passed checks too")
    pc.set_defaults(fn=cmd_check_concurrency)

    p = sub.add_parser(
        "crash-soak",
        help="kill-9 soak of the persistence tier: SIGKILL writer/trainer "
        "workloads at randomized sync points, recover, and assert the "
        "durability invariants (nonzero exit on any violation)",
    )
    p.add_argument("--trials", type=int, default=60, help="spawn/kill/recover cycles")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=3,
                   help="commits each worker attempts before exiting cleanly")
    p.add_argument("--recovery-budget", type=float, default=10.0,
                   help="max seconds a single recovery may take")
    p.add_argument("--break-protocol", action="store_true",
                   help="run the deliberately buggy commit-marker-first writer; "
                   "the soak must then FAIL (negative control)")
    p.add_argument("--json", help="write the full JSON report here")
    p.add_argument("--verbose", action="store_true", help="print every trial")
    p.set_defaults(fn=cmd_crash_soak)

    p = sub.add_parser(
        "stream-soak",
        help="mutation-storm soak of the streaming tier: concurrent edge "
        "mutations + batched inference + background rebuilds + kill-9 "
        "rebuild crashes, with bitwise verification of every served "
        "result (nonzero exit on any violation)",
    )
    p.add_argument("--graph", default=None,
                   help="dataset name or .npz path (default: synthetic graph)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--clients", type=int, default=4)
    p.add_argument("--requests", type=int, default=40,
                   help="storm-phase requests per client")
    p.add_argument("--mutations", type=int, default=18,
                   help="edge batches applied by the mutator")
    p.add_argument("--edges", type=int, default=3,
                   help="insertions and deletions per batch")
    p.add_argument("--staleness-budget", type=int, default=12,
                   help="max patch batches a served snapshot may lag")
    p.add_argument("--max-drift", type=float, default=0.2,
                   help="fractional op-count growth that triggers a rebuild")
    p.add_argument("--crash-trials", type=int, default=3,
                   help="kill-9 rebuild trials after the storm")
    p.add_argument("--min-requests", type=int, default=200,
                   help="fail the soak if fewer requests were served")
    p.add_argument("--json", help="write the full JSON report here")
    p.add_argument("--verbose", action="store_true", help="print phase progress")
    p.set_defaults(fn=cmd_stream_soak)

    p = sub.add_parser(
        "tune",
        help="race the GCN serving slot's CBM(DAD) plan against float32 "
        "CSR at one operand width and print both times and the route",
    )
    p.add_argument("graph", help="dataset name or .mtx path")
    p.add_argument("-a", "--alpha", type=int, default=0)
    p.add_argument("-p", "--columns", type=int, default=8)
    p.add_argument("--json", help="write the race result here")
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser("verify", help="run the paper's Section VI-B correctness protocol")
    p.add_argument("graph")
    p.add_argument("-a", "--alpha", type=int, default=0)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--columns", type=int, default=100)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="time CSR vs CBM SpMM")
    p.add_argument("graph")
    p.add_argument("-a", "--alpha", type=int, default=4)
    p.add_argument("-p", "--columns", type=_count, default=500)
    p.add_argument("--repeats", type=_count, default=15)
    p.add_argument(
        "--unplanned",
        action="store_true",
        help="also time the per-call reference path (plan amortisation)",
    )
    p.add_argument(
        "--guarded",
        action="store_true",
        help="also time the guarded path (validation + CSR fallback) and "
        "print its fallback counters",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="like --guarded but fail-fast: the guard re-raises instead of "
        "degrading to the CSR reference",
    )
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "serve-bench",
        help="chaos-under-load soak of the serving layer (queue, deadlines, "
        "retries, circuit breaker); nonzero exit on any violated invariant",
    )
    p.add_argument("graph")
    p.add_argument("-a", "--alpha", type=int, default=0)
    p.add_argument("-p", "--columns", type=int, default=16)
    p.add_argument("--clients", type=int, default=4, help="concurrent client threads")
    p.add_argument("--requests", type=int, default=15, help="requests per client per phase")
    p.add_argument("--deadline", type=float, default=2.0, help="per-request budget (s)")
    p.add_argument("--threads", type=int, default=2, help="update-stage worker threads")
    p.add_argument("--fail-rate", type=float, default=0.45,
                   help="chaos-phase worker-death probability per executor")
    p.add_argument("--stall-rate", type=float, default=0.15,
                   help="chaos-phase worker-stall probability per executor")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batched", action="store_true",
                   help="run the mixed-widths / swap-storm / poison scenario "
                   "instead: coalescing under load, generation purity across "
                   "hot swaps, and poisoned-member attribution")
    p.add_argument("--max-columns", type=int, default=32,
                   help="--batched scenario: stacked-operand column cap per batch")
    p.add_argument("--json", help="also write the full JSON report here")
    p.add_argument("--verbose", action="store_true",
                   help="let the guard's FallbackWarnings through to stderr")
    p.set_defaults(fn=cmd_serve_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
