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
``soak {serve,batch,stream,crash} [<graph>]``
    Soak one scenario under load and injected faults (see
    :mod:`repro.soak`): every answer checked against the CSR reference
    of the generation that served it, every kill-9 trial against the
    crash-safety invariants.  Nonzero exit on any failed check.
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
    (threaded branch replay and sequential level schedules), the
    stacked-operand batch layout, and the streaming
    snapshot/rebuild/publish protocol — into the
    unified IR and proves each free of span-discipline violations and
    happens-before races (HZ-R4xx).  Then runs the lock-order and
    blocking-call analysis (SC7xx) over the source tree, and with
    ``--witness`` cross-checks the static lock graph against acquisition
    orders recorded from a live miniature serving workload
    (SC704/SC705).  Nonzero exit on any finding.
    """
    from repro.serving.batching import BatchConfig, BatchLayout
    from repro.staticcheck import (
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
        for threaded in (True, False):
            mode = "threaded" if threaded else "sequential"
            reports.append(
                analyze_ir(
                    lower_kernel_plan(
                        plan,
                        threaded=threaded,
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


def cmd_soak(args) -> int:
    """Run one soak scenario (:mod:`repro.soak`) and print its report.

    Options the user leaves out take the scenario's defaults; one the
    scenario does not take is an error.  Exit 0 only when every check
    passed and no violation was recorded, so ``crash --break-protocol``
    must exit 1.
    """
    import inspect
    import json

    from repro.soak import SCENARIOS, render

    run = SCENARIOS[args.scenario]
    given = {k: getattr(args, k) for k in ("clients", "requests", "trials", "seed")
             if getattr(args, k) is not None}
    if args.break_protocol:
        given["break_protocol"] = True
    if args.graph:
        given["a"] = args.graph
    if args.verbose:
        given["progress"] = lambda msg: print(f"  {msg}", flush=True)
    params = inspect.signature(run).parameters
    extra = sorted(given.keys() - params.keys())
    if extra:
        names = ", ".join("a graph" if k == "a" else "--" + k.replace("_", "-") for k in extra)
        raise SystemExit(f"soak {args.scenario} does not take {names}")
    if "a" in params and params["a"].default is params["a"].empty and "a" not in given:
        raise SystemExit(f"soak {args.scenario} needs a graph")
    if args.graph:
        given["a"] = _load_graph(args.graph)[1]
    report = run(**given)
    print(render(report))
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
        "schedule accounting)",
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
        "(kernel plans, batch layouts, streaming swaps) into the "
        "unified IR, prove each free of span violations and "
        "happens-before races (HZ-R4xx), and run "
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
        "soak",
        help="soak one scenario under load and injected faults: serve (chaos "
        "under load), batch (coalescing through a swap storm), stream "
        "(mutation storm with kill-9 rebuilds) or crash (kill-9 trials of "
        "the persistence tier); nonzero exit on any failed check",
    )
    p.add_argument("scenario", choices=("serve", "batch", "stream", "crash"))
    p.add_argument("graph", nargs="?",
                   help="dataset name or .mtx path (serve and batch need one; "
                   "stream defaults to a synthetic graph)")
    p.add_argument("--clients", type=_count, help="concurrent client threads")
    p.add_argument("--requests", type=_count, help="requests per client and phase")
    p.add_argument("--trials", type=_count, help="kill-9 trials (crash, stream)")
    p.add_argument("--break-protocol", action="store_true",
                   help="crash: run the commit-marker-first writer; the soak "
                   "must then FAIL (negative control)")
    p.add_argument("--seed", type=int)
    p.add_argument("--json", help="also write the full JSON report here")
    p.add_argument("--verbose", action="store_true", help="print each phase and trial")
    p.set_defaults(fn=cmd_soak)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
