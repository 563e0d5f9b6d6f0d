"""AST-based contract linter for the runtime's concurrency/buffer rules.

The PR2/PR3 layers rely on conventions no general-purpose linter knows:

``SC101``
    Bare ``except:`` — catches ``KeyboardInterrupt``/``SystemExit`` and
    hides which failures the handler was designed for.
``SC102``
    Broad ``except Exception``/``except BaseException`` that *swallows*:
    the handler neither re-raises nor uses the bound exception.  In the
    executor and serving hot paths a swallowed failure becomes a silently
    wrong product; handlers that record-and-propagate (the executor's
    worker trampoline) bind the exception and use it, which this rule
    allows.
``SC201``
    :class:`~repro.reliability.guard.GuardStats` counter fields
    (``calls``, ``fallbacks``, ``input_rejections``,
    ``warnings_suppressed``, ``reasons``) touched through a ``.stats.``
    attribute chain outside ``GuardStats`` itself.  The counters are
    shared across serving threads and must only be read through the
    locked accessors (``snapshot()``/``as_dict()``/``record_*``).
``SC301``
    In-place mutation (subscript assignment, augmented assignment, or
    ``.fill()``) of a buffer parameter — ``c``, ``out``, ``u``, ``buf``,
    ``dst`` — inside a function whose docstring does not declare the
    mutation with "in place"/"in-place".  The restore-or-invalidate
    contract (PR2) makes callers responsible for buffers a callee may
    half-write; an undeclared mutator breaks that audit trail.
``SC401``
    Blocking lexically inside a ``with`` block whose context manager
    mentions a lock: ``time.sleep`` (or bare ``sleep``), a zero-argument
    ``queue.get()``, or a zero-argument ``.wait()`` (``Event.wait`` with
    no timeout).  Sleeping stalls every other holder for the full sleep;
    the unbounded forms are worse — the lock is held until a *peer*
    acts, which under contention is the lock-convoy/deadlock shape the
    SC7xx pass (:mod:`repro.staticcheck.locks`) hunts interprocedurally.
    Receivers whose name mentions ``cond`` are exempt from the ``.wait``
    form: a condition wait *releases* the lock it wraps.
``SC501``
    Non-atomic persistent-artifact write outside :mod:`repro.recovery`:
    a direct ``np.savez``/``np.savez_compressed`` whose destination is
    not a file handle bound by an enclosing
    ``with atomic_write(...) as fh:`` block, or — inside a
    ``save_*``/``write_*``/``dump_*``/``persist_*`` function — a plain
    ``open(path, "w"/"wb"/...)`` or ``Path.write_text``/``write_bytes``.
    A crash mid-write tears the destination itself; every durable
    artifact must land through :func:`repro.recovery.atomic_write`
    (PR5's crash-safety contract).  Modules under ``repro/recovery``
    are exempt — they *implement* the protocol.
``SC601``
    A raw ``SharedMemory(...)`` segment.  Shared-memory segments outlive
    their creating process, so nothing reclaims one after a kill-9 and
    it leaks ``/dev/shm``.  The package needs no cross-process memory:
    share operands between threads in one process instead.

Findings render ruff-style (``path:line: CODE message``).  A regression
baseline (:func:`load_baseline`) makes CI fail only on *new* findings,
and ``# staticcheck: ignore[CODE]`` on the offending line suppresses a
single finding where the contract is deliberately bent.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.staticcheck.report import Finding, Severity

#: GuardStats counter fields that must only be touched under its lock.
GUARDSTATS_COUNTERS = frozenset(
    {"calls", "fallbacks", "input_rejections", "warnings_suppressed", "reasons"}
)

#: Parameter names the codebase uses for caller-owned output/work buffers.
BUFFER_PARAMS = frozenset({"c", "out", "u", "buf", "dst"})

_INPLACE_MARKERS = ("in place", "in-place")

#: Function-name prefixes that mark a persistence routine for SC501.
PERSIST_FUNC_PREFIXES = ("save", "write", "dump", "persist")

#: numpy archive writers that must target an atomic_write handle.
_SAVEZ_NAMES = frozenset({"savez", "savez_compressed"})

_WRITE_MODES = frozenset("wax")

_PRAGMA = "staticcheck: ignore"


def _pragma_codes(line: str) -> set[str] | None:
    """Codes suppressed by a ``# staticcheck: ignore[...]`` pragma.

    Returns None when the line has no pragma; an empty set means a bare
    ``# staticcheck: ignore`` (suppress everything on the line).
    """
    idx = line.find(_PRAGMA)
    if idx < 0 or "#" not in line[:idx]:
        return None
    rest = line[idx + len(_PRAGMA) :]
    if rest.lstrip().startswith("["):
        inner = rest.lstrip()[1:].split("]", 1)[0]
        return {c.strip() for c in inner.split(",") if c.strip()}
    return set()


class _ContractVisitor(ast.NodeVisitor):
    """One pass over a module collecting SC1xx–SC4xx findings."""

    def __init__(self, path: str, lines: list[str]):
        self.path = path
        self.lines = lines
        self.findings: list[Finding] = []
        # Lexical state.
        self._func_stack: list[tuple[set[str], bool]] = []  # (buffer params, declared)
        self._func_names: list[str] = []
        self._lock_depth = 0
        self._class_stack: list[str] = []
        self._atomic_handles: list[str] = []  # names bound by `with atomic_write(...) as f`
        # repro.recovery implements the atomic protocol; SC501 is for
        # everyone writing *around* it.
        self._recovery_module = "recovery" in Path(path).parts

    # -- helpers -------------------------------------------------------
    def _emit(self, code: str, line: int, message: str, severity=Severity.ERROR) -> None:
        src = self.lines[line - 1] if 0 < line <= len(self.lines) else ""
        codes = _pragma_codes(src)
        if codes is not None and (not codes or code in codes):
            return
        self.findings.append(
            Finding(code=code, severity=severity, message=message, subject=self.path, line=line)
        )

    # -- SC101 / SC102: except hygiene ---------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._emit(
                "SC101",
                node.lineno,
                "bare `except:` — name the exceptions this handler is for",
            )
        elif self._is_broad(node.type) and self._swallows(node):
            what = ast.unparse(node.type)
            self._emit(
                "SC102",
                node.lineno,
                f"`except {what}` swallows the failure (no re-raise, bound "
                "exception unused) — narrow the exception or propagate it",
            )
        self.generic_visit(node)

    @staticmethod
    def _is_broad(type_node: ast.expr) -> bool:
        names = []
        for n in ast.walk(type_node):
            if isinstance(n, ast.Name):
                names.append(n.id)
            elif isinstance(n, ast.Attribute):
                names.append(n.attr)
        return any(name in ("Exception", "BaseException") for name in names)

    @staticmethod
    def _swallows(node: ast.ExceptHandler) -> bool:
        for n in node.body:
            for sub in ast.walk(n):
                if isinstance(sub, ast.Raise):
                    return False
                if (
                    node.name
                    and isinstance(sub, ast.Name)
                    and sub.id == node.name
                ):
                    return False
        return True

    # -- SC201: GuardStats counters outside the lock -------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            node.attr in GUARDSTATS_COUNTERS
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "stats"
            and self._class_stack[-1:] != ["GuardStats"]
        ):
            self._emit(
                "SC201",
                node.lineno,
                f"GuardStats counter `.stats.{node.attr}` touched outside its "
                "lock — use snapshot()/as_dict() or a record_* accessor",
            )
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    # -- SC301: undeclared in-place buffer mutation --------------------
    def _visit_function(self, node) -> None:
        args = node.args
        names = {
            a.arg
            for a in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            )
        }
        buffers = names & BUFFER_PARAMS
        doc = ast.get_docstring(node) or ""
        declared = any(marker in doc.lower() for marker in _INPLACE_MARKERS)
        self._func_stack.append((buffers, declared))
        self._func_names.append(node.name)
        self.generic_visit(node)
        self._func_names.pop()
        self._func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _buffer_param(self, expr: ast.expr) -> str | None:
        """The enclosing function's buffer param this expression writes, if any."""
        if not self._func_stack:
            return None
        buffers, declared = self._func_stack[-1]
        if declared or not buffers:
            return None
        target = expr
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Name) and target.id in buffers:
            return target.id
        return None

    def _check_mutation(self, expr: ast.expr, line: int, how: str) -> None:
        name = self._buffer_param(expr)
        if name is not None:
            self._emit(
                "SC301",
                line,
                f"undeclared in-place mutation: {how} buffer parameter "
                f"`{name}` but the function's docstring does not say "
                "\"in place\" — callers must know this buffer is written "
                "(restore-or-invalidate contract)",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                self._check_mutation(target, node.lineno, "subscript-assigns")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_mutation(node.target, node.lineno, "augments")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "fill":
                self._check_mutation(func.value, node.lineno, "fills")
        # -- SC401: sleeping while holding a lock ----------------------
        is_sleep = (
            isinstance(func, ast.Attribute)
            and func.attr == "sleep"
            or isinstance(func, ast.Name)
            and func.id == "sleep"
        )
        if is_sleep and self._lock_depth > 0:
            self._emit(
                "SC401",
                node.lineno,
                "blocking sleep while holding a lock — every other holder "
                "stalls for the full sleep",
            )
        if self._lock_depth > 0 and not node.args and not node.keywords:
            if isinstance(func, ast.Attribute) and func.attr == "get":
                # dict.get takes a key, so a zero-argument .get() is the
                # queue form — an unbounded wait for a producer.
                self._emit(
                    "SC401",
                    node.lineno,
                    "queue.get() with no timeout while holding a lock — the "
                    "lock is held until a producer shows up; every other "
                    "holder stalls unboundedly",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "wait"
                and not self._condition_receiver(func.value)
            ):
                self._emit(
                    "SC401",
                    node.lineno,
                    ".wait() with no timeout while holding a lock — the lock "
                    "is held until a peer sets the event; every other holder "
                    "stalls unboundedly",
                )
        self._check_persistent_write(node)
        # -- SC601: raw shared-memory segment --
        is_shm_ctor = (
            isinstance(func, ast.Attribute)
            and func.attr == "SharedMemory"
            or isinstance(func, ast.Name)
            and func.id == "SharedMemory"
        )
        if is_shm_ctor:
            self._emit(
                "SC601",
                node.lineno,
                "raw `SharedMemory(...)` — the segment outlives its "
                "process and leaks /dev/shm after a kill-9; share operands "
                "between threads in one process instead",
            )
        self.generic_visit(node)

    # -- SC501: non-atomic persistent-artifact writes ------------------
    def _in_persist_function(self) -> bool:
        return bool(self._func_names) and self._func_names[-1].startswith(
            PERSIST_FUNC_PREFIXES
        )

    @staticmethod
    def _open_write_mode(node: ast.Call) -> str | None:
        """The literal write mode of an ``open`` call, if any."""
        mode = None
        if len(node.args) >= 2:
            mode = node.args[1]
        for kw in node.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            if set(mode.value) & _WRITE_MODES:
                return mode.value
        return None

    def _check_persistent_write(self, node: ast.Call) -> None:
        if self._recovery_module:
            return
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SAVEZ_NAMES
            or isinstance(func, ast.Name)
            and func.id in _SAVEZ_NAMES
        ):
            target = node.args[0] if node.args else None
            if not (
                isinstance(target, ast.Name) and target.id in self._atomic_handles
            ):
                name = func.attr if isinstance(func, ast.Attribute) else func.id
                self._emit(
                    "SC501",
                    node.lineno,
                    f"`{name}` writes a persistent archive non-atomically — "
                    "route it through `with atomic_write(path) as fh: "
                    f"{name}(fh, ...)` so a crash cannot tear the artifact",
                )
            return
        if not self._in_persist_function():
            return
        if isinstance(func, ast.Name) and func.id == "open":
            mode = self._open_write_mode(node)
            if mode is not None:
                self._emit(
                    "SC501",
                    node.lineno,
                    f"`open(..., {mode!r})` in a persistence function writes "
                    "the destination in place — a crash mid-write leaves a "
                    "torn file; use `repro.recovery.atomic_write`",
                )
        elif isinstance(func, ast.Attribute) and func.attr in (
            "write_text",
            "write_bytes",
        ):
            self._emit(
                "SC501",
                node.lineno,
                f"`.{func.attr}()` in a persistence function writes the "
                "destination in place — a crash mid-write leaves a torn "
                "file; use `repro.recovery.atomic_write`",
            )

    def visit_With(self, node: ast.With) -> None:
        holds = any(self._mentions_lock(item.context_expr) for item in node.items)
        handles = []
        for item in node.items:
            call = item.context_expr
            if (
                isinstance(call, ast.Call)
                and (
                    isinstance(call.func, ast.Name)
                    and call.func.id == "atomic_write"
                    or isinstance(call.func, ast.Attribute)
                    and call.func.attr == "atomic_write"
                )
                and isinstance(item.optional_vars, ast.Name)
            ):
                handles.append(item.optional_vars.id)
        if holds:
            self._lock_depth += 1
        self._atomic_handles.extend(handles)
        self.generic_visit(node)
        for _ in handles:
            self._atomic_handles.pop()
        if holds:
            self._lock_depth -= 1

    @staticmethod
    def _condition_receiver(expr: ast.expr) -> bool:
        """Whether ``expr`` names a condition variable (``cond`` in name).

        ``Condition.wait`` releases the lock it wraps, so waiting on a
        held condition is the predicate-loop idiom, not a stall (the
        SC703 rule in :mod:`repro.staticcheck.locks` audits that idiom).
        """
        for n in ast.walk(expr):
            name = None
            if isinstance(n, ast.Name):
                name = n.id
            elif isinstance(n, ast.Attribute):
                name = n.attr
            if name is not None and "cond" in name.lower():
                return True
        return False

    @staticmethod
    def _mentions_lock(expr: ast.expr) -> bool:
        for n in ast.walk(expr):
            name = None
            if isinstance(n, ast.Name):
                name = n.id
            elif isinstance(n, ast.Attribute):
                name = n.attr
            if name is not None and "lock" in name.lower():
                return True
        return False


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one module's source text; returns findings in line order."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                code="SC001",
                severity=Severity.ERROR,
                message=f"cannot parse: {exc.msg}",
                subject=path,
                line=exc.lineno or 1,
            )
        ]
    visitor = _ContractVisitor(path, source.splitlines())
    visitor.visit(tree)
    return sorted(visitor.findings, key=lambda f: (f.line or 0, f.code))


def iter_python_files(paths) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            out.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            out.append(p)
    return out


def lint_paths(paths, *, baseline: set[str] | None = None, root=None) -> list[Finding]:
    """Lint files/directories, dropping findings present in ``baseline``.

    ``root`` (default: current directory) relativises the paths used in
    rendered findings so baseline entries are machine-independent.
    """
    findings, _stale = lint_paths_with_baseline(
        paths, baseline=baseline or set(), root=root
    )
    return findings


def lint_paths_with_baseline(
    paths, *, baseline: set[str], root=None
) -> tuple[list[Finding], set[str]]:
    """Lint and report baseline hygiene: ``(new findings, stale entries)``.

    A *stale* baseline entry matched no finding this run — the suppressed
    bug was fixed (or the code moved) and the suppression outlived it.
    Stale entries must be pruned, otherwise the baseline silently grows
    into a graveyard that can mask a *new* finding landing on the same
    rendered line; ``repro check code --strict-baseline`` fails on them.
    """
    root = Path(root) if root is not None else Path.cwd()
    findings: list[Finding] = []
    used: set[str] = set()
    for file in iter_python_files(paths):
        try:
            rel = str(file.resolve().relative_to(root.resolve()))
        except ValueError:
            rel = str(file)
        for f in lint_source(file.read_text(encoding="utf-8"), rel):
            if f.render() in baseline:
                used.add(f.render())
            else:
                findings.append(f)
    return findings, set(baseline) - used


def load_baseline(path) -> set[str]:
    """Read a baseline file: one rendered finding per line; ``#`` comments."""
    p = Path(path)
    if not p.exists():
        return set()
    out = set()
    for line in p.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.add(line)
    return out
