"""Lock-order and blocking-call analysis over the source tree (SC7xx).

The serving/streaming/parallel layers hold over a dozen locks across
module boundaries (service state and swap locks, the batch collector's
queue lock, the streaming mutation/rebuild locks, the breaker, the
workspace-pool registry, the recovery store's pin lock).  No single function sees more than two of them, so deadlocks and
lock-convoy bugs are *emergent* — visible only in the inter-module
acquisition graph.  This pass builds that graph from the AST and proves
three properties:

``SC701`` (deadlock cycle)
    The lock acquisition graph — an edge ``A → B`` wherever some code
    path acquires ``B`` while holding ``A``, including through resolved
    calls into other functions/modules — must be acyclic.  A cycle is a
    lock-order inversion: two threads entering the cycle from different
    ends deadlock.
``SC702`` (blocking call under a lock)
    No lock may be held lexically across an unbounded blocking call:
    ``future.result()``, executor/pool dispatch (``.submit``/``.map``),
    ``concurrent.futures.wait``, zero-argument ``queue.get()`` /
    ``.wait()`` / thread ``.join()``.  The holder stalls every other
    acquirer for as long as the callee takes — the lock-convoy shape the
    soak harnesses keep reproducing.  (``Condition.wait`` on the
    condition being held is the condition idiom, not a finding.)
``SC703`` (Condition.wait outside a predicate loop)
    ``cond.wait()`` must sit inside a ``while`` predicate loop:
    conditions wake spuriously and after stolen wakeups, so a bare
    ``if``-guarded (or unguarded) wait proceeds on a false predicate.

**Lock identity.**  Locks are recognised where they are created —
``self._x = threading.Lock()/RLock()/Condition()`` in a method body,
class-body (dataclass) defaults, or module-level ``_X = Lock()`` — and
named ``Class.attr`` or ``module.attr``.  ``Condition(self._x)`` aliases
the condition to the lock it wraps.  A ``with self._x:`` over an
*unknown* attribute still counts when the name mentions lock/cond/mutex
(the same heuristic the SC401 lint uses); attribute chains on foreign
objects (``pool._lock``) are skipped — the analysis is deliberately
conservative so a finding is always actionable.

**Call resolution.**  Held-lock sets flow through calls the AST can
resolve: ``self.method()`` (same class), same-module functions,
imported names (``from repro.runtime import buffers; buffers.drain_all_pools``),
and — for the acquisition graph only — methods whose name is defined by
exactly one analysed class.  SC702 itself is function-local (lexical),
so it never flags a bounded wait hidden behind a call; the graph edges
are where cross-module effects surface, as SC701 cycles.

The dynamic counterpart lives in :mod:`repro.staticcheck.witness`: the
lock-witness recorder observes real acquisition orders during soaks and
cross-checks them against this graph (every observed edge must be
predicted — the static pass over-approximates the dynamic truth).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.staticcheck.lint import _pragma_codes, iter_python_files
from repro.staticcheck.report import Finding, Severity

_LOCK_CTORS = frozenset({"Lock", "RLock"})
_COND_CTORS = frozenset({"Condition"})
_LOCKISH_MARKERS = ("lock", "cond", "mutex")

#: Method names too generic to resolve by the unique-class heuristic.
_AMBIGUOUS_METHODS = frozenset(
    {
        "get", "put", "wait", "close", "join", "submit", "result", "acquire",
        "release", "start", "stop", "run", "append", "pop", "add", "copy",
        "update", "items", "values", "keys", "clear", "read", "write",
        "flush", "send", "recv", "next", "reset", "execute",
    }
)


@dataclass(frozen=True)
class LockEdge:
    """``src`` held while ``dst`` was acquired, at ``file:line`` via ``fn``."""

    src: str
    dst: str
    file: str
    line: int
    via: str


@dataclass
class _FuncInfo:
    key: str
    file: str
    line: int
    acquires: set[str] = field(default_factory=set)
    edges: list[LockEdge] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)
    # (candidate keys, line, held locks at the call site)
    calls: list[tuple[tuple[str, ...], int, tuple[str, ...]]] = field(
        default_factory=list
    )


@dataclass
class LockGraph:
    """The inter-module lock acquisition graph plus per-lock metadata."""

    locks: set[str] = field(default_factory=set)
    conditions: set[str] = field(default_factory=set)
    edges: dict[tuple[str, str], list[LockEdge]] = field(default_factory=dict)

    def add_edge(self, edge: LockEdge) -> None:
        self.edges.setdefault((edge.src, edge.dst), []).append(edge)

    def edge_pairs(self) -> set[tuple[str, str]]:
        return set(self.edges)

    def has_edge(self, src: str, dst: str) -> bool:
        """Endpoint-tolerant membership test for the witness cross-check.

        Dynamic witnesses name locks ``Class.attr``; static names are
        ``Class.attr`` or ``module.attr``.  Two names match when equal
        or when they share the final attribute and either side's prefix
        is unknown to the other naming scheme.
        """
        if (src, dst) in self.edges:
            return True
        def _match(a: str, b: str) -> bool:
            return a == b or a.rsplit(".", 1)[-1] == b.rsplit(".", 1)[-1]
        return any(
            _match(src, s) and _match(dst, d) for s, d in self.edges
        )

    def cycles(self) -> list[list[str]]:
        """Strongly connected components with at least one internal edge."""
        adj: dict[str, list[str]] = {}
        for s, d in self.edges:
            adj.setdefault(s, []).append(d)
            adj.setdefault(d, [])
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        sccs: list[list[str]] = []
        counter = [0]

        def strongconnect(v: str) -> None:
            # Iterative Tarjan: recursion depth is unbounded on long chains.
            work = [(v, 0)]
            while work:
                node, pi = work[-1]
                if pi == 0:
                    index[node] = low[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                succs = adj.get(node, [])
                while pi < len(succs):
                    w = succs[pi]
                    pi += 1
                    if w not in index:
                        work[-1] = (node, pi)
                        work.append((w, 0))
                        recurse = True
                        break
                    if w in on_stack:
                        low[node] = min(low[node], index[w])
                if recurse:
                    continue
                if low[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == node:
                            break
                    if len(comp) > 1 or (node, node) in self.edges:
                        sccs.append(sorted(comp))
                work.pop()
                if work:
                    pnode, _ = work[-1]
                    low[pnode] = min(low[pnode], low[node])

        for v in sorted(adj):
            if v not in index:
                strongconnect(v)
        return sccs


class _ModuleScanner(ast.NodeVisitor):
    """One pass over a module: lock definitions, acquisitions, blocking calls."""

    def __init__(self, path: str, modname: str, lines: list[str]):
        self.path = path
        self.modname = modname
        self.lines = lines
        self.module_locks: dict[str, str] = {}  # name -> kind
        self.class_locks: dict[str, dict[str, str]] = {}  # class -> attr -> kind
        self.cond_alias: dict[str, str] = {}  # cond lock name -> aliased lock name
        self.attr_types: dict[str, dict[str, str]] = {}  # class -> attr -> type
        self.imports: dict[str, str] = {}  # alias -> module path / imported name key
        self.funcs: dict[str, _FuncInfo] = {}
        self.classes: list[str] = []
        self._class_stack: list[str] = []
        self._func_stack: list[_FuncInfo] = []
        self._held: list[str] = []
        self._while_depth = 0

    # -- pass 1 entry: collect defs while visiting ---------------------
    def visit_Import(self, node: ast.Import) -> None:
        for a in node.names:
            self.imports[a.asname or a.name.split(".")[0]] = a.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        mod = node.module or ""
        for a in node.names:
            self.imports[a.asname or a.name] = f"{mod}.{a.name}" if mod else a.name

    @staticmethod
    def _ctor_kind(value: ast.expr) -> str | None:
        """'lock'/'condition' when ``value`` constructs one, else None."""
        calls = [value] if isinstance(value, ast.Call) else [
            n for n in ast.walk(value) if isinstance(n, ast.Call)
        ]
        for call in calls:
            f = call.func
            name = f.attr if isinstance(f, ast.Attribute) else (
                f.id if isinstance(f, ast.Name) else None
            )
            if name in _LOCK_CTORS:
                return "lock"
            if name in _COND_CTORS:
                return "condition"
        return None

    def _record_lock_def(self, target: ast.expr, value: ast.expr) -> None:
        kind = self._ctor_kind(value)
        if kind is None:
            return
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and self._class_stack
        ):
            cls = self._class_stack[-1]
            self.class_locks.setdefault(cls, {})[target.attr] = kind
            if kind == "condition" and isinstance(value, ast.Call) and value.args:
                wrapped = value.args[0]
                if (
                    isinstance(wrapped, ast.Attribute)
                    and isinstance(wrapped.value, ast.Name)
                    and wrapped.value.id == "self"
                ):
                    self.cond_alias[f"{cls}.{target.attr}"] = f"{cls}.{wrapped.attr}"
        elif isinstance(target, ast.Name):
            if self._class_stack and not self._func_stack:
                # class-body (dataclass field) default
                self.class_locks.setdefault(self._class_stack[-1], {})[
                    target.id
                ] = kind
            elif not self._class_stack and not self._func_stack:
                self.module_locks[target.id] = kind

    def _record_attr_type(self, target: ast.expr, value: ast.expr) -> None:
        """Track ``self.x = Type(...)`` so calls through ``self.x`` resolve.

        Without this, a lock taken inside a helper object's method (e.g.
        ``self.stats.bump()`` → ``ServiceStats._lock``) is invisible to
        the acquisition graph — a blind spot the dynamic witness exposed
        (SC704).  Classmethod constructors (``Type.from_x(...)``) count.
        """
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and self._class_stack
            and isinstance(value, ast.Call)
        ):
            return
        f = value.func
        tname = None
        if isinstance(f, ast.Name) and f.id[:1].isupper():
            tname = f.id
        elif (
            isinstance(f, ast.Attribute)
            and isinstance(f.value, ast.Name)
            and f.value.id[:1].isupper()
        ):
            tname = f.value.id
        if tname is not None:
            self.attr_types.setdefault(self._class_stack[-1], {})[
                target.attr
            ] = tname

    def visit_Assign(self, node: ast.Assign) -> None:
        for t in node.targets:
            self._record_lock_def(t, node.value)
            self._record_attr_type(t, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_lock_def(node.target, node.value)
            self._record_attr_type(node.target, node.value)
        self.generic_visit(node)

    # -- naming --------------------------------------------------------
    def _resolve_lock(self, expr: ast.expr) -> str | None:
        """Qualified lock name of an acquired context expr, or None."""
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            recv, attr = expr.value.id, expr.attr
            if recv == "self" and self._class_stack:
                cls = self._class_stack[-1]
                if attr in self.class_locks.get(cls, {}):
                    return f"{cls}.{attr}"
                if any(m in attr.lower() for m in _LOCKISH_MARKERS):
                    return f"{cls}.{attr}"
            return None  # foreign object's lock: unresolvable receiver type
        if isinstance(expr, ast.Name):
            if expr.id in self.module_locks:
                return f"{self.modname}.{expr.id}"
            if any(m in expr.id.lower() for m in _LOCKISH_MARKERS):
                scope = self._func_stack[-1].key if self._func_stack else self.modname
                return f"{scope}.{expr.id}"
        return None

    def _lock_kind(self, name: str) -> str:
        cls_attr = name.rsplit(".", 1)
        if len(cls_attr) == 2:
            cls, attr = cls_attr
            kind = self.class_locks.get(cls, {}).get(attr)
            if kind:
                return kind
            kind = self.module_locks.get(attr) if cls == self.modname else None
            if kind:
                return kind
        return "lock"

    def _canonical(self, name: str) -> str:
        """Conditions wrapping an explicit lock alias to that lock."""
        return self.cond_alias.get(name, name)

    # -- scopes --------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.classes.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _func_key(self, name: str) -> str:
        if self._class_stack:
            return f"{self.modname}::{self._class_stack[-1]}.{name}"
        return f"{self.modname}::{name}"

    def _visit_function(self, node) -> None:
        info = _FuncInfo(key=self._func_key(node.name), file=self.path, line=node.lineno)
        self.funcs.setdefault(info.key, info)
        self._func_stack.append(self.funcs[info.key])
        held_before, self._held = self._held, []
        while_before, self._while_depth = self._while_depth, 0
        self.generic_visit(node)
        self._held = held_before
        self._while_depth = while_before
        self._func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_While(self, node: ast.While) -> None:
        self._while_depth += 1
        self.generic_visit(node)
        self._while_depth -= 1

    # -- acquisitions --------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        acquired: list[str] = []
        for item in node.items:
            name = self._resolve_lock(item.context_expr)
            if name is None:
                continue
            name = self._canonical(name)
            fn = self._func_stack[-1] if self._func_stack else None
            if fn is not None:
                fn.acquires.add(name)
                for h in self._held:
                    if h != name:
                        fn.edges.append(
                            LockEdge(h, name, self.path, item.context_expr.lineno, fn.key)
                        )
            acquired.append(name)
        self._held.extend(acquired)
        self.generic_visit(node)
        for _ in acquired:
            self._held.pop()

    # -- blocking calls + cond.wait ------------------------------------
    def _emit(self, code: str, line: int, message: str,
              severity: Severity = Severity.ERROR) -> None:
        src = self.lines[line - 1] if 0 < line <= len(self.lines) else ""
        codes = _pragma_codes(src)
        if codes is not None and (not codes or code in codes):
            return
        fn = self._func_stack[-1] if self._func_stack else None
        finding = Finding(
            code=code, severity=severity, message=message, subject=self.path, line=line
        )
        if fn is not None:
            fn.findings.append(finding)
        else:  # module-level code (rare): attach to a synthetic scope
            self.funcs.setdefault(
                f"{self.modname}::<module>",
                _FuncInfo(key=f"{self.modname}::<module>", file=self.path, line=1),
            ).findings.append(finding)

    def _blocking_desc(self, node: ast.Call) -> str | None:
        f = node.func
        bare = not node.args and not node.keywords
        if isinstance(f, ast.Attribute):
            if f.attr == "result":
                return "future.result()"
            if f.attr in ("submit", "map") and isinstance(f.value, (ast.Name, ast.Attribute)):
                recv = f.value.attr if isinstance(f.value, ast.Attribute) else f.value.id
                if any(m in recv.lower() for m in ("pool", "executor", "ex")):
                    return f"pool dispatch `.{f.attr}()`"
                return None
            if f.attr == "get" and bare:
                return "queue.get() with no timeout"
            if f.attr == "join" and bare:
                return "thread.join() with no timeout"
            if f.attr == "wait" and bare:
                # cond.wait() on the condition being held is the idiom,
                # not a convoy (the wait releases that lock).
                held_cond = self._resolve_lock(f.value)
                if held_cond is not None and self._canonical(held_cond) in self._held:
                    return None
                return ".wait() with no timeout"
            return None
        if isinstance(f, ast.Name) and f.id == "wait":
            if self.imports.get("wait", "").startswith("concurrent.futures"):
                return "concurrent.futures.wait()"
        return None

    def visit_Call(self, node: ast.Call) -> None:
        desc = self._blocking_desc(node)
        if desc is not None and self._held:
            held = ", ".join(f"`{h}`" for h in dict.fromkeys(self._held))
            self._emit(
                "SC702",
                node.lineno,
                f"{desc} while holding {held} — every other acquirer stalls "
                "for as long as the blocked call takes (lock convoy; "
                "unbounded if the peer never arrives)",
            )
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr == "wait":
            cond = self._resolve_lock(f.value)
            if (
                cond is not None
                and self._lock_kind(cond) == "condition"
                and self._while_depth == 0
            ):
                self._emit(
                    "SC703",
                    node.lineno,
                    f"`{cond}.wait()` outside a `while` predicate loop — "
                    "conditions wake spuriously and after stolen wakeups, so "
                    "the caller proceeds on a false predicate; re-test the "
                    "predicate in a loop around the wait",
                )
        # record resolvable calls with the locks held at the call site
        if self._func_stack:
            candidates = self._call_candidates(node)
            if candidates:
                self._func_stack[-1].calls.append(
                    (candidates, node.lineno, tuple(dict.fromkeys(self._held)))
                )
        self.generic_visit(node)

    def _call_candidates(self, node: ast.Call) -> tuple[str, ...]:
        f = node.func
        if isinstance(f, ast.Name):
            target = self.imports.get(f.id)
            if target is not None:
                return (f"import::{target}",)
            return (f"{self.modname}::{f.id}",)
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
            recv, meth = f.value.id, f.attr
            if recv == "self" and self._class_stack:
                return (f"{self.modname}::{self._class_stack[-1]}.{meth}",)
            target = self.imports.get(recv)
            if target is not None:
                return (f"import::{target}.{meth}",)
            if meth not in _AMBIGUOUS_METHODS and not meth.startswith("__"):
                return (f"method::{meth}",)
        if (
            isinstance(f, ast.Attribute)
            and isinstance(f.value, ast.Attribute)
            and isinstance(f.value.value, ast.Name)
            and f.value.value.id == "self"
            and self._class_stack
        ):
            # self.helper.meth(): resolve through the attribute's tracked
            # constructed type (local class or imported).
            tname = self.attr_types.get(self._class_stack[-1], {}).get(
                f.value.attr
            )
            if tname is not None:
                target = self.imports.get(tname)
                if target is not None:
                    return (f"import::{target}.{f.attr}",)
                return (f"{self.modname}::{tname}.{f.attr}",)
        return ()


@dataclass
class LockScan:
    """Everything the pass learned: graph, findings, per-function info."""

    graph: LockGraph
    findings: list[Finding]
    funcs: dict[str, _FuncInfo]


def _modname(path: Path, root: Path) -> str:
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        rel = path
    parts = list(rel.with_suffix("").parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[0] == "repro":
        parts = parts[1:]
    return ".".join(parts) or path.stem


def scan_locks(paths, *, root=None) -> LockScan:
    """Run the SC7xx pass over files/directories; returns graph + findings."""
    root = Path(root) if root is not None else Path.cwd()
    scanners: list[_ModuleScanner] = []
    for file in iter_python_files(paths):
        try:
            rel = str(file.resolve().relative_to(root.resolve()))
        except ValueError:
            rel = str(file)
        source = file.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue  # SC001 belongs to the contract linter
        scanner = _ModuleScanner(rel, _modname(file, root), source.splitlines())
        scanner.visit(tree)
        scanners.append(scanner)
    return _link(scanners)


def scan_lock_source(source: str, path: str = "<string>", modname: str = "mod") -> LockScan:
    """Scan one module's source text (mutation-catalog entry point)."""
    scanner = _ModuleScanner(path, modname, source.splitlines())
    scanner.visit(ast.parse(source))
    return _link([scanner])


def _link(scanners: list[_ModuleScanner]) -> LockScan:
    funcs: dict[str, _FuncInfo] = {}
    by_method: dict[str, list[str]] = {}
    by_import: dict[str, str] = {}
    graph = LockGraph()
    findings: list[Finding] = []
    for sc in scanners:
        for name, kind in sc.module_locks.items():
            qual = f"{sc.modname}.{name}"
            graph.locks.add(qual)
            if kind == "condition":
                graph.conditions.add(qual)
        for cls, attrs in sc.class_locks.items():
            for name, kind in attrs.items():
                qual = f"{cls}.{name}"
                graph.locks.add(qual)
                if kind == "condition":
                    graph.conditions.add(qual)
        for key, info in sc.funcs.items():
            funcs[key] = info
            findings.extend(info.findings)
            mod, _, qual = key.partition("::")
            by_import[f"import::{mod}.{qual}"] = key
            by_import[f"import::repro.{mod}.{qual}"] = key
            if "." in qual:
                by_method.setdefault(qual.split(".", 1)[1], []).append(key)

    def resolve(candidate: str) -> str | None:
        if candidate in funcs:
            return candidate
        if candidate.startswith("import::"):
            return by_import.get(candidate)
        if candidate.startswith("method::"):
            matches = by_method.get(candidate[len("method::"):], [])
            return matches[0] if len(matches) == 1 else None
        return None

    # Transitive lock sets: which locks can a call into `key` acquire?
    effective: dict[str, set[str]] = {k: set(v.acquires) for k, v in funcs.items()}
    changed = True
    while changed:
        changed = False
        for key, info in funcs.items():
            for candidates, _line, _held in info.calls:
                for cand in candidates:
                    target = resolve(cand)
                    if target is None:
                        continue
                    extra = effective[target] - effective[key]
                    if extra:
                        effective[key] |= extra
                        changed = True

    for key, info in funcs.items():
        for edge in info.edges:
            graph.add_edge(edge)
        for candidates, line, held in info.calls:
            if not held:
                continue
            for cand in candidates:
                target = resolve(cand)
                if target is None:
                    continue
                for dst in sorted(effective[target]):
                    for src in held:
                        if src != dst:
                            graph.add_edge(
                                LockEdge(src, dst, info.file, line, key)
                            )
    for cycle in graph.cycles():
        where = []
        for s, d in sorted(graph.edge_pairs()):
            if s in cycle and d in cycle:
                e = graph.edges[(s, d)][0]
                where.append(f"{s}→{d} at {e.file}:{e.line}")
        findings.append(
            Finding(
                code="SC701",
                severity=Severity.ERROR,
                message=(
                    f"lock-order cycle {{{', '.join(cycle)}}} — two threads "
                    "entering from different ends deadlock; establish one "
                    f"global order ({'; '.join(where[:4])})"
                ),
                subject=graph.edges[
                    next((s, d) for s, d in sorted(graph.edge_pairs())
                         if s in cycle and d in cycle)
                ][0].file,
                line=graph.edges[
                    next((s, d) for s, d in sorted(graph.edge_pairs())
                         if s in cycle and d in cycle)
                ][0].line,
            )
        )
    findings.sort(key=lambda f: (f.subject, f.line or 0, f.code))
    return LockScan(graph=graph, findings=findings, funcs=funcs)


def analyze_locks(paths, *, root=None, subject: str = "lock-order"):
    """SC7xx analysis as an :class:`AuditReport` (CLI/CI entry point)."""
    from repro.staticcheck.report import AuditReport

    scan = scan_locks(paths, root=root)
    report = AuditReport(subject=subject)
    report.findings.extend(scan.findings)
    for code, check in (
        ("SC701", "locks.acyclic"),
        ("SC702", "locks.nonblocking"),
        ("SC703", "locks.predicate_wait"),
    ):
        if any(f.code == code for f in scan.findings):
            report.failed(check)
        else:
            report.passed(check)
    return report, scan.graph
