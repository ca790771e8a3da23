"""Whole-program symbol table, call graph, and boundary facts.

The per-file rules (SVL001-SVL004, SVL006) see one AST at a time; the
hazards PR 6-8 introduced — coordinator/worker fanout, sqlite sharding,
torn manifest writes — are only visible across files: a module-level
dict is harmless until a function three calls away from a
``pool.submit`` mutates it, and a helper writing ``path`` bare is fine
exactly when every caller hands it an ``atomic_write_path`` temp name.

This module builds the project-wide view those rules need:

* a **symbol table** mapping qualified names
  (``repro.sim.parallel._replay_shard``,
  ``repro.serve.store.ShardedByteStore.put``) to
  :class:`FunctionNode` records;
* a **call graph** — edges resolved through each module's
  :class:`~repro.staticcheck.astutil.ImportMap` (cross-module), plus
  module-local calls and ``self.method()`` dispatch within a class;
* **boundary facts** annotated onto every node:

  - ``pool_entry`` / ``runs_in_pool_worker`` — the function is handed
    to ``Executor.submit``/``.map``, ``ProcessPoolExecutor(
    initializer=...)`` or ``repro.util.fanout.run_tasks(worker=...,
    initializer=...)``, or is reachable from one that is.  Code on
    this side of the fork sees copies of module state, not the
    parent's.
  - ``thread_entry`` / ``reachable_from_thread`` — handed to
    ``threading.Thread(target=...)`` or reachable from such a target;
    code here shares memory but not sqlite connections or file
    positions.
  - ``touches_persisted_path`` — the body contains a write call to a
    persisted artifact (``open(..., "w")``, ``write_text``,
    ``numpy.savez``, ...), the raw material of rule SVL007.

Resolution is deliberately conservative: names that cannot be resolved
(call results, duck-typed attributes, inherited methods) produce no
edge, so boundary facts under-approximate reachability rather than
inventing it — a missing edge can hide a finding, never fabricate one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.staticcheck.context import ModuleContext

#: Executor methods whose first argument runs in a worker process.
_SUBMIT_METHODS = frozenset({"submit", "map"})

#: Executor constructors whose ``initializer=`` runs in every worker.
_POOL_CONSTRUCTORS = frozenset(
    {
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
        "concurrent.futures.ThreadPoolExecutor",
        "multiprocessing.Pool",
        "multiprocessing.pool.Pool",
        "ProcessPoolExecutor",
        "ThreadPoolExecutor",
    }
)

#: Keyword arguments that run in pool workers, per callee.  The fan-out
#: driver submits its ``worker=`` parameter, an edge no resolver can
#: follow, so its call sites name the entry points instead.
_POOL_ENTRY_KEYWORDS: Dict[str, Tuple[str, ...]] = {
    **{name: ("initializer",) for name in _POOL_CONSTRUCTORS},
    "repro.util.fanout.run_tasks": ("worker", "initializer"),
}

#: Thread constructors whose ``target=`` runs in another thread.
_THREAD_CONSTRUCTORS = frozenset(
    {"threading.Thread", "threading.Timer", "Thread", "Timer"}
)

#: Canonical writer callables that persist bytes (see rule SVL007).
PERSISTED_WRITE_CALLS = frozenset(
    {"numpy.savez", "numpy.savez_compressed", "numpy.save"}
)

#: Attribute methods that persist bytes when called on a path object.
PERSISTED_WRITE_ATTRS = frozenset({"write_text", "write_bytes"})


@dataclass
class CallSite:
    """One resolved call edge: the callee's qualified name + the node."""

    callee: str
    node: ast.Call


@dataclass
class FunctionNode:
    """One function/method in the project-wide symbol table."""

    qualname: str
    module: str
    ctx: ModuleContext
    node: ast.AST  # FunctionDef | AsyncFunctionDef | Lambda
    cls: Optional[str] = None
    calls: List[CallSite] = field(default_factory=list)
    # Boundary facts (filled in by ProjectGraph._propagate):
    pool_entry: bool = False
    thread_entry: bool = False
    runs_in_pool_worker: bool = False
    reachable_from_thread: bool = False
    touches_persisted_path: bool = False

    @property
    def name(self) -> str:
        """Unqualified function name."""
        return self.qualname.rsplit(".", 1)[-1]


class ProjectGraph:
    """Symbol table + call graph over a set of parsed modules.

    Built once per analysis run (lazily, on the first rule that asks)
    and shared by every call-graph-sensitive rule.
    """

    def __init__(self, modules: Iterable[ModuleContext]) -> None:
        self.functions: Dict[str, FunctionNode] = {}
        self._modules = list(modules)
        #: (owner FunctionNode qualname or "<module>", entry qualname)
        self._pool_entries: Set[str] = set()
        self._thread_entries: Set[str] = set()
        for ctx in self._modules:
            self._index_module(ctx)
        for ctx in self._modules:
            self._resolve_module(ctx)
        self._propagate()

    # -- construction ------------------------------------------------------

    def _index_module(self, ctx: ModuleContext) -> None:
        """Register every function/method under its qualified name."""

        def visit(stmts: List[ast.stmt], prefix: str, cls: Optional[str]) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}.{stmt.name}"
                    self.functions[qualname] = FunctionNode(
                        qualname=qualname,
                        module=ctx.module,
                        ctx=ctx,
                        node=stmt,
                        cls=cls,
                    )
                    # Nested functions index under their parent, like
                    # runtime __qualname__ minus the "<locals>" noise.
                    visit(stmt.body, qualname, cls)
                elif isinstance(stmt, ast.ClassDef):
                    visit(stmt.body, f"{prefix}.{stmt.name}", stmt.name)
                elif isinstance(stmt, (ast.If, ast.Try)):
                    # Conditionally-defined module-level functions
                    # (version shims) still belong in the table.
                    for body in _stmt_blocks(stmt):
                        visit(body, prefix, cls)

        visit(ctx.tree.body, ctx.module, None)

    def _resolve_module(self, ctx: ModuleContext) -> None:
        """Attach call edges and entry-point marks for one module."""
        for qualname, fn in self.functions.items():
            if fn.ctx is not ctx:
                continue
            body = getattr(fn.node, "body", [])
            for node in _walk_own_scope(body):
                if isinstance(node, ast.Call):
                    callee = self._resolve_call(ctx, fn, node)
                    if callee is not None:
                        fn.calls.append(CallSite(callee=callee, node=node))
                    self._note_entries(ctx, fn, node)
                if _is_persisted_write(ctx, node):
                    fn.touches_persisted_path = True
        # Module-level code (import-time executors, rare but legal).
        for node in _walk_own_scope(ctx.tree.body):
            if isinstance(node, ast.Call):
                self._note_entries(ctx, None, node)

    def _resolve_call(
        self, ctx: ModuleContext, fn: FunctionNode, call: ast.Call
    ) -> Optional[str]:
        """Qualified name of the callee, or None when unresolvable."""
        func = call.func
        if isinstance(func, ast.Name):
            # Module-local function first, then imported names.
            local = f"{ctx.module}.{func.id}"
            if local in self.functions:
                return local
            resolved = ctx.imports.resolve(func)
            if resolved in self.functions:
                return resolved
            return None
        if isinstance(func, ast.Attribute):
            # self.method() -> method on the enclosing class.
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and fn.cls is not None
            ):
                method = f"{ctx.module}.{fn.cls}.{func.attr}"
                if method in self.functions:
                    return method
            resolved = ctx.imports.resolve(func)
            if resolved in self.functions:
                return resolved
        return None

    def _note_entries(
        self, ctx: ModuleContext, fn: Optional[FunctionNode], call: ast.Call
    ) -> None:
        """Record pool/thread entry points referenced by this call."""
        func = call.func
        # pool.submit(worker, ...) / pool.map(worker, ...)
        if isinstance(func, ast.Attribute) and func.attr in _SUBMIT_METHODS:
            if call.args:
                target = self._entry_target(ctx, fn, call.args[0])
                if target is not None:
                    self._pool_entries.add(target)
            return
        resolved = ctx.imports.resolve(func)
        name = resolved or (func.id if isinstance(func, ast.Name) else "")
        if name in _POOL_ENTRY_KEYWORDS:
            for kw in call.keywords:
                if kw.arg in _POOL_ENTRY_KEYWORDS[name]:
                    target = self._entry_target(ctx, fn, kw.value)
                    if target is not None:
                        self._pool_entries.add(target)
        elif name in _THREAD_CONSTRUCTORS:
            for kw in call.keywords:
                if kw.arg == "target":
                    target = self._entry_target(ctx, fn, kw.value)
                    if target is not None:
                        self._thread_entries.add(target)

    def _entry_target(
        self, ctx: ModuleContext, fn: Optional[FunctionNode], expr: ast.expr
    ) -> Optional[str]:
        """Qualified name of a callable handed across a boundary."""
        if isinstance(expr, ast.Name):
            local = f"{ctx.module}.{expr.id}"
            if local in self.functions:
                return local
            resolved = ctx.imports.resolve(expr)
            if resolved in self.functions:
                return resolved
            return None
        if isinstance(expr, ast.Attribute):
            if (
                isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and fn is not None
                and fn.cls is not None
            ):
                method = f"{ctx.module}.{fn.cls}.{expr.attr}"
                if method in self.functions:
                    return method
            resolved = ctx.imports.resolve(expr)
            if resolved in self.functions:
                return resolved
        return None

    def _propagate(self) -> None:
        """BFS each boundary fact along call edges."""
        for entry in self._pool_entries:
            if entry in self.functions:
                self.functions[entry].pool_entry = True
        for entry in self._thread_entries:
            if entry in self.functions:
                self.functions[entry].thread_entry = True
        self._spread(self._pool_entries, "runs_in_pool_worker")
        self._spread(self._thread_entries, "reachable_from_thread")

    def _spread(self, roots: Set[str], attr: str) -> None:
        queue = [q for q in roots if q in self.functions]
        seen: Set[str] = set(queue)
        while queue:
            qualname = queue.pop()
            fn = self.functions[qualname]
            setattr(fn, attr, True)
            for site in fn.calls:
                if site.callee not in seen and site.callee in self.functions:
                    seen.add(site.callee)
                    queue.append(site.callee)

    # -- queries -----------------------------------------------------------

    def function(self, qualname: str) -> Optional[FunctionNode]:
        return self.functions.get(qualname)

    def in_module(self, module: str) -> List[FunctionNode]:
        """Every function of one module, in source order."""
        return sorted(
            (f for f in self.functions.values() if f.module == module),
            key=lambda f: getattr(f.node, "lineno", 0),
        )

    def pool_worker_functions(self) -> List[FunctionNode]:
        """Functions that (transitively) run inside pool workers."""
        return sorted(
            (f for f in self.functions.values() if f.runs_in_pool_worker),
            key=lambda f: f.qualname,
        )

    def callers_of(self, qualname: str) -> List[Tuple[FunctionNode, ast.Call]]:
        """Every resolved call site targeting ``qualname``."""
        sites: List[Tuple[FunctionNode, ast.Call]] = []
        for fn in self.functions.values():
            for site in fn.calls:
                if site.callee == qualname:
                    sites.append((fn, site.node))
        sites.sort(
            key=lambda pair: (pair[0].qualname, pair[1].lineno, pair[1].col_offset)
        )
        return sites


def _stmt_blocks(stmt: ast.stmt) -> List[List[ast.stmt]]:
    blocks: List[List[ast.stmt]] = []
    for name in ("body", "orelse", "finalbody"):
        block = getattr(stmt, name, None)
        if block:
            blocks.append(block)
    for handler in getattr(stmt, "handlers", []):
        blocks.append(handler.body)
    return blocks


def _walk_own_scope(stmts: List[ast.stmt]):
    """Walk statements without descending into nested function bodies.

    Unlike :func:`repro.staticcheck.astutil.walk_scope` this also skips
    class bodies' method bodies (they are indexed as their own nodes)
    while still visiting class-level statements.
    """
    stack: List[ast.AST] = list(stmts)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _is_persisted_write(ctx: ModuleContext, node: ast.AST) -> bool:
    """True when ``node`` is a call that persists bytes to a path."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        return _write_mode(node) is not None
    if isinstance(func, ast.Attribute):
        if func.attr in PERSISTED_WRITE_ATTRS:
            return True
        if func.attr == "open":
            # Path.open(mode=...): mode is the *first* argument.
            return _write_mode(node, mode_index=0) is not None
    resolved = ctx.imports.resolve(func)
    return resolved in PERSISTED_WRITE_CALLS


def _write_mode(call: ast.Call, mode_index: int = 1) -> Optional[str]:
    """The constant write mode of an ``open(...)`` call, or None.

    ``mode_index`` is the positional slot of the mode argument: 1 for
    builtin ``open(file, mode)``, 0 for ``Path.open(mode)``.  Only
    truncating modes count (``"w"``, ``"wb"``, ``"w+"``, ...):
    append-mode logs and ``"x"`` marker touches are not replace-style
    publications, so atomic_write is not the right tool for them.
    """
    mode: Optional[ast.expr] = None
    if len(call.args) > mode_index:
        mode = call.args[mode_index]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value if "w" in mode.value else None
    return None
