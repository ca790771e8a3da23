"""SVL003 — only picklable objects cross the process-pool boundary.

``repro.sim.parallel`` ships tasks to worker processes through
``repro.util.fanout``; lambdas, local functions, open file handles, and
locks all fail to pickle — but only at runtime, on the submit path,
often after minutes of simulation.  This rule rejects them at the call
site: everything handed to ``.submit(...)``, to
``ProcessPoolExecutor(initializer=...)`` or to
``run_tasks(worker=..., initializer=...)`` must be a module-level
callable or plain data.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from repro.staticcheck.astutil import unparse_short, walk_scope
from repro.staticcheck.context import ModuleContext
from repro.staticcheck.findings import Finding, Severity
from repro.staticcheck.registry import Rule, RuleMeta, register

#: Modules whose submit sites are checked.
SCOPED_MODULES = frozenset({"repro.sim.parallel", "repro.util.fanout"})

#: Constructors whose instances hold OS state that cannot pickle.
UNPICKLABLE_CONSTRUCTORS = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Event",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
    }
)

#: Keyword arguments pickled into worker processes, per callee name.
POOL_KEYWORDS = {
    "ProcessPoolExecutor": ("initializer", "initargs"),
    "run_tasks": ("worker", "initializer", "initargs"),
}


@register
class PicklableRule(Rule):
    meta = RuleMeta(
        code="SVL003",
        name="picklable-submit",
        severity=Severity.ERROR,
        summary="unpicklable object handed to the process pool",
        rationale=(
            "Lambdas, nested functions, open files, and locks fail to "
            "pickle only at runtime, on the submit path.  Worker "
            "payloads must be module-level callables and plain data."
        ),
        example=(
            "def run(pool, tasks):\n"
            "    for task in tasks:\n"
            "        pool.submit(lambda: task.run())  # lambdas don't pickle\n"
        ),
        fixture_module="repro.sim.parallel",
    )

    def check_module(self, ctx: ModuleContext) -> List[Finding]:
        if ctx.module not in SCOPED_MODULES:
            return []
        findings: List[Finding] = []
        # Module-level scope first, then each function with its locals.
        self._check_scope(ctx, ctx.tree.body, findings, top_level=True)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_scope(ctx, node.body, findings, top_level=False)
        return findings

    def _check_scope(
        self,
        ctx: ModuleContext,
        body: List[ast.stmt],
        findings: List[Finding],
        top_level: bool,
    ) -> None:
        bad_locals = self._collect_bad_locals(body, top_level)
        for node in walk_scope(body):
            if not isinstance(node, ast.Call):
                continue
            for payload in self._payload_exprs(node):
                problem = self._classify(ctx, payload, bad_locals)
                if problem is not None:
                    findings.append(
                        Finding(
                            code=self.meta.code,
                            severity=self.meta.severity,
                            path=str(ctx.path),
                            line=payload.lineno,
                            col=payload.col_offset,
                            message=problem,
                            module=ctx.module,
                            symbol=unparse_short(payload),
                        )
                    )

    def _collect_bad_locals(
        self, body: List[ast.stmt], top_level: bool
    ) -> Dict[str, str]:
        """Names in this scope bound to unpicklable things.

        At module level ``def`` statements are picklable by reference,
        so only functions nested inside another function are flagged.
        """
        bad: Dict[str, str] = {}
        for node in walk_scope(body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not top_level:
                    bad[node.name] = "a nested function"
            elif isinstance(node, ast.Assign):
                reason = self._value_problem(node.value)
                if reason is not None:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            bad[target.id] = reason
            elif isinstance(node, ast.withitem):
                call = node.context_expr
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == "open"
                    and isinstance(node.optional_vars, ast.Name)
                ):
                    bad[node.optional_vars.id] = "an open file handle"
        return bad

    def _value_problem(self, value: ast.expr) -> Optional[str]:
        if isinstance(value, ast.Lambda):
            return "a lambda"
        if isinstance(value, ast.Call):
            if isinstance(value.func, ast.Name) and value.func.id == "open":
                return "an open file handle"
        return None

    def _payload_exprs(self, call: ast.Call) -> List[ast.expr]:
        """Expressions that will be pickled for this call, if any."""
        payloads: List[ast.expr] = []
        if isinstance(call.func, ast.Attribute) and call.func.attr == "submit":
            payloads.extend(call.args)
            payloads.extend(kw.value for kw in call.keywords if kw.arg)
        else:
            name = (
                call.func.attr
                if isinstance(call.func, ast.Attribute)
                else call.func.id
                if isinstance(call.func, ast.Name)
                else ""
            )
            for kw in call.keywords:
                if kw.arg in POOL_KEYWORDS.get(name, ()):
                    payloads.append(kw.value)
        return payloads

    def _classify(
        self, ctx: ModuleContext, expr: ast.expr, bad_locals: Dict[str, str]
    ) -> Optional[str]:
        if isinstance(expr, ast.Lambda):
            return "lambda submitted to the process pool cannot pickle"
        if isinstance(expr, ast.Name) and expr.id in bad_locals:
            return (
                f"{expr.id!r} is {bad_locals[expr.id]} and cannot pickle "
                "across the pool boundary"
            )
        if isinstance(expr, ast.Call):
            if isinstance(expr.func, ast.Name) and expr.func.id == "open":
                return "open file handle submitted to the process pool"
            resolved = ctx.imports.resolve(expr.func)
            if resolved in UNPICKLABLE_CONSTRUCTORS:
                return f"{resolved}() holds OS state and cannot pickle"
        return None
