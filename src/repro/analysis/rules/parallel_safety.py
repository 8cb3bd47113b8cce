"""RP001 — parallel safety: nothing stateful crosses a process boundary.

The invariant (ROADMAP, "Distance lifecycle"): worker processes receive
*raw measures and plain data only*.  A :class:`DistanceContext` shipped to
a worker would copy its store per worker and silently discard the worker's
cache updates and counter charges; a :class:`CountingDistance` would count
in the child where the parent cannot see it; a :class:`PersistentPool` or
``multiprocessing`` manager is process-local machinery by definition.  The
one exception is the measure ``parallel_refine`` is given: it peels that
measure's top-level counters (``split_counting``) and charges them in the
parent, so ``parallel_refine(CountingDistance(m), ...)`` ships only ``m``.
``ensure_parallel_safe`` catches some of this at runtime, in the worker
fan-out, at 3 a.m.; this rule catches it in the diff.

Detection is dataflow-lite: within each scope, simple assignments are
tracked (``ctx = DistanceContext(...)``, one level of aliasing), and every
argument of a fan-out call — ``parallel_refine(...)``,
``<pool>.submit/run/map``, ``ProcessPoolExecutor(...)`` — is checked for a
banned constructor, a name whose tracked origin is one, or a closure
(lambda / nested ``def``) capturing one.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional

from repro.analysis.core import (
    Finding,
    ModuleContext,
    Rule,
    call_name,
    dotted_name,
    iter_scopes,
    register_rule,
    resolve_origin,
    scope_assignments,
    walk_scope,
)

#: Constructors whose products must never be shipped to worker processes.
BANNED_CONSTRUCTORS = {
    "DistanceContext",
    "PersistentPool",
    "CountingDistance",
    "Manager",
    "SyncManager",
}

#: Free-function fan-out entry points (every argument is shipped).
SINK_FUNCTIONS = {"parallel_refine"}

#: Methods that ship their arguments when called on a pool-like receiver.
SINK_METHODS = {"submit", "run", "map"}


def _banned_constructor(expr: ast.expr) -> Optional[str]:
    """The banned class name ``expr`` directly constructs, if any."""
    if isinstance(expr, ast.Call):
        name = call_name(expr)
        if name is not None and name.split(".")[-1] in BANNED_CONSTRUCTORS:
            return name.split(".")[-1]
    return None


def _banned_origin(
    expr: ast.expr, assignments: Dict[str, ast.expr]
) -> Optional[str]:
    """Banned class behind ``expr``, following tracked local assignments."""
    direct = _banned_constructor(expr)
    if direct is not None:
        return direct
    origin = resolve_origin(expr, assignments)
    return _banned_constructor(origin)


def _peel_counters(expr: ast.expr, assignments: Dict[str, ast.expr]) -> ast.expr:
    """The measure under ``expr``'s top-level ``CountingDistance`` wrappers."""
    origin = resolve_origin(expr, assignments)
    while _banned_constructor(origin) == "CountingDistance":
        base = origin.args[:1] or [kw.value for kw in origin.keywords if kw.arg == "base"]
        if not base:
            break
        origin = resolve_origin(base[0], assignments)
    return origin


def _peeled_measure(call: ast.Call) -> Optional[ast.expr]:
    """``parallel_refine``'s measure argument, whose counters it peels."""
    name = call_name(call)
    if name is None or name.split(".")[-1] != "parallel_refine":
        return None
    if call.args:
        return call.args[0]
    return next((kw.value for kw in call.keywords if kw.arg == "distance"), None)


def _is_sink(call: ast.Call) -> bool:
    name = call_name(call)
    if name is None:
        return False
    last = name.split(".")[-1]
    if last in SINK_FUNCTIONS:
        return True
    if last == "ProcessPoolExecutor":
        return True
    if isinstance(call.func, ast.Attribute) and call.func.attr in SINK_METHODS:
        receiver = dotted_name(call.func.value)
        if receiver is not None:
            lowered = receiver.lower()
            return "pool" in lowered or "executor" in lowered
    return False


def _closure_captures(
    node: ast.expr,
    assignments: Dict[str, ast.expr],
    local_defs: Dict[str, ast.AST],
) -> Optional[str]:
    """Banned class captured by a lambda / nested-def argument, if any."""
    body: Optional[ast.AST] = None
    if isinstance(node, ast.Lambda):
        body = node.body
    elif isinstance(node, ast.Name) and node.id in local_defs:
        body = local_defs[node.id]
    if body is None:
        return None
    for inner in ast.walk(body):
        if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load):
            banned = _banned_origin(inner, assignments)
            if banned is not None:
                return banned
    return None


@register_rule
class ParallelSafetyRule(Rule):
    """RP001: no stateful context/pool/counter may reach a worker process."""

    id = "RP001"
    name = "parallel-safety"
    severity = "error"
    description = (
        "No DistanceContext / PersistentPool / CountingDistance / "
        "multiprocessing manager may appear in arguments or closures shipped "
        "to parallel_refine / pool.submit / "
        "ProcessPoolExecutor — worker copies would fork the store and lose "
        "cache updates and counter charges. The one exception: the measure "
        "parallel_refine is given may be wrapped in CountingDistance, "
        "because parallel_refine peels those counters and charges them in "
        "the parent."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Check every fan-out call's arguments and closures per scope."""
        module_assignments = scope_assignments(module.tree)
        for scope in iter_scopes(module.tree):
            assignments = dict(module_assignments)
            if scope is not module.tree:
                assignments.update(scope_assignments(scope))
            local_defs = {
                stmt.name: stmt
                for stmt in ast.walk(scope)
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt is not scope
            }
            yield from self._check_scope(module, scope, assignments, local_defs)

    def _check_scope(
        self,
        module: ModuleContext,
        scope: ast.AST,
        assignments: Dict[str, ast.expr],
        local_defs: Dict[str, ast.AST],
    ) -> Iterator[Finding]:
        for node in walk_scope(scope):
            if not isinstance(node, ast.Call):
                continue
            if not _is_sink(node):
                continue
            arguments: List[ast.expr] = list(node.args)
            arguments.extend(kw.value for kw in node.keywords if kw.value is not None)
            measure = _peeled_measure(node)
            for argument in arguments:
                if argument is measure:
                    argument = _peel_counters(argument, assignments)
                banned = self._argument_violation(
                    argument, assignments, local_defs
                )
                if banned is not None:
                    yield module.finding(
                        self,
                        node,
                        f"a {banned} is shipped to {call_name(node)}: worker "
                        "processes must receive raw measures and plain data "
                        "only (store/counter state would be copied and its "
                        "updates lost). Peel counters with split_counting() "
                        "and route context work through the context's own "
                        "batched primitives.",
                    )
                    break

    def _argument_violation(
        self,
        argument: ast.expr,
        assignments: Dict[str, ast.expr],
        local_defs: Dict[str, ast.AST],
    ) -> Optional[str]:
        # The argument expression itself (or any sub-expression of it, e.g.
        # an element of a tuple/dict literal) constructs or names a banned
        # object.
        for sub in ast.walk(argument):
            if isinstance(sub, ast.Lambda):
                continue  # handled as a closure below
            if isinstance(sub, ast.expr):
                banned = _banned_origin(sub, assignments)
                if banned is not None:
                    return banned
        return _closure_captures(argument, assignments, local_defs)
