"""RP012 — planner purity: decisions are pure over the profile and targets.

The query planner's exactness contract (see :mod:`repro.retrieval.planner`)
rests on every *decision* — which ``p`` a query refines up to — being a
pure function of the calibration profile and the configured targets
(accuracy, cost budget).  A clock or RNG call inside a decision function
would make two identical queries plan differently, which breaks both the
bit-identity story (RP004's concern, extended here) and the replayability
of ``explain()`` output.

The rule flags ``time.*`` / ``random.*`` / ``np.random.*`` calls inside
functions on the planner's decision path: functions (or methods) in
planner-path modules whose name mentions ``choose``/``decide``/``predict``/
``pick``/``select``/``score``.  Code that may read a clock —
``calibrate`` (which times its own fit) and the serving loops —
deliberately does not match.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator

from repro.analysis.core import (
    Finding,
    ModuleContext,
    Rule,
    call_name,
    iter_scopes,
    register_rule,
    walk_scope,
)

#: Modules on the planner decision path (posix path fragment match).
PLANNER_FRAGMENT = "retrieval/planner"

#: Function names that constitute planning decisions.
DECISION_NAME = re.compile(
    r"(choose|decide|predict|pick|select|score)", re.IGNORECASE
)

#: Call-name prefixes that read a clock or an unseeded RNG.
NONDETERMINISTIC_PREFIXES = ("time.", "random.", "np.random.", "numpy.random.")


@register_rule
class PlannerPurityRule(Rule):
    """RP012: no clocks/RNG inside planner decision functions."""

    id = "RP012"
    name = "planner_purity"
    severity = "error"
    description = (
        "Planner decision functions (choose/decide/predict/pick/select/"
        "score paths in retrieval/planner modules) must be pure over the "
        "calibration profile and the configured targets: no clock or RNG "
        "calls."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Check decision-named scopes in planner-path modules only."""
        if PLANNER_FRAGMENT not in module.relative_path.as_posix():
            return
        class_of: Dict[int, str] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        class_of[id(child)] = node.name
        for scope in iter_scopes(module.tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not DECISION_NAME.search(scope.name):
                continue
            yield from self._check_decision_purity(module, scope)

    def _check_decision_purity(
        self, module: ModuleContext, scope: ast.AST
    ) -> Iterator[Finding]:
        for node in walk_scope(scope):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            if any(
                name == prefix.rstrip(".") or name.startswith(prefix)
                for prefix in NONDETERMINISTIC_PREFIXES
            ):
                yield module.finding(
                    self,
                    node,
                    f"{name}() inside a planner decision function: decisions "
                    "must be pure over the calibration profile and the "
                    "configured targets, or identical queries plan "
                    "differently and explain() output cannot be replayed; "
                    "read clocks and RNGs outside the decision path.",
                )
