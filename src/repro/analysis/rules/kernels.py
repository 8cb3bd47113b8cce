"""RP010 — compiled kernels: every entry point has a fallback and a parity test.

The kernel registry (:mod:`repro.distances.kernels`) promises that a
compiled backend is an *optimisation*, never a behaviour: any host can
lose its C compiler and still serve bit-compatible answers through
the pure-numpy backend, and the registry's activation parity check plus
the parity test-suite are what keep the compiled code honest.  That
promise has two statically checkable halves:

1. every public entry point of a compiled backend class (one whose body
   sets ``compiled = True``) exists with the same name on the numpy
   backend in the sibling ``numpy_backend.py``, and
2. that entry-point name is referenced from the kernel parity suite
   (``tests/test_kernel_backends.py``), so a new kernel cannot land
   without a test exercising it against the fallback.

The rule reads both files from disk relative to the module under
analysis, so it works unchanged in the real tree and in test fixtures.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Optional

from repro.analysis.core import Finding, ModuleContext, Rule, register_rule

FALLBACK_MODULE = "numpy_backend.py"
PARITY_TEST = Path("tests") / "test_kernel_backends.py"
#: How many directories above the kernels package to search for ``tests/``.
_TEST_SEARCH_DEPTH = 8


def _is_compiled_backend(node: ast.ClassDef) -> bool:
    """Whether the class body declares ``compiled = True``."""
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            if any(
                isinstance(target, ast.Name) and target.id == "compiled"
                for target in stmt.targets
            ) and isinstance(stmt.value, ast.Constant) and stmt.value.value is True:
                return True
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if (
                isinstance(stmt.target, ast.Name)
                and stmt.target.id == "compiled"
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is True
            ):
                return True
    return False


def _public_methods(node: ast.ClassDef) -> List[ast.FunctionDef]:
    return [
        stmt
        for stmt in node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not stmt.name.startswith("_")
    ]


def _fallback_method_names(kernels_dir: Path) -> Optional[set]:
    """Public method names defined by the sibling numpy backend, if readable."""
    path = kernels_dir / FALLBACK_MODULE
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except (OSError, SyntaxError, ValueError):
        return None
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for method in _public_methods(node):
                names.add(method.name)
    return names


def _parity_test_source(kernels_dir: Path) -> Optional[str]:
    """The parity suite's source, found by walking up from the kernels dir."""
    directory = kernels_dir
    for _ in range(_TEST_SEARCH_DEPTH):
        candidate = directory / PARITY_TEST
        if candidate.is_file():
            try:
                return candidate.read_text()
            except OSError:
                return None
        if directory.parent == directory:
            break
        directory = directory.parent
    return None


@register_rule
class CompiledKernelParityRule(Rule):
    """RP010: compiled kernel entry points need a numpy fallback + parity test."""

    id = "RP010"
    name = "kernel-parity"
    severity = "error"
    description = (
        "Every public entry point of a compiled kernel backend (a class "
        "declaring `compiled = True` under distances/kernels) must exist "
        "with the same name on the numpy fallback backend and be referenced "
        "from tests/test_kernel_backends.py."
    )

    def applies_to(self, module: ModuleContext) -> bool:
        """Only backend modules under ``distances/kernels`` are in scope."""
        posix = module.path.as_posix()
        return "distances/kernels" in posix and not posix.endswith(FALLBACK_MODULE)

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Check every compiled backend class in the module."""
        classes = [
            node
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ClassDef) and _is_compiled_backend(node)
        ]
        if not classes:
            return
        kernels_dir = module.path.resolve().parent
        fallback_names = _fallback_method_names(kernels_dir)
        parity_source = _parity_test_source(kernels_dir)
        for node in classes:
            yield from self._check_backend(
                module, node, fallback_names, parity_source
            )

    def _check_backend(
        self,
        module: ModuleContext,
        node: ast.ClassDef,
        fallback_names,
        parity_source,
    ) -> Iterator[Finding]:
        if fallback_names is None:
            yield module.finding(
                self,
                node,
                f"compiled backend `{node.name}` has no readable numpy "
                f"fallback module ({FALLBACK_MODULE}) beside it: every "
                "compiled kernel must ship a pure-numpy twin so hosts "
                "without a compiler serve identical answers.",
            )
            return
        for method in _public_methods(node):
            if method.name not in fallback_names:
                yield module.finding(
                    self,
                    method,
                    f"compiled kernel entry point `{node.name}.{method.name}` "
                    f"has no same-name method on the numpy fallback in "
                    f"{FALLBACK_MODULE}: the registry's parity check and the "
                    "fallback path both require one.",
                )
                continue
            if parity_source is None:
                yield module.finding(
                    self,
                    method,
                    f"compiled kernel entry point `{node.name}.{method.name}` "
                    f"has no parity suite: {PARITY_TEST.as_posix()} was not "
                    "found above the kernels package.",
                )
            elif method.name not in parity_source:
                yield module.finding(
                    self,
                    method,
                    f"compiled kernel entry point `{node.name}.{method.name}` "
                    f"is never referenced from {PARITY_TEST.as_posix()}: add "
                    "a parity test comparing it against the numpy fallback.",
                )
