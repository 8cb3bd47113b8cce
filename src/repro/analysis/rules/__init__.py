"""Rule modules of the :mod:`repro.analysis` linter.

Importing this package populates the registry in
:mod:`repro.analysis.core`; each module holds one family of invariants:

========  ==================  ===============================================
rule id   module              invariant
========  ==================  ===============================================
RP001     parallel_safety     no context/pool/counter/manager crosses a
                              process boundary
RP002     accounting          exact-distance calls in retrieval/serving code
                              route through counting/context receivers
RP003     exception_hygiene   no bare/blind exception swallowing; low-level
                              I/O errors re-raised as typed library errors
RP004     determinism         no bare-set iteration order or clock/random
                              calls in ranking paths
RP005     resources           every pool/manager created is releasable
RP006     style               no mutable default arguments
RP007     style               pool submissions are never fire-and-forget
RP008     style               public API carries docstrings
RP009     style               library packages never print
RP010     kernels             compiled kernel entry points have a numpy
                              fallback and a parity test referencing them
RP012     planner             no clock/RNG calls inside planner decision
                              functions — plans are pure over the
                              calibration profile and the targets
========  ==================  ===============================================
"""

from repro.analysis.rules import (  # noqa: F401  (import for side effects)
    accounting,
    determinism,
    exception_hygiene,
    kernels,
    parallel_safety,
    planner,
    resources,
    style,
)

from repro.analysis.core import all_rules

__all__ = ["all_rules"]
