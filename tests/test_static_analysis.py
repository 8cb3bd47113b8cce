"""Tests for the :mod:`repro.analysis` invariant linter — and the gate itself.

Two layers:

* **Unit tests per rule** — every rule has at least one positive snippet
  (the violation is reported) and one negative snippet (the compliant
  idiom is not), so a rule that silently stops firing fails the suite,
  not just the codebase it was supposed to guard.
* **The gate** — the linter run over ``src`` and ``scripts`` with the
  checked-in baseline must report zero new findings.  This is the tier-1
  CI gate: a PR that introduces a violation fails here with the finding
  text in the assertion message.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisReport,
    all_rules,
    analyze_file,
    collect_files,
    load_baseline,
    mypy_available,
    run_analysis,
    run_type_check,
    write_baseline,
)
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.core import Finding, ModuleContext, get_rule
from repro.analysis.reporters import render_json, render_text

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / ".repro-lint-baseline.json"


def lint_snippet(tmp_path, source, name="snippet.py", rule_ids=None):
    """Lint a dedented source snippet, returning its findings."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return analyze_file(path, root=tmp_path, rule_ids=rule_ids)


def rule_ids(findings):
    return [finding.rule for finding in findings]


# --------------------------------------------------------------------------- #
# Registry                                                                    #
# --------------------------------------------------------------------------- #


def test_registry_has_the_documented_rules():
    ids = [rule.id for rule in all_rules()]
    assert ids == sorted(ids)
    assert set(ids) >= {f"RP00{i}" for i in range(1, 10)}
    for rule in all_rules():
        assert rule.description, rule.id
        assert rule.severity in ("error", "warning")


def test_get_rule_round_trip():
    assert get_rule("RP001").name == "parallel-safety"
    with pytest.raises(KeyError):
        get_rule("RP999")


# --------------------------------------------------------------------------- #
# RP001 parallel safety                                                       #
# --------------------------------------------------------------------------- #


def test_rp001_flags_context_shipped_to_parallel_refine(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        from repro.distances.context import DistanceContext
        from repro.distances.parallel import parallel_refine

        def bad(measure, rows):
            context = DistanceContext(measure, rows)
            return parallel_refine(measure, rows, context, n_jobs=2)
        """,
        rule_ids=["RP001"],
    )
    assert rule_ids(findings) == ["RP001"]
    assert "DistanceContext" in findings[0].message


def test_rp001_flags_direct_construction_and_pool_submit(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        def bad(pool, measure, rows):
            pool.submit(measure, CountingDistance(measure), rows)
        """,
        rule_ids=["RP001"],
    )
    assert rule_ids(findings) == ["RP001"]


def test_rp001_flags_closure_capture(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        def bad(measure, rows):
            pool = PersistentPool(measure)
            job = pool.submit(lambda chunk: pool.run(chunk), rows)
            return job
        """,
        rule_ids=["RP001"],
    )
    assert "RP001" in rule_ids(findings)


def test_rp001_allows_split_counting_inner(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        from repro.distances.parallel import parallel_refine, split_counting

        def good(distance, rows):
            inner, counters = split_counting(distance)
            values = parallel_refine(inner, rows, n_jobs=2)
            return values, counters
        """,
        rule_ids=["RP001"],
    )
    assert findings == []


def test_rp001_allows_a_counter_as_the_measure_parallel_refine_peels(tmp_path):
    # parallel_refine peels top-level counters off its measure and charges
    # them in the parent, so only the wrapped measure reaches a worker.
    findings = lint_snippet(
        tmp_path,
        """
        from repro.distances.base import CountingDistance
        from repro.distances.parallel import parallel_refine

        def direct(measure, objects, items):
            return parallel_refine(CountingDistance(measure), objects, items, 2)

        def aliased(measure, objects, items):
            counted = CountingDistance(CountingDistance(measure))
            return parallel_refine(distance=counted, objects=objects, items=items, n_workers=2)
        """,
        rule_ids=["RP001"],
    )
    assert findings == []


def test_rp001_still_flags_counters_parallel_refine_does_not_peel(tmp_path):
    # A counter anywhere but as parallel_refine's top-level measure is
    # shipped as is, and the other fan-outs peel nothing; the context,
    # pool and manager bans hold under a counter too.
    findings = lint_snippet(
        tmp_path,
        """
        from concurrent.futures import ProcessPoolExecutor

        def in_an_item(measure, objects):
            return parallel_refine(measure, objects, [(0, CountingDistance(measure), [1])], 2)

        def nested(measure, objects, items):
            return parallel_refine(Wrapped(CountingDistance(measure)), objects, items, 2)

        def wraps_a_context(measure, objects, items):
            return parallel_refine(CountingDistance(DistanceContext(measure, objects)), objects, items, 2)

        def pool_map(pool, measure, chunks):
            return pool.map(CountingDistance(measure), chunks)

        def executor(measure):
            return ProcessPoolExecutor(2, initargs=(CountingDistance(measure),))
        """,
        rule_ids=["RP001"],
    )
    assert rule_ids(findings) == ["RP001"] * 5
    assert "DistanceContext" in findings[2].message
    assert all("CountingDistance" in f.message for i, f in enumerate(findings) if i != 2)


def test_rp001_scope_isolation_no_cross_function_bleed(tmp_path):
    # A context local to one function must not taint a sibling function's
    # fan-out call (regression test for the scope-confined walk).
    findings = lint_snippet(
        tmp_path,
        """
        def makes_context(measure, rows):
            context = DistanceContext(measure, rows)
            return context.compute_table()

        def fans_out(measure, rows):
            return parallel_refine(measure, rows, n_jobs=2)
        """,
        rule_ids=["RP001"],
    )
    assert findings == []


# --------------------------------------------------------------------------- #
# RP002 accounting discipline                                                 #
# --------------------------------------------------------------------------- #


def test_rp002_flags_raw_compute_in_retrieval(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        def refine(measure, query, candidates):
            return [measure.compute(query, c) for c in candidates]
        """,
        name="src/repro/retrieval/raw.py",
        rule_ids=["RP002"],
    )
    assert rule_ids(findings) == ["RP002"]
    assert "accounting" in findings[0].message


def test_rp002_allows_counting_context_and_split_counting(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        def good(self, query, candidates):
            a = self._counting.compute_many(query, candidates)
            b = self.context.compute_pairs(candidates, candidates)
            inner, _counters = split_counting(self.counting)
            c = inner.compute_many(query, candidates)
            return a, b, c
        """,
        name="src/repro/retrieval/ok.py",
        rule_ids=["RP002"],
    )
    assert findings == []


def test_rp002_does_not_apply_outside_retrieval_and_serving(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        def anywhere(measure, x, y):
            return measure.compute(x, y)
        """,
        name="src/repro/distances/impl.py",
        rule_ids=["RP002"],
    )
    assert findings == []


# --------------------------------------------------------------------------- #
# RP003 exception hygiene                                                     #
# --------------------------------------------------------------------------- #


def test_rp003_flags_bare_except(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        def swallow():
            try:
                risky()
            except:
                pass
        """,
        rule_ids=["RP003"],
    )
    assert rule_ids(findings) == ["RP003"]
    assert "bare" in findings[0].message


def test_rp003_flags_silent_broad_catch_but_allows_reraise_and_log(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        def silent():
            try:
                risky()
            except Exception:
                pass

        def reraises():
            try:
                risky()
            except Exception as exc:
                raise RuntimeError("typed") from exc

        def logs():
            try:
                risky()
            except Exception:
                logger.warning("risky failed")
        """,
        rule_ids=["RP003"],
    )
    assert len(findings) == 1
    assert findings[0].line == 5  # only the silent handler


def test_rp003_rim_requires_typed_reraise(tmp_path):
    source = """
    def load(path):
        try:
            return parse(path)
        except OSError:
            return None
    """
    rim = lint_snippet(
        tmp_path, source, name="src/repro/index/artifacts.py", rule_ids=["RP003"]
    )
    assert rule_ids(rim) == ["RP003"]
    assert "typed" in rim[0].message
    elsewhere = lint_snippet(
        tmp_path, source, name="src/repro/retrieval/other.py", rule_ids=["RP003"]
    )
    assert elsewhere == []


def test_rp003_rim_satisfied_by_typed_reraise(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        def load(path):
            try:
                return parse(path)
            except OSError as exc:
                raise ArtifactError(f"unreadable {path}") from exc
        """,
        name="src/repro/index/artifacts.py",
        rule_ids=["RP003"],
    )
    assert findings == []


# --------------------------------------------------------------------------- #
# RP004 determinism                                                           #
# --------------------------------------------------------------------------- #


def test_rp004_flags_bare_set_iteration(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        def assemble(keys):
            groups = {k[0] for k in keys}
            out = []
            for g in groups:
                out.append(g)
            return out
        """,
        rule_ids=["RP004"],
    )
    assert rule_ids(findings) == ["RP004"]


def test_rp004_allows_sorted_set_iteration(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        def assemble(keys):
            out = []
            for g in sorted({k[0] for k in keys}):
                out.append(g)
            return [x for x in sorted(set(keys))]
        """,
        rule_ids=["RP004"],
    )
    assert findings == []


def test_rp004_flags_clock_in_ranking_function(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        import time

        def merge_results(lists):
            stamp = time.monotonic()
            return sorted(lists), stamp
        """,
        rule_ids=["RP004"],
    )
    assert rule_ids(findings) == ["RP004"]
    assert "pure" in findings[0].message


def test_rp004_allows_clock_outside_ranking_paths(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        import time

        def serve(request):
            start = time.monotonic()
            return handle(request), time.monotonic() - start
        """,
        rule_ids=["RP004"],
    )
    assert findings == []


# --------------------------------------------------------------------------- #
# RP005 resource hygiene                                                      #
# --------------------------------------------------------------------------- #


def test_rp005_flags_unreleased_and_discarded_pools(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        def leaky(measure):
            pool = PersistentPool(measure)
            values = pool.run(job)
            return values

        def discarded(measure):
            PersistentPool(measure)
        """,
        rule_ids=["RP005"],
    )
    assert rule_ids(findings) == ["RP005", "RP005"]


def test_rp005_allows_with_close_and_handoff(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        def managed(measure):
            with PersistentPool(measure) as pool:
                return pool.run(job)

        def closed(measure):
            pool = PersistentPool(measure)
            try:
                return pool.run(job)
            finally:
                pool.close()

        def handed_off(self, measure):
            pool = PersistentPool(measure)
            self._pool = pool
            return make_engine(pool)

        def returned(measure):
            pool = PersistentPool(measure)
            return pool
        """,
        rule_ids=["RP005"],
    )
    assert findings == []


# --------------------------------------------------------------------------- #
# RP006–RP009 style rules                                                     #
# --------------------------------------------------------------------------- #


def test_rp006_flags_mutable_defaults_and_allows_none(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        def bad(items=[], table={}, pool=set(), extra=dict()):
            return items, table, pool, extra

        def good(items=None, name="x", count=0, pair=(1, 2)):
            return items, name, count, pair
        """,
        rule_ids=["RP006"],
    )
    assert rule_ids(findings) == ["RP006"] * 4


def test_rp007_flags_discarded_submit_and_allows_bound_job(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        def bad(pool, work):
            pool.submit(work)

        def good(pool, work):
            job = pool.submit(work)
            return job.results()

        def not_a_pool(session, work):
            session.submit(work)
        """,
        rule_ids=["RP007"],
    )
    assert len(findings) == 1
    assert findings[0].line == 3


def test_rp008_flags_missing_public_docstrings(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        def exposed():
            return 1

        def _private():
            return 2

        class Widget:
            \"\"\"Documented class.\"\"\"

            def undocumented(self):
                return 3

            def _hidden(self):
                return 4
        """,
        name="src/repro/widgets.py",
        rule_ids=["RP008"],
    )
    assert sorted(f.line for f in findings) == [2, 11]


def test_rp008_exempts_property_setters(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        class Widget:
            \"\"\"Documented.\"\"\"

            @property
            def bound(self):
                \"\"\"The bound.\"\"\"
                return self._bound

            @bound.setter
            def bound(self, value):
                self._bound = value
        """,
        name="src/repro/widgets.py",
        rule_ids=["RP008"],
    )
    assert findings == []


def test_rp009_flags_print_in_library_but_not_experiments(tmp_path):
    source = """
    def report(value):
        print(value)
    """
    library = lint_snippet(
        tmp_path, source, name="src/repro/retrieval/noise.py", rule_ids=["RP009"]
    )
    assert rule_ids(library) == ["RP009"]
    experiments = lint_snippet(
        tmp_path, source, name="src/repro/experiments/show.py", rule_ids=["RP009"]
    )
    assert experiments == []


# --------------------------------------------------------------------------- #
# RP010 kernel parity                                                         #
# --------------------------------------------------------------------------- #

KERNELS_DIR = "src/repro/distances/kernels"

COMPILED_BACKEND = """
class FastBackend:
    name = "fast"
    compiled = True

    def dtw_batch(self, xs, ys, radius):
        return None
"""


def _write_kernel_world(tmp_path, fallback_methods=("dtw_batch",), test_source=None):
    """Lay out a fake kernels package plus (optionally) the parity suite."""
    fallback = "\n".join(
        ["class NumpyBackend:", "    name = 'numpy'", "    compiled = False"]
        + [
            f"\n    def {name}(self, *args):\n        return None"
            for name in fallback_methods
        ]
    )
    (tmp_path / KERNELS_DIR).mkdir(parents=True, exist_ok=True)
    (tmp_path / KERNELS_DIR / "numpy_backend.py").write_text(fallback)
    if test_source is not None:
        (tmp_path / "tests").mkdir(exist_ok=True)
        (tmp_path / "tests" / "test_kernel_backends.py").write_text(test_source)


def test_rp010_accepts_backed_and_tested_kernel(tmp_path):
    _write_kernel_world(
        tmp_path, test_source="def test_parity():\n    backend.dtw_batch(x, y, 3)\n"
    )
    findings = lint_snippet(
        tmp_path, COMPILED_BACKEND, name=f"{KERNELS_DIR}/fast.py", rule_ids=["RP010"]
    )
    assert findings == []


def test_rp010_flags_entry_point_without_numpy_fallback(tmp_path):
    _write_kernel_world(
        tmp_path,
        fallback_methods=("other_batch",),
        test_source="def test_parity():\n    backend.dtw_batch(x, y, 3)\n",
    )
    findings = lint_snippet(
        tmp_path, COMPILED_BACKEND, name=f"{KERNELS_DIR}/fast.py", rule_ids=["RP010"]
    )
    assert rule_ids(findings) == ["RP010"]
    assert "no same-name method on the numpy fallback" in findings[0].message


def test_rp010_flags_missing_fallback_module(tmp_path):
    (tmp_path / KERNELS_DIR).mkdir(parents=True, exist_ok=True)
    findings = lint_snippet(
        tmp_path, COMPILED_BACKEND, name=f"{KERNELS_DIR}/fast.py", rule_ids=["RP010"]
    )
    assert rule_ids(findings) == ["RP010"]
    assert "no readable numpy fallback module" in findings[0].message


def test_rp010_flags_untested_entry_point(tmp_path):
    _write_kernel_world(
        tmp_path, test_source="def test_parity():\n    backend.edit_batch(x)\n"
    )
    findings = lint_snippet(
        tmp_path, COMPILED_BACKEND, name=f"{KERNELS_DIR}/fast.py", rule_ids=["RP010"]
    )
    assert rule_ids(findings) == ["RP010"]
    assert "never referenced from tests/test_kernel_backends.py" in findings[0].message


def test_rp010_ignores_uncompiled_classes_and_other_packages(tmp_path):
    _write_kernel_world(tmp_path, fallback_methods=())
    uncompiled = """
    class SlowBackend:
        compiled = False

        def dtw_batch(self, xs, ys, radius):
            return None
    """
    assert (
        lint_snippet(
            tmp_path, uncompiled, name=f"{KERNELS_DIR}/slow.py", rule_ids=["RP010"]
        )
        == []
    )
    # The same compiled class outside distances/kernels is out of scope.
    assert (
        lint_snippet(
            tmp_path,
            COMPILED_BACKEND,
            name="src/repro/retrieval/fast.py",
            rule_ids=["RP010"],
        )
        == []
    )


# --------------------------------------------------------------------------- #
# RP012 planner purity                                                        #
# --------------------------------------------------------------------------- #

PLANNER_FILE = "src/repro/retrieval/planner.py"


def test_rp012_flags_clock_in_decision_function(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        import time

        class CostModel:
            def choose_backend(self, p):
                started = time.perf_counter()
                return "flat" if started else "brute_force"
        """,
        name=PLANNER_FILE,
        rule_ids=["RP012"],
    )
    assert rule_ids(findings) == ["RP012"]
    assert "time.perf_counter" in findings[0].message


def test_rp012_flags_rng_in_prediction(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        import numpy as np

        def predict_cost(model, p):
            return p * np.random.random()
        """,
        name=PLANNER_FILE,
        rule_ids=["RP012"],
    )
    assert rule_ids(findings) == ["RP012"]


def test_rp012_allows_clocks_in_measurement_code(tmp_path):
    # observe_* / calibrate are the measurement side of the split: the
    # caller reads the clock and feeds values in — that stays legal.
    findings = lint_snippet(
        tmp_path,
        """
        import time

        class CostModel:
            def observe_batch(self, work):
                started = time.perf_counter()
                work()
                return time.perf_counter() - started

        def calibrate(probes):
            return [time.perf_counter() for _ in probes]
        """,
        name=PLANNER_FILE,
        rule_ids=["RP012"],
    )
    assert findings == []


def test_rp012_is_scoped_to_planner_modules(tmp_path):
    source = """
    import time

    def choose_backend(p):
        return "flat" if time.perf_counter() else "brute_force"
    """
    assert (
        lint_snippet(
            tmp_path,
            source,
            name="src/repro/retrieval/engine.py",
            rule_ids=["RP012"],
        )
        == []
    )


# --------------------------------------------------------------------------- #
# Pragmas                                                                     #
# --------------------------------------------------------------------------- #


def test_pragma_suppresses_on_same_line_and_line_above(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        def swallow():
            try:
                risky()
            except Exception:  # repro-lint: disable=RP003 -- probe only
                pass

        def swallow_above():
            try:
                risky()
            # repro-lint: disable=RP003 -- probe only
            except Exception:
                pass
        """,
        rule_ids=["RP003"],
    )
    assert findings == []


def test_pragma_is_rule_scoped(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        def swallow():
            try:
                risky()
            except Exception:  # repro-lint: disable=RP004 -- wrong rule
                pass
        """,
        rule_ids=["RP003"],
    )
    assert rule_ids(findings) == ["RP003"]


def test_file_pragma_suppresses_whole_file_within_window(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        # repro-lint: disable-file=RP003
        def one():
            try:
                risky()
            except:
                pass
        """,
        rule_ids=["RP003"],
    )
    assert findings == []


def test_file_pragma_outside_window_is_ignored(tmp_path):
    filler = "\n".join(f"x{i} = {i}" for i in range(20))
    tail = textwrap.dedent(
        """
        # repro-lint: disable-file=RP003
        def one():
            try:
                risky()
            except:
                pass
        """
    )
    findings = lint_snippet(tmp_path, filler + tail, rule_ids=["RP003"])
    assert rule_ids(findings) == ["RP003"]


def test_disable_all_pragma(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        def bad(items=[]):  # repro-lint: disable=all -- test fixture
            return items
        """,
        rule_ids=["RP006"],
    )
    assert findings == []


def test_pragma_inside_string_literal_is_not_honoured(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        TEXT = "# repro-lint: disable-file=RP006"

        def bad(items=[]):
            return items
        """,
        rule_ids=["RP006"],
    )
    assert rule_ids(findings) == ["RP006"]


# --------------------------------------------------------------------------- #
# Baseline                                                                    #
# --------------------------------------------------------------------------- #


def _finding(rule="RP008", path="src/repro/x.py", line=3, source="def f():"):
    return Finding(
        rule=rule,
        severity="error",
        path=path,
        line=line,
        message="m",
        source_line=source,
    )


def test_baseline_round_trip_and_note(tmp_path):
    target = tmp_path / "baseline.json"
    write_baseline(target, [_finding(), _finding(line=9, source="def g():")])
    payload = json.loads(target.read_text())
    assert "note" in payload
    assert len(payload["findings"]) == 2
    keys = load_baseline(target)
    assert ("RP008", "src/repro/x.py", "def f():") in keys


def test_baseline_tolerates_line_drift_but_not_new_findings(tmp_path):
    snippet_dir = tmp_path / "tree"
    path = snippet_dir / "src" / "repro" / "mod.py"
    path.parent.mkdir(parents=True)
    path.write_text("def exposed():\n    return 1\n")
    baseline_path = tmp_path / "baseline.json"

    first = run_analysis([snippet_dir], root=snippet_dir, rule_ids=["RP008"])
    assert len(first.findings) == 1
    write_baseline(baseline_path, first.findings)

    # Drift: the same def moves down two lines — still grandfathered.
    path.write_text("X = 1\nY = 2\ndef exposed():\n    return 1\n")
    drifted = run_analysis(
        [snippet_dir], baseline_path=baseline_path, root=snippet_dir, rule_ids=["RP008"]
    )
    assert drifted.findings == []
    assert len(drifted.grandfathered) == 1
    assert drifted.exit_code() == 0

    # A *new* violation does not inherit the waiver.
    path.write_text(
        "def exposed():\n    return 1\n\ndef another():\n    return 2\n"
    )
    grown = run_analysis(
        [snippet_dir], baseline_path=baseline_path, root=snippet_dir, rule_ids=["RP008"]
    )
    assert len(grown.findings) == 1
    assert grown.findings[0].source_line == "def another():"
    assert grown.exit_code() == 1


def test_stale_baseline_entries_are_reported(tmp_path):
    snippet_dir = tmp_path / "tree"
    path = snippet_dir / "src" / "repro" / "mod.py"
    path.parent.mkdir(parents=True)
    path.write_text('def exposed():\n    """Doc."""\n    return 1\n')
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, [_finding(path="src/repro/mod.py")])
    report = run_analysis(
        [snippet_dir], baseline_path=baseline_path, root=snippet_dir, rule_ids=["RP008"]
    )
    assert report.findings == []
    assert len(report.stale_baseline) == 1


def test_diff_mode_ignores_baseline_entries_for_unchecked_files(tmp_path):
    """Linting a file subset must not call other files' entries stale."""
    snippet_dir = tmp_path / "tree"
    checked = snippet_dir / "src" / "repro" / "checked.py"
    checked.parent.mkdir(parents=True)
    checked.write_text('def exposed():\n    """Doc."""\n    return 1\n')
    baseline_path = tmp_path / "baseline.json"
    write_baseline(
        baseline_path,
        [
            _finding(path="src/repro/checked.py", source="def gone():"),
            _finding(path="src/repro/unchecked.py", source="def other():"),
        ],
    )
    report = run_analysis(
        [checked], baseline_path=baseline_path, root=snippet_dir, rule_ids=["RP008"]
    )
    assert report.findings == []
    # checked.py's own entry is stale (its finding is fixed); unchecked.py's
    # entry is unknowable from this run and must not be reported.
    assert {key[1] for key in report.stale_baseline} == {"src/repro/checked.py"}


# --------------------------------------------------------------------------- #
# Reporters and CLI                                                           #
# --------------------------------------------------------------------------- #


def test_text_and_json_reporters_render_findings():
    report = AnalysisReport(findings=[_finding()], files_checked=1)
    text = io.StringIO()
    render_text(report, stream=text)
    assert "src/repro/x.py:3: [RP008/error]" in text.getvalue()
    assert "FAIL" in text.getvalue()
    blob = io.StringIO()
    render_json(report, stream=blob)
    payload = json.loads(blob.getvalue())
    assert payload["exit_code"] == 1
    assert payload["findings"][0]["rule"] == "RP008"


def test_cli_list_rules_and_files_mode(tmp_path, capsys):
    assert analysis_main(["--list-rules"]) == 0
    assert "RP001" in capsys.readouterr().out

    bad = tmp_path / "bad.py"
    bad.write_text("def f(xs=[]):\n    return xs\n")
    status = analysis_main(["--files", str(bad), "--no-baseline", "--rules", "RP006"])
    assert status == 1
    assert "RP006" in capsys.readouterr().out


def test_cli_write_baseline_then_gate_passes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    tree = tmp_path / "src" / "repro"
    tree.mkdir(parents=True)
    (tree / "mod.py").write_text("def exposed():\n    return 1\n")
    assert analysis_main(["src", "--write-baseline"]) == 0
    capsys.readouterr()
    # Default baseline discovery picks up the freshly written file.
    assert analysis_main(["src"]) == 0
    out = capsys.readouterr().out
    assert "baselined" in out


def test_parse_errors_gate(tmp_path):
    mangled = tmp_path / "broken.py"
    mangled.write_text("def broken(:\n")
    report = run_analysis([mangled], root=tmp_path)
    assert report.parse_errors
    assert report.exit_code() == 1


# --------------------------------------------------------------------------- #
# The gate: the tree itself is clean                                          #
# --------------------------------------------------------------------------- #


def test_linter_gate_tree_is_clean():
    """`python -m repro.analysis src scripts` over the repo must pass."""
    report = run_analysis(
        [REPO_ROOT / "src", REPO_ROOT / "scripts"],
        baseline_path=BASELINE,
        root=REPO_ROOT,
    )
    rendered = "\n".join(
        f"{f.path}:{f.line}: [{f.rule}] {f.message}" for f in report.findings
    )
    assert report.exit_code() == 0, f"new lint findings:\n{rendered}"
    assert not report.stale_baseline, (
        "baseline entries no longer match any finding; regenerate with "
        "`python -m repro.analysis src scripts --write-baseline`: "
        f"{sorted(report.stale_baseline)}"
    )


def test_gate_via_module_invocation():
    """The exact CI command line works from the repo root."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src", "scripts"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "[repro.analysis] ok" in result.stdout


def test_serving_chunk_assembly_stays_deterministic():
    """Regression: serving.py once iterated a bare set of chunk-group keys
    while assembling worker replies (RP004); the fix sorts the group
    indices.  Keep the file clean under the determinism rule."""
    findings = analyze_file(
        REPO_ROOT / "src" / "repro" / "index" / "serving.py",
        root=REPO_ROOT,
        rule_ids=["RP004"],
    )
    assert findings == []


def test_collect_files_skips_caches(tmp_path):
    good = tmp_path / "pkg" / "mod.py"
    good.parent.mkdir()
    good.write_text("X = 1\n")
    cached = tmp_path / "pkg" / "__pycache__" / "mod.cpython-311.py"
    cached.parent.mkdir()
    cached.write_text("X = 1\n")
    collected = collect_files([tmp_path])
    assert [p.name for p in collected] == ["mod.py"]


# --------------------------------------------------------------------------- #
# Optional type gate                                                          #
# --------------------------------------------------------------------------- #


def test_type_gate_skips_cleanly_without_mypy():
    stream = io.StringIO()
    status = run_type_check(stream=stream)
    if mypy_available():  # pragma: no cover - environment-dependent
        assert "SKIP" not in stream.getvalue()
    else:
        assert status == 0
        assert "SKIP" in stream.getvalue()


def test_types_flag_via_cli():
    status = analysis_main(["--types"])
    if not mypy_available():
        assert status == 0
