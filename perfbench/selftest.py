#!/usr/bin/env python3
"""Self-test of the benchmark itself, at toy size (about 20 seconds).

From the repository root::

    python3 perfbench/selftest.py

Checks that

* every workload runs through the real command line, untraced and traced,
  and emits exactly the end-to-end and per-layer metrics BENCHMARK.json
  names, each with its unit;
* a planted wrong neighbour distance is counted as a failed query, and so
  is a result served by a planted wrong compiled kernel;
* traced and untraced serving return bit-identical neighbours and costs.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import run

HERE = Path(__file__).resolve().parent


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def declared(kind: str) -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def check_command_line(names) -> None:
    """Each workload, untraced and traced, through ``run.py --toy``."""
    for name in names:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
                 "--seconds", "0.3", "--trace", str(trace), "--toy"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=600,
            )
            check(proc.returncode == 0, f"{name} trace={trace} exits 0 ({proc.stderr[-300:]})")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(
                sorted(result) == ["attempted", "correct", "failed", "metrics"],
                f"{name} trace={trace} prints the result keys",
            )
            check(result["correct"] and result["failed"] == 0, f"{name} trace={trace} serves correctly")
            units = {metric: value["unit"] for metric, value in result["metrics"].items()}
            check(units == declared(kind), f"{name} trace={trace} emits every {kind} metric with its unit")


def check_planted_failure() -> None:
    """A wrong distance in one served result is counted; the rest are not."""
    import measure
    from oracle import Oracle, count_failures
    from workloads import WORKLOADS, Inputs

    workload = WORKLOADS["dtw_cold_online"].toy()
    inputs = Inputs(workload, 5)
    index, _ = measure.set_up(workload, inputs)
    try:
        served = measure.serve(index, workload, inputs, measure.Served())
    finally:
        index.close()
    oracle = Oracle(workload.measure, inputs.database)
    check(count_failures(oracle, served.pairs) == 0, "unplanted results pass the oracle")
    query, result = served.pairs[3]
    wrong = result.neighbor_distances.copy()
    wrong[-1] *= 1.0 + 1e-6
    planted = list(served.pairs)
    planted[3] = (query, dataclasses.replace(result, neighbor_distances=wrong))
    check(count_failures(Oracle(workload.measure, inputs.database), planted) == 1,
          "a planted wrong neighbour distance counts as one failure")
    planted[3] = (query, None)
    check(count_failures(oracle, planted) == 1, "a raised query counts as one failure")


def check_planted_kernel_bug() -> None:
    """A wrong compiled kernel is caught, though the oracle's own measure uses it too."""
    import measure
    from oracle import Oracle, count_failures
    from repro.distances.kernels import get_kernel_backend
    from workloads import WORKLOADS, Inputs

    backend = get_kernel_backend()
    if backend.name == "numpy":
        print("skip planted kernel bug: the active kernel backend is numpy")
        return
    originals = {name: getattr(backend, name) for name in ("dtw_batch", "dtw_batch_mixed")}
    for name, original in originals.items():
        setattr(backend, name, lambda *args, _f=original: np.asarray(_f(*args)) * (1.0 + 1e-6))
    try:
        workload = WORKLOADS["dtw_cold_online"].toy()
        inputs = Inputs(workload, 6)
        index, _ = measure.set_up(workload, inputs)
        try:
            served = measure.serve(index, workload, inputs, measure.Served())
        finally:
            index.close()
        failed = count_failures(Oracle(workload.measure, inputs.database), served.pairs)
    finally:
        for name, original in originals.items():
            setattr(backend, name, original)
    check(failed == len(served.pairs), "a planted compiled-kernel error fails every cross-checked result")


def check_trace_is_transparent(names) -> None:
    """Serving the same requests with and without spans gives identical results."""
    import measure
    from spans import SERVE, Tracer
    from workloads import WORKLOADS, Inputs, send

    for name in names:
        workload = WORKLOADS[name].toy()
        outputs = []
        for traced in (False, True):
            inputs = Inputs(workload, 5)
            requests = [inputs.next_request() for _ in range(12)]
            index, _ = measure.set_up(workload, inputs)
            tracer = Tracer()
            try:
                if traced:
                    tracer.install(SERVE)
                try:
                    outputs.append([send(index, workload, queries) for queries in requests])
                finally:
                    tracer.uninstall()
            finally:
                index.close()
        plain, with_spans = ([r for request in out for r in request] for out in outputs)
        same = len(plain) == len(with_spans) and all(
            a.neighbor_indices.tobytes() == b.neighbor_indices.tobytes()
            and a.neighbor_distances.tobytes() == b.neighbor_distances.tobytes()
            and a.total_distance_computations == b.total_distance_computations
            for a, b in zip(plain, with_spans)
        )
        check(same, f"{name}: traced and untraced neighbours are bit-identical")


def main() -> int:
    run.prepare_environment()
    from workloads import WORKLOADS

    names = list(WORKLOADS)
    check(list(declared("end_to_end")) and [w["name"] for w in json.loads(
        (run.ROOT / "BENCHMARK.json").read_text())["workloads"]] == names,
        "BENCHMARK.json lists exactly the defined workloads")
    check_planted_failure()
    check_planted_kernel_bug()
    check_trace_is_transparent(names)
    check_command_line(names)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
