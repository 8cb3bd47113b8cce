#!/usr/bin/env python3
"""Run one benchmark workload against ``EmbeddingIndex`` and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload dtw_cold_online --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it stamps the run's metadata.  ``--seconds`` is the length of
a timed run; a traced run does a fixed amount of work.  Generated files
(the compiled kernel cache, cached ground truth, span dumps and run
records) go to ``.perfbench/`` at the repository root.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"


def prepare_environment() -> None:
    """Point the library at ``src/`` and keep every file it writes in ``WORK``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {src}; run from a full checkout")
    os.chdir(ROOT)
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_KERNEL_CACHE"] = str(WORK / "kernels")
    tempfile.tempdir = str(tmp)
    os.environ["TMPDIR"] = tempfile.tempdir
    sys.path.insert(0, str(src))


def _src_lines() -> int:
    return sum(
        len(path.read_bytes().splitlines()) for path in (ROOT / "src").rglob("*.py")
    )


def metadata(seed: int) -> dict:
    """Facts a comparison between two records must not silently mix."""
    import numpy as np

    from repro.distances.kernels import get_kernel_backend

    return {
        "kernel_backend": get_kernel_backend().name,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "src_lines": _src_lines(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy", action="store_true", help="self-test size (tiny database and training)"
    )
    args = parser.parse_args(argv)
    prepare_environment()

    import measure
    from workloads import WORKLOADS, Inputs

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.toy:
        workload = workload.toy()
    inputs = Inputs(workload, args.seed)
    if args.trace:
        outcome = measure.run_traced(workload, inputs, WORK)
    else:
        outcome = measure.run_end_to_end(workload, inputs, WORK, args.seconds)

    meta = metadata(args.seed)
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "toy": args.toy,
        "meta": meta,
        "details": outcome.details,
        "metrics": {name: value for name, (value, _unit) in outcome.metrics.items()},
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    suffix = "-toy" if args.toy else ""
    (records / f"{workload.name}-seed{args.seed}-trace{args.trace}{suffix}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    summary = {k: v for k, v in outcome.details.items() if k != "latencies_ms"}
    print(json.dumps({"meta": meta, "details": summary}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
