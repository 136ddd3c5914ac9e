#!/usr/bin/env python3
"""Run one benchmark measurement; the last stdout line is its JSON result.

    python3 perfbench/run.py --workload gateway --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` makes the separate traced run that splits the time across layers.
Both exit non-zero when any flow's first label differs from the
engine-independent reference (the JSON line then says ``"correct":
false``) and, for ``--trace 1``, when the traced layers cover less than
90% of the traced wall-clock. Inputs are generated on first use and
cached under ``.perfbench_cache/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Workload names, from ``BENCHMARK.json`` (which also holds their rationale).
WORKLOADS = tuple(
    w["name"]
    for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
)


def log(message: str) -> None:
    print(message, flush=True)


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    scale: str = "full",
    edit_reference=None,
) -> dict:
    """Measure one workload; returns the result object printed as JSON.

    ``edit_reference(reference)`` may alter the loaded reference before
    the run (the self-test plants a wrong label with it).
    """
    from perfbench import measure, tracing
    from perfbench.inputs import ensure_inputs
    from perfbench.reference import Reference

    inputs = ensure_inputs(workload, seed, scale)
    reference = Reference.load(inputs.reference)
    if edit_reference is not None:
        edit_reference(reference)
    if trace:
        result = tracing.traced_run(workload, inputs, reference, seconds, log)
    else:
        result = measure.end_to_end(workload, inputs, reference, seconds, log)
    passes = result["passes"]
    mismatches = sum(p.mismatches for p in passes)
    if mismatches:
        log(f"FAIL: {mismatches} first labels differ from the reference")
    correct = mismatches == 0 and result.get("gate_ok", True)
    return {
        "correct": correct,
        "attempted": sum(p.offered for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="input size; 'tiny' is for the self-test",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: {ROOT / 'src' / 'repro'} not found; the benchmark "
            "builds the engine from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        scale=args.scale,
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
