#!/usr/bin/env python3
"""Self-test of the benchmark, at a tiny scale, through the same code.

    python3 perfbench/selftest.py

Runs every workload with ``--trace 0`` and ``--trace 1`` through ``run.py``
and checks the printed result (every metric name and unit that
``BENCHMARK.json`` lists, correct labels, no failed packets, exit code 0);
plants a wrong reference label and checks
that the run then fails; and checks that ``run.py`` refuses, without a
result line, to run from a directory holding only the benchmark. Exits
non-zero on the first failed check. Takes about a minute once the model
is cached.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok: {message}", flush=True)


def run_cli(*args: str, cwd: Path = ROOT) -> "tuple[int, list[str]]":
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    if done.returncode:
        sys.stderr.write(done.stdout[-3000:] + done.stderr[-3000:])
    return done.returncode, done.stdout.strip().splitlines()


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.inputs import CACHE
    from perfbench.run import WORKLOADS, run_workload

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_cli(
                "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--scale", "tiny",
            )
            check(code == 0, f"{workload} --trace {trace} exits 0")
            result = json.loads(lines[-1])
            check(
                sorted(result) == ["attempted", "correct", "failed", "metrics"]
                and result["correct"] is True
                and result["failed"] == 0
                and result["attempted"] >= 1,
                f"{workload} --trace {trace}: labels correct, nothing failed",
            )
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            check(
                units == expected[trace]
                and all(
                    isinstance(m["value"], (int, float))
                    for m in result["metrics"].values()
                ),
                f"{workload} --trace {trace}: every metric emitted with its unit",
            )
            if trace:
                coverage = result["metrics"]["trace.coverage"]["value"]
                check(coverage >= 0.9, f"{workload}: traced layers cover {coverage:.1%}")

    def plant_wrong_label(reference) -> None:
        flow = next(i for i, label in enumerate(reference.labels) if label >= 0)
        reference.labels[flow] = (reference.labels[flow] + 1) % 3

    for workload in WORKLOADS:
        result = run_workload(
            workload, 3, 0.1, False, scale="tiny",
            edit_reference=plant_wrong_label,
        )
        check(result["correct"] is False, f"{workload}: a wrong reference label fails the run")

    with tempfile.TemporaryDirectory(dir=CACHE) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            ROOT / "perfbench", bare / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        code, lines = run_cli(
            "--workload", "flood", "--seed", "1", "--seconds", "1", "--trace", "0",
            cwd=bare,
        )
    check(code != 0 and not lines, "run.py fails without a result outside a checkout")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
