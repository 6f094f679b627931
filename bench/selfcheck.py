"""Fast self-check of the benchmark harness (under a minute).

    python3 bench/selfcheck.py

From the root of a checkout:

1. ``BENCHMARK.json`` lists exactly the metrics ``run.py`` reports, with
   the same units;
2. every workload runs at a tiny size through the real command, untraced
   and traced, and prints every metric with a finite value;
3. deliberately corrupted results (a perturbed ``x``, a negative ``x``,
   a reordered trace) fail the correctness checks;
4. the command exits non-zero, printing no result, in a directory that
   holds only ``BENCHMARK.json`` and the benchmark's files.

Exits 0 when every step passes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import run
from checks import check_solution, check_trace_csv
from tracer import Probe

ROOT = run.ROOT
RUN = Path(run.__file__).resolve()


def command(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def check_manifest() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != table:
            problems.append(f"BENCHMARK.json {key} differs from run.py: "
                            f"{sorted(set(listed.items()) ^ set(table.items()))}")
    return problems


def check_runs() -> list:
    from workloads import WORKLOADS

    problems = []
    for name in WORKLOADS:
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            proc = command(str(RUN), "--workload", name, "--seed", "1", "--seconds", "0",
                           "--trace", str(trace), "--tiny")
            label = f"{name} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if set(result["metrics"]) != set(table):
                problems.append(f"{label}: metrics {sorted(result['metrics'])}")
            for metric, entry in result["metrics"].items():
                print(f"{label:40s} {metric:42s} {entry['value']:.6g} {entry['unit']}")
                if not math.isfinite(entry["value"]):
                    problems.append(f"{label}: {metric} is {entry['value']}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
    return problems


def check_corruption() -> list:
    """Each corrupted result must be caught; returns the ones that were not."""
    from workloads import WORKLOADS

    missed = []
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
        for name in ("pnes-cg-100x200", "ir-refine-10x20-batch"):
            workload = WORKLOADS[name].tiny()
            probe = Probe()
            state = workload.setup(1, workdir, probe)
            out = next(o for o in workload.run(state, probe).outcomes if o.solved)
            if check_solution(out):
                missed.append(f"{name}: an uncorrupted result failed {check_solution(out)}")
            for what, x in (("perturbed x", out.x * (1.0 + 1e-3)),
                            ("negative x", np.where(out.x == out.x.min(), -out.x, out.x))):
                if not check_solution(dataclasses.replace(out, x=x)):
                    missed.append(f"{name}: {what} passed the check")

        workload = WORKLOADS["cli-trace-30x60"].tiny()
        probe = Probe()
        state = workload.setup(1, workdir, probe)
        result = workload.run(state, probe)
        if workload.check(state, result):
            missed.append(f"cli: an uncorrupted trace failed {workload.check(state, result)}")
        path = Path(workdir) / "trace.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([lines[0]] + lines[:0:-1]) + "\n", encoding="utf-8")
        if not check_trace_csv(path, state[0].start.mu, workload.zeta):
            missed.append("cli: a reordered trace passed the check")
    return missed


def check_bare_directory() -> list:
    """The command must fail, with no result line, without the library."""
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(RUN.parent, Path(bare) / RUN.parent.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = command(str(Path(bare) / RUN.parent.name / RUN.name), "--workload",
                       "mnes-exact-300x600", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    run.import_library()
    problems = check_manifest() + check_runs() + check_corruption() + check_bare_directory()
    try:
        run.WORK.rmdir()
    except OSError:  # missing, or in use by a concurrent run
        pass
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("self-check passed" if not problems else f"self-check: {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
