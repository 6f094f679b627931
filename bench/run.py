"""Benchmark command: one workload, one process, one solve at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``
there and from nowhere else. The workload's instances are generated
from ``--seed``. Passes (one solve, one batch or one CLI call) run back
to back, a closed loop with a single caller, for about ``--seconds``.
Every result is checked; a failed check exits with code 1.

Standard output carries one JSON line with the environment (library
versions, BLAS builds and thread settings as found, never set here),
a JSON line with the aggregated spans when tracing, and last the result:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced; with ``--trace 1``
they are the per-layer ones from a traced pass (see ``tracer.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import envinfo
from tracer import Probe, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

#: set-ups per run; the median is reported as setup_s
SETUP_REPEATS = 7
#: repetitions of each stand-alone reference timing
REFERENCE_REPEATS = 15
#: bound on the single-thread reference child
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "iterations": "count",
    "ms_per_iter": "ms",
    "solves_per_s": "1/s",
    "solved_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "newton.condition_number.calls_per_iter": "calls/iter",
    "newton.condition_number.ms_per_call": "ms",
    "newton.condition_number.share": "ratio",
    "solvers.exact.contention_ratio": "ratio",
    "newton.select_basis_mwb.ms_per_call": "ms",
    "newton.select_basis_mwb.share": "ratio",
    "newton.basis_unchanged_share": "ratio",
    "newton.basis_changes_per_iter": "columns/iter",
    "newton.assemble.ms_per_call": "ms",
    "newton.assemble.share": "ratio",
    "newton.recover.ms_per_call": "ms",
    "newton.recover.share": "ratio",
    "solvers.solve.ms_per_call": "ms",
    "solvers.solve.share": "ratio",
    "solvers.inner_iterations_per_solve": "count",
    "solvers.solve_exact.calls_per_solve": "count",
    "solvers.residual_over_target.p50": "ratio",
    "ipm.self_ms_per_iter": "ms",
    "ipm.ir_loops_per_solve": "count",
    "problem.residuals.share": "ratio",
    "problem.in_neighborhood.share": "ratio",
    "problem.preprocess.share": "ratio",
    "generator.generate.ms": "ms",
    "generator.certify.ms": "ms",
    "cli.main.self_ms": "ms",
    "io.load_instance.ms": "ms",
    "cli.write_condition_trace.ms": "ms",
    "ref.ideal_iter_ms": "ms",
    "ref.single_thread_ms_per_iter": "ms",
    "trace.overhead_share": "ratio",
}


class LibraryMissing(RuntimeError):
    pass


def import_library():
    """Import ``ifipm`` from this checkout's ``src/``, never an installed copy."""
    package = ROOT / "src" / "ifipm"
    if not (package / "__init__.py").is_file():
        raise LibraryMissing(f"no library at {package}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import ifipm

    if Path(ifipm.__file__).resolve().parent != package.resolve():
        raise LibraryMissing(f"imported {ifipm.__file__}, expected {package}")


class Session:
    """Set-up, timed passes and checks of one workload in this process."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def setup(self, probe):
        return self.workload.setup(self.seed, self.workdir, probe)

    def run_pass(self, state, probe):
        """One timed pass; its results are checked after the clock stops."""
        t0 = perf_counter()
        result = self.workload.run(state, probe)
        wall = perf_counter() - t0
        self.attempted += len(result.outcomes)
        self.failed += sum(not out.solved for out in result.outcomes)
        self.problems.extend(self.workload.check(state, result))
        return wall, result

    def run_passes(self, state, probe, seconds):
        """Back-to-back passes for about ``seconds``; at least one."""
        walls, results = [], []
        while True:
            wall, result = self.run_pass(state, probe)
            walls.append(wall)
            results.append(result)
            if sum(walls) + statistics.median(walls) > seconds:
                return walls, results


def end_to_end(session, seconds) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        probe = Probe()
        t0 = perf_counter()
        state = session.setup(probe)
        setups.append(perf_counter() - t0)
    walls, results = session.run_passes(state, probe, seconds)
    iterations = [r.iterations for r in results]
    print(json.dumps({"passes": {"wall_s": walls, "iterations": iterations,
                                 "setup_s": setups}}))
    solved = [sum(out.solved for out in r.outcomes) for r in results]
    wall_s = statistics.median(walls)
    return {
        "wall_s": wall_s,
        "iterations": statistics.median(iterations),
        "ms_per_iter": statistics.median(
            1e3 * w / max(k, 1) for w, k in zip(walls, iterations)),
        "solves_per_s": statistics.median(solved) / wall_s,
        "solved_share": sum(solved) / session.attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _median_ms(fn) -> float:
    times = []
    for _ in range(REFERENCE_REPEATS):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def ideal_iteration_ms(seed) -> float:
    """One ``E E^T``, one ``cho_factor``, one ``cho_solve`` at 300x600, alone."""
    import numpy as np
    import scipy.linalg

    rng = np.random.default_rng(seed)
    E = rng.standard_normal((300, 600))
    rhs = rng.standard_normal(300)

    def iteration():
        factor = scipy.linalg.cho_factor(E @ E.T, check_finite=False)
        scipy.linalg.cho_solve(factor, rhs, check_finite=False)

    return _median_ms(iteration)


def contention_ratio(tracer) -> float:
    """In-loop ``solve_exact`` ms per call over the last in-loop system solved alone."""
    from ifipm import solvers

    if tracer.last_exact_system is None:
        return 0.0
    matrix, rhs = tracer.last_exact_system
    in_loop = tracer.total_time("solvers.solve_exact") / tracer.calls("solvers.solve_exact")
    alone = _median_ms(lambda: solvers.solve_exact(matrix, rhs)) / 1e3
    return in_loop / alone


def single_thread_ms_per_iter(args) -> float:
    """``ms_per_iter`` of one pass in a child with ``OPENBLAS_NUM_THREADS=1``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0"]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"single-thread reference failed: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["metrics"]["ms_per_iter"]["value"]


def per_layer(session, args) -> dict:
    probe = Probe()
    setup_tracer = Tracer()
    with setup_tracer.installed():
        state = session.setup(probe)
    untraced, _ = session.run_passes(state, probe, args.seconds / 2)

    tracer = Tracer()
    probe.tracer = tracer
    with tracer.installed():
        traced, results = session.run_passes(state, probe, args.seconds / 2)
    probe.tracer = None
    print(json.dumps({"trace": tracer.summary(), "setup_trace": setup_tracer.summary()}))

    metrics = layer_metrics(tracer, sum(r.iterations for r in results), sum(traced),
                            len(traced))
    metrics["generator.generate.ms"] = 1e3 * setup_tracer.total_time("generator.generate")
    metrics["generator.certify.ms"] = 1e3 * setup_tracer.total_time("generator.certify")
    metrics["solvers.exact.contention_ratio"] = contention_ratio(tracer)
    metrics["ref.ideal_iter_ms"] = ideal_iteration_ms(session.seed)
    metrics["ref.single_thread_ms_per_iter"] = single_thread_ms_per_iter(args)
    metrics["trace.overhead_share"] = (statistics.median(traced)
                                      / statistics.median(untraced) - 1.0)
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the workload at a tiny size (harness self-check)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_library()
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS  # imports the library

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "environment": envinfo.environment()}))
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        workload = WORKLOADS[args.workload]
        session = Session(workload.tiny() if args.tiny else workload, args.seed, workdir)
        if args.trace:
            values, units = per_layer(session, args), PER_LAYER
        else:
            values, units = end_to_end(session, args.seconds), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    for problem in session.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not session.problems
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
