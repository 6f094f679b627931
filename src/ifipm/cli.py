"""Command-line harness: generate / solve / trace / batch.

Outputs are JSON (instances, solutions) and CSV (traces, batch
summaries) with a stable schema: fixed column order, floats printed
with 17 significant digits, LF line endings. Exit codes: 0 success,
1 solver failure, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import errors
from .generator import GeneratorSpec, certify, generate
from .io import load_instance, save_instance
from .ipm import IpmParams, check_zeta_hat, if_ipm, ir_if_ipm
from .newton import SystemKind, assemble, condition_number
from .problem import Iterate, preprocess, residuals
from .solvers import CgSolver, ExactSolver, OracleSolver, PcgSolver, RefiningSolver

__all__ = ["main", "ConditionTrace", "condition_trace", "slope_fit",
           "read_condition_trace", "write_condition_trace"]

#: CSV column order for condition traces (all kinds, always)
TRACE_KINDS = [SystemKind.FNS, SystemKind.AS, SystemKind.NES,
               SystemKind.OSS, SystemKind.MNES, SystemKind.PNES]
TRACE_HEADER = ["k", "mu"] + [f"kappa_{kind.name}" for kind in TRACE_KINDS]

BATCH_HEADER = ["instance", "seed", "solved", "iterations", "ir_loops",
                "final_gap", "max_kappa", "wall_time_s"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


@dataclass(frozen=True, eq=False)
class ConditionTrace:
    """Per-iteration condition numbers of the requested formulations.

    ``rows`` are dicts keyed by the trace CSV header; kinds that were not
    requested are absent (a trace read back from CSV holds None for them).
    """

    rows: tuple


def condition_trace(prep, start: Iterate, params: IpmParams, kinds) -> ConditionTrace:
    """Run ``if_ipm`` and record the condition number of each of ``kinds``.

    At every iterate the loop's own system (``params.system``) is reused
    for its kind and every other kind is assembled at that iterate with
    that system's ``beta``; one row per accepted step,
    ``{"k", "mu", "kappa_<KIND>"...}``.
    """
    rows = []

    def observer(k, it, system, direction, new_it):
        row = {"k": k, "mu": it.mu}
        for kind in kinds:
            sys_k = (system if kind is system.kind
                     else assemble(kind, it, prep, system.beta))
            row[f"kappa_{kind.name}"] = condition_number(sys_k)
        rows.append(row)

    if_ipm(prep, start, params, observer=observer)
    return ConditionTrace(tuple(rows))


def slope_fit(trace: ConditionTrace, column, mu_window) -> float:
    """Least-squares slope of log(kappa) against log(1/mu).

    ``column`` is a :class:`SystemKind` or a ``kappa_*`` column name;
    ``mu_window = (lo, hi)`` restricts the fit. Needs at least 4 rows in
    the window.
    """
    if isinstance(column, SystemKind):
        column = f"kappa_{column.name}"
    lo, hi = mu_window
    xs, ys = [], []
    for row in trace.rows:
        value = row.get(column)
        if value is not None and lo <= row["mu"] <= hi:
            xs.append(np.log(1.0 / row["mu"]))
            ys.append(np.log(value))
    if len(xs) < 4:
        raise errors.InsufficientData(
            f"{len(xs)} rows with {column} in mu-window [{lo:g}, {hi:g}], need 4")
    return float(np.polyfit(xs, ys, 1)[0])


def write_condition_trace(path, trace: ConditionTrace) -> None:
    rows = [[row["k"], row["mu"]] + [row.get(f"kappa_{k.name}") for k in TRACE_KINDS]
            for row in trace.rows]
    _write_csv(path, TRACE_HEADER, rows)


def read_condition_trace(path) -> ConditionTrace:
    """Load a trace CSV; re-checks positivity/monotonicity of the mu column."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != TRACE_HEADER:
            raise errors.InputError(f"{path}: unexpected trace header {reader.fieldnames}")
        for raw in reader:
            row = {"k": int(raw["k"]), "mu": float(raw["mu"])}
            for kind in TRACE_KINDS:
                key = f"kappa_{kind.name}"
                row[key] = float(raw[key]) if raw[key] else None
            rows.append(row)
    mus = [row["mu"] for row in rows]
    if any(mu <= 0 for mu in mus):
        raise errors.InputError(f"{path}: non-positive mu entry")
    if any(b >= a for a, b in zip(mus, mus[1:])):
        raise errors.InputError(f"{path}: mu column is not strictly decreasing")
    return ConditionTrace(tuple(rows))


# --- command implementations ----------------------------------------------

def _spec_from_args(args, seed) -> GeneratorSpec:
    if args.m is None or args.n is None:
        raise errors.InputError("--m and --n are required when no instance file is given")
    return GeneratorSpec(m=args.m, n=args.n, kappa_target=args.kappa,
                         degenerate=args.degenerate, mode=args.mode, seed=seed)


def _obtain_instance(args, path=None, seed=None):
    """(lp, start, basis) from the instance file ``path``, else generated from ``seed``."""
    if path is not None:
        loaded = load_instance(path)
        if loaded.interior is None:
            raise errors.InputError(f"{path}: no 'interior' start stored in the instance")
        return loaded.lp, loaded.interior, loaded.basis
    inst = generate(_spec_from_args(args, seed))
    return inst.lp, inst.start, None


def _single_instance(args):
    """The one instance of ``solve``/``trace``: --instance, else the generator flags."""
    paths = args.instance or []
    if len(paths) > 1:
        raise errors.InputError(
            f"{args.command} takes one --instance, got {len(paths)}; use batch for several")
    return _obtain_instance(args, path=paths[0] if paths else None, seed=args.seed)


#: ``--solver`` name -> the handle it builds from the parsed arguments
SOLVERS = {
    "exact": lambda args: ExactSolver(),
    "cg": lambda args: CgSolver(),
    "pcg": lambda args: PcgSolver(),
    "oracle": lambda args: OracleSolver(seed=args.seed),
    "refine": lambda args: RefiningSolver(inner=OracleSolver(seed=args.seed),
                                          eps_inner=1e-1),
}


def _solver_from_args(args):
    return SOLVERS[args.solver](args)


@dataclass(frozen=True, eq=False)
class _Run:
    """One ``if_ipm`` run (``records``) or ``ir_if_ipm`` run (``states``)."""

    final: Iterate
    iterations: int
    loops: int
    max_kappa: Optional[float]
    records: tuple = ()
    states: tuple = ()


def _run_params(args) -> IpmParams:
    """Parameters of ``solve`` and ``batch``: the first --system (MNES by
    default), condition numbers on."""
    system = SystemKind(args.system[0] if args.system else "mnes")
    return IpmParams(zeta=args.zeta, system=system, solver=_solver_from_args(args),
                     condition_numbers=True)


def _run(args, params: IpmParams, lp, start, basis) -> _Run:
    """Solve with ``params``; refinement when --zeta-hat is given."""
    if args.zeta_hat is not None:
        final, states = ir_if_ipm(lp, start, zeta=args.zeta, zeta_hat=args.zeta_hat,
                                  params=params, basis=basis)
        return _Run(final, sum(st.inner_iterations for st in states), len(states),
                    max(st.max_kappa for st in states), states=tuple(states))
    final, trace = if_ipm(preprocess(lp, basis), start, params)
    return _Run(final, len(trace.records), 0, trace.max_kappa, records=trace.records)


def cmd_generate(args) -> int:
    out = Path(args.out)
    paths = []
    for i in range(args.count):
        inst = generate(_spec_from_args(args, args.seed + i))
        report = certify(inst)
        if not report.passed:
            raise errors.SolverFailure(f"generated instance failed certification: "
                                       f"{report.checks}")
        path = out if args.count == 1 else out.with_name(
            f"{out.stem}_{i:03d}{out.suffix or '.json'}")
        save_instance(path, inst)
        paths.append(path)
        print(path)
    return 0


def cmd_solve(args) -> int:
    lp, start, basis = _single_instance(args)
    params = _run_params(args)
    run = _run(args, params, lp, start, basis)
    out = Path(args.out)
    payload = {"system": params.system.value, "solver": args.solver}
    if args.zeta_hat is not None:
        payload["loops"] = run.loops
        loop_rows = [[st.loop_index, st.scale, st.gap, st.mu,
                      st.inner_iterations, st.max_kappa] for st in run.states]
        _write_csv(out.with_suffix(".loops.csv"),
                   ["loop", "scale", "gap", "mu", "inner_iterations", "max_kappa"],
                   loop_rows)
    else:
        rows = [[r.k, r.mu, r.kappa_system, r.achieved_residual, r.in_neighborhood,
                 r.primal_inf, r.dual_inf, r.mu_ratio] for r in run.records]
        _write_csv(out.with_suffix(".trace.csv"),
                   ["k", "mu", "kappa_system", "achieved_residual", "in_neighborhood",
                    "primal_inf", "dual_inf", "mu_ratio"], rows)
    payload["iterations"] = run.iterations
    rep = residuals(lp, run.final)
    payload.update({
        "x": run.final.x.tolist(), "y": run.final.y.tolist(), "s": run.final.s.tolist(),
        "mu": rep.mu, "gap": rep.gap,
        "primal_inf": rep.primal_inf, "dual_inf": rep.dual_inf,
    })
    out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"solved: mu={rep.mu:.3e} gap={rep.gap:.3e} -> {out}")
    return 0


def cmd_trace(args) -> int:
    lp, start, basis = _single_instance(args)
    requested = [SystemKind(name) for name in args.system or []] or TRACE_KINDS
    kinds = [kind for kind in TRACE_KINDS if kind in requested]
    # the first --system drives the loop
    params = IpmParams(zeta=args.zeta, system=requested[0], solver=_solver_from_args(args))
    trace = condition_trace(preprocess(lp, basis), start, params, kinds)
    write_condition_trace(args.out, trace)
    print(f"{len(trace.rows)} iterations -> {args.out}")
    return 0


def cmd_batch(args) -> int:
    # bad flags fail the command before any instance runs, a bad file its row
    params = _run_params(args)
    if args.zeta_hat is not None:
        check_zeta_hat(args.zeta_hat)
    if args.instance:
        sources = [(str(path), path, None) for path in args.instance]
    else:
        _spec_from_args(args, args.seed)
        sources = [(f"seed-{seed}", None, seed)
                   for seed in range(args.seed, args.seed + args.count)]
    rows = []
    solved_gaps = []
    for name, path, seed in sources:  # seed None leaves the seed cell empty
        t0 = time.perf_counter()
        try:
            run = _run(args, params, *_obtain_instance(args, path, seed))
            gap = float(run.final.x @ run.final.s)
            wall = time.perf_counter() - t0 if args.timing else 0.0
            rows.append([name, seed, True, run.iterations, run.loops, gap,
                         run.max_kappa, wall])
            solved_gaps.append(gap)
        except errors.IfipmError as exc:
            wall = time.perf_counter() - t0 if args.timing else 0.0
            print(f"{name}: failed ({type(exc).__name__}: {exc})", file=sys.stderr)
            rows.append([name, seed, False, None, None, None, None, wall])
    solved = [row for row in rows if row[2]]
    aggregate = [
        "aggregate", "", f"{len(solved)}/{len(rows)}",
        float(np.mean([row[3] for row in solved])) if solved else None,
        float(np.mean([row[4] for row in solved])) if solved else None,
        float(np.mean(solved_gaps)) if solved_gaps else None,
        max((row[6] for row in solved), default=None),
        sum(row[7] for row in rows),
    ]
    _write_csv(args.out, BATCH_HEADER, rows + [aggregate])
    print(f"{len(solved)}/{len(rows)} solved -> {args.out}")
    return 0


# --- argument parsing -------------------------------------------------------

def _add_generator_flags(parser) -> None:
    parser.add_argument("--m", type=int, default=None, help="constraint rows")
    parser.add_argument("--n", type=int, default=None, help="variables")
    parser.add_argument("--kappa", type=float, default=1.0,
                        help="target condition number of the constraint matrix")
    parser.add_argument("--degenerate", action="store_true",
                        help="plant an optimal support that cannot span the rows")
    parser.add_argument("--mode", choices=["central-start", "known-optimal"],
                        default="central-start")


def _add_run_flags(parser, refinement: bool = True) -> None:
    parser.add_argument("--system", action="append",
                        choices=[k.value for k in SystemKind],
                        help="Newton-system formulation (repeatable; first is primary)")
    parser.add_argument("--solver", choices=list(SOLVERS), default="exact")
    parser.add_argument("--zeta", type=float, default=1e-6,
                        help="target duality measure")
    if refinement:
        parser.add_argument("--zeta-hat", dest="zeta_hat", type=float, default=None,
                            help="per-loop precision in (0, 1/2); enables outer "
                                 "iterative refinement")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifipm",
        description="Inexact-feasible interior point method experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write random instance files")
    _add_generator_flags(p_gen)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_solve = sub.add_parser("solve", help="solve one instance")
    p_solve.add_argument("--instance", action="append", required=True)
    _add_run_flags(p_solve)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--out", required=True)
    p_solve.set_defaults(func=cmd_solve)

    p_trace = sub.add_parser("trace",
                             help="condition numbers of every formulation per iteration")
    p_trace.add_argument("--instance", action="append")
    _add_generator_flags(p_trace)
    _add_run_flags(p_trace, refinement=False)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--out", required=True)
    p_trace.set_defaults(func=cmd_trace)

    p_batch = sub.add_parser("batch", help="run a batch and summarize to CSV")
    p_batch.add_argument("--instance", action="append")
    _add_generator_flags(p_batch)
    _add_run_flags(p_batch)
    p_batch.add_argument("--count", type=int, default=1)
    p_batch.add_argument("--seed", type=int, default=0)
    p_batch.add_argument("--out", required=True)
    p_batch.add_argument("--timing", action="store_true",
                         help="record wall time (off by default so reruns are bit-identical)")
    p_batch.set_defaults(func=cmd_batch)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except errors.InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except errors.SolveError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
