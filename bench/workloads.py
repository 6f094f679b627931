"""The benchmark's workloads: set-up, one timed pass, and its checks.

Every workload builds its instances from the workload seed with the
library's own generator and default ``IpmParams`` (``theta=0.4``,
``eta=0.1``); the library sees only the generated instances. A pass is
one unit a user waits for: one solve, one batch, or one CLI call. The
reasons for each workload are in ``BENCHMARK.json`` at the repository
root.

Library functions are called through their module attribute
(``ipm.if_ipm``, not an imported name) so that a traced run, which
replaces those attributes, sees every call.
"""

from __future__ import annotations

import contextlib
import io as _io
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from ifipm import cli, errors, generator, io, ipm, problem, solvers
from ifipm.generator import GeneratorSpec
from ifipm.newton import SystemKind

from checks import Outcome, check_solution, check_trace_csv


#: replacement generator seeds are this far apart (even, so parity is kept)
SEED_STRIDE = 1_000_000
GENERATOR_ATTEMPTS = 5


class SetupError(RuntimeError):
    """The generator produced an instance that failed its own certificate."""


@dataclass(frozen=True)
class PassResult:
    iterations: int  # Newton steps taken, failed solves included
    outcomes: list


def _certified(spec: GeneratorSpec):
    """The certified instance of the first generator seed that yields one.

    The generator gives up on a few seeds (``InteriorSearchFailed``, about
    one in a thousand known-optimal seeds). Such a seed is reported on
    standard error and replaced by ``seed + SEED_STRIDE``, which keeps the
    parity that decides degeneracy in the batch.
    """
    for _ in range(GENERATOR_ATTEMPTS):
        try:
            inst = generator.generate(spec)
        except errors.InteriorSearchFailed as exc:
            print(f"generator seed {spec.seed}: {exc}; using seed "
                  f"{spec.seed + SEED_STRIDE}", file=sys.stderr)
            spec = replace(spec, seed=spec.seed + SEED_STRIDE)
            continue
        report = generator.certify(inst)
        if not report.passed:
            failed = [k for k, ok in report.checks.items() if not ok]
            raise SetupError(f"seed {spec.seed}: certificate failed on {failed}")
        return inst
    raise SetupError(f"no instance after {GENERATOR_ATTEMPTS} generator seeds")


def _outcome(label, inst, zeta, final=None, error=None) -> Outcome:
    opt = inst.optimal
    return Outcome(
        label=label, A=inst.lp.A, b=inst.lp.b, c=inst.lp.c, zeta=zeta,
        x=None if final is None else final.x,
        y=None if final is None else final.y,
        s=None if final is None else final.s,
        x_opt=None if opt is None else opt.x,
        y_opt=None if opt is None else opt.y,
        error=error)


def _error_name(exc: errors.IfipmError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _check_outcomes(result: PassResult) -> list:
    return [p for out in result.outcomes if out.solved for p in check_solution(out)]


SOLVERS = {"exact": solvers.ExactSolver, "cg": solvers.CgSolver}


@dataclass(frozen=True)
class SingleSolve:
    """One ``if_ipm`` solve of one instance with a given system and solver."""

    m: int
    n: int
    kappa: float
    mode: str
    system: str
    solver: str
    zeta: float

    def setup(self, seed, workdir, probe):
        inst = _certified(GeneratorSpec(m=self.m, n=self.n, kappa_target=self.kappa,
                                        mode=self.mode, seed=seed))
        prep = problem.preprocess(inst.lp)
        params = ipm.IpmParams(zeta=self.zeta, system=SystemKind(self.system),
                               solver=probe.wrap(SOLVERS[self.solver]()))
        return inst, prep, params

    def run(self, state, probe) -> PassResult:
        inst, prep, params = state
        before = probe.calls
        try:
            final, _ = ipm.if_ipm(prep, inst.start, params)
            out = _outcome("solve", inst, self.zeta, final)
        except errors.IfipmError as exc:
            out = _outcome("solve", inst, self.zeta, error=_error_name(exc))
        return PassResult(probe.calls - before, [out])

    def check(self, state, result) -> list:
        return _check_outcomes(result)

    def tiny(self):
        return replace(self, m=8, n=16)


@dataclass(frozen=True)
class RefineBatch:
    """``ir_if_ipm`` over a batch, inner refinement around the oracle.

    Instance ``i`` of seed ``w`` has generator seed ``j = w * count + i``;
    odd ``j`` are degenerate. The handle is the CLI's ``--solver refine``:
    ``RefiningSolver(inner=OracleSolver(seed=j), eps_inner=0.1)``.
    """

    count: int
    m: int
    n: int
    kappa: float
    zeta: float
    zeta_hat: float

    def setup(self, seed, workdir, probe):
        batch = []
        for i in range(self.count):
            j = seed * self.count + i
            inst = _certified(GeneratorSpec(
                m=self.m, n=self.n, kappa_target=self.kappa, mode="known-optimal",
                degenerate=bool(j % 2), seed=j))
            handle = solvers.RefiningSolver(inner=solvers.OracleSolver(seed=j),
                                            eps_inner=1e-1)
            batch.append((j, inst, ipm.IpmParams(solver=probe.wrap(handle))))
        return batch

    def run(self, batch, probe) -> PassResult:
        before = probe.calls
        outcomes = []
        for j, inst, params in batch:
            label = f"seed-{j}"
            try:
                final, _ = ipm.ir_if_ipm(inst.lp, inst.start, zeta=self.zeta,
                                         zeta_hat=self.zeta_hat, params=params)
                outcomes.append(_outcome(label, inst, self.zeta, final))
            except errors.IfipmError as exc:
                outcomes.append(_outcome(label, inst, self.zeta,
                                         error=_error_name(exc)))
        return PassResult(probe.calls - before, outcomes)

    def check(self, state, result) -> list:
        return _check_outcomes(result)

    def tiny(self):
        return replace(self, count=4, m=4, n=8, zeta=1e-6)


@dataclass(frozen=True)
class CliTrace:
    """``ifipm trace`` (all six formulations, FNS primary) on an instance file."""

    m: int
    n: int
    kappa: float
    zeta: float

    def setup(self, seed, workdir, probe):
        inst = _certified(GeneratorSpec(m=self.m, n=self.n, kappa_target=self.kappa,
                                        mode="known-optimal", degenerate=True,
                                        seed=seed))
        path = Path(workdir) / "instance.json"
        io.save_instance(path, inst)
        argv = ["trace", "--instance", str(path), "--zeta", repr(self.zeta),
                "--seed", str(seed), "--out", str(Path(workdir) / "trace.csv")]
        return inst, argv

    def run(self, state, probe) -> PassResult:
        inst, argv = state
        original = cli._solver_from_args
        cli._solver_from_args = lambda args: probe.wrap(original(args))
        before = probe.calls
        sink = _io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
        finally:
            cli._solver_from_args = original
        error = None if code == 0 else f"exit code {code}: {sink.getvalue().strip()}"
        return PassResult(probe.calls - before,
                          [_outcome("cli-trace", inst, self.zeta, error=error)])

    def check(self, state, result) -> list:
        inst, argv = state
        if not result.outcomes[0].solved:
            return []
        path = argv[argv.index("--out") + 1]
        problems = check_trace_csv(path, inst.start.mu, self.zeta)
        with open(path, encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != result.iterations:
            problems.append(f"{path}: {rows} rows for {result.iterations} solves")
        return problems

    def tiny(self):
        return replace(self, m=4, n=8, zeta=1e-2)


WORKLOADS = {
    "mnes-exact-300x600": SingleSolve(m=300, n=600, kappa=1e2, mode="central-start",
                                      system="mnes", solver="exact", zeta=0.5),
    "pnes-cg-100x200": SingleSolve(m=100, n=200, kappa=1e4, mode="known-optimal",
                                   system="pnes", solver="cg", zeta=1e-3),
    "ir-refine-10x20-batch": RefineBatch(count=64, m=10, n=20, kappa=1e2,
                                         zeta=1e-8, zeta_hat=1e-2),
    "cli-trace-30x60": CliTrace(m=30, n=60, kappa=1e6, zeta=3e-2),
}
