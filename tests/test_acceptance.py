"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; every tolerance is pinned here, nothing is calibrated at run time.
"""

import math

import numpy as np
import pytest

from ifipm import (
    GeneratorSpec,
    IpmParams,
    SystemKind,
    assemble,
    chi_bar,
    condition_number,
    generate,
    if_ipm,
    ir_if_ipm,
    preprocess,
    recover_direction,
)
from ifipm.cli import condition_trace, main as cli_main, slope_fit
from ifipm.solvers import OracleSolver, solve_exact

from conftest import dense_newton_direction, feasible_iterate, neighborhood_iterate

THETA = 0.4
ETA = 0.1
HALF_WIDTH = ETA / math.sqrt(1.0 + THETA)


def report(number, title, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {number}: {title} {detail}".rstrip())
    assert ok, f"criterion {number} failed: {detail}"


def mixed_instances():
    """20 instances, m <= 30, n <= 60, kappa in {10, 1e6}, mixed degeneracy."""
    out = []
    for i in range(20):
        m = 5 + (i * 7) % 26
        degenerate = (i % 4 == 3)
        mode = "known-optimal" if (i % 2 == 1 or degenerate) else "central-start"
        out.append(GeneratorSpec(
            m=m, n=2 * m, kappa_target=10.0 if i % 2 == 0 else 1e6,
            degenerate=degenerate, mode=mode, seed=100 + i))
    return out


@pytest.fixture(scope="module")
def oracle_runs():
    """Criterion-1 runs shared by criteria 1, 3 and 4.

    Each entry: (spec, lp, trace, steps) where steps holds the raw
    direction data collected per iteration.
    """
    runs = []
    for spec in mixed_instances():
        inst = generate(spec)
        prep = preprocess(inst.lp)
        params = IpmParams(zeta=1e-4, solver=OracleSolver(mode="adversarial", seed=spec.seed))
        steps = []

        def observer(k, it, system, direction, new_it):
            steps.append((float(direction.dx @ direction.ds),
                          float(np.linalg.norm(direction.dx)),
                          float(np.linalg.norm(direction.ds))))

        final, trace = if_ipm(prep, inst.start, params, observer=observer)
        runs.append((spec, inst.lp, trace, steps))
    return runs


def test_criterion_1_feasibility_preservation(oracle_runs):
    worst = 0.0
    for spec, lp, trace, _ in oracle_runs:
        b_scale = 1.0 + float(np.linalg.norm(lp.b, np.inf))
        c_scale = 1.0 + float(np.linalg.norm(lp.c, np.inf))
        for rec in trace.records:
            worst = max(worst, rec.primal_inf / b_scale, rec.dual_inf / c_scale)
    report(1, "feasibility preserved under the bounded-residual oracle",
           worst <= 1e-8, f"(worst relative infeasibility {worst:.2e})")


def test_criterion_2_residual_correction_lemma():
    rng = np.random.default_rng(2024)
    instances = [generate(GeneratorSpec(m=3, n=7, kappa_target=10.0, seed=s))
                 for s in (0, 1)]
    instances += [generate(GeneratorSpec(m=6, n=14, kappa_target=1e3, seed=2))]
    preps = [(inst, preprocess(inst.lp)) for inst in instances]
    theta = 0.7
    violations = 0
    worst_margin = -np.inf
    for trial in range(1000):
        inst, prep = preps[trial % len(preps)]
        lp = inst.lp
        mu = 10.0 ** rng.uniform(-6, 0)
        it = neighborhood_iterate(rng, lp.n, lp.m, theta, mu)
        bound = ETA / math.sqrt(1.0 + theta) * math.sqrt(it.mu)
        r_hat = rng.standard_normal(lp.m)
        r_hat *= bound / np.linalg.norm(r_hat, np.inf)
        sys = assemble(SystemKind.MNES, it, prep, beta=0.9)
        z = solve_exact(sys.matrix, sys.rhs + r_hat).solution
        d = recover_direction(sys, z, it, prep)
        sv = float(np.linalg.norm(it.s * d.correction_v, np.inf))
        margin = sv - ETA * it.mu
        worst_margin = max(worst_margin, margin / it.mu)
        if sv > ETA * it.mu + 1e-12:
            violations += 1
    report(2, "injected residual at the bound keeps ||S v||_inf <= eta mu",
           violations == 0,
           f"(0 tolerance beyond 1e-12; worst margin {worst_margin:+.2e} mu "
           f"over 1000 trials)")


def test_criterion_3_orthogonality_and_contraction(oracle_runs):
    # NOTE: with ds = -A^T dy, dx.ds = -(A dx).dy: the measured product
    # is the step's primal drift seen through the dual step, whose norm
    # exceeds ||ds|| by up to kappa_A. The drift once floored at
    # eps * ||v||, because recovery evaluated dx on the basis positions
    # as a sum of terms orders of magnitude larger than the result, and
    # the kappa=1e6 half of the mix read 5.94e-7. Recovery now takes dx
    # on the basis from dx off it, so A dx sits at the rounding of dx
    # itself. The 1e-10 bound is the stated one and was never changed;
    # the full record is in the decisions ledger, DECISIONS.md.
    worst_dot = 0.0
    worst_dot_moderate = 0.0
    ratio_ok = True
    for spec, lp, trace, steps in oracle_runs:
        beta = 1.0 - 0.2 / math.sqrt(lp.n)
        for rec in trace.records:
            if not (beta - HALF_WIDTH - 1e-10 <= rec.mu_ratio
                    <= beta + HALF_WIDTH + 1e-10):
                ratio_ok = False
        for dot, nx, ns in steps:
            if nx > 0 and ns > 0:
                rel = abs(dot) / (nx * ns)
                worst_dot = max(worst_dot, rel)
                if spec.kappa_target <= 10.0:
                    worst_dot_moderate = max(worst_dot_moderate, rel)
    report(3, "step orthogonality and per-step contraction window",
           ratio_ok and worst_dot <= 1e-10,
           f"(contraction window: {'ok' if ratio_ok else 'VIOLATED'}; "
           f"worst |dx.ds|/(|dx||ds|) = {worst_dot:.2e} overall, "
           f"{worst_dot_moderate:.2e} on the kappa=10 half; bound 1e-10, "
           f"history in the decisions ledger)")


def test_criterion_4_neighborhood_invariance(oracle_runs):
    exits = sum(sum(not rec.in_neighborhood for rec in trace.records)
                for _, _, trace, _ in oracle_runs)
    total = sum(len(trace.records) for _, _, trace, _ in oracle_runs)
    report(4, "zero neighborhood exits across the oracle runs",
           exits == 0, f"({exits} exits in {total} iterations)")


def test_criterion_5_iteration_scaling():
    medians = []
    for n in (16, 32, 64, 128):
        counts = []
        for seed in range(5):
            inst = generate(GeneratorSpec(m=n // 2, n=n, kappa_target=10.0,
                                          seed=200 + seed))
            prep = preprocess(inst.lp)
            _, trace = if_ipm(prep, inst.start, IpmParams(zeta=1e-4))
            counts.append(len(trace.records))
        medians.append(float(np.median(counts)))
    ratios = [b / a for a, b in zip(medians, medians[1:])]
    report(5, "median iterations grow by <= 1.6 per doubling of n",
           all(r <= 1.6 for r in ratios),
           f"(medians {medians}, ratios {[f'{r:.3f}' for r in ratios]})")


def test_criterion_6_condition_number_rates():
    kinds = [SystemKind.NES, SystemKind.OSS]
    degenerate = generate(GeneratorSpec(m=4, n=9, kappa_target=10.0,
                                        mode="known-optimal", degenerate=True,
                                        seed=3))
    params = IpmParams(zeta=1e-7)
    trace = condition_trace(preprocess(degenerate.lp), degenerate.start, params, kinds)
    s_nes = slope_fit(trace, SystemKind.NES, (1e-6, 1e-2))
    s_oss = slope_fit(trace, SystemKind.OSS, (1e-6, 1e-2))

    nondeg = generate(GeneratorSpec(m=4, n=9, kappa_target=10.0,
                                    mode="known-optimal", seed=4))
    flat = condition_trace(preprocess(nondeg.lp), nondeg.start, params, kinds)
    spreads = {}
    for kind in kinds:
        last5 = [row[f"kappa_{kind.name}"] for row in flat.rows[-5:]]
        spreads[kind.name] = (max(last5) - min(last5)) / min(last5)
    ok = (1.7 <= s_nes <= 2.3 and 0.7 <= s_oss <= 1.3
          and all(v <= 0.10 for v in spreads.values()))
    report(6, "condition-number growth rates and plateaus",
           ok, f"(NES slope {s_nes:.3f}, OSS slope {s_oss:.3f}, "
               f"plateau spreads {spreads})")


def test_criterion_7_preconditioning():
    inst = generate(GeneratorSpec(m=4, n=8, kappa_target=1e6,
                                  mode="known-optimal", seed=5))
    trace = condition_trace(preprocess(inst.lp), inst.start, IpmParams(zeta=1e-6),
                            [SystemKind.NES, SystemKind.PNES])
    max_nes = max(row["kappa_NES"] for row in trace.rows)
    max_pnes = max(row["kappa_PNES"] for row in trace.rows)
    ratio_ok = max_pnes <= max_nes / 10.0

    rng = np.random.default_rng(7)
    bound_ok = True
    worst_excess = 0.0
    for seed in range(3):
        tiny = generate(GeneratorSpec(m=4, n=8, kappa_target=10.0, seed=40 + seed))
        prep = preprocess(tiny.lp)
        bound = chi_bar(tiny.lp.A) ** 2
        for _ in range(10):
            it = feasible_iterate(rng, tiny, scale=0.2)
            kappa = condition_number(assemble(SystemKind.PNES, it, prep, 0.9))
            worst_excess = max(worst_excess, kappa - bound)
            if kappa > bound + 1e-6:
                bound_ok = False
    report(7, "basis preconditioning beats the plain normal equations",
           ratio_ok and bound_ok,
           f"(max kappa NES {max_nes:.2e} vs PNES {max_pnes:.2e}; "
           f"chi-bar^2 excess {worst_excess:+.2e})")


def test_criterion_8_iterative_refinement(tmp_path):
    specs = [
        GeneratorSpec(m=3, n=8, kappa_target=10.0, seed=0),
        GeneratorSpec(m=4, n=10, kappa_target=100.0, seed=1),
        GeneratorSpec(m=5, n=12, kappa_target=100.0, seed=2),
        GeneratorSpec(m=4, n=10, kappa_target=1e6, seed=3),
        GeneratorSpec(m=6, n=12, kappa_target=10.0, mode="known-optimal",
                      degenerate=True, seed=4),
    ]
    contraction_ok = True
    loops_ok = True
    for spec in specs:
        inst = generate(spec)
        final, states = ir_if_ipm(inst.lp, inst.start, zeta=1e-8, zeta_hat=1e-2,
                                  params=IpmParams())
        assert final.mu <= 1e-8
        loops_ok &= len(states) <= 5
        gaps = [float(inst.start.x @ inst.start.s)] + [st.gap for st in states]
        for before, after in zip(gaps, gaps[1:]):
            contraction_ok &= after <= 2e-2 * before * (1.0 + 1e-12)

    batch_out = tmp_path / "batch.csv"
    code = cli_main(["batch", "--m", "2", "--n", "4", "--count", "20",
                     "--seed", "500", "--solver", "oracle",
                     "--zeta", "1e-4", "--zeta-hat", "1e-1",
                     "--out", str(batch_out)])
    rows = batch_out.read_text().splitlines()[1:-1]
    solved = [row.split(",") for row in rows if row.split(",")[2] == "1"]
    frac = len(solved) / len(rows)
    mean_mu = float(np.mean([float(row[5]) for row in solved])) / 4.0
    batch_ok = code == 0 and frac >= 0.95 and mean_mu <= 1e-4
    report(8, "outer refinement contracts per loop and batch refines 1e-1 -> 1e-4",
           contraction_ok and loops_ok and batch_ok,
           f"(batch {len(solved)}/{len(rows)} solved, mean final measure "
           f"{mean_mu:.2e})")


def test_criterion_9_oracle_equivalence():
    rng = np.random.default_rng(9)
    instances = [generate(GeneratorSpec(m=3, n=7, kappa_target=10.0, seed=s))
                 for s in (11, 12)]
    instances += [generate(GeneratorSpec(m=5, n=11, kappa_target=100.0, seed=13))]
    worst = 0.0
    for trial in range(50):
        inst = instances[trial % len(instances)]
        prep = preprocess(inst.lp)
        it = feasible_iterate(rng, inst)
        beta = 1.0 - 0.2 / math.sqrt(inst.lp.n)
        sys = assemble(SystemKind.MNES, it, prep, beta)
        z = solve_exact(sys.matrix, sys.rhs).solution
        d = recover_direction(sys, z, it, prep)
        dx, dy, ds = dense_newton_direction(inst.lp, it, beta)
        scale = 1.0 + max(np.linalg.norm(dx), np.linalg.norm(dy), np.linalg.norm(ds))
        err = max(np.linalg.norm(d.dx - dx), np.linalg.norm(d.dy - dy),
                  np.linalg.norm(d.ds - ds)) / scale
        worst = max(worst, err)
    report(9, "exact basis-scaled solves match the dense full-system oracle",
           worst <= 1e-8, f"(worst relative deviation {worst:.2e} over 50 iterates)")
