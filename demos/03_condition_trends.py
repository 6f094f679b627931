"""Condition-number trends of the formulations over a full run.

Reproduces the four regimes (well/ill-conditioned x non/degenerate):
for nondegenerate problems the normal-equation condition number settles
at a constant; for degenerate ones it grows like 1/mu^2 while the
orthogonal-subspaces system grows like 1/mu. Writes one trace CSV per
regime (gnuplot-ready: log-scale kappa columns against the mu column).

The trajectory is driven by PNES, which reselects the maximum-weight
basis every iteration. MNES with its fixed preprocessing basis leaves
the neighborhood on ``degenerate_k1e6`` near iterate 232 (see the
README's *Numerical limits*); every kind's condition number is still
recorded along the PNES trajectory.
"""

from ifipm import GeneratorSpec, IpmParams, SystemKind, generate, preprocess
from ifipm.cli import TRACE_KINDS, condition_trace, slope_fit, write_condition_trace

PARAMS = IpmParams(zeta=1e-7, system=SystemKind.PNES)

regimes = {
    "nondegenerate_k10": GeneratorSpec(m=4, n=9, kappa_target=10.0,
                                       mode="known-optimal", seed=4),
    "nondegenerate_k1e6": GeneratorSpec(m=4, n=9, kappa_target=1e6,
                                        mode="known-optimal", seed=4),
    "degenerate_k10": GeneratorSpec(m=4, n=9, kappa_target=10.0,
                                    mode="known-optimal", degenerate=True, seed=3),
    "degenerate_k1e6": GeneratorSpec(m=4, n=9, kappa_target=1e6,
                                     mode="known-optimal", degenerate=True, seed=3),
}

for name, spec in regimes.items():
    inst = generate(spec)
    t = condition_trace(preprocess(inst.lp), inst.start, PARAMS, TRACE_KINDS)
    path = f"trace_{name}.csv"
    write_condition_trace(path, t)
    last = t.rows[-1]
    print(f"{name}: {len(t.rows)} iterations -> {path}")
    print(f"  final kappas: NES {last['kappa_NES']:.2e}  OSS {last['kappa_OSS']:.2e}  "
          f"PNES {last['kappa_PNES']:.2e}")
    try:
        s_nes = slope_fit(t, SystemKind.NES, (1e-6, 1e-2))
        s_oss = slope_fit(t, SystemKind.OSS, (1e-6, 1e-2))
        print(f"  growth slopes vs 1/mu: NES {s_nes:.2f}, OSS {s_oss:.2f}")
    except Exception as exc:
        print(f"  slope fit skipped: {exc}")
