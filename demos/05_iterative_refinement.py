"""Outer iterative refinement: fixed per-loop precision, compounding gap.

Each loop solves a rescaled residual instance to 1e-2 precision and
folds the result back; the duality gap contracts superlinearly across
loops while every subproblem's condition numbers stay bounded. The
batch at the end mirrors the many-instance statistics experiment,
refining from 1e-1 to 1e-4 per-variable precision.
"""

from ifipm import GeneratorSpec, IpmParams, generate, ir_if_ipm
from ifipm.cli import main as ifipm_main

inst = generate(GeneratorSpec(m=5, n=12, kappa_target=100.0, seed=2))
gap0 = float(inst.start.x @ inst.start.s)
final, states = ir_if_ipm(inst.lp, inst.start, zeta=1e-8, zeta_hat=1e-2,
                          params=IpmParams(condition_numbers=True))
print("loop  scale        gap          contraction  inner-iters  max kappa")
prev = gap0
for st in states:
    print(f"{st.loop_index:4d}  {st.scale:10.3e}  {st.gap:11.4e}  "
          f"{st.gap / prev:11.3e}  {st.inner_iterations:11d}  {st.max_kappa:9.3e}")
    prev = st.gap
print(f"final duality measure: {final.mu:.3e} (target 1e-8) "
      f"in {len(states)} loops\n")

print("batch: 20 instances, oracle solver, refined from 1e-1 to 1e-4")
ifipm_main(["batch", "--m", "2", "--n", "4", "--count", "20", "--seed", "500",
            "--solver", "oracle", "--zeta", "1e-4", "--zeta-hat", "1e-1",
            "--out", "batch_summary.csv"])
with open("batch_summary.csv") as fh:
    print(fh.readline().strip())
    print("  ...")
    print(fh.readlines()[-1].strip())
