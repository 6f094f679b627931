import numpy as np
import pytest

from ifipm import (
    GeneratorSpec,
    Iterate,
    certify,
    errors,
    generate,
    in_neighborhood,
)
from ifipm.generator import GeneratedInstance, _vertex_optimum


def test_central_start_certifies():
    inst = generate(GeneratorSpec(m=4, n=9, kappa_target=100.0, seed=0))
    report = certify(inst)
    assert report.passed, report.checks


def test_central_start_exactly_centered():
    inst = generate(GeneratorSpec(m=3, n=8, mu0=2.5, seed=1))
    products = inst.start.x * inst.start.s
    assert np.linalg.norm(products - 2.5) <= 1e-14 * 2.5
    assert inst.start.mu == pytest.approx(2.5, rel=1e-15)


def test_known_optimal_certifies():
    for seed in range(3):
        inst = generate(GeneratorSpec(m=3, n=7, kappa_target=10.0,
                                      mode="known-optimal", seed=seed))
        report = certify(inst)
        assert report.passed, (seed, report.checks)
        assert inst.optimal is not None
        assert inst.partition is not None


def test_degenerate_support_cannot_span():
    inst = generate(GeneratorSpec(m=4, n=10, mode="known-optimal",
                                  degenerate=True, seed=2))
    B, _ = inst.partition
    assert len(B) == 3
    assert np.linalg.matrix_rank(inst.lp.A[:, list(B)]) < 4
    assert certify(inst).passed


def test_kappa_hits_target_exactly():
    inst = generate(GeneratorSpec(m=4, n=8, kappa_target=1.0, seed=3))
    sv = np.linalg.svd(inst.lp.A, compute_uv=False)
    assert 1.0 <= sv[0] / sv[-1] <= 1.01

    inst = generate(GeneratorSpec(m=5, n=12, kappa_target=1e6, seed=4))
    sv = np.linalg.svd(inst.lp.A, compute_uv=False)
    assert 0.9e6 <= sv[0] / sv[-1] <= 1.1e6


def test_generate_deterministic_per_seed():
    spec = GeneratorSpec(m=3, n=7, kappa_target=50.0, mode="known-optimal", seed=7)
    a, b = generate(spec), generate(spec)
    np.testing.assert_array_equal(a.lp.A, b.lp.A)
    np.testing.assert_array_equal(a.start.x, b.start.x)
    np.testing.assert_array_equal(a.optimal.s, b.optimal.s)
    assert a.partition == b.partition


def test_certify_catches_scaled_start():
    inst = generate(GeneratorSpec(m=3, n=7, seed=8))
    broken = GeneratedInstance(
        lp=inst.lp,
        start=Iterate(2.0 * inst.start.x, inst.start.y, inst.start.s),
        optimal=inst.optimal,
        partition=inst.partition,
    )
    report = certify(broken)
    assert not report.checks["start_primal"]
    assert not report.passed


def test_tiny_instance_vertex_oracle_agrees():
    inst = generate(GeneratorSpec(m=2, n=6, mode="known-optimal", seed=9))
    report = certify(inst)
    assert report.checks["vertex_optimal"]
    vertex = _vertex_optimum(inst.lp)
    assert vertex == pytest.approx(float(inst.lp.c @ inst.optimal.x), abs=1e-8)


def test_start_lands_well_inside_neighborhood():
    for seed in range(4):
        inst = generate(GeneratorSpec(m=3, n=8, mode="known-optimal",
                                      kappa_target=100.0, seed=seed))
        assert in_neighborhood(inst.start, 0.4)
        assert in_neighborhood(inst.start, 0.7)


def test_spec_validation():
    with pytest.raises(errors.DimensionOrder):
        GeneratorSpec(m=5, n=3)
    with pytest.raises(errors.InvalidParameters):
        GeneratorSpec(m=2, n=4, kappa_target=0.5)
    with pytest.raises(errors.InvalidParameters):
        GeneratorSpec(m=2, n=4, mode="bogus")
    with pytest.raises(errors.InvalidParameters):
        GeneratorSpec(m=2, n=4, degenerate=True)  # needs known-optimal mode


@pytest.mark.parametrize("field", ["kappa_target", "mu0"])
@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
def test_spec_rejects_non_finite_values(field, value):
    # both once reached generation, which failed with a rank or a data error
    with pytest.raises(errors.InvalidParameters, match=field):
        GeneratorSpec(m=3, n=7, **{field: value})
