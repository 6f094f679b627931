import json

import numpy as np
import pytest

from ifipm import GeneratorSpec, IpmParams, SystemKind, generate, if_ipm, load_instance
from ifipm import assemble, condition_number, errors, preprocess, short_step
from ifipm.cli import (
    ConditionTrace,
    condition_trace,
    main,
    read_condition_trace,
    slope_fit,
    write_condition_trace,
)


def run(*argv):
    return main([str(a) for a in argv])


def exit_code(*argv):
    """``run``'s exit code, argparse's usage errors (exit 2) included."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


def test_generate_writes_valid_instance(tmp_path):
    out = tmp_path / "inst.json"
    assert run("generate", "--m", 3, "--n", 7, "--kappa", 10,
               "--mode", "known-optimal", "--seed", 5, "--out", out) == 0
    loaded = load_instance(out)
    assert loaded.lp.m == 3 and loaded.lp.n == 7
    assert loaded.interior is not None
    assert loaded.optimal is not None
    assert loaded.partition is not None


@pytest.mark.parametrize("kappa", ["inf", "nan"])
def test_generate_rejects_non_finite_kappa(tmp_path, capsys, kappa):
    # exit 2 either way; the message once blamed rank(A) or the problem data
    assert run("generate", "--m", 3, "--n", 7, "--kappa", kappa,
               "--out", tmp_path / "inst.json") == 2
    assert "kappa_target must be finite" in capsys.readouterr().err


def test_generate_is_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run("generate", "--m", 2, "--n", 5, "--seed", 9, "--out", out) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_count_writes_multiple(tmp_path):
    out = tmp_path / "inst.json"
    assert run("generate", "--m", 2, "--n", 4, "--count", 3, "--seed", 0,
               "--out", out) == 0
    names = sorted(p.name for p in tmp_path.glob("*.json"))
    assert names == ["inst_000.json", "inst_001.json", "inst_002.json"]


def test_solve_round_trip_meets_target(tmp_path):
    inst = tmp_path / "inst.json"
    run("generate", "--m", 3, "--n", 7, "--seed", 2, "--out", inst)
    for system in ("mnes", "oss"):
        out = tmp_path / f"sol_{system}.json"
        assert run("solve", "--instance", inst, "--system", system,
                   "--zeta", 1e-5, "--out", out) == 0
        payload = json.loads(out.read_text())
        assert payload["mu"] <= 1e-5
        assert payload["primal_inf"] <= 1e-8 * 10
        assert out.with_suffix(".trace.csv").exists()


def test_solve_with_refinement_writes_loop_summary(tmp_path):
    inst = tmp_path / "inst.json"
    run("generate", "--m", 3, "--n", 8, "--seed", 3, "--out", inst)
    out = tmp_path / "sol.json"
    assert run("solve", "--instance", inst, "--zeta", 1e-8, "--zeta-hat", 1e-2,
               "--out", out) == 0
    payload = json.loads(out.read_text())
    assert payload["mu"] <= 1e-8
    assert payload["loops"] <= 5
    assert out.with_suffix(".loops.csv").exists()


@pytest.mark.parametrize("extra, suffix, column", [
    ([], ".trace.csv", "kappa_system"),
    (["--zeta-hat", 1e-2], ".loops.csv", "max_kappa"),
])
def test_solve_writes_condition_numbers_bit_identically(tmp_path, extra, suffix, column):
    inst = tmp_path / "inst.json"
    run("generate", "--m", 3, "--n", 8, "--seed", 3, "--out", inst)
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert run("solve", "--instance", inst, "--zeta", 1e-6, *extra, "--out", out) == 0
    tables = [out.with_suffix(suffix) for out in outs]
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert tables[0].read_bytes() == tables[1].read_bytes()
    lines = tables[0].read_text().splitlines()
    index = lines[0].split(",").index(column)
    kappas = [float(line.split(",")[index]) for line in lines[1:]]
    assert kappas and all(np.isfinite(k) and k >= 1.0 for k in kappas)


def test_malformed_json_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("solve", "--instance", bad, "--out", tmp_path / "x.json") == 2


@pytest.mark.parametrize("basis", [["a", "b"], 5, [0.5, 1.7]])
def test_malformed_basis_is_input_error(tmp_path, basis):
    inst = tmp_path / "inst.json"
    run("generate", "--m", 2, "--n", 4, "--seed", 30, "--out", inst)
    payload = json.loads(inst.read_text())
    payload["basis"] = basis
    inst.write_text(json.dumps(payload))
    assert run("solve", "--instance", inst, "--zeta", 1e-3,
               "--out", tmp_path / "s.json") == 2
    out = tmp_path / "batch.csv"
    assert run("batch", "--instance", inst, "--zeta", 1e-3, "--out", out) == 0
    assert out.read_text().splitlines()[1].split(",")[2] == "0"


@pytest.mark.parametrize("flags", [
    ["--zeta", "nan"],
    ["--zeta", "inf"],
    ["--zeta", "nan", "--zeta-hat", 1e-2],
    ["--zeta", "inf", "--zeta-hat", 1e-2],
    ["--zeta", 1e-8, "--zeta-hat", 0.5],
    ["--zeta", 1e-8, "--zeta-hat", 0.7],
], ids=["nan", "inf", "nan-refined", "inf-refined", "zeta-hat-half", "zeta-hat-0.7"])
def test_run_parameters_out_of_domain_are_input_errors(tmp_path, flags):
    # a nan or inf zeta once exited 0 as "solved" (or died in a traceback),
    # and zeta_hat 0.7 exhausted a 64-loop budget with exit 1; batch once
    # exited 0 with every row failed, and trace took --zeta-hat unread
    # (it has no such flag now)
    inst = tmp_path / "inst.json"
    run("generate", "--m", 3, "--n", 8, "--seed", 3, "--out", inst)
    for command in ("solve", "batch", "trace"):
        out = tmp_path / f"{command}.out"
        assert exit_code(command, "--instance", inst, *flags, "--out", out) == 2, command
        assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--zeta", "nan"],
    ["--zeta-hat", 0.7],
    ["--kappa", "inf"],
    ["--m", 0],
], ids=["zeta-nan", "zeta-hat-0.7", "kappa-inf", "m-0"])
def test_batch_rejects_bad_flags_before_any_instance(tmp_path, monkeypatch, flags):
    from ifipm import cli

    def forbidden(*args, **kwargs):
        raise AssertionError("an instance was obtained")

    monkeypatch.setattr(cli, "_obtain_instance", forbidden)
    out = tmp_path / "batch.csv"
    assert run("batch", "--m", 3, "--n", 7, "--count", 1, "--zeta", 1e-3,
               *flags, "--out", out) == 2
    assert not out.exists()


TINY = {"m": 1, "n": 2, "A": [[1.0, 1.0]], "b": [1.0], "c": [1.0, 1.0]}


@pytest.mark.parametrize("payload, message", [
    ([1.0, 2.0], "expected a JSON object"),
    ({"m": 1, "n": 2, "b": [1.0], "c": [1.0, 1.0]}, "missing or malformed A/b/c"),
    ({**TINY, "A": [[1.0, "x"]]}, "missing or malformed A/b/c"),
    ({**TINY, "A": [1.0, 1.0]}, "A must be a 2-d array"),
    ({**TINY, "m": 2}, "declared m=2"),
    ({**TINY, "n": 3}, "declared n=3"),
    ({**TINY, "interior": {"x": [1.0, 1.0], "s": [1.0, 1.0]}},
     "malformed 'interior' block"),
    ({**TINY, "optimal": [1.0]}, "malformed 'optimal' block"),
    ({**TINY, "partition": {"B": [0]}}, "malformed partition block"),
], ids=["not-object", "no-A", "A-not-numeric", "A-1d", "m-mismatch", "n-mismatch",
        "interior-no-y", "optimal-not-object", "partition-no-N"])
def test_malformed_instance_file_is_input_error(tmp_path, payload, message):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(errors.InputError, match=message):
        load_instance(path)


def test_instance_without_interior_is_input_error(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run("generate", "--m", 2, "--n", 4, "--seed", 30, "--out", inst)
    payload = json.loads(inst.read_text())
    del payload["interior"]
    inst.write_text(json.dumps(payload))
    assert run("solve", "--instance", inst, "--out", tmp_path / "s.json") == 2
    assert "no 'interior' start" in capsys.readouterr().err


def test_solver_table_builds_each_handle():
    from ifipm import cli
    from ifipm.solvers import CgSolver, ExactSolver, OracleSolver, PcgSolver, RefiningSolver

    expected = {
        "exact": ExactSolver(), "cg": CgSolver(), "pcg": PcgSolver(),
        "oracle": OracleSolver(seed=7),
        "refine": RefiningSolver(inner=OracleSolver(seed=7), eps_inner=1e-1),
    }
    parser = cli.build_parser()
    for name, handle in expected.items():
        args = parser.parse_args(["solve", "--instance", "i.json", "--solver", name,
                                  "--seed", "7", "--out", "s.json"])
        assert cli._solver_from_args(args) == handle


@pytest.mark.parametrize("solver", ["pcg", "refine"])
def test_solve_with_pcg_and_refine_handles(tmp_path, solver):
    inst = tmp_path / "inst.json"
    run("generate", "--m", 3, "--n", 7, "--seed", 2, "--out", inst)
    out = tmp_path / "sol.json"
    assert run("solve", "--instance", inst, "--system", "pnes", "--solver", solver,
               "--zeta", 1e-5, "--out", out) == 0
    payload = json.loads(out.read_text())
    assert payload["solver"] == solver and payload["system"] == "pnes"
    assert payload["mu"] <= 1e-5


def test_solve_rejects_two_instances(tmp_path):
    inst = tmp_path / "inst.json"
    run("generate", "--m", 2, "--n", 4, "--seed", 30, "--out", inst)
    out = tmp_path / "s.json"
    assert run("solve", "--instance", inst, "--instance", inst, "--out", out) == 2
    assert not out.exists()


def test_missing_dimensions_is_input_error(tmp_path):
    assert run("trace", "--out", tmp_path / "t.csv") == 2


@pytest.mark.parametrize("generate_args, solve_args", [
    # plain CG cannot touch the nonsymmetric orthogonal-subspaces matrix
    (["--m", 3, "--n", 6, "--seed", 4], ["--system", "oss", "--solver", "cg"]),
    # a deep refinement loop's inner iterate leaves the neighborhood
    (["--m", 10, "--n", 20, "--kappa", 1e6, "--mode", "known-optimal",
      "--degenerate", "--seed", 39], ["--zeta", 1e-12, "--zeta-hat", 1e-2]),
], ids=["oss-cg", "refine-left-neighborhood"])
def test_solver_failure_exit_code(tmp_path, generate_args, solve_args):
    inst = tmp_path / "inst.json"
    run("generate", *generate_args, "--out", inst)
    assert run("solve", "--instance", inst, *solve_args,
               "--out", tmp_path / "s.json") == 1


def test_trace_single_iteration_matches_direct_assembly(tmp_path):
    inst_path = tmp_path / "inst.json"
    run("generate", "--m", 3, "--n", 6, "--seed", 6, "--out", inst_path)
    out = tmp_path / "trace.csv"
    assert run("trace", "--instance", inst_path, "--zeta", 0.95, "--out", out) == 0
    trace = read_condition_trace(out)
    assert len(trace.rows) == 1
    loaded = load_instance(inst_path)
    prep = preprocess(loaded.lp)
    beta = short_step(loaded.lp.n)
    for kind in SystemKind:
        direct = condition_number(assemble(kind, loaded.interior, prep, beta))
        assert trace.rows[0][f"kappa_{kind.name}"] == pytest.approx(direct, rel=1e-9)


def test_trace_subset_leaves_columns_empty(tmp_path):
    out = tmp_path / "trace.csv"
    assert run("trace", "--m", 2, "--n", 5, "--seed", 1, "--zeta", 1e-2,
               "--system", "nes", "--system", "oss", "--out", out) == 0
    header = out.read_text().splitlines()[0]
    assert header == "k,mu,kappa_FNS,kappa_AS,kappa_NES,kappa_OSS,kappa_MNES,kappa_PNES"
    trace = read_condition_trace(out)
    assert trace.rows[0]["kappa_NES"] is not None
    assert trace.rows[0]["kappa_FNS"] is None


def test_condition_trace_matches_per_iteration_assembly():
    # reference: the observer condition_trace replaced, run alongside it
    inst = generate(GeneratorSpec(m=4, n=9, kappa_target=1e3, mode="known-optimal",
                                  degenerate=True, seed=3))
    prep = preprocess(inst.lp)
    params = IpmParams(zeta=1e-5, system=SystemKind.MNES)
    kinds = [SystemKind.NES, SystemKind.MNES, SystemKind.PNES]
    beta = short_step(inst.lp.n)
    expected = []

    def observer(k, it, system, direction, new_it):
        row = {"k": k, "mu": it.mu}
        for kind in kinds:
            sys_k = system if kind is system.kind else assemble(kind, it, prep, beta)
            row[f"kappa_{kind.name}"] = condition_number(sys_k)
        expected.append(row)

    _, run_trace = if_ipm(prep, inst.start, params, observer=observer)
    trace = condition_trace(prep, inst.start, params, kinds)
    assert list(trace.rows) == expected
    assert [row["k"] for row in trace.rows] == [rec.k for rec in run_trace.records]
    assert all(row.keys() == {"k", "mu", "kappa_NES", "kappa_MNES", "kappa_PNES"}
               for row in trace.rows)


def test_slope_fit_exact_power_laws():
    mus = np.geomspace(1e-1, 1e-6, 30)
    quad = ConditionTrace(tuple(
        {"k": i, "mu": float(mu), "kappa_NES": float(1.0 / mu**2)}
        for i, mu in enumerate(mus)))
    assert slope_fit(quad, SystemKind.NES, (1e-6, 1e-1)) == pytest.approx(2.0, abs=1e-9)
    const = ConditionTrace(tuple(
        {"k": i, "mu": float(mu), "kappa_OSS": 42.0} for i, mu in enumerate(mus)))
    assert slope_fit(const, "kappa_OSS", (1e-6, 1e-1)) == pytest.approx(0.0, abs=1e-12)


def test_slope_fit_insufficient_data():
    trace = ConditionTrace(({"k": 0, "mu": 1e-3, "kappa_NES": 10.0},))
    with pytest.raises(errors.InsufficientData):
        slope_fit(trace, "kappa_NES", (1e-6, 1e-1))


def test_trace_read_back_validates(tmp_path):
    out = tmp_path / "trace.csv"
    rows = ({"k": 0, "mu": 1.0, "kappa_NES": 5.0},
            {"k": 1, "mu": 2.0, "kappa_NES": 5.0})  # mu increases: invalid
    write_condition_trace(out, ConditionTrace(rows))
    with pytest.raises(errors.InputError):
        read_condition_trace(out)


def test_batch_deterministic_and_isolated(tmp_path):
    args = ["batch", "--m", 2, "--n", 4, "--count", 3, "--seed", 20,
            "--zeta", 1e-4, "--zeta-hat", 1e-1, "--solver", "oracle"]
    out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    assert run(*args, "--out", out1) == 0
    assert run(*args, "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("instance,seed,solved,")
    assert lines[-1].startswith("aggregate,")
    max_kappa = [float(line.split(",")[6]) for line in lines[1:]]
    assert all(np.isfinite(k) and k >= 1.0 for k in max_kappa)


def test_instance_json_round_trips_bit_exactly(tmp_path):
    from ifipm import save_instance

    inst = generate(GeneratorSpec(m=3, n=7, kappa_target=1e3,
                                  mode="known-optimal", seed=17))
    path = tmp_path / "inst.json"
    save_instance(path, inst)
    loaded = load_instance(path)
    np.testing.assert_array_equal(loaded.lp.A, inst.lp.A)
    np.testing.assert_array_equal(loaded.lp.b, inst.lp.b)
    np.testing.assert_array_equal(loaded.lp.c, inst.lp.c)
    np.testing.assert_array_equal(loaded.interior.x, inst.start.x)
    np.testing.assert_array_equal(loaded.optimal.s, inst.optimal.s)
    assert loaded.partition == inst.partition


def test_batch_isolates_bad_instance(tmp_path):
    good = tmp_path / "good.json"
    run("generate", "--m", 2, "--n", 4, "--seed", 30, "--out", good)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "m": 2, "n": 3, "A": [[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]],
        "b": [1.0, 2.0], "c": [1.0, 1.0, 1.0],
    }))
    out = tmp_path / "batch.csv"
    assert run("batch", "--instance", good, "--instance", bad,
               "--zeta", 1e-3, "--out", out) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # header, two rows, aggregate
    good_row, bad_row = lines[1].split(","), lines[2].split(",")
    assert good_row[2] == "1"
    assert bad_row[2] == "0"
    assert lines[3].split(",")[2] == "1/2"
