import io
import json
import subprocess
import sys

import numpy as np
import pytest

from modkit import campaigns
from modkit.cli import dump_matrix, load_matrix, main
from modkit.errors import ParseError
from modkit.kms import gibbs_hamiltonian
from modkit.modular import relative_modular_operator
from modkit.sampling import (
    complex_gaussian,
    complex_gaussian_stack,
    random_faithful_density,
    random_rank_deficient,
)
from modkit.states import DensityMatrix


def run_cli(*args, stdin=None, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "modkit", *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=full_env,
    )


def write_matrix(path, m):
    path.write_text(json.dumps(dump_matrix(np.asarray(m, dtype=complex))))
    return str(path)


def test_matrix_round_trip(tmp_path, rng):
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    path = write_matrix(tmp_path / "m.json", m)
    assert np.allclose(load_matrix(path), m)


def test_dump_matrix_field_order():
    d = dump_matrix(np.eye(2))
    assert list(d) == ["rows", "cols", "data"]


@pytest.mark.parametrize(
    "payload",
    [
        "not json at all",
        '{"rows": 2, "cols": 2}',
        '{"rows": 2, "cols": 2, "data": [[1, 0]]}',
        '{"rows": 2, "cols": 2, "data": [[1, 0], [0, 0], [0, 0], ["x", 0]]}',
        '{"rows": 0, "cols": 2, "data": []}',
        '[1, 2, 3]',
        # headers are JSON integers, not floats, strings or booleans
        '{"rows": 2.9, "cols": 2, "data": [[1, 0], [0, 0], [0, 0], [1, 0]]}',
        '{"rows": 2.0, "cols": 2, "data": [[1, 0], [0, 0], [0, 0], [1, 0]]}',
        '{"rows": "2", "cols": 2, "data": [[1, 0], [0, 0], [0, 0], [1, 0]]}',
        '{"rows": 2, "cols": true, "data": [[1, 0], [0, 0]]}',
        # entries are pairs of JSON numbers, not booleans
        '{"rows": 1, "cols": 1, "data": [[true, false]]}',
        '{"rows": 1, "cols": 1, "data": [[1, 0, 0]]}',
        pytest.param(
            '{"rows": 1, "cols": 1, "data": [[1' + "0" * 400 + ', 0]]}',
            id="entry-beyond-double-range",
        ),
        # nesting beyond the decoder's recursion limit, and bytes that are not UTF-8
        pytest.param("[" * 200_000, id="deeply-nested"),
        pytest.param(b'\xff\xfe{"rows": 1}', id="not-utf-8"),
    ],
)
def test_load_matrix_parse_errors(tmp_path, payload, monkeypatch):
    raw = payload if isinstance(payload, bytes) else payload.encode()
    p = tmp_path / "bad.json"
    p.write_bytes(raw)
    with pytest.raises(ParseError):
        load_matrix(str(p))
    # the same payload on stdin, decoded strictly as UTF-8
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    with pytest.raises(ParseError):
        load_matrix("-")


def test_load_matrix_keeps_every_bit(tmp_path):
    # the [re, im] pairs become complex entries bit for bit, signed zeros and
    # integers included, as complex(re, im) makes them
    pairs = [[-0.0, 0.0], [1, -0.0], [0.1, -2.5e-300], [-3, 7], [1e308, -1e-320], [0.0, -0.0]]
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": 2, "cols": 3, "data": pairs}))
    got = load_matrix(str(path))
    want = np.array([complex(re, im) for re, im in pairs]).reshape(2, 3)
    assert got.dtype == complex and got.shape == (2, 3)
    assert np.array_equal(got.view(float), want.view(float))
    assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


def test_schmidt_command_maximally_entangled(tmp_path):
    path = write_matrix(tmp_path / "bell.json", np.eye(2) / np.sqrt(2))
    r = run_cli("schmidt", path, "--json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["rank"] == 2
    assert out["coefficients"] == pytest.approx([0.7071067811865476] * 2, abs=1e-9)
    assert out["cyclic_separating"] is True


def test_schmidt_command_product_vector(tmp_path):
    path = write_matrix(tmp_path / "prod.json", np.outer([1, 0], [0, 1]))
    r = run_cli("schmidt", path, "--json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["rank"] == 1
    assert out["cyclic_separating"] is False


def test_schmidt_command_reads_stdin():
    payload = json.dumps(dump_matrix(np.eye(2)))
    r = run_cli("schmidt", "-", "--json", stdin=payload)
    assert r.returncode == 0
    assert json.loads(r.stdout)["rank"] == 2


def test_schmidt_malformed_input_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{broken")
    r = run_cli("schmidt", str(p))
    assert r.returncode == 2
    assert r.stderr.strip()
    assert not r.stdout.strip()


def test_modular_command_tracial(tmp_path):
    path = write_matrix(tmp_path / "tracial.json", np.eye(2) / 2)
    r = run_cli("modular", path, path, "--json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["delta_spectrum"] == pytest.approx([1.0, 1.0, 1.0, 1.0])
    assert out["passed"] is True


def test_modular_command_frozen_spectrum(tmp_path):
    phi = write_matrix(tmp_path / "phi.json", np.diag([0.75, 0.25]))
    omega = write_matrix(tmp_path / "omega.json", np.diag([0.5, 0.5]))
    r = run_cli("modular", phi, omega, "--json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert sorted(out["delta_spectrum"]) == pytest.approx([0.5, 0.5, 1.5, 1.5])


def _reported_and_dense_spectrum(phi, omega, tmp_path, capsys):
    """delta_spectrum of ``modular --json`` and the sorted eigvalsh of the dense Delta."""
    paths = [write_matrix(tmp_path / f"{name}.json", m)
             for name, m in (("phi", phi), ("omega", omega))]
    main(["modular", *paths, "--json"])
    got = np.array(_strict_json(capsys.readouterr().out)["delta_spectrum"])
    # the densities as modular reads them back from their files
    phi, omega = (DensityMatrix(load_matrix(p)) for p in paths)
    dense = np.linalg.eigvalsh(relative_modular_operator(phi, omega).matrix)
    assert got.shape == dense.shape
    assert np.all(np.abs(got - dense) <= 1e-9 * np.maximum(1.0, np.abs(dense)))
    return got


@pytest.mark.parametrize("d", [2, 3, 5, 16])
def test_modular_spectrum_matches_the_dense_delta(d, tmp_path, capsys):
    rng = np.random.default_rng(70 + d)
    for _ in range(5):
        phi, omega = (random_faithful_density(rng, d).matrix for _ in range(2))
        _reported_and_dense_spectrum(phi, omega, tmp_path, capsys)


def test_modular_spectrum_of_a_rank_deficient_phi(tmp_path, capsys):
    d = 4
    rng = np.random.default_rng(74)
    g = random_rank_deficient(rng, d, 2)
    phi = g @ np.conj(g).T
    phi /= np.trace(phi).real
    omega = random_faithful_density(rng, d).matrix
    got = _reported_and_dense_spectrum(phi, omega, tmp_path, capsys)
    # the kernel of D_phi (x) (D_omega^-1)^T is ker(D_phi) (x) H_d
    assert np.count_nonzero(np.abs(got) <= 1e-9) == d * (d - 2)


def test_modular_command_verify(tmp_path):
    phi = write_matrix(tmp_path / "phi.json", np.diag([0.6, 0.4]))
    omega = write_matrix(tmp_path / "omega.json", np.diag([0.3, 0.7]))
    r = run_cli("modular", phi, omega, "--verify", "--json", "--seed", "5")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["tt_passed"] is True


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_modular_verify_needs_a_sample(samples, tmp_path, capsys):
    phi = write_matrix(tmp_path / "phi.json", np.diag([0.6, 0.4]))
    omega = write_matrix(tmp_path / "omega.json", np.diag([0.3, 0.7]))
    with pytest.raises(SystemExit) as exc:
        main(["modular", phi, omega, "--verify", "--samples", samples, "--json"])
    assert exc.value.code == 4
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "flags", [["--t", "0.3"], ["--samples", "3"], ["--seed", "1"], ["--seed", "0"]]
)
def test_modular_verify_flags_without_verify_are_usage_errors(flags, tmp_path, capsys):
    # --t, --samples and --seed feed only the Tomita-Takesaki check
    phi = write_matrix(tmp_path / "phi.json", np.diag([0.6, 0.4]))
    omega = write_matrix(tmp_path / "omega.json", np.diag([0.3, 0.7]))
    assert main(["modular", phi, omega, *flags, "--json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "only apply with --verify" in captured.err
    assert main(["modular", phi, omega, *flags, "--verify", "--json"]) == 0


def test_kms_verify_dim_with_a_state_file_is_usage_error(tmp_path, capsys):
    path = write_matrix(tmp_path / "omega.json", np.diag([0.75, 0.25]))
    assert main(["kms-verify", path, "--dim", "16", "--json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--dim applies only without a state file" in captured.err
    assert main(["kms-verify", "--samples", "2", "--json"]) == 0
    assert _strict_json(capsys.readouterr().out)["dimension"] == 4


def test_main_reuses_one_parser_without_carrying_flags_over(tmp_path, capsys, monkeypatch):
    import modkit.cli as cli

    rng = np.random.default_rng(11)
    paths = []
    for name in ("phi", "omega"):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        w = g @ np.conj(g).T + 0.1 * np.eye(3)
        paths.append(write_matrix(tmp_path / f"{name}.json", w / np.trace(w).real))
    builds = []
    real_build = cli.build_parser

    def counting_build():
        builds.append(None)
        return real_build()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build)
    first = ["modular", *paths, "--verify", "--t", "0.01", "--json"]
    second = ["modular", *paths, "--verify", "--json"]
    assert main(first) == 0
    with_t = capsys.readouterr().out
    assert main(second) == 0
    reused = capsys.readouterr().out
    assert len(builds) == 1

    args = real_build().parse_args(second)
    assert args.t is None
    assert args.func(args) == 0
    assert reused == capsys.readouterr().out
    assert reused != with_t  # the flow residual at t = 0.01 alone differs
    cli._parser.cache_clear()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_modular_non_finite_t_is_usage_error(bad, tmp_path, capsys):
    phi = write_matrix(tmp_path / "phi.json", np.diag([0.6, 0.4]))
    omega = write_matrix(tmp_path / "omega.json", np.diag([0.3, 0.7]))
    argv = ["modular", phi, omega, "--verify", "--t", "0.5", f"--t={bad}", "--json"]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--t must be finite" in captured.err


def _edge_state(d, ratio):
    """Diagonal density whose smallest-to-largest eigenvalue ratio is ``ratio``."""
    vals = np.ones(d)
    vals[0] = ratio
    return np.diag(vals / vals.sum())


@pytest.mark.parametrize("d", [2, 16])
@pytest.mark.parametrize("ratio, singular", [(5e-13, True), (2e-12, False)])
def test_state_files_at_the_faithfulness_threshold(
    d, ratio, singular, tmp_path, capsys
):
    # is_faithful needs min > 1e-12 * max; below it both commands exit 3
    phi = write_matrix(tmp_path / "phi.json", np.eye(d) / d)
    omega = write_matrix(tmp_path / "omega.json", _edge_state(d, ratio))
    for argv in (
        ["modular", phi, omega, "--verify", "--samples", "1", "--json"],
        ["kms-verify", omega, "--samples", "2", "--json"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        if singular:
            assert code == 3, argv[0]
            assert "SingularState" in captured.err
        else:
            assert code != 3, argv[0]
            assert "passed" in _strict_json(captured.out)


def test_modular_singular_omega_exits_3(tmp_path):
    phi = write_matrix(tmp_path / "phi.json", np.eye(2) / 2)
    omega = write_matrix(tmp_path / "omega.json", np.diag([1.0, 0.0]))
    r = run_cli("modular", phi, omega)
    assert r.returncode == 3
    assert "SingularState" in r.stderr


def test_kms_verify_random_state():
    r = run_cli(
        "kms-verify", "--dim", "3", "--beta", "2.0", "--samples", "5",
        "--seed", "9", "--json",
    )
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["passed"] is True
    assert out["centralizer_dimension"] == out["commutant_dimension"]


def test_kms_verify_with_state_file(tmp_path):
    path = write_matrix(tmp_path / "omega.json", np.diag([0.5, 0.3, 0.2]))
    r = run_cli("kms-verify", path, "--beta", "0.5", "--samples", "3", "--json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["centralizer_dimension"] == 3  # distinct spectrum
    assert out["passed"] is True


def test_kms_verify_bad_beta_exits_3():
    r = run_cli("kms-verify", "--dim", "2", "--beta", "-1.0")
    assert r.returncode == 3


def test_kms_verify_beta_whose_energies_overflow_exits_3():
    # -log(lambda) / beta overflows: refused before any defect is formed
    r = run_cli("kms-verify", "--dim", "3", "--samples", "2", "--beta", "1e-310", "--json")
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr.startswith("modkit: BadBeta:")
    assert "RuntimeWarning" not in r.stderr


def test_schmidt_rectangular_input(tmp_path):
    path = write_matrix(tmp_path / "rect.json", np.ones((2, 3)) / np.sqrt(6))
    r = run_cli("schmidt", path, "--json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["rank"] == 1
    assert out["cyclic_separating"] is None


def test_cone_and_ineq_commands():
    r = run_cli("cone", "--dim", "3", "--samples", "5", "--seed", "2", "--json")
    assert r.returncode == 0
    assert json.loads(r.stdout)["failures"] == 0
    r = run_cli("ineq", "--dim", "3", "--samples", "5", "--seed", "2", "--json")
    assert r.returncode == 0
    assert json.loads(r.stdout)["failures"] == 0


def test_campaign_deterministic_json():
    args = (
        "campaign", "--suite", "modular", "--seed", "42", "--dim", "3",
        "--samples", "10", "--json",
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0 and second.returncode == 0
    a = json.loads(first.stdout)
    b = json.loads(second.stdout)
    a.pop("wall_time"), b.pop("wall_time")
    assert json.dumps(a, indent=2) == json.dumps(b, indent=2)


def test_campaign_all_suites():
    r = run_cli(
        "campaign", "--suite", "all", "--seed", "1", "--dim", "2",
        "--samples", "3", "--json",
    )
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["suite"] == "all"
    assert [s["suite"] for s in out["suites"]] == [
        "vec", "modular", "kms", "cone", "inequalities",
    ]


def test_campaign_unknown_suite_exits_4():
    r = run_cli("campaign", "--suite", "bogus")
    assert r.returncode == 4


def test_usage_error_exits_4():
    assert run_cli("no-such-command").returncode == 4
    assert run_cli("campaign", "--definitely-not-a-flag").returncode == 4
    assert run_cli().returncode == 4


def test_config_bounds_are_usage_errors():
    assert run_cli("campaign", "--dim", "1").returncode == 4
    assert run_cli("campaign", "--dim", "17").returncode == 4
    assert run_cli("campaign", "--samples", "0").returncode == 4


def test_env_tolerance_override():
    # an absurdly strict tolerance must cause failures; the flag beats it
    strict = run_cli(
        "campaign", "--suite", "vec", "--seed", "3", "--dim", "3",
        "--samples", "5", "--json", env={"MODKIT_TOL": "1e-30"},
    )
    assert strict.returncode == 1
    assert json.loads(strict.stdout)["failures"] > 0
    relaxed = run_cli(
        "campaign", "--suite", "vec", "--seed", "3", "--dim", "3",
        "--samples", "5", "--json", "--tol", "1e-10",
        env={"MODKIT_TOL": "1e-30"},
    )
    assert relaxed.returncode == 0


def test_main_callable_directly(tmp_path):
    path = write_matrix(tmp_path / "m.json", np.eye(3))
    assert main(["schmidt", str(path)]) == 0


@pytest.mark.parametrize("bad", ["nan", "inf", "0", "-1"])
def test_bad_tolerance_flag_is_usage_error(bad, capsys):
    argv = ["campaign", "--suite", "vec", "--dim", "2", "--samples", "1"]
    assert main(argv + [f"--tol={bad}"]) == 4
    assert "--tol must be a finite number > 0" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "0", "-1", "not-a-number"])
def test_bad_tolerance_env_is_usage_error(bad, capsys, monkeypatch):
    monkeypatch.setenv("MODKIT_TOL", bad)
    assert main(["campaign", "--suite", "vec", "--dim", "2", "--samples", "1"]) == 4
    assert "MODKIT_TOL must be a finite number > 0" in capsys.readouterr().err
    assert main(["kms-verify", "--dim", "2", "--samples", "1"]) == 4


def test_campaign_subcommands_share_one_handler():
    from modkit.cli import build_parser, cmd_campaign

    parser = build_parser()
    for argv, suite, samples in (
        (["cone"], "cone", 50),
        (["ineq"], "inequalities", 100),
        (["campaign"], "all", 100),
    ):
        args = parser.parse_args(argv)
        assert (args.func, args.suite, args.samples) == (cmd_campaign, suite, samples)


def _strict_json(text):
    """Parse rejecting the NaN/Infinity extensions of Python's json module."""

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "target, field",
    [
        ("boundary_defect", "max_boundary_defect"),
        ("invariance_defect", "max_invariance_defect"),
    ],
)
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_kms_verify_fails_closed_on_non_finite_defect(
    target, field, bad, monkeypatch, capsys
):
    from modkit.kms import ProbePairs

    calls = []
    real = getattr(ProbePairs, target)

    def poisoned(*args):
        calls.append(None)
        defects = real(*args)
        # one bad value among finite ones: max(0.0, nan) would drop it
        defects[1, 2] = bad
        return defects

    monkeypatch.setattr(ProbePairs, target, poisoned)
    code = main(["kms-verify", "--dim", "3", "--samples", "2", "--json"])
    out = _strict_json(capsys.readouterr().out)
    assert len(calls) == 1  # both probes in one stacked call
    assert code == 1
    assert out["passed"] is False
    assert out[field] is None  # strict JSON: NaN and inf print as null


@pytest.mark.parametrize(
    "target, call, field",
    [
        ("distance", 1, "cross_route_residual"),
        ("distance", 2, "polar_residual"),
        ("_flow_residual", 7, "tt_max_commutant_residual"),
        ("_flow_residual", 2, "tt_max_flow_residual"),
    ],
)
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_modular_fails_closed_on_non_finite_residual(
    target, call, field, bad, tmp_path, monkeypatch, capsys
):
    import modkit.modular as modular
    from modkit.vecops import SuperOperator

    owner = SuperOperator if target == "distance" else modular
    residuals = []
    real = getattr(owner, target)

    def poisoned(*args):
        # one bad value among finite ones, by residual index: distance gives
        # one residual per call; with 2 samples and 3 flow times
        # _flow_residual gives the 6 flow residuals, one row per time, then
        # the 2 commutant ones
        value = real(*args)
        rows = np.array(value, dtype=float).reshape(-1)
        for i in range(rows.size):
            residuals.append(None)
            if len(residuals) == call:
                rows[i] = bad
        return rows if np.ndim(value) else float(rows[0])

    monkeypatch.setattr(owner, target, poisoned)
    phi = write_matrix(tmp_path / "phi.json", np.diag([0.6, 0.4]))
    omega = write_matrix(tmp_path / "omega.json", np.diag([0.3, 0.7]))
    code = main(["modular", phi, omega, "--verify", "--samples", "2", "--json"])
    out = _strict_json(capsys.readouterr().out)
    assert len(residuals) >= call
    assert code == 1
    assert out["passed"] is False
    assert out[field] is None  # strict JSON: NaN and inf print as null


def test_campaign_json_is_strict_with_nan_margins(monkeypatch, capsys):
    import dataclasses

    from modkit import campaigns

    # the first vec check passes; the second yields NaN
    draw, (first, *rest) = campaigns.SUITES["vec"]
    nan_family = dataclasses.replace(
        first, names=first.names[:2], fn=lambda inst: (0.0, float("nan"))
    )
    monkeypatch.setitem(campaigns.SUITES, "vec", (draw, (nan_family,)))
    for suite in ("vec", "all"):
        code = main(
            ["campaign", "--suite", suite, "--dim", "2", "--samples", "1", "--json"]
        )
        out = _strict_json(capsys.readouterr().out)
        assert code == 1
        assert out["worst_slack"] is None
        assert out["failures"] >= 1
    assert out["suites"][0] == {
        "suite": "vec",
        "seed": 0,
        "dimension": 2,
        "samples": 1,
        "checks": 2,
        "failures": 1,
        "worst_slack": None,
    }


def test_boolean_checks_report_the_tolerance_in_use(monkeypatch, capsys):
    from modkit import campaigns

    margins = []
    real = campaigns.judge

    def spy(kind, value, tol):
        margin, passed = real(kind, value, tol)
        if kind == "boolean":
            margins.append(margin)
        return margin, passed

    monkeypatch.setattr(campaigns, "judge", spy)
    code = main(
        [
            "campaign", "--suite", "all", "--dim", "3", "--samples", "5",
            "--tol", "1e-6", "--json",
        ]
    )
    assert code == 0
    assert _strict_json(capsys.readouterr().out)["failures"] == 0
    # vec: 1 per sample, kms: 1 per 5 samples, cone: 2 per sample
    assert margins == [1e-6] * (5 + 1 + 10)


def test_kms_verify_names_the_centralizer_window(tmp_path, capsys):
    # a gap of 1e-10: resolved by centralizer_dimension (2), null for the
    # commutator map (4); the verdict stays a failure, with its reason
    path = write_matrix(tmp_path / "omega.json", np.diag([0.5 + 5e-11, 0.5 - 5e-11]))
    assert main(["kms-verify", path, "--json"]) == 1
    captured = capsys.readouterr()
    out = _strict_json(captured.out)
    assert (out["centralizer_dimension"], out["commutant_dimension"]) == (2, 4)
    assert out["passed"] is False
    (line,) = captured.err.splitlines()
    assert "centralizer dimension 2 != commutant dimension 4" in line
    assert "smallest eigenvalue gap of D 1e-10" in line
    assert "grouping threshold 1e-13" in line
    assert "null cutoff 1e-08" in line
    # outside the window the counts agree and stderr stays empty
    path = write_matrix(tmp_path / "wide.json", np.diag([0.6, 0.4]))
    assert main(["kms-verify", path, "--json"]) == 0
    assert capsys.readouterr().err == ""


def test_kms_verify_names_the_small_beta_window(capsys):
    # the energies -log(lambda) / beta grow as 1 / beta, and the rounding of
    # the phases t (E_j - E_k) with them; the verdict stays a failure, with
    # that scale named on stderr
    argv = ["kms-verify", "--dim", "4", "--samples", "20", "--seed", "1", "--json"]
    assert main(argv + ["--beta", "1e-6"]) == 1
    captured = capsys.readouterr()
    out = _strict_json(captured.out)
    assert f"{out['max_boundary_defect']:.4e}" == "6.4035e-10"
    assert out["passed"] is False
    density = random_faithful_density(np.random.default_rng(1), 4)
    energies = gibbs_hamiltonian(density, 1e-6).energies
    scale = max(map(abs, campaigns.KMS_TIMES)) * float(np.ptp(energies))
    (line,) = captured.err.splitlines()
    assert "KMS boundary defect at beta 1e-06" in line
    assert f"largest phase |t (E_j - E_k)| over the time grid {scale:.3g}" in line
    assert f"times eps {scale * np.finfo(float).eps:.3g}" in line
    # a passing run writes nothing to stderr
    assert main(argv + ["--beta", "1"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("beta", ["nan", "inf", "-inf"])
def test_kms_verify_non_finite_beta_exits_3(beta, capsys):
    assert main(["kms-verify", "--dim", "2", f"--beta={beta}", "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "BadBeta" in captured.err


def test_schmidt_rank_tol_does_not_govern_cyclic_separating(tmp_path, capsys):
    # coefficient ratio 1e-8: full rank at --rank-tol 1e-10, but the reduced
    # state's eigenvalue ratio 1e-16 is below the faithfulness threshold
    path = write_matrix(tmp_path / "thin.json", np.diag([1.0, 1e-8]))
    assert main(["schmidt", path, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["rank"], out["cyclic_separating"]) == (2, False)
    # a coarse --rank-tol drops a coefficient but leaves the verdict alone
    path = write_matrix(tmp_path / "wide.json", np.diag([1.0, 1e-3]))
    assert main(["schmidt", path, "--rank-tol", "1e-2", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["rank"], out["cyclic_separating"]) == (1, True)


def test_schmidt_names_the_two_cutoffs_when_rank_and_verdict_disagree(tmp_path, capsys):
    # Schmidt ratio 1e-7: above the rank cutoff 1e-10, below the
    # faithfulness cutoff sqrt(1e-12) = 1e-6; stdout and the exit code
    # stay those of a plain report
    path = write_matrix(tmp_path / "thin.json", np.diag([1.0, 1e-7]))
    assert main(["schmidt", path, "--json"]) == 0
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert (out["rank"], out["cyclic_separating"]) == (2, False)
    (line,) = captured.err.splitlines()
    assert "Schmidt rank 2 of 2 but cyclic_separating false" in line
    assert "smallest Schmidt ratio 1e-07" in line
    assert "rank cutoff 1e-10" in line
    assert "faithfulness cutoff 1e-06" in line
    # full rank and faithful: nothing on stderr
    path = write_matrix(tmp_path / "phi.json", np.diag([0.75, 0.25]))
    assert main(["schmidt", path, "--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["cyclic_separating"] is True
    assert captured.err == ""


@pytest.mark.parametrize("bad", ["nan", "inf", "-1", "0", "1"])
def test_schmidt_bad_rank_tol_is_usage_error(bad, tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", np.diag([1.0, 0.5]))
    assert main(["schmidt", path, f"--rank-tol={bad}", "--json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--rank-tol must be a finite number in (0, 1)" in captured.err


def test_rank_tol_default_is_read_from_schmidt_when_the_parser_is_built(monkeypatch):
    # one constant for the library and the CLI: the parser copies no literal
    import modkit.cli as cli
    from modkit import schmidt

    assert cli.build_parser().parse_args(["schmidt", "-"]).rank_tol == schmidt.RANK_RTOL
    monkeypatch.setattr(schmidt, "RANK_RTOL", 1e-7)
    assert cli.build_parser().parse_args(["schmidt", "-"]).rank_tol == 1e-7



def test_negative_seed_is_usage_error(tmp_path, capsys):
    # default_rng refuses a negative seed; the parser refuses it first
    phi = write_matrix(tmp_path / "phi.json", np.diag([0.6, 0.4]))
    omega = write_matrix(tmp_path / "omega.json", np.diag([0.3, 0.7]))
    for argv in (
        ["campaign", "--dim", "2", "--samples", "1"],
        ["cone", "--dim", "2", "--samples", "1"],
        ["ineq", "--dim", "2", "--samples", "1"],
        ["kms-verify", "--dim", "2", "--samples", "1"],
        ["modular", phi, omega, "--verify", "--samples", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "-1", "--json"])
        assert exc.value.code == 4, argv[0]
        captured = capsys.readouterr()
        assert captured.out == "", argv[0]
        assert "seed must be >= 0" in captured.err, argv[0]


def test_state_files_beyond_16_are_refused(tmp_path, capsys, monkeypatch):
    # a 17 x 17 state is refused before any d^2 x d^2 operator is built
    import modkit.cli as cli

    def unreachable(*args, **kwargs):
        raise AssertionError("built the modular data of an oversized state")

    monkeypatch.setattr(cli.campaigns, "modular_instance", unreachable)
    monkeypatch.setattr(cli, "gibbs_hamiltonian", unreachable)
    big = write_matrix(tmp_path / "big.json", np.eye(17) / 17)
    small = write_matrix(tmp_path / "small.json", np.eye(2) / 2)
    for argv in (
        ["modular", big, small, "--json"],
        ["modular", small, big, "--verify", "--samples", "1", "--json"],
        ["kms-verify", big, "--samples", "1", "--json"],
    ):
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ShapeMismatch: state files are limited to 16 x 16, got 17 x 17" in captured.err


@pytest.mark.parametrize(
    "flag, env", [([], {}), (["--tol", "1e-6"], {}), ([], {"MODKIT_TOL": "1e-6"})]
)
def test_kms_invariance_is_judged_alike_by_both_drivers(flag, env, monkeypatch, capsys):
    # one rule: each family keeps its own bound unless --tol or MODKIT_TOL
    # is given, which then replaces the bound of every family evaluated
    from modkit import campaigns

    for key, value in env.items():
        monkeypatch.setenv(key, value)
    real_evaluate, real_judge = campaigns.evaluate, campaigns.judge
    family, bounds = [], []

    def evaluate(fam, instance, tol=None):
        family.append(fam.names)
        try:
            return real_evaluate(fam, instance, tol)
        finally:
            family.pop()

    def judge(kind, value, tol):
        if family and family[-1] == ("kms.invariance",):
            bounds.append(tol)
        return real_judge(kind, value, tol)

    monkeypatch.setattr(campaigns, "evaluate", evaluate)
    monkeypatch.setattr(campaigns, "judge", judge)
    want = 1e-6 if flag or env else 1e-12
    campaign = ["campaign", "--suite", "kms", "--dim", "3", "--samples", "2"]
    assert main([*campaign, *flag, "--json"]) == 0
    capsys.readouterr()
    assert bounds and set(bounds) == {want}
    bounds.clear()
    assert main(["kms-verify", "--dim", "3", "--samples", "2", *flag, "--json"]) == 0
    assert bounds and set(bounds) == {want}
    assert _strict_json(capsys.readouterr().out)["tolerance"] == (1e-6 if flag or env else 1e-10)


def test_ineq_takes_no_tolerance_flag(capsys):
    argv = ["ineq", "--dim", "3", "--samples", "2", "--json"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", "1e-6"])
    assert exc.value.code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --tol 1e-6" in captured.err


def test_inequality_reports_keep_their_floor_under_an_override(monkeypatch, capsys):
    # report families judge their own relative floor: neither --tol nor
    # MODKIT_TOL moves an inequality verdict or margin
    def report(argv):
        assert main([*argv, "--dim", "4", "--samples", "20", "--seed", "3", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        out.pop("wall_time")
        return out

    campaign = ["campaign", "--suite", "inequalities"]
    plain = report(["ineq"])
    assert report(campaign) == plain
    assert report([*campaign, "--tol", "1e-2"]) == plain
    monkeypatch.setenv("MODKIT_TOL", "0.5")
    assert report(["ineq"]) == plain
    assert report(campaign) == plain


def test_kms_verify_judges_the_centralizer_routes_as_a_family(tmp_path, monkeypatch, capsys):
    # one commutant count per run, judged through campaigns.evaluate as the
    # kms.centralizer_routes family
    import modkit.cli as cli
    from modkit import campaigns

    commutant_calls, judged = [], []
    real_commutant, real_evaluate = cli.commutant_dimension, campaigns.evaluate

    def commutant(density):
        commutant_calls.append(density)
        return real_commutant(density)

    def evaluate(family, instance, tol=None):
        checks = real_evaluate(family, instance, tol)
        if family is campaigns.KMS_CENTRALIZER_ROUTES:
            judged.append(checks)
        return checks

    monkeypatch.setattr(cli, "commutant_dimension", commutant)
    monkeypatch.setattr(campaigns, "evaluate", evaluate)
    assert main(["kms-verify", "--dim", "3", "--samples", "70", "--json"]) == 0
    assert len(commutant_calls) == 1
    ((check,),) = judged
    assert (check.name, check.value, check.passed) == ("kms.centralizer_routes", True, True)

    path = write_matrix(tmp_path / "omega.json", np.diag([0.5 + 5e-11, 0.5 - 5e-11]))
    assert main(["kms-verify", path, "--json"]) == 1
    capsys.readouterr()
    assert len(commutant_calls) == 2
    assert [checks[0].passed for checks in judged] == [True, False]


def test_kms_verify_output_is_independent_of_the_probe_block(tmp_path, monkeypatch, capsys):
    # one probe pair per block, the default byte bound (125 pairs at d = 16,
    # so all 50 in one block), and a bound of 20 pairs: two full blocks and
    # a partial one
    import modkit.cli as cli

    density = random_faithful_density(np.random.default_rng(16), 16)
    path = write_matrix(tmp_path / "omega.json", density.matrix)
    draws, real_draw = [], cli.complex_gaussian_stack

    def draw(rng, count, d):
        draws.append(count)
        return real_draw(rng, count, d)

    monkeypatch.setattr(cli, "complex_gaussian_stack", draw)
    per_pair = 16 * (16 * 16 + len(campaigns.KMS_TIMES))
    outputs, blocks = [], []
    for bound in (1, cli.KMS_BLOCK_BYTES, 20 * per_pair):
        monkeypatch.setattr(cli, "KMS_BLOCK_BYTES", bound)
        draws.clear()
        assert main(["kms-verify", path, "--samples", "50", "--json"]) == 0
        outputs.append(capsys.readouterr().out)
        blocks.append(list(draws))
    assert blocks == [[2] * 50, [100], [40, 40, 20]]
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("d", [2, 16])
def test_block_draw_matches_one_probe_at_a_time(d):
    stacked_rng, single_rng = np.random.default_rng(d), np.random.default_rng(d)
    stack = complex_gaussian_stack(stacked_rng, 9, d)
    single = np.array([complex_gaussian(single_rng, d) for _ in range(9)])
    assert stack.shape == (9, d, d) and stack.dtype == complex
    assert np.array_equal(stack.view(np.uint64), single.view(np.uint64))
    # both generators are left at the same point of their streams
    assert stacked_rng.standard_normal() == single_rng.standard_normal()


def test_kms_verify_on_a_one_by_one_state(tmp_path, capsys):
    # the commutator map's antisymmetric block is empty (0 x 1), and both
    # routes count the whole 1 x 1 algebra
    path = write_matrix(tmp_path / "omega.json", [[1.0]])
    assert main(["kms-verify", path, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["dimension"], out["centralizer_dimension"], out["commutant_dimension"]) == (1, 1, 1)
    assert out["passed"] is True
