import dataclasses
import json
import math
import runpy
from pathlib import Path

import numpy as np
import pytest

from modkit import sampling
from modkit.campaigns import SUITES, CampaignResult, judge, run_suite
from modkit.cli import main
from modkit.errors import UnknownSuite
from modkit.schmidt import schmidt_decompose
from modkit.vecops import partial_trace


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("suite", ["vec", "modular", "kms", "cone", "inequalities"])
def test_suites_pass_clean(suite):
    (result,) = run_suite(suite, seed=7, dimension=3, samples=10)
    assert isinstance(result, CampaignResult)
    assert result.failures == 0
    assert result.checks > 0
    assert result.suite == suite


def test_all_runs_every_suite():
    results = run_suite("all", seed=7, dimension=2, samples=4)
    assert [r.suite for r in results] == [
        "vec",
        "modular",
        "kms",
        "cone",
        "inequalities",
    ]
    assert all(r.failures == 0 for r in results)


def test_determinism():
    a = run_suite("inequalities", seed=11, dimension=4, samples=5)[0]
    b = run_suite("inequalities", seed=11, dimension=4, samples=5)[0]
    assert a.to_dict() == b.to_dict()
    c = run_suite("inequalities", seed=12, dimension=4, samples=5)[0]
    assert c.worst_slack != a.worst_slack


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("bogus", seed=0, dimension=2, samples=1)


def test_result_dict_field_order():
    (result,) = run_suite("vec", seed=1, dimension=2, samples=2)
    assert list(result.to_dict()) == [
        "suite",
        "seed",
        "dimension",
        "samples",
        "checks",
        "failures",
        "worst_slack",
    ]


BAD = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("bad", BAD)
def test_judge_fails_closed_on_non_finite(bad):
    from modkit.inequalities import InequalityReport

    values = {
        "residual": bad,
        "report": InequalityReport(bad, 0.0, bad, True),
        "boolean": bad,
    }
    for kind, value in values.items():
        margin, passed = judge(kind, value, 1e-10)
        assert not passed and math.isnan(margin), kind
    assert judge("residual", 0.0, 1e-10) == (1e-10, True)


def _positions():
    for suite, (_, families) in SUITES.items():
        for i, family in enumerate(families):
            for j, name in enumerate(family.names):
                yield pytest.param(suite, i, j, id=name)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("suite, index, position", _positions())
def test_every_check_fails_closed(suite, index, position, bad, monkeypatch, capsys):
    """A NaN or inf in any one check value fails the run and nulls its worst slack."""
    draw, families = SUITES[suite]
    family = families[index]

    def poisoned(instance):
        values = list(family.fn(instance))
        value = values[position]
        values[position] = (
            dataclasses.replace(value, slack=bad, passed=True)
            if family.kind == "report"
            else bad
        )
        return tuple(values)

    tables = list(families)
    tables[index] = dataclasses.replace(family, fn=poisoned)
    monkeypatch.setitem(SUITES, suite, (draw, tuple(tables)))
    code = main(["campaign", "--suite", suite, "--dim", "2", "--samples", "1", "--json"])
    out = _strict_json(capsys.readouterr().out)
    assert code == 1
    assert out["failures"] >= 1
    assert out["worst_slack"] is None


def _bench_suite_checks():
    """``SUITE_CHECKS`` of the benchmark workload, loaded without running it."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workload.py"
    return runpy.run_path(str(path))["SUITE_CHECKS"]


@pytest.mark.parametrize("n", [1, 5, 6])
def test_check_counts_per_suite(n):
    """Counts from the tables match both the run and the benchmark's."""
    expected = _bench_suite_checks()
    results = {r.suite: r.checks for r in run_suite("all", seed=3, dimension=2, samples=n)}
    for suite, (draw, families) in SUITES.items():
        rng = np.random.default_rng(3)
        instances = [draw(rng, 2, k) for k in range(n)]
        from_table = sum(
            len(f.names)
            for inst in instances
            for f in families
            if f.applies is None or f.applies(inst)
        )
        assert from_table == results[suite] == expected[suite](n), suite


def test_check_names_are_unique():
    names = [n for _, families in SUITES.values() for f in families for n in f.names]
    assert len(names) == len(set(names)) == 44


@pytest.mark.parametrize("d", [2, 4, 16])
def test_modular_probes_are_the_one_at_a_time_draws_bit_for_bit(d):
    # the suite draws its two Tomita-Takesaki probes as one stack
    stacked, single = np.random.default_rng(d), np.random.default_rng(d)
    instance = SUITES["modular"][0](stacked, d, 0)
    # phi, omega, the probe a and the cocycle times come first
    sampling.random_faithful_density(single, d)
    sampling.random_faithful_density(single, d)
    sampling.complex_gaussian(single, d)
    single.uniform(-2, 2, size=2)
    probes = np.array([sampling.complex_gaussian(single, d) for _ in range(2)])
    assert instance.probes.tobytes() == probes.tobytes()
    assert stacked.standard_normal() == single.standard_normal()


@pytest.mark.parametrize("d", [2, 4, 16])
def test_schmidt_spectrum_is_that_of_the_sorted_eigenvalues_bit_for_bit(d):
    # eigvalsh returns the eigenvalues in ascending order: no sort is needed
    draw, families = SUITES["vec"]
    rng = np.random.default_rng(d)
    for k in range(10):
        v = draw(rng, d, k)
        eigs = np.sort(np.linalg.eigvalsh(partial_trace(v.u)))[::-1]
        data = schmidt_decompose(v.u)
        coeff_sq = np.zeros(d)
        coeff_sq[: data.rank] = data.coefficients**2
        want = float(np.max(np.abs(eigs - coeff_sq)))
        assert np.float64(families[1].fn(v)[2]).tobytes() == np.float64(want).tobytes()
