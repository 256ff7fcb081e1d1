import math

import pytest

from modkit.campaigns import CampaignResult, run_suite
from modkit.errors import UnknownSuite


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_tally_fails_closed_on_non_finite(bad):
    from modkit.campaigns import _Tally
    from modkit.inequalities import InequalityReport

    feeds = {
        "residual": lambda t: t.residual(bad, 1e-10),
        "bound_below": lambda t: t.bound_below(bad, 1e-12),
        "report": lambda t: t.report(InequalityReport("x", bad, 0.0, bad, True)),
        "boolean": lambda t: t.boolean(bad),
    }
    for name, feed in feeds.items():
        tally = _Tally()
        tally.residual(0.0, 1e-10)  # a finite pass ahead of the bad value
        feed(tally)
        result = tally.result("x", 0, 2, 1)
        assert (result.checks, result.failures) == (2, 1), name


# checks per suite for n samples (kms adds a centralizer check every 5th)
SUITE_CHECKS = {
    "vec": lambda n: 7 * n,
    "modular": lambda n: 9 * n,
    "kms": lambda n: 4 * n + math.ceil(n / 5),
    "cone": lambda n: 7 * n,
    "inequalities": lambda n: 16 * n,
}


@pytest.mark.parametrize("n", [1, 5, 6])
def test_check_counts_per_suite(n):
    results = run_suite("all", seed=3, dimension=2, samples=n)
    assert {r.suite: r.checks for r in results} == {
        suite: count(n) for suite, count in SUITE_CHECKS.items()
    }
