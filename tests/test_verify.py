import math

import pytest

from cylbif import verify
from cylbif.verify import GROUPS, run_checks

# the bifurcation group records its checks under these names
RECORDED_AS = {"bifurcation": ("limit-signs", "kernel")}


def vacuous(result):
    # the spherical first-zero ladder has no zeros to order (README)
    return result.group == "monotonicity-ladder" and result.name.startswith("spherical-n")


@pytest.fixture(scope="module")
def results():
    return run_checks()


@pytest.mark.parametrize("group", GROUPS)
def test_group_passes(results, group):
    mine = [r for r in results if r.group in RECORDED_AS.get(group, (group,))]
    assert mine
    assert [
        f"{r.status} {r.group}::{r.name} {r.detail}"
        for r in mine
        if not (r.status == "PASS" or (r.status == "SKIP" and vacuous(r)))
    ] == []


def test_every_result_belongs_to_a_group(results):
    recorded = {name for group in GROUPS for name in RECORDED_AS.get(group, (group,))}
    assert {r.group for r in results} == recorded


def test_representation_gives_the_ground_state_dphi1():
    # both sigma routes take phi'(1) from the ground state; the radial group
    # checks it against the closed-form representation matched at r = 0.5
    cases = ((4, -1.0), (6, -1.5), (12, -0.5), (2, -2.9), (3, 8.85))
    results = run_checks(groups=("radial",), cases=cases)
    assert "representation-dphi1" in [r.name for r in results]
    assert [r.name for r in results if not r.passed] == []


@pytest.mark.parametrize(
    "group,check,function,at",
    [
        ("legendre-ode", "second-order-equation", "legendre_p", 2.1),
        ("geometry", "derivative-identities", "c_k", 0.8),
    ],
)
def test_nan_residual_fails(monkeypatch, group, check, function, at):
    # the NaN comes at a grid point after the first, where a running
    # builtin max would drop it
    real = getattr(verify, function)

    def nan_at_one_point(*args):
        return math.nan if args[-1] == at else real(*args)

    monkeypatch.setattr(verify, function, nan_at_one_point)
    [result] = [r for r in run_checks(groups=(group,)) if r.name == check]
    assert result.status == "FAIL"
    assert "nan" in result.detail
