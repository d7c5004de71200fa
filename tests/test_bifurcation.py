import json
import math

import numpy as np
import pytest

from cylbif.bifurcation import (
    INITIAL_POINTS,
    PARITY_CHANGES,
    domain_profile,
    find_sigma_zeros,
    run_bifurcation,
)
from cylbif.dispersion import shifted_lambda, sigma_reduced
from cylbif.errors import NumericalError
from cylbif.geometry import SpaceForm
from cylbif.spectral import ground_state

# T_star from a 40-digit mpmath evaluation of the Legendre/Ferrers
# representation of the regular solution (a reference without a rigorous
# bound; the n = 3 values agree with interval enclosures in every digit)
REFERENCE_T_STAR = {
    (2, 1.0): 2.9821661040498072,
    (2, -1.0): 3.1320245985894188,
    (3, 1.0): 2.5091744868236651,
    (3, -1.0): 2.7148011881357731,
    (4, -1.0): 2.4504707541161902,
    (6, -1.5): 2.1738544863823084,
    (12, -0.5): 1.5669063166687902,
    (12, 7.0): 0.37272453910697269,
    (3, 8.4): 0.519667368760838,
    (3, 8.85): 0.349894337743975,
}


class TestFindSigmaZerosSynthetic:
    def test_single_linear_zero(self):
        zeros = find_sigma_zeros(lambda t: 1.0 - t, 0.5, 2.0)
        assert len(zeros) == 1
        assert zeros[0].sign_change
        assert zeros[0].t0 == pytest.approx(1.0, rel=1e-10)
        assert zeros[0].width <= 1e-10 * zeros[0].t0

    def test_non_monotone_producer_raises(self):
        # three zeros: the search names the first grid point where sigma rises
        producer = lambda t: (1.0 - t) * (3.0 - t) * (10.0 - t) / (1.0 + t)
        grid = np.geomspace(0.5, 20.0, INITIAL_POINTS)
        first = grid[np.flatnonzero(np.diff(producer(grid)) >= 0.0)[0] + 1].item()
        with pytest.raises(NumericalError, match="not strictly decreasing") as exc:
            find_sigma_zeros(producer, 0.5, 20.0)
        assert f"at T={first!r} " in str(exc.value)

    def test_grid_doubling_invariance(self):
        producer = lambda t: (3.0 - t) * (1.0 + 1.0 / t)
        base = find_sigma_zeros(producer, 0.5, 20.0, initial_points=512)
        fine = find_sigma_zeros(producer, 0.5, 20.0, initial_points=1024)
        assert len(base) == len(fine) == 1
        for a, b in zip(base, fine):
            assert abs(a.t0 - b.t0) <= 1e-10 * a.t0

    def test_auto_widening(self):
        # window entirely on the negative side: must widen left to find the zero
        zeros = find_sigma_zeros(lambda t: 1.0 - t, 2.0, 8.0)
        assert zeros[0].t0 == pytest.approx(1.0, rel=1e-9)

    def test_auto_widening_right(self):
        # window entirely on the positive side: must widen right to find the zero
        zeros = find_sigma_zeros(lambda t: 5.0 - t, 0.5, 2.0)
        assert len(zeros) == 1
        assert zeros[0].t0 == pytest.approx(5.0, rel=1e-10)

    def test_hopeless_producer_raises(self):
        with pytest.raises(NumericalError, match="not positive"):
            find_sigma_zeros(lambda t: -1.0, 0.5, 2.0)


class TestDomainProfile:
    def test_zero_amplitude_constant(self):
        prof = domain_profile(2.5, 0.0, 64)
        assert np.all(prof.rho == 1.0)

    def test_mean_zero_and_evenness(self):
        prof = domain_profile(3.1, 0.2, 128)
        assert abs(np.mean(prof.rho - 1.0)) < 1e-14
        # rho(t) = rho(-t) on the periodic grid
        assert np.allclose(prof.rho[1:], prof.rho[1:][::-1], atol=1e-14)

    def test_half_period_value(self):
        prof = domain_profile(2.0, 0.3, 64)
        assert prof.rho[32] == pytest.approx(0.7, abs=1e-14)

    def test_amplitude_cap(self):
        with pytest.raises(ValueError, match="epsilon"):
            domain_profile(2.0, 0.5, 64)
        with pytest.raises(ValueError, match="epsilon"):
            domain_profile(2.0, -0.1, 64)

    def test_sample_floor(self):
        with pytest.raises(ValueError, match="samples"):
            domain_profile(2.0, 0.1, 7)

    def test_csv(self, tmp_path):
        prof = domain_profile(2.0, 0.1, 16, n=2, k=1.0)
        path = tmp_path / "profile.csv"
        prof.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,rho"
        assert len(lines) == 17


class TestRealPipeline:
    def test_report_structure(self, bifurcation_reports):
        rep = bifurcation_reports[(2, 1.0)]
        assert rep.t_star > 0.0
        assert any(z.sign_change for z in rep.zeros)
        assert 1 in rep.kernel_modes
        assert rep.parity[1] == PARITY_CHANGES
        assert rep.sigma_at_j_max > 0.0

    def test_sigma_at_j_max_from_the_spot_check(self, ground_states, bifurcation_reports):
        # the last member of the batched spot check T_star / [2, j_max]; with
        # j_max = 1 there is no check and the value comes from its own solve
        gs = ground_states[(2, 1.0)]
        sf = SpaceForm(2, 1.0)
        rep = bifurcation_reports[(2, 1.0)]
        spot = sigma_reduced(gs, sf, rep.t_star / np.array([2.0, rep.j_max]))
        assert rep.sigma_at_j_max == spot[-1]
        scalar = sigma_reduced(gs, sf, rep.t_star / rep.j_max)
        assert rep.sigma_at_j_max == pytest.approx(scalar, rel=1e-12)
        single = run_bifurcation(gs, sf, j_max=1)
        assert single.sigma_at_j_max == sigma_reduced(gs, sf, single.t_star)

    def test_spot_check_that_is_not_positive_raises(self, ground_states, monkeypatch):
        import cylbif.bifurcation as bifurcation

        real = bifurcation.sigma_reduced

        def spoiled(gs, sf, t_period, j=1):
            if np.ndim(t_period) and len(t_period) == 2:  # T_star / [2, j_max]
                return np.array([1.0, 0.0])
            return real(gs, sf, t_period, j)

        monkeypatch.setattr(bifurcation, "sigma_reduced", spoiled)
        with pytest.raises(NumericalError, match="not positive"):
            run_bifurcation(ground_states[(2, 1.0)], SpaceForm(2, 1.0))

    def test_report_json_round_trip(self, bifurcation_reports):
        payload = bifurcation_reports[(3, -1.0)].to_dict()
        text = json.dumps(payload, sort_keys=True)
        back = json.loads(text)
        assert back["T_star"] == payload["T_star"]
        assert back["kernel_modes"] == [1]

    def test_determinism(self, ground_states, bifurcation_reports):
        gs = ground_states[(2, 1.0)]
        rep2 = run_bifurcation(gs, SpaceForm(2, 1.0))
        assert rep2.t_star == bifurcation_reports[(2, 1.0)].t_star

    def test_batched_grid_finds_the_per_point_zeros(self, ground_states, bifurcation_reports):
        # one scalar solve per grid point gives grid values that may differ in
        # the last bits, so the refinement may take other steps; both
        # certified brackets must hold the one zero
        gs = ground_states[(2, 1.0)]
        sf = SpaceForm(2, 1.0)

        def per_point(t):
            if np.ndim(t):
                return np.array([sigma_reduced(gs, sf, x) for x in t.tolist()])
            return sigma_reduced(gs, sf, t)

        (alone,) = find_sigma_zeros(per_point, 0.5, 50.0)
        (batched,) = bifurcation_reports[(2, 1.0)].zeros
        assert abs(alone.t0 - batched.t0) <= 0.5 * (alone.width + batched.width)
        reference = REFERENCE_T_STAR[(2, 1.0)]
        for zero in (alone, batched):
            assert abs(zero.t0 - reference) <= 1e-11 * reference

    def test_radial_solve_count(self, ground_states, monkeypatch):
        # one batched solve for the grid, one for the spot check, the rest
        # scalar refinement
        import cylbif.radial as radial

        calls = []
        real_solve_ivp = radial.solve_ivp

        def counting(*args, **kwargs):
            calls.append(None)
            return real_solve_ivp(*args, **kwargs)

        monkeypatch.setattr(radial, "solve_ivp", counting)
        run_bifurcation(ground_states[(2, 1.0)], SpaceForm(2, 1.0))
        assert len(calls) <= 10


def test_spot_check_at_j_max_makes_no_radial_solve(ground_states, monkeypatch):
    # the member T_star / j_max is taken by Liouville-Green, so every solve
    # of the case stays above its Lam
    import cylbif.dispersion as dispersion

    solved = []
    real_shoot = dispersion.shoot

    def recording(sf, lam, *args, **kwargs):
        solved.extend(np.atleast_1d(lam).tolist())
        return real_shoot(sf, lam, *args, **kwargs)

    monkeypatch.setattr(dispersion, "shoot", recording)
    gs, sf = ground_states[(2, 1.0)], SpaceForm(2, 1.0)
    rep = run_bifurcation(gs, sf)
    assert min(solved) > shifted_lambda(gs, rep.t_star / rep.j_max, 1)


def test_deep_kernel_probes_match_the_exact_curve():
    # at (3, 8.4) the kernel probes T_star/j reach kappa = sqrt(-Lam) ~ 700,
    # where the DOP853 solve overflows from j = 58 on; the Liouville-Green
    # route takes them, batched equal to per-probe, on the exact n = 3 curve
    # g = p coth p + C_k(1)/S_k(1), p = sqrt(-(Lam + k))
    sf = SpaceForm(3, 8.4)
    gs = ground_state(sf)

    def producer(t):
        return sigma_reduced(gs, sf, t)

    t_star = find_sigma_zeros(producer, 0.5, 50.0)[0].t0
    probes = t_star / np.arange(57, 65)  # the deepest probes of j_max = 64
    per_probe = [producer(t_period) for t_period in probes.tolist()]
    assert producer(probes).tolist() == per_probe
    root = math.sqrt(sf.k)
    for t_period, g in zip(probes.tolist(), per_probe):
        p = math.sqrt(-(shifted_lambda(gs, t_period, 1) + sf.k))
        exact = p / math.tanh(p) + root / math.tan(root)
        assert abs(g - exact) <= 1e-13 * abs(exact)


def test_kernel_scale_identity(ground_states, bifurcation_reports):
    # the kernel computed through sigma_j(T_star) equals the one through
    # sigma(T_star/j): the two are the same function by mode rescaling
    from cylbif.dispersion import sigma_ode

    gs = ground_states[(2, 1.0)]
    sf = SpaceForm(2, 1.0)
    t_star = bifurcation_reports[(2, 1.0)].t_star
    for j in range(1, 9):
        a = sigma_ode(gs, sf, t_star, j)
        b = sigma_ode(gs, sf, t_star / j, 1)
        assert abs(a - b) <= 1e-12 * (1.0 + abs(a))
    scale = 1e-8 * (1.0 + abs(gs.dphi1))
    via_mode = [j for j in range(1, 9) if abs(sigma_ode(gs, sf, t_star, j)) < scale]
    via_rescale = [j for j in range(1, 9) if abs(sigma_ode(gs, sf, t_star / j, 1)) < scale]
    assert via_mode == via_rescale == [1]


def test_auto_widening_on_real_curve(ground_states, bifurcation_reports):
    from cylbif.dispersion import sigma_reduced

    gs = ground_states[(2, 1.0)]
    sf = SpaceForm(2, 1.0)
    # sigma is already negative on [5, 8]; the search must widen left
    zeros = find_sigma_zeros(
        lambda t: sigma_reduced(gs, sf, t), 5.0, 8.0, initial_points=128
    )
    t_star = bifurcation_reports[(2, 1.0)].t_star
    assert any(z.sign_change and abs(z.t0 - t_star) < 1e-8 * t_star for z in zeros)


def test_exact_grid_hit_handled():
    # a zero lying exactly on a probed point must not break the refinement
    zeros = find_sigma_zeros(lambda t: 2.0 - t, 1.0, 4.0, initial_points=31)
    assert len(zeros) == 1
    assert zeros[0].sign_change
    assert zeros[0].t0 == pytest.approx(2.0, rel=1e-10)


@pytest.fixture(scope="module")
def reference_ground_states(ground_states):
    extra = {
        case: ground_state(SpaceForm(*case))
        for case in REFERENCE_T_STAR
        if case not in ground_states
    }
    return {**ground_states, **extra}


@pytest.mark.parametrize("case", list(REFERENCE_T_STAR), ids=str)
def test_t_star_matches_the_reference(case, reference_ground_states, bifurcation_reports):
    gs, sf = reference_ground_states[case], SpaceForm(*case)
    if case in bifurcation_reports:
        t_star = bifurcation_reports[case].t_star
    else:
        t_star = run_bifurcation(gs, sf).t_star
    reference = REFERENCE_T_STAR[case]
    assert abs(t_star - reference) <= 1e-11 * reference


@pytest.mark.parametrize("case", list(REFERENCE_T_STAR), ids=str)
def test_search_grid_strictly_decreasing(case, reference_ground_states):
    grid = np.geomspace(0.5, 50.0, INITIAL_POINTS)
    values = sigma_reduced(reference_ground_states[case], SpaceForm(*case), grid)
    assert np.all(np.diff(values) < 0.0)
