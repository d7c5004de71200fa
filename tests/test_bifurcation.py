import json
import math

import numpy as np
import pytest

from cylbif.bifurcation import (
    PARITY_CHANGES,
    PARITY_DOES_NOT_CHANGE,
    crossing_parity,
    domain_profile,
    find_sigma_zeros,
    kernel_modes,
    run_bifurcation,
    select_t_star,
)
from cylbif.dispersion import sigma_reduced
from cylbif.errors import ConvergenceError, NumericalError
from cylbif.geometry import SpaceForm
from cylbif.spectral import ground_state


class TestFindSigmaZerosSynthetic:
    def test_single_linear_zero(self):
        zeros = find_sigma_zeros(lambda t: 1.0 - t, 0.5, 2.0)
        assert len(zeros) == 1
        assert zeros[0].sign_change
        assert zeros[0].t0 == pytest.approx(1.0, rel=1e-10)
        assert zeros[0].width <= 1e-10 * zeros[0].t0

    def test_tangential_zero_flagged_not_selected(self):
        producer = lambda t: (1.0 - t) ** 2 * (2.0 - t)
        zeros = find_sigma_zeros(producer, 0.5, 2.5)
        changing = [z for z in zeros if z.sign_change]
        suspects = [z for z in zeros if not z.sign_change]
        assert len(changing) == 1
        assert changing[0].t0 == pytest.approx(2.0, rel=1e-9)
        assert len(suspects) == 1
        assert suspects[0].t0 == pytest.approx(1.0, rel=1e-6)
        assert suspects[0].sigma_min is not None and suspects[0].sigma_min < 1e-8

    def test_multiple_zeros(self):
        producer = lambda t: (1.0 - t) * (3.0 - t) * (10.0 - t) / (1.0 + t)
        zeros = find_sigma_zeros(producer, 0.5, 20.0)
        locations = [z.t0 for z in zeros if z.sign_change]
        assert len(locations) == 3
        for got, expected in zip(locations, (1.0, 3.0, 10.0)):
            assert got == pytest.approx(expected, rel=1e-9)

    def test_grid_doubling_invariance(self):
        producer = lambda t: (1.0 - t) * (3.0 - t) * (10.0 - t) / (1.0 + t)
        base = find_sigma_zeros(producer, 0.5, 20.0, initial_points=512)
        fine = find_sigma_zeros(producer, 0.5, 20.0, initial_points=1024)
        assert len(base) == len(fine)
        for a, b in zip(base, fine):
            assert abs(a.t0 - b.t0) <= 1e-10 * a.t0

    def test_auto_widening(self):
        # window entirely on the negative side: must widen left to find the zero
        zeros = find_sigma_zeros(lambda t: 1.0 - t, 2.0, 8.0)
        assert zeros[0].t0 == pytest.approx(1.0, rel=1e-9)

    def test_hopeless_producer_raises(self):
        with pytest.raises(NumericalError, match="not positive"):
            find_sigma_zeros(lambda t: -1.0, 0.5, 2.0)


class TestSelectTStar:
    def test_skips_tangential(self):
        producer = lambda t: (1.0 - t) ** 2 * (2.0 - t)
        zeros = find_sigma_zeros(producer, 0.5, 2.5)
        assert select_t_star(zeros) == pytest.approx(2.0, rel=1e-9)

    def test_minimum_of_changing(self):
        producer = lambda t: (2.0 - t) * (5.0 - t) * (8.0 - t) / (1.0 + t) ** 3
        zeros = find_sigma_zeros(producer, 0.5, 12.0)
        assert select_t_star(zeros) == pytest.approx(2.0, rel=1e-9)

    def test_requires_sign_change(self):
        with pytest.raises(ValueError, match="sign-changing"):
            select_t_star([])


class TestKernelModes:
    def test_synthetic_two_mode_kernel(self):
        # zeros of sigma at T = 3 and T = 1.5 -> modes {1, 2} at T_star = 3
        producer = lambda t: (t - 3.0) * (t - 1.5)
        modes = kernel_modes(producer, 3.0, j_max=8)
        assert modes == [1, 2]

    def test_generic_single_mode(self):
        producer = lambda t: 3.0 - t
        assert kernel_modes(producer, 3.0, j_max=16) == [1]

    def test_tight_producer_can_veto(self):
        producer = lambda t: (t - 3.0) * (t - 1.5)
        # a tight re-evaluation that contradicts the candidate drops it
        modes = kernel_modes(
            producer, 3.0, j_max=8, tight_producer=lambda t: 1.0 if t != 3.0 else 0.0
        )
        assert modes == [1]


class TestCrossingParity:
    def test_sign_change(self):
        assert crossing_parity(lambda t: 3.0 - t, 3.0) == PARITY_CHANGES

    def test_tangential(self):
        assert crossing_parity(lambda t: (3.0 - t) ** 2, 3.0) == PARITY_DOES_NOT_CHANGE


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
        # the grid values only pick signs, so one scalar solve per grid
        # point must give the very same zeros
        gs = ground_states[(2, 1.0)]
        sf = SpaceForm(2, 1.0)

        def per_point(t):
            if np.ndim(t):
                return np.array([sigma_reduced(gs, sf, x) for x in t.tolist()])
            return sigma_reduced(gs, sf, t)

        zeros = find_sigma_zeros(per_point, 0.5, 50.0)
        assert zeros == bifurcation_reports[(2, 1.0)].zeros

    def test_radial_solve_count(self, ground_states, monkeypatch):
        # one batched solve for the grid, one for the kernel probes, the rest
        # scalar refinement
        import cylbif.radial as radial

        calls = []
        real_solve_ivp = radial.solve_ivp

        def counting(*args, **kwargs):
            calls.append(None)
            return real_solve_ivp(*args, **kwargs)

        monkeypatch.setattr(radial, "solve_ivp", counting)
        run_bifurcation(ground_states[(2, 1.0)], SpaceForm(2, 1.0))
        assert len(calls) <= 45


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_overflowing_kernel_probes_raise_the_per_probe_error():
    # at (3, 8.4) the kernel probes T_star/j overflow from j = 58 on, which
    # fails the batched solve as a whole; the batch must raise the error of
    # its first failing member, as one solve per probe does
    sf = SpaceForm(3, 8.4)
    gs = ground_state(sf)

    def producer(t):
        return sigma_reduced(gs, sf, t)

    t_star = select_t_star(find_sigma_zeros(producer, 0.5, 50.0))
    probes = t_star / np.arange(57, 65)  # the deepest probes of j_max = 64
    with pytest.raises(ConvergenceError) as per_probe:
        for t_period in probes.tolist():
            producer(t_period)
    with pytest.raises(ConvergenceError) as batched:
        producer(probes)
    assert str(batched.value) == str(per_probe.value)


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


def test_crossing_parity_indeterminate_flagged():
    from cylbif.bifurcation import PARITY_INDETERMINATE

    def producer(t):
        # sign change visible at the coarse probe only
        return (t - 3.0) if abs(t - 3.0) >= 1e-4 else 1.0

    assert crossing_parity(producer, 3.0) == PARITY_INDETERMINATE


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
