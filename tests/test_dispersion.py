import dataclasses
import math
import warnings

import numpy as np
import pytest

from cylbif.bifurcation import INITIAL_POINTS, J_MAX_DEFAULT
from cylbif.dispersion import (
    AGREEMENT_RTOL,
    DispersionCurve,
    scan,
    shifted_lambda,
    sigma_closed,
    sigma_ode,
    sigma_reduced,
)
from cylbif.geometry import SpaceForm, c_k, radial_drift, s_k
from cylbif.specfun import Degree


def n3_sigma_exact(gs, sf, t_period, j=1):
    """Elementary n=3 oracle: with v = S_k c the mode equation becomes
    v'' + kappa^2 v = 0, kappa^2 = lambda1 + k - (2 pi j / T)^2, so
    w'(1)/w(1) = kappa cot(kappa) - C_k(1)/S_k(1) and
    sigma = -phi'(1) [kappa cot(kappa) + C_k(1)/S_k(1)]."""
    kappa_sq = gs.lambda1 + sf.k - (2.0 * math.pi * j / t_period) ** 2
    if kappa_sq > 0:
        kappa = math.sqrt(kappa_sq)
        ratio = kappa / math.tan(kappa)
    else:
        kappa = math.sqrt(-kappa_sq)
        ratio = kappa / math.tanh(kappa)
    drift_term = c_k(sf, 1.0) / s_k(sf, 1.0)
    return -gs.dphi1 * (ratio + drift_term)


class TestSigmaRoutes:
    @pytest.mark.parametrize("case", [(2, 1.0), (2, -1.0), (3, 1.0), (3, -1.0)])
    def test_route_agreement_sampled(self, ground_states, case):
        gs = ground_states[case]
        sf = SpaceForm(*case)
        for t_period in np.geomspace(0.15, 80.0, 18):
            so = sigma_ode(gs, sf, float(t_period))
            sc = sigma_closed(gs, sf, float(t_period))
            assert abs(so - sc) <= AGREEMENT_RTOL * (1.0 + abs(so))

    @pytest.mark.parametrize("k", [1.0, -1.0])
    def test_n3_elementary_oracle(self, ground_states, k):
        gs = ground_states[(3, k)]
        sf = SpaceForm(3, k)
        for t_period in (0.3, 1.0, 2.51, 7.0, 40.0):
            exact = n3_sigma_exact(gs, sf, t_period)
            assert sigma_ode(gs, sf, t_period) == pytest.approx(exact, rel=1e-9)
            assert sigma_closed(gs, sf, t_period) == pytest.approx(exact, rel=1e-8)

    def test_sigma_linear_in_s(self, ground_states):
        import copy

        gs = ground_states[(2, -1.0)]
        sf = SpaceForm(2, -1.0)
        doubled = copy.copy(gs)
        doubled.s = 2.0 * gs.s
        doubled.dphi1 = 2.0 * gs.dphi1
        doubled.ddphi1 = 2.0 * gs.ddphi1
        for t_period in (1.0, 3.1, 9.0):
            assert sigma_ode(doubled, sf, t_period) == pytest.approx(
                2.0 * sigma_ode(gs, sf, t_period), rel=1e-12
            )
            assert sigma_closed(doubled, sf, t_period) == pytest.approx(
                2.0 * sigma_closed(gs, sf, t_period), rel=1e-11
            )

    def test_conical_regime_is_real(self, ground_states):
        # small T puts nu* on the conical line; sigma stays real and finite
        gs = ground_states[(2, 1.0)]
        sf = SpaceForm(2, 1.0)
        t_period = 0.5
        nu_star = Degree.from_spectral(sf, shifted_lambda(gs, t_period, 1))
        assert nu_star.is_conical
        value = sigma_closed(gs, sf, t_period)
        assert isinstance(value, float) and math.isfinite(value)

    def test_reduced_form_factorization(self, ground_states):
        gs = ground_states[(3, -1.0)]
        sf = SpaceForm(3, -1.0)
        for t_period in (0.8, 2.7, 12.0):
            red = sigma_reduced(gs, sf, t_period)
            assert sigma_ode(gs, sf, t_period) == pytest.approx(-gs.dphi1 * red, rel=1e-14)

    def test_smoothness_by_richardson_derivative(self, ground_states):
        # derivative estimates stable under step halving at generic points
        gs = ground_states[(2, 1.0)]
        sf = SpaceForm(2, 1.0)

        def deriv(t_period, h):
            d1 = (sigma_ode(gs, sf, t_period + h) - sigma_ode(gs, sf, t_period - h)) / (2 * h)
            d2 = (sigma_ode(gs, sf, t_period + h / 2) - sigma_ode(gs, sf, t_period - h / 2)) / h
            return (4.0 * d2 - d1) / 3.0

        for t_period in (1.3, 5.0):
            h = 1e-3 * t_period
            assert deriv(t_period, h) == pytest.approx(deriv(t_period, h / 2), rel=1e-4)

    def test_input_validation(self, ground_states):
        gs = ground_states[(2, 1.0)]
        sf = SpaceForm(2, 1.0)
        with pytest.raises(ValueError, match="T > 0"):
            sigma_ode(gs, sf, -1.0)
        with pytest.raises(ValueError, match="j >= 1"):
            sigma_ode(gs, sf, 1.0, 0)


@pytest.mark.parametrize("case", [(2, 1.0), (2, -1.0), (3, 1.0), (3, -1.0)])
def test_batched_sigma_reduced_matches_per_point_solves(
    ground_states, bifurcation_reports, case
):
    # the two batches run_bifurcation makes: the search grid on [0.5, 50]
    # and the spot check T_star / [2, j_max], whose stiff member sets that
    # batch's steps; every member is compared
    gs = ground_states[case]
    sf = SpaceForm(*case)
    grid = np.geomspace(0.5, 50.0, INITIAL_POINTS)
    spot = bifurcation_reports[case].t_star / np.array([2.0, J_MAX_DEFAULT])
    for periods in (grid, spot):
        batched = sigma_reduced(gs, sf, periods)
        assert batched.shape == periods.shape
        for t_period, value in zip(periods.tolist(), batched.tolist()):
            assert value == pytest.approx(sigma_reduced(gs, sf, t_period), rel=1e-9)


class TestScan:
    def test_two_points_are_endpoints(self, ground_states):
        gs = ground_states[(2, 1.0)]
        sf = SpaceForm(2, 1.0)
        curve = scan(gs, sf, 0.5, 50.0, 2)
        rows = curve.rows()
        assert len(rows) == 2
        assert rows[0]["T"] == 0.5
        assert rows[-1]["T"] == 50.0

    def test_endpoint_signs_and_agreement(self, ground_states):
        gs = ground_states[(2, -1.0)]
        sf = SpaceForm(2, -1.0)
        curve = scan(gs, sf, 0.5, 50.0, 24)
        rows = curve.rows()
        assert rows[0]["sigma_ode"] > 0.0 > rows[-1]["sigma_ode"]
        assert all(row["agree_flag"] for row in rows)
        ts = [row["T"] for row in rows]
        assert ts == sorted(ts)

    def test_continuity_of_curve(self, ground_states):
        # adjacent jumps bounded by ~10x the local secant slope estimate
        gs = ground_states[(3, 1.0)]
        sf = SpaceForm(3, 1.0)
        rows = scan(gs, sf, 0.8, 20.0, 48).rows()
        ts = np.array([r["T"] for r in rows])
        ss = np.array([r["sigma_ode"] for r in rows])
        for i in range(1, len(ts) - 1):
            jump = abs(ss[i + 1] - ss[i])
            slope = abs(ss[i + 1] - ss[i - 1]) / (ts[i + 1] - ts[i - 1])
            assert jump <= 10.0 * slope * (ts[i + 1] - ts[i]) + 1e-9

    @pytest.mark.parametrize(
        "case,j,t_lo,t_hi",
        [((2, 1.0), 1, 0.5, 50.0), ((3, -1.0), 3, 0.15, 12.0)],
        ids=["broad", "stiff"],
    )
    def test_batched_scan_matches_per_point_solves(self, ground_states, case, j, t_lo, t_hi):
        # the stiff window reaches Lam ~ lambda1 - 1.6e4, which sets the
        # step sequence of the whole batch
        gs = ground_states[case]
        sf = SpaceForm(*case)
        rows = scan(gs, sf, t_lo, t_hi, 40, j).rows()
        assert all(row["agree_flag"] for row in rows)
        for row in rows:
            per_point = sigma_ode(gs, sf, row["T"], j)
            assert row["sigma_ode"] == pytest.approx(per_point, rel=1e-9)

    def test_repeated_scan_is_byte_identical(self, ground_states):
        gs = ground_states[(2, 1.0)]
        sf = SpaceForm(2, 1.0)
        assert scan(gs, sf, 1.0, 10.0, 12).csv_text() == scan(gs, sf, 1.0, 10.0, 12).csv_text()

    def test_csv_round_trip_precision(self, ground_states, tmp_path):
        gs = ground_states[(2, 1.0)]
        sf = SpaceForm(2, 1.0)
        curve = scan(gs, sf, 1.0, 5.0, 6)
        path = tmp_path / "curve.csv"
        curve.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == DispersionCurve.CSV_HEADER
        assert len(lines) == 7
        row = curve.rows()[0]
        fields = lines[1].split(",")
        assert float(fields[3]) == row["T"]  # 17 significant digits round-trip
        assert float(fields[4]) == row["sigma_ode"]

    def test_usage_validation(self, ground_states):
        gs = ground_states[(2, 1.0)]
        sf = SpaceForm(2, 1.0)
        with pytest.raises(ValueError, match="points"):
            scan(gs, sf, 1.0, 5.0, 1)
        with pytest.raises(ValueError, match="t_lo"):
            scan(gs, sf, 5.0, 1.0, 4)


def test_scan_period_cap(ground_states):
    gs = ground_states[(2, 1.0)]
    sf = SpaceForm(2, 1.0)
    with pytest.raises(ValueError, match="cap"):
        scan(gs, sf, 1.0, 500.0, 4)


def test_scan_records_per_sample_failures_inline(ground_states, monkeypatch):
    import cylbif.dispersion as disp

    gs = ground_states[(2, 1.0)]
    sf = SpaceForm(2, 1.0)
    real_reduced = disp._reduced

    def flaky(sf_, w1, dw1, t_period, j):
        if abs(t_period - 2.0) < 1e-12:
            raise disp.DegeneracyError("synthetic failure")
        return real_reduced(sf_, w1, dw1, t_period, j)

    monkeypatch.setattr(disp, "_reduced", flaky)
    curve = disp.scan(gs, sf, 1.0, 4.0, 3)  # grid hits T = 2 exactly
    rows = curve.rows()
    assert len(rows) == 3
    bad = [r for r in rows if r["error"]]
    assert len(bad) == 1 and "synthetic failure" in bad[0]["error"]
    assert not bad[0]["agree_flag"]
    assert all(r["agree_flag"] for r in rows if not r["error"])


def test_scan_isolates_overflowing_members(ground_states):
    # at T <~ 0.009 the DOP853 solution overflows before r = 1, and at
    # T <= 0.0077 so do both closed-form Legendre/Ferrers values; the ODE
    # route takes these rows by Liouville-Green, and every row must match
    # its own evaluation, the overflowing closed form with its own error
    from cylbif.errors import ConvergenceError

    gs = ground_states[(2, 1.0)]
    sf = SpaceForm(2, 1.0)
    rows = scan(gs, sf, 0.004, 0.04, 4).rows()
    overflowed = 0
    for row in rows:
        assert math.isfinite(row["sigma_ode"])
        assert row["sigma_ode"] == sigma_ode(gs, sf, row["T"])
        try:
            closed = sigma_closed(gs, sf, row["T"])
        except ConvergenceError as exc:
            overflowed += 1
            assert "overflows" in str(exc)
            assert row["error"] == str(exc)
            assert not row["agree_flag"]
        else:
            assert row["error"] is None
            assert row["sigma_cf"] == closed
            assert row["agree_flag"]
    assert 0 < overflowed < len(rows)


def test_overflowing_batch_prints_no_warnings(ground_states):
    # the batch failure is handled by the per-member fallback, so the batched
    # solve must not also emit numpy's overflow warnings
    from cylbif.dispersion import _shoot_batch

    gs = ground_states[(2, 1.0)]
    lams = [shifted_lambda(gs, t, 1) for t in np.geomspace(0.004, 0.04, 4).tolist()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _shoot_batch(SpaceForm(2, 1.0), lams) == [None] * 4


class TestGeneralCurvature:
    """Nonunit curvatures are accepted as parameters; the dual-route check
    must hold wherever the closed-form series strategy applies."""

    @pytest.mark.parametrize("n,k", [(2, -2.5), (3, 0.5), (2, 2.2)])
    def test_route_agreement_off_unit_curvature(self, n, k):
        from cylbif.spectral import ground_state

        sf = SpaceForm(n, k)
        gs = ground_state(sf)
        for t_period in (0.7, 2.0, 9.0):
            so = sigma_ode(gs, sf, t_period)
            sc = sigma_closed(gs, sf, t_period)
            assert abs(so - sc) <= AGREEMENT_RTOL * (1.0 + abs(so))

    def test_conical_over_pfaff_switch_uses_direct_series(self):
        # k = -2.5 puts C_k(1) = cosh(sqrt(2.5)) ~ 2.55 above the real-degree
        # switch; conical evaluation must still work there
        from cylbif.specfun import legendre_p

        x = math.cosh(math.sqrt(2.5))
        assert x > 2.5
        value = legendre_p(0.0, complex(-0.5, 2.0), x)
        assert math.isfinite(value)

    def test_conical_outside_series_disk_rejected(self):
        from cylbif.specfun import legendre_p

        with pytest.raises(ValueError, match="series disk"):
            legendre_p(0.0, complex(-0.5, 2.0), 3.5)


class TestBatchedClosedForm:
    """sigma_closed over an ndarray of periods: one series summation per
    order over all members, bit-equal to the scalar evaluation of each."""

    @pytest.mark.parametrize(
        "n,k,j",
        [
            (2, 1.0, 1), (2, -1.0, 1), (3, 1.0, 1), (3, -1.0, 1),
            (2, 8.9, 2), (3, 8.85, 1), (7, 8.5, 1),  # near pi^2: long Ferrers series
            (4, -2.4, 2), (2, -2.9, 1),  # beyond x = 2.5: Pfaff and conical members
            (3, -0.1, 3),  # per-member prefactors must stay Python floats
            (9, 2.0, 1),
        ],
    )
    def test_bit_equal_to_scalar(self, ground_states, n, k, j):
        from cylbif.spectral import ground_state

        sf = SpaceForm(n, k)
        gs = ground_states.get((n, k)) or ground_state(sf)
        periods = np.geomspace(0.5, 50.0, 96)
        batched = sigma_closed(gs, sf, periods, j)
        assert batched.shape == periods.shape
        for t_period, value in zip(periods.tolist(), batched.tolist()):
            assert value == sigma_closed(gs, sf, t_period, j)

    @pytest.mark.parametrize("n,k", [(2, -4.0), (3, 9.5), (3, 9.18)])
    def test_failing_member_raises_its_own_error(self, n, k):
        # (2, -4): the large-T members' degrees are conical at
        # C_k(1) = cosh 2 > 3; (3, 9.5): every member's Ferrers series reaches
        # the term cap; (3, 9.18): only the small-T members reach it
        from cylbif.spectral import ground_state

        sf = SpaceForm(n, k)
        gs = ground_state(sf)
        periods = np.geomspace(50.0, 0.1, 12)
        with pytest.raises(Exception) as per_point:
            for t_period in periods.tolist():
                sigma_closed(gs, sf, t_period)
        with pytest.raises(type(per_point.value)) as batched:
            sigma_closed(gs, sf, periods)
        assert str(batched.value) == str(per_point.value)


class TestRoutePaths:
    """Each route decides batch or single by member count in one place."""

    @staticmethod
    def count_calls(monkeypatch, owner, name):
        calls = []
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    def test_scan_is_one_solve_and_one_summation_per_order(self, ground_states, monkeypatch):
        import cylbif.dispersion as dispersion
        import cylbif.radial as radial

        gs = ground_states[(2, 1.0)]
        solves = self.count_calls(monkeypatch, radial, "solve_ivp")
        sums = self.count_calls(monkeypatch, dispersion, "_first_kind_many")
        rows = scan(gs, SpaceForm(2, 1.0), 0.5, 50.0, 200).rows()
        assert all(row["agree_flag"] for row in rows)
        assert (len(solves), len(sums)) == (1, 2)

    def test_float_period_makes_no_batched_call(self, ground_states, monkeypatch):
        import cylbif.dispersion as dispersion
        import cylbif.specfun as specfun

        gs = ground_states[(2, -1.0)]
        sf = SpaceForm(2, -1.0)
        solves = self.count_calls(monkeypatch, dispersion, "_shoot_batch")
        sums = self.count_calls(monkeypatch, specfun, "_hyp_real_array")
        assert isinstance(sigma_reduced(gs, sf, 2.0), float)
        assert isinstance(sigma_closed(gs, sf, 2.0), float)
        assert solves == sums == []

    def test_refused_scan_sums_each_series_once(self, monkeypatch):
        # at (3, 9.5) every member's series reaches the term cap: the batch
        # reports each member's error, so no member is summed again alone
        import cylbif.specfun as specfun
        from cylbif.spectral import ground_state

        sf = SpaceForm(3, 9.5)
        gs = ground_state(sf)
        scalar = self.count_calls(monkeypatch, specfun, "_hyp_real")
        batched = self.count_calls(monkeypatch, specfun, "_hyp_real_array")
        rows = scan(gs, sf, 0.5, 50.0, 24).rows()
        assert all("did not converge within 10000 terms" in row["error"] for row in rows)
        assert (len(scalar), len(batched)) == (0, 1)

    @pytest.mark.parametrize("route", [sigma_reduced, sigma_closed])
    @pytest.mark.parametrize("case", [(2, 1.0), (3, -1.0)])
    def test_one_member_array_equals_float_call(self, ground_states, route, case):
        gs = ground_states[case]
        sf = SpaceForm(*case)
        got = route(gs, sf, np.array([2.7]), 2)
        assert got.shape == (1,)
        assert got[0] == route(gs, sf, 2.7, 2)


@pytest.mark.parametrize(
    "n,k,t_lo", [(3, 9.5, 0.5), (2, 9.5, 0.5), (2, -4.0, 0.5), (3, 9.18, 0.1)]
)
def test_scan_failing_rows_keep_their_errors(n, k, t_lo):
    # the batch sums each row's series once and keeps each row's own error,
    # so the CSV and each row's error equal those of per-point sigma_closed,
    # each naming its own degree nu*: every row reaches the term cap at
    # (3, 9.5) and (2, 9.5), the conical rows are refused at (2, -4), and
    # (3, 9.18) fails only where nu* reaches the term cap
    from cylbif.spectral import ground_state

    sf = SpaceForm(n, k)
    gs = ground_state(sf)
    curve = scan(gs, sf, t_lo, 50.0, 24)
    expected = DispersionCurve(n=sf.n, k=sf.k, j=1)
    for sample in curve.samples:
        if sample.route == "closed_form":
            sample = dataclasses.replace(sample, sigma=math.nan, error=None)
            try:
                sample.sigma = sigma_closed(gs, sf, sample.t_period)
            except Exception as exc:
                sample.error = str(exc)
        expected.samples.append(sample)
    assert [s.error for s in curve.samples] == [s.error for s in expected.samples]
    assert any(s.error for s in curve.samples)
    assert curve.csv_text() == expected.csv_text()
