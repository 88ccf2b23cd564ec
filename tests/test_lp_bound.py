"""Delsarte bound solver, certificates, and the dense simplex underneath."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from spherekern import (
    CertificateError,
    DomainError,
    InfeasibleError,
    LPBoundProblem,
    LPCertificate,
    UnboundedError,
    certify,
    chebyshev_grid,
    delsarte_lp,
    eval_gegenbauer,
)
from spherekern._simplex import simplex_max
from spherekern.gegenbauer import gegenbauer_table
from spherekern.lp_bound import D_MAX_LIMIT, DEFAULT_GRID, _peak

THETA = np.pi / 3

# independent route: primal LP on a dense fixed grid via scipy's HiGHS backend
def oracle_bound(n, theta, d_max, grid_points=2000):
    alpha = n / 2 - 1
    grid = chebyshev_grid(-1.0, float(np.cos(theta)), grid_points)
    tab = gegenbauer_table(alpha, d_max, grid)
    pk1 = np.array([eval_gegenbauer(alpha, k, 1.0) for k in range(d_max + 1)])
    res = linprog(c=pk1[1:], A_ub=tab[1:].T, b_ub=-np.ones(grid_points),
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return 1.0 + float(res.fun)


class TestBounds:
    @pytest.mark.parametrize("n,target,window", [(3, 13.16, 0.05), (4, 25.6, 0.1), (8, 240.0, 0.5)])
    def test_kissing_angle_targets(self, n, target, window):
        p = LPBoundProblem(n=n, theta=THETA, d_max=12)
        cert = delsarte_lp(p)
        assert abs(cert.bound - target) < window
        # the returned certificate is feasible off-grid, so it can only sit at or
        # slightly above any pure grid relaxation of the same problem
        oracle = oracle_bound(n, THETA, 12)
        assert cert.bound >= oracle - 1e-9
        assert cert.bound - oracle < 0.1
        assert certify(cert, p).max_violation <= 1e-9

    def test_dense_feasibility_cross_check(self):
        p = LPBoundProblem(n=3, theta=THETA, d_max=12)
        cert = delsarte_lp(p)
        report = certify(cert, p)
        dense = np.max(cert.profile(np.linspace(-1.0, p.cos_theta, 200_001)))
        assert report.passed
        assert dense - 1e-12 * np.sum(np.abs(cert.coefficients)) <= report.max_violation <= 1e-9

    def test_theta_monotone(self):
        bounds = [delsarte_lp(LPBoundProblem(n=3, theta=t, d_max=8)).bound
                  for t in np.deg2rad([50, 60, 70, 80])]
        assert all(b1 >= b2 - 1e-9 for b1, b2 in zip(bounds, bounds[1:]))

    def test_degree_monotone(self):
        bounds = [delsarte_lp(LPBoundProblem(n=3, theta=THETA, d_max=d)).bound
                  for d in (4, 8, 12)]
        assert all(b1 >= b2 - 1e-9 for b1, b2 in zip(bounds, bounds[1:]))

    # padded bounds of the earlier slack-and-resolve solver, which the shift must not exceed
    @pytest.mark.parametrize("n,d_max,padded", [
        (3, 12, 13.158399), (4, 12, 25.558820), (8, 12, 240.047419),
        (16, 20, 8320.819830), (24, 12, 197855.275356), (24, 30, 197855.275358)])
    def test_shifted_certificate_at_kissing_angle(self, n, d_max, padded):
        p = LPBoundProblem(n=n, theta=THETA, d_max=d_max)
        cert = delsarte_lp(p)
        f = cert.profile(np.linspace(-1.0, 0.5, 200_001))
        assert np.max(f) <= 1e-12 * max(1.0, np.sum(np.abs(cert.coefficients)))
        # the Odlyzko-Sloane optima are proven, so a bound below them means an unsound shift
        assert {8: 240.0, 24: 196560.0}.get(n, 0.0) <= cert.bound <= padded
        assert certify(cert, p).passed

    @pytest.mark.parametrize("deg", [100, 120, 150])
    def test_degree_one_gives_simplex_bound(self, deg):
        theta = np.deg2rad(deg)
        cert = delsarte_lp(LPBoundProblem(n=5, theta=theta, d_max=1))
        assert cert.bound == pytest.approx(1.0 - 1.0 / np.cos(theta), rel=1e-12)

    def test_late_bland_ties_include_the_pivot_row(self):
        # unscaled, this grid LP takes over 12000 pivots; past the Dantzig cap its
        # minimum ratio turns slightly negative, and the Bland tie set once came out empty
        p = LPBoundProblem(n=22, theta=0.682950648409117, d_max=39)
        tab = gegenbauer_table(p.alpha, p.d_max, chebyshev_grid(-1.0, p.cos_theta, DEFAULT_GRID))
        res = simplex_max(np.ones(DEFAULT_GRID), -tab[1:], gegenbauer_table(p.alpha, p.d_max, 1.0)[1:])
        assert res.iterations > 5000 and np.all(np.isfinite(res.duals))
        # _solve_on_grid divides each row by P_k(1); the instance then solves and certifies
        cert = delsarte_lp(p)
        assert certify(cert, p).passed

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(3, 24), d_max=st.integers(1, 20), deg=st.floats(45.0, 150.0))
    def test_certificate_sound_or_refused(self, n, d_max, deg):
        p = LPBoundProblem(n=n, theta=np.deg2rad(deg), d_max=d_max)
        try:
            cert = delsarte_lp(p)
        except (InfeasibleError, CertificateError):
            return
        assert certify(cert, p).passed
        f = cert.profile(np.linspace(-1.0, p.cos_theta, 20_001))
        assert np.max(f) <= 1e-9 * max(1.0, np.sum(np.abs(cert.coefficients)))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 24), d_max=st.integers(1, 20), deg=st.floats(45.0, 150.0),
           dc0=st.floats(-1e-4, 1e-4))
    def test_certify_sees_the_dense_maximum(self, n, d_max, deg, dc0):
        p = LPBoundProblem(n=n, theta=np.deg2rad(deg), d_max=d_max)
        try:
            cert = delsarte_lp(p)
        except (InfeasibleError, CertificateError):
            return
        c = cert.coefficients.copy()
        c[0] += dc0
        moved = LPCertificate(n=n, theta=p.theta, d_max=d_max, coefficients=c, bound=cert.bound)
        dense = np.max(moved.profile(np.linspace(-1.0, p.cos_theta, 200_001)))
        assert certify(moved, p).max_violation >= dense - 1e-12 * np.sum(np.abs(c))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(3, 24), d_max=st.integers(1, D_MAX_LIMIT),
           deg=st.floats(20.0, 170.0), signed=st.booleans())
    def test_peak_sees_the_dense_maximum(self, data, n, d_max, deg, signed):
        # random coefficients, not LP output: f's maximum may sit anywhere in the interval
        low = -1.0 if signed else 0.0
        c = np.array(data.draw(st.lists(st.floats(low, 1.0), min_size=d_max + 1, max_size=d_max + 1)))
        alpha, top = n / 2 - 1, float(np.cos(np.deg2rad(deg)))
        dense = np.max(c @ gegenbauer_table(alpha, d_max, np.linspace(-1.0, top, 200_001)))
        assert _peak(c, alpha, -1.0, top) >= dense - 1e-12 * np.sum(np.abs(c))

    def test_bound_above_known_code(self):
        cert = delsarte_lp(LPBoundProblem(n=3, theta=THETA, d_max=12))
        assert cert.bound >= 12.0

    def test_normalization_invariance(self):
        # the bound f(1)/c_0 must not depend on scaling each basis element
        alpha = 0.5
        d_max = 10
        grid = chebyshev_grid(-1.0, float(np.cos(THETA)), 1500)
        tab = gegenbauer_table(alpha, d_max, grid)
        pk1 = np.array([eval_gegenbauer(alpha, k, 1.0) for k in range(d_max + 1)])
        raw = linprog(c=pk1[1:], A_ub=tab[1:].T, b_ub=-np.ones(len(grid)),
                      bounds=(0, None), method="highs")
        tab_hat = tab / pk1[:, None]
        hat = linprog(c=np.ones(d_max), A_ub=tab_hat[1:].T, b_ub=-np.ones(len(grid)),
                      bounds=(0, None), method="highs")
        assert raw.status == 0 and hat.status == 0
        assert abs(raw.fun - hat.fun) < 1e-6


class TestCertify:
    def setup_method(self):
        self.p = LPBoundProblem(n=3, theta=THETA, d_max=12)
        self.cert = delsarte_lp(self.p)

    def test_zero_certificate_fails(self):
        c = np.zeros(13)
        c[0] = 1.0
        bad = LPCertificate(n=3, theta=THETA, d_max=12, coefficients=c,
                            bound=1.0)
        report = certify(bad, self.p)
        assert not report.passed
        assert "violation" in report.failed
        assert report.max_violation >= 1.0 - 1e-12

    def test_perturbed_certificate_fails(self):
        c = self.cert.coefficients.copy()
        c[1] += 10.0
        bad = LPCertificate(n=3, theta=THETA, d_max=12, coefficients=c,
                            bound=self.cert.bound)
        assert not certify(bad, self.p).passed

    def test_negative_coefficient_fails(self):
        c = self.cert.coefficients.copy()
        c[2] = -0.5
        bad = LPCertificate(n=3, theta=THETA, d_max=12, coefficients=c,
                            bound=self.cert.bound)
        report = certify(bad, self.p)
        assert not report.passed
        assert "coefficients" in report.failed

    def test_nonpositive_c0_rejected(self):
        c = self.cert.coefficients.copy()
        c[0] = 0.0
        bad = LPCertificate(n=3, theta=THETA, d_max=12, coefficients=c,
                            bound=self.cert.bound)
        with pytest.raises(DomainError):
            certify(bad, self.p)

    def test_false_claimed_bound_fails(self):
        p = LPBoundProblem(n=4, theta=THETA, d_max=12)
        cert = delsarte_lp(p)
        assert certify(cert, p).passed
        tampered = LPCertificate.from_dict(dict(cert.to_dict(), bound=20.0))
        report = certify(tampered, p)
        assert not report.passed
        assert report.failed == ["claim"]
        assert report.claimed_bound == 20.0
        assert report.bound == pytest.approx(25.558, abs=1e-3)

    def test_weaker_claimed_bound_passes(self):
        looser = LPCertificate.from_dict(dict(self.cert.to_dict(), bound=self.cert.bound + 1.0))
        assert certify(looser, self.p).passed

    def test_tol_decides_a_slightly_low_claim(self):
        low = LPCertificate.from_dict(dict(self.cert.to_dict(), bound=self.cert.bound * (1 - 1e-6)))
        assert not certify(low, self.p).passed
        report = certify(low, self.p, tol=1e-5)
        assert report.passed and report.tol == 1e-5

    def test_raised_c0_fails_on_its_peak(self):
        # c_0 + 2e-5 lifts the shifted n=24 certificate's zero peak to 2e-5 at an
        # interior critical point of f; the claimed bound is its own
        p = LPBoundProblem(n=24, theta=THETA, d_max=12)
        cert = delsarte_lp(p)
        cert.coefficients[0] += 2e-5
        cert.bound = cert.profile(1.0) / cert.coefficients[0]
        report = certify(cert, p)
        assert report.failed == ["violation"]
        assert report.max_violation == pytest.approx(2e-5, abs=1e-7)

    def test_problem_must_match_certificate(self):
        # a 60 deg certificate relabelled 50 deg is graded on its own interval, where it
        # peaks far above 0, never on the 60 deg interval of a mismatched problem
        relabelled = LPCertificate.from_dict(dict(self.cert.to_dict(), theta=np.deg2rad(50)))
        assert relabelled.profile(np.linspace(-1.0, np.cos(np.deg2rad(50)), 2001)).max() > 1.0
        with pytest.raises(DomainError, match="problem is n=3"):
            certify(relabelled, self.p)
        assert not certify(relabelled, LPBoundProblem(n=3, theta=relabelled.theta, d_max=12)).passed
        for n, d_max in ((4, 12), (3, 11)):
            with pytest.raises(DomainError, match="certificate is for n=3"):
                certify(self.cert, LPBoundProblem(n=n, theta=THETA, d_max=d_max))

    def test_certificate_with_stored_violation_still_loads(self):
        # documents that store a max_violation key still load; from_dict ignores the key
        d = self.cert.to_dict()
        assert "max_violation" not in d
        cert2 = LPCertificate.from_dict(dict(d, max_violation=-2.57e-5))
        assert certify(cert2, self.p).passed

    def test_missing_field_rejected(self):
        d = self.cert.to_dict()
        del d["bound"]
        with pytest.raises(DomainError, match="bound"):
            LPCertificate.from_dict(d)

    def test_coefficient_count_must_match_degree(self):
        short = LPCertificate.from_dict(dict(self.cert.to_dict(), d_max=11))
        with pytest.raises(DomainError, match="13 coefficients"):
            certify(short, LPBoundProblem(n=3, theta=THETA, d_max=11))

    def test_serialization_roundtrip(self):
        d = json.loads(json.dumps(self.cert.to_dict()))
        cert2 = LPCertificate.from_dict(d)
        ts = np.linspace(-1.0, 1.0, 7)
        assert np.allclose(cert2.profile(ts), self.cert.profile(ts), atol=1e-15)
        assert certify(cert2, self.p).passed


class TestSimplex:
    def test_matches_reference_solver(self):
        rng = np.random.default_rng(0)
        solved = 0
        while solved < 20:
            m, nv = int(rng.integers(5, 30)), int(rng.integers(3, 20))
            G = rng.standard_normal((m, nv))
            h = rng.uniform(0.1, 1.0, size=m)
            c = rng.uniform(-1.0, 1.0, size=nv)
            ref = linprog(c=-c, A_ub=G, b_ub=h, bounds=(0, None), method="highs")
            if ref.status == 3:
                with pytest.raises(UnboundedError):
                    simplex_max(c, G, h)
                continue
            if ref.status != 0:
                continue
            res = simplex_max(c, G, h)
            assert abs(res.value - (-ref.fun)) < 1e-8
            assert np.max(np.abs(res.duals - (-ref.ineqlin.marginals))) < 1e-6
            assert np.max(G @ res.x - h) < 1e-9
            assert np.min(res.x) >= -1e-12
            solved += 1

    def test_explicit_small_lp(self):
        # max x1 + x2 s.t. x1 + x2 <= 1, x1 <= 0.75
        res = simplex_max(np.array([1.0, 1.0]),
                          np.array([[1.0, 1.0], [1.0, 0.0]]),
                          np.array([1.0, 0.75]))
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_unbounded(self):
        with pytest.raises(UnboundedError):
            simplex_max(np.array([1.0]), np.array([[-1.0]]), np.array([1.0]))


class TestValidation:
    def test_grid_endpoints(self):
        g = chebyshev_grid(-1.0, 0.5, 100)
        assert g[0] == -1.0 and g[-1] == 0.5
        assert len(g) == 100
        assert np.all(np.diff(g) > 0)

    def test_problem_validation(self):
        with pytest.raises(DomainError):
            LPBoundProblem(n=2, theta=THETA, d_max=12)
        with pytest.raises(DomainError):
            LPBoundProblem(n=3, theta=0.0, d_max=12)
        with pytest.raises(DomainError):
            LPBoundProblem(n=3, theta=4.0, d_max=12)
        with pytest.raises(DomainError):
            LPBoundProblem(n=3, theta=THETA, d_max=0)
        with pytest.raises(DomainError):
            LPBoundProblem(n=3, theta=THETA, d_max=61)
