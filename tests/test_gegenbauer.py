"""Polynomial evaluation, norms, quadrature, and univariate expansion.

Oracles used here and nowhere in the implementation: scipy's
eval_gegenbauer and roots_jacobi, closed-form gamma expressions for the
weighted norms and even monomial moments, and hand-derived degree-2/3
polynomials.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_gegenbauer as scipy_gegenbauer
from scipy.special import gammaln, roots_jacobi

from spherekern import (
    DomainError,
    GegenbauerBasis,
    basis_for,
    eval_gegenbauer,
    gauss_gegenbauer_rule,
    gegenbauer_table,
    weight_mass,
)

ALPHAS = [0.5, 1.0, 1.5, 2.5, 3.0]


def norm_closed_form(alpha, k):
    """pi 2^(1-2a) Gamma(k+2a) / ((k+a) k! Gamma(a)^2)."""
    return math.pi * 2 ** (1 - 2 * alpha) * math.exp(
        gammaln(k + 2 * alpha) - gammaln(k + 1) - 2 * gammaln(alpha)) / (k + alpha)


def even_moment(alpha, s):
    """integral of t^(2s) (1-t^2)^(a-1/2) over [-1,1]."""
    return math.exp(gammaln(s + 0.5) + gammaln(alpha + 0.5) - gammaln(s + alpha + 1))


class TestEval:
    def test_spec_values(self):
        assert eval_gegenbauer(1.0, 1, 0.5) == pytest.approx(1.0, abs=1e-15)
        assert eval_gegenbauer(0.7, 0, -0.3) == pytest.approx(1.0, abs=1e-15)
        assert eval_gegenbauer(0.5, 2, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_degree_two_three_closed_forms(self):
        ts = np.linspace(-1, 1, 41)
        for alpha in ALPHAS:
            p2 = 2 * alpha * (alpha + 1) * ts ** 2 - alpha
            p3 = (4.0 / 3.0) * alpha * (alpha + 1) * (alpha + 2) * ts ** 3 - 2 * alpha * (alpha + 1) * ts
            assert np.max(np.abs(eval_gegenbauer(alpha, 2, ts) - p2)) < 1e-12
            assert np.max(np.abs(eval_gegenbauer(alpha, 3, ts) - p3)) < 1e-12

    def test_against_scipy(self):
        ts = np.linspace(-1, 1, 31)
        for alpha in ALPHAS:
            for d in range(21):
                want = scipy_gegenbauer(d, alpha, ts)
                got = eval_gegenbauer(alpha, d, ts)
                assert np.max(np.abs(got - want)) < 1e-9 * max(1.0, np.max(np.abs(want)))

    def test_table_matches_eval(self):
        ts = np.linspace(-1, 1, 17)
        tab = gegenbauer_table(1.5, 10, ts)
        for d in range(11):
            assert np.array_equal(tab[d], eval_gegenbauer(1.5, d, ts))
            assert eval_gegenbauer(1.5, d, 0.3) == gegenbauer_table(1.5, d, 0.3)[d]

    @given(alpha=st.floats(0.25, 30.0), d_max=st.integers(0, 40),
           ts=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_table_is_the_written_recurrence_bit_for_bit(self, alpha, d_max, ts):
        # Python floats round each step as numpy does, so the table must equal the
        # recurrence evaluated in its documented order, 2t * (k + alpha - 1) * P_{k-1} first
        tab = gegenbauer_table(alpha, d_max, np.array(ts))
        for col, t in enumerate(ts):
            want = [1.0, 2.0 * alpha * t]
            for k in range(2, d_max + 1):
                want.append((2.0 * t * (k + alpha - 1.0) * want[-1] - (k + 2.0 * alpha - 2.0) * want[-2]) / k)
            assert tab[:, col].tobytes() == np.array(want[:d_max + 1]).tobytes()

    def test_table_scalar_shape(self):
        tab = gegenbauer_table(1.0, 4, 0.3)
        assert tab.shape == (5,)

    @given(alpha=st.floats(0.25, 5.0), t=st.floats(-1.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_low_degrees(self, alpha, t):
        assert eval_gegenbauer(alpha, 0, t) == 1.0
        assert eval_gegenbauer(alpha, 1, t) == pytest.approx(2 * alpha * t, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eval_gegenbauer(1.0, -1, 0.0)
        with pytest.raises(DomainError):
            eval_gegenbauer(1.0, 3, 1.001)
        with pytest.raises(DomainError):
            gegenbauer_table(1.0, 3, np.array([0.0, -1.1]))

    def test_slightly_out_of_range_clipped(self):
        assert eval_gegenbauer(1.0, 2, 1.0 + 5e-13) == pytest.approx(eval_gegenbauer(1.0, 2, 1.0))


class TestQuadrature:
    def test_weight_mass_closed_form(self):
        for alpha in ALPHAS:
            want = math.exp(0.5 * math.log(math.pi) + gammaln(alpha + 0.5) - gammaln(alpha + 1))
            assert weight_mass(alpha) == pytest.approx(want, rel=1e-14)

    def test_weight_sum_and_support(self):
        for alpha in ALPHAS:
            rule = gauss_gegenbauer_rule(alpha, 24)
            assert np.all(rule.weights > 0)
            assert np.all(np.abs(rule.nodes) < 1.0)
            assert abs(np.sum(rule.weights) - weight_mass(alpha)) < 1e-10 * weight_mass(alpha)

    def test_against_scipy_roots_jacobi(self):
        for alpha in ALPHAS:
            m = 20
            rule = gauss_gegenbauer_rule(alpha, m)
            nodes, weights = roots_jacobi(m, alpha - 0.5, alpha - 0.5)
            assert np.max(np.abs(np.sort(rule.nodes) - nodes)) < 1e-12
            assert np.max(np.abs(rule.weights[np.argsort(rule.nodes)] - weights)) < 1e-12

    def test_monomial_exactness(self):
        for alpha in (0.5, 1.5, 3.0):
            m = 12
            rule = gauss_gegenbauer_rule(alpha, m)
            for s in range(m):
                got = rule.weights @ rule.nodes ** (2 * s)
                assert got == pytest.approx(even_moment(alpha, s), rel=1e-10, abs=1e-12)
                if 2 * s + 1 <= 2 * m - 1:
                    assert abs(rule.weights @ rule.nodes ** (2 * s + 1)) < 1e-12


class TestNorms:
    def test_spec_values(self):
        assert basis_for(0.5, 1).norm(0) == pytest.approx(2.0, rel=1e-12)
        assert basis_for(0.5, 1).norm(1) == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert basis_for(1.0, 0).norm(0) == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_closed_form_sweep(self):
        for alpha in ALPHAS:
            basis = GegenbauerBasis(alpha, 20)
            for k in range(21):
                want = norm_closed_form(alpha, k)
                assert basis.norm(k) == pytest.approx(want, rel=1e-9)

    def test_norms_positive(self):
        basis = basis_for(2.5, 30)
        assert np.all(basis.norms > 0)


class TestOrthogonality:
    def test_pairs(self):
        for n in (3, 4, 5, 8):
            alpha = n / 2 - 1
            basis = GegenbauerBasis(alpha, 20)
            tab = gegenbauer_table(alpha, 20, basis.quad.nodes)
            G = (tab * basis.quad.weights) @ tab.T
            scale = np.maximum.outer(basis.norms, basis.norms)
            off = np.abs(G - np.diag(np.diag(G))) / scale
            assert np.max(off) < 1e-10


class TestExpand:
    def test_monomial_example(self):
        c = basis_for(0.5, 2).expand(lambda t: t ** 2)
        assert np.allclose(c, [1 / 3, 0, 2 / 3], atol=1e-12)

    def test_basis_function(self):
        c = basis_for(1.0, 6).expand(lambda t: eval_gegenbauer(1.0, 3, t))
        want = np.zeros(7)
        want[3] = 1.0
        assert np.max(np.abs(c - want)) < 1e-10

    def test_constant(self):
        c = basis_for(1.5, 5).expand(lambda t: 1.0)
        assert np.allclose(c, [1, 0, 0, 0, 0, 0], atol=1e-12)

    def test_roundtrip_random_polynomials(self):
        rng = np.random.default_rng(0)
        ts = rng.uniform(-1, 1, 100)
        for alpha in (0.5, 1.0, 2.5):
            d_max = 12
            basis = basis_for(alpha, d_max)
            mono = rng.standard_normal(d_max + 1)
            g = lambda t: np.polynomial.polynomial.polyval(t, mono)
            c = basis.expand(g)
            vals = basis.synth(c, ts)
            want = g(ts)
            assert np.max(np.abs(vals - want)) < 1e-9 * max(1.0, np.max(np.abs(want)))

    def test_coefficient_roundtrip(self):
        rng = np.random.default_rng(3)
        basis = basis_for(1.0, 10)
        c = rng.random(11)
        back = basis.expand(lambda t: basis.synth(c, t))
        assert np.max(np.abs(back - c)) < 1e-10

    def test_alpha_minimum(self):
        with pytest.raises(DomainError):
            basis_for(0.1, 4)
