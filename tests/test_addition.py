"""Addition-formula constants and the projected identity.

Oracles: exact rational arithmetic for the closed-form constants, and
scipy's eval_gegenbauer for the scalar identity.
"""

import json
from fractions import Fraction
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_gegenbauer as scipy_gegenbauer

import spherekern.addition
from spherekern import (
    DomainError,
    addition_constants,
    addition_residual,
    inner_z,
    random_config,
    sample_sphere,
    verify_addition,
)

ALPHAS = (1.0, 1.5, 2.5)


class TestConstants:
    def test_degree_zero(self):
        consts = addition_constants(1.0, 0)
        assert consts.c.tolist() == [1.0]

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_degree_one_closed_form(self, alpha):
        consts = addition_constants(alpha, 1)
        assert abs(consts.c[0] - 1.0 / (2 * alpha)) < 1e-10
        assert abs(consts.c[1] - 2 * alpha / (2 * alpha - 1)) < 1e-10

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_positivity(self, alpha):
        for k in range(11):
            consts = addition_constants(alpha, k)
            assert np.all(consts.c > 0)

    def test_matches_exact_rationals(self):
        def rising(x, m):
            return prod((x + j for j in range(m)), start=Fraction(1))

        for alpha in (Fraction(3, 4), Fraction(1), Fraction(3, 2), Fraction(7, 2), Fraction(5)):
            for k in range(31):
                c = addition_constants(float(alpha), k).c
                for i in range(k + 1):
                    exact = (4 ** i * factorial(k - i) * rising(alpha, i) ** 2 * (2 * alpha + 2 * i - 1)
                             / (rising(2 * alpha, k + i) * (2 * alpha - 1)))
                    assert abs(Fraction(c[i]) - exact) <= Fraction(1, 10 ** 14) * exact

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.floats(0.75, 6.0), k=st.integers(0, 12),
           angles=st.tuples(*[st.floats(0.0, np.pi, exclude_min=True, exclude_max=True)] * 3))
    def test_scalar_identity_property(self, alpha, k, angles):
        t, s, g = angles
        c = addition_constants(alpha, k).c
        lhs = scipy_gegenbauer(k, alpha, np.cos(t) * np.cos(s) + np.sin(t) * np.sin(s) * np.cos(g))
        terms = [c[i] * (np.sin(t) * np.sin(s)) ** i * scipy_gegenbauer(i, alpha - 0.5, np.cos(g))
                 * scipy_gegenbauer(k - i, alpha + i, np.cos(t)) * scipy_gegenbauer(k - i, alpha + i, np.cos(s))
                 for i in range(k + 1)]
        scale = max(1.0, max(abs(x) for x in terms))
        assert abs(lhs - sum(terms)) <= 1e-11 * scale

    def test_alpha_too_small(self):
        with pytest.raises(DomainError):
            addition_constants(0.5, 2)

    def test_degree_out_of_range(self):
        with pytest.raises(DomainError):
            addition_constants(1.0, 31)
        with pytest.raises(DomainError):
            addition_constants(1.0, -1)

    def test_serializable(self):
        json.dumps(addition_constants(1.5, 3).to_dict())


def _nondegenerate_draw(rng, n, r, tol_perp=1e-4):
    while True:
        cfg = random_config(n, r, rng)
        x, y, q = sample_sphere(n, 3, rng)
        if np.linalg.svd(np.column_stack([cfg.Z, q]), compute_uv=False)[-1] <= 1e-3:
            continue
        ext = cfg.extend(q)
        norms = [inner_z(cfg, p, p) for p in (x, y, q)] + [inner_z(ext, p, p) for p in (x, y)]
        if min(norms) > tol_perp ** 2:
            return cfg, ext, x, y, q


class EditedFirstBlock(np.random.Generator):
    """A Generator that passes its first standard_normal block through edit(block) before returning it."""

    def __init__(self, seed, edit):
        super().__init__(np.random.PCG64(seed))
        self.edit, self.blocks = edit, []

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        block = super().standard_normal(size, dtype, out)
        if not self.blocks:
            self.edit(block)
        self.blocks.append(block.shape)
        return block


def q_is_x(U):
    """First draw at r = 1 (rows z, x, y, q): x has no part perpendicular to [Z q], so _DRAW_MIN_PERP rejects it."""
    U[0, 3] = U[0, 1]


def q_near_z(U):
    """First draw at r = 1: [Z q] has a singular value near 3e-4, while q's part perpendicular to Z passes."""
    U[0, 3] = U[0, 0] / np.linalg.norm(U[0, 0]) + 5e-4 * U[0, 3] / np.linalg.norm(U[0, 3])


def addition_oracle(n, r, k, samples, seed):
    """verify_addition's max residual, replayed one draw at a time through addition_residual."""
    rng = np.random.default_rng(seed)
    worst, done = 0.0, 0
    while done < samples:
        cfg = random_config(n, r, rng)
        x, y, q = sample_sphere(n, 3, rng)
        ext = cfg.extend(q)
        if ext.svals[-1] <= 1e-3:
            continue
        if min([inner_z(cfg, p, p) for p in (x, y, q)] + [inner_z(ext, p, p) for p in (x, y)]) <= 1e-8:
            continue
        worst = max(worst, addition_residual(cfg, x, y, q, k))
        done += 1
    return worst


class TestIdentity:
    def test_degree_zero_exact(self):
        rng = np.random.default_rng(0)
        cfg, _, x, y, q = _nondegenerate_draw(rng, 6, 1)
        assert addition_residual(cfg, x, y, q, 0) == 0.0

    @pytest.mark.parametrize("k", range(1, 7))
    def test_random_samples(self, k):
        report = verify_addition(6, 1, k, samples=100, seed=0)
        assert report.passed
        assert report.max_residual < 1e-8

    def test_other_shapes(self):
        for n, r in [(5, 1), (7, 2), (8, 4)]:
            report = verify_addition(n, r, 3, samples=50, seed=1)
            assert report.passed

    def test_mismatched_constants_rejected(self):
        rng = np.random.default_rng(0)
        cfg, _, x, y, q = _nondegenerate_draw(rng, 6, 1)
        assert addition_residual(cfg, x, y, q, 2, addition_constants(1.5, 2)) < 1e-12
        with pytest.raises(DomainError):
            addition_residual(cfg, x, y, q, 2, addition_constants(1.5, 5))
        with pytest.raises(DomainError):
            addition_residual(cfg, x, y, q, 2, addition_constants(1.5, 1))
        with pytest.raises(DomainError):
            addition_residual(cfg, x, y, q, 2, addition_constants(2.5, 2))

    def test_degenerate_y_equals_q(self):
        rng = np.random.default_rng(2)
        for k in (1, 2, 4):
            for _ in range(20):
                cfg, _, x, _, q = _nondegenerate_draw(rng, 6, 1)
                assert addition_residual(cfg, x, q, q, k) < 1e-9

    def test_thin_fiber_rejected(self):
        with pytest.raises(DomainError):
            verify_addition(6, 3, 2)

    def test_geometry_built_once_per_batch(self, monkeypatch):
        svd, inner, loop = np.linalg.svd, spherekern.addition.inner_z, spherekern.addition._max_over_draws
        calls = {"svd": 0, "inner_z": 0, "batch": 0}

        def counted(name, f):
            def wrapper(*a, **kw):
                calls[name] += 1
                return f(*a, **kw)
            return wrapper

        monkeypatch.setattr(np.linalg, "svd", counted("svd", svd))
        monkeypatch.setattr(spherekern.addition, "inner_z", counted("inner_z", inner))
        monkeypatch.setattr(spherekern.addition, "_max_over_draws",
                            lambda draw, samples, what: loop(counted("batch", draw), samples, what))
        verify_addition(6, 1, 3, samples=50, seed=0)
        assert calls["inner_z"] == 0 and calls["batch"] >= 1
        assert calls["svd"] == calls["batch"]

    @settings(max_examples=60, deadline=None)
    @given(r=st.integers(0, 1), extra=st.integers(0, 4), k=st.integers(0, 6),
           samples=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_per_draw_replay(self, r, extra, k, samples, seed):
        n = r + 4 + extra
        assert verify_addition(n, r, k, samples=samples, seed=seed).max_residual == addition_oracle(
            n, r, k, samples, seed)

    @pytest.mark.parametrize("edit", [q_is_x, q_near_z])
    def test_rejected_row_is_dropped_and_replaced(self, monkeypatch, edit):
        samples, sizes = 20, []
        loop = spherekern.addition._max_over_draws

        def sized(draw, count, what):
            return loop(lambda c: sizes.append(len(v := draw(c))) or v, count, what)

        monkeypatch.setattr(spherekern.addition, "_max_over_draws", sized)
        rng = EditedFirstBlock(5, edit)
        rep = verify_addition(6, 1, 4, samples=samples, seed=rng)
        assert rng.blocks == [(samples, 4, 6), (1, 4, 6)]
        assert sizes == [samples - 1, 1]
        assert rep.passed and rep.samples == samples

    def test_report_serializable(self):
        report = verify_addition(6, 1, 2, samples=10, seed=3)
        json.dumps(report.to_dict())


class TestProofIdentities:
    """Block-matrix facts the identity rests on, checked numerically."""

    def test_angle_decomposition(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(5, 9))
            r = int(rng.integers(1, n - 3))
            cfg, ext, x, y, q = _nondegenerate_draw(rng, n, r)
            xx_z = inner_z(cfg, x, x)
            yy_z = inner_z(cfg, y, y)
            qq_z = inner_z(cfg, q, q)
            xx_e = inner_z(ext, x, x)
            yy_e = inner_z(ext, y, y)

            st = np.sqrt(xx_e / xx_z)
            ct = inner_z(cfg, x, q) / np.sqrt(xx_z * qq_z)
            assert abs(st - np.sqrt(max(1.0 - ct * ct, 0.0))) < 1e-10

            ss = np.sqrt(yy_e / yy_z)
            cs = inner_z(cfg, y, q) / np.sqrt(yy_z * qq_z)
            cg = inner_z(ext, x, y) / np.sqrt(xx_e * yy_e)
            lhs = ct * cs + st * ss * cg
            rhs = inner_z(cfg, x, y) / np.sqrt(xx_z * yy_z)
            assert abs(lhs - rhs) < 1e-10
