"""Kernel wrappers, Gram checks, and invariance diagnostics."""

import json

import numpy as np
import pytest

from spherekern import (
    DomainError,
    Kernel,
    SphereConfig,
    all_passed,
    check_invariance,
    check_pd,
    eval_gegenbauer,
    grade_gram,
    gram,
    kernel_product,
    kernel_sum,
    random_config,
    random_feature_expansion,
    sample_sphere,
    synth_bundle_kernel,
)


def dot_kernel(n):
    return Kernel(n, lambda x, y: float(x @ y), name="dot")


def neg_dot_kernel(n):
    return Kernel(n, lambda x, y: -float(x @ y), name="neg-dot")


def const_kernel(n):
    return Kernel(n, lambda x, y: 1.0, name="const")


def square_block_kernel(n):
    return Kernel.from_pairs(n, lambda P, i, j: np.vecdot(P[i], P[j]) ** 2, 0, "sq")


def scalar_loop(f, pts):
    """The full matrix f(p, q) over all point pairs, one Python call per entry."""
    return np.array([[f(p, q) for q in pts] for p in pts])


def counting(fn, calls):
    """fn, appending one entry to calls per evaluation."""
    return lambda *args: calls.append(1) or fn(*args)


class TestGram:
    def test_dot_at_basis(self):
        G = gram(dot_kernel(3), np.eye(3))
        assert np.allclose(G, np.eye(3), atol=1e-14)

    def test_const_all_ones(self):
        pts = sample_sphere(3, 5, seed=0)
        G = gram(const_kernel(3), pts)
        assert np.allclose(G, np.ones((5, 5)), atol=1e-14)
        eigs = np.sort(np.linalg.eigvalsh(G))
        assert eigs[-1] == pytest.approx(5.0, abs=1e-12)
        assert np.max(np.abs(eigs[:-1])) < 1e-12

    def test_symmetry_exact(self):
        K = Kernel(4, lambda x, y: float((x @ y) ** 3 + 0.2 * (x @ y)))
        pts = sample_sphere(4, 30, seed=1)
        G = gram(K, pts)
        assert np.array_equal(G, G.T)

    def test_gegenbauer_gram_psd(self):
        K = Kernel(3, lambda x, y: float(eval_gegenbauer(0.5, 2, float(x @ y))))
        pts = sample_sphere(3, 50, seed=2)
        report = grade_gram(gram(K, pts), tol=1e-8)
        assert report.passed
        assert report.min_eig >= -1e-8 * max(1.0, report.max_eig)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            gram(dot_kernel(3), np.eye(4))


class TestBlockGram:
    def test_block_matches_scalar_and_is_symmetric(self):
        K = square_block_kernel(4)
        pts = sample_sphere(4, 30, seed=7)
        G = gram(K, pts)
        assert np.array_equal(G, G.T)
        assert np.max(np.abs(G - scalar_loop(lambda x, y: float(x @ y) ** 2, pts))) < 1e-14

    def test_bundle_block_gets_configuration(self):
        cfg = random_config(5, 2, seed=8)
        K = Kernel.from_pairs(5, lambda P, i, j, Z: np.vecdot(P[i] @ Z.Z, P[j] @ Z.Z), 2, "")
        pts = sample_sphere(5, 12, seed=9)
        scalar = Kernel(5, lambda x, y, Z: float(x @ Z.Z @ Z.Z.T @ y), r=2)
        assert np.max(np.abs(gram(K, pts, cfg) - gram(scalar, pts, cfg))) < 1e-14
        with pytest.raises(DomainError, match="requires a configuration"):
            gram(K, pts)
        with pytest.raises(DomainError, match="requires a configuration"):
            scalar(pts[0], pts[1])

    @pytest.mark.parametrize("K", [synth_bundle_kernel(random_feature_expansion(5, 2)),
                                   Kernel(5, lambda x, y, Z: 0.0, r=2)], ids=["synthesized", "scalar-fn"])
    def test_wrong_configuration_shape_rejected(self, K):
        # a SphereConfig must be n x r; a stacked Z must hold one n x r matrix per row of P,
        # so a list of SphereConfig is rejected too
        pts = sample_sphere(5, 6, 0)
        stack = np.stack([random_config(5, 2, seed=1).Z] * 6)
        for Z in (random_config(4, 2), random_config(5, 1), stack[1:], stack[:, 1:], stack[..., :1],
                  [random_config(5, 2)] * 6):
            with pytest.raises(DomainError, match="requires a configuration"):
                gram(K, pts, Z) if isinstance(Z, SphereConfig) else K.pairs(pts, [0], [1], Z)
        assert K.pairs(pts, [0], [1], stack).shape == (1,)

    @pytest.mark.parametrize("K", [synth_bundle_kernel(random_feature_expansion(5, 2)),
                                   Kernel(5, lambda x, y, Z: 0.0, r=2),
                                   kernel_sum(Kernel.from_pairs(5, lambda P, i, j, Z: np.zeros(len(i)), 2, ""))],
                             ids=["synthesized", "scalar-fn", "sum"])
    def test_stacked_configuration_needs_unit_columns(self, K):
        # a stacked Z meets SphereConfig's unit-column check, whatever the kernel's evaluator
        pts = sample_sphere(5, 2, 0)
        stack = np.stack([random_config(5, 2, seed=1).Z, random_config(5, 2, seed=2).Z])
        for bad in (3 * stack, stack * [1.0, 1.0 + 1e-9], np.concatenate([stack[:1], 0.5 * stack[1:]])):
            with pytest.raises(DomainError, match="configuration columns must be unit vectors"):
                K.pairs(pts, [0], [1], bad)
        assert np.isfinite(K.pairs(pts, [0, 1], [1, 0], stack * [1.0, 1.0 + 1e-13])).all()

    def test_wrong_block_shape_rejected(self):
        K = Kernel.from_pairs(3, lambda P, i, j: np.ones(len(P)), 0, "")
        with pytest.raises(DomainError, match="evaluator returned shape"):
            gram(K, sample_sphere(3, 4, seed=0))

    @pytest.mark.parametrize("combine", [kernel_sum, kernel_product])
    def test_combination_keeps_block_only_when_every_part_has_one(self, combine):
        # each part keeps its own evaluator: a whole-array part is called once
        # per Gram, a scalar part once per upper-triangle entry
        m = 20
        pts = sample_sphere(3, m, seed=10)
        op = (lambda a, b: a + b) if combine is kernel_sum else (lambda a, b: a * b)
        dot_calls, sq_calls, const_calls = [], [], []
        dot = Kernel.from_pairs(3, counting(lambda P, i, j: np.vecdot(P[i], P[j]), dot_calls), 0, "dot")
        sq = Kernel.from_pairs(3, counting(lambda P, i, j: np.vecdot(P[i], P[j]) ** 2, sq_calls), 0, "sq")
        const = Kernel(3, counting(lambda x, y: 1.0, const_calls))
        for other, f, calls, want in ((sq, lambda x, y: float(x @ y) ** 2, sq_calls, 1),
                                      (const, lambda x, y: 1.0, const_calls, m * (m + 1) // 2)):
            dot_calls.clear()
            G = gram(combine(dot, other), pts)
            assert np.array_equal(G, G.T)
            assert np.max(np.abs(G - scalar_loop(lambda x, y: op(float(x @ y), f(x, y)), pts))) < 1e-14
            assert len(dot_calls) == 1 and len(calls) == want

    def test_scalar_kernel_call_counts(self):
        calls = []
        K = Kernel(4, counting(lambda x, y: float(x @ y), calls))
        gram(K, sample_sphere(4, 9, seed=11))
        assert len(calls) == 9 * 10 // 2
        calls.clear()
        check_invariance(K, trials=7, seed=0)
        assert len(calls) == 2 * 7
        calls.clear()
        K(np.eye(4)[0], np.eye(4)[1])
        assert len(calls) == 1


class TestCheckPd:
    def test_schoenberg_sum_passes(self):
        def fn(x, y):
            t = float(x @ y)
            return float(sum(eval_gegenbauer(0.5, k, t) for k in range(6)))

        assert all_passed(check_pd(Kernel(3, fn), trials=20, m=40, seed=0))

    def test_neg_dot_fails_with_witness(self):
        reports = check_pd(neg_dot_kernel(3), trials=5, m=10, seed=0)
        assert not all_passed(reports)
        bad = next(r for r in reports if not r.passed)
        assert bad.witness_points is not None
        G = gram(neg_dot_kernel(3), bad.witness_points)
        assert np.linalg.eigvalsh(G).min() < -1e-8

    def test_neg_dot_two_point_brute_force(self):
        e1 = np.array([1.0, 0.0, 0.0])
        G = gram(neg_dot_kernel(3), np.array([e1, -e1]))
        assert np.allclose(G, [[-1.0, 1.0], [1.0, -1.0]], atol=1e-14)
        assert np.linalg.eigvalsh(G).min() == pytest.approx(-2.0, abs=1e-12)

    def test_zero_kernel_passes(self):
        assert all_passed(check_pd(Kernel(3, lambda x, y: 0.0), trials=5, m=8, seed=0))

    def test_witness_serializable(self):
        reports = check_pd(neg_dot_kernel(3), trials=2, m=6, seed=0)
        json.dumps([r.to_dict() for r in reports])

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            check_pd(dot_kernel(3), m=1)


class TestAlgebra:
    def test_sum_preserves_pd(self):
        K = kernel_sum(dot_kernel(3), const_kernel(3))
        assert all_passed(check_pd(K, trials=10, m=20, seed=0))

    def test_product_preserves_pd(self):
        K = kernel_product(dot_kernel(3), dot_kernel(3))
        assert all_passed(check_pd(K, trials=10, m=20, seed=0))

    def test_sum_with_zero_is_identity(self):
        K = kernel_sum(dot_kernel(3), Kernel(3, lambda x, y: 0.0))
        pts = sample_sphere(3, 10, seed=4)
        assert np.allclose(gram(K, pts), gram(dot_kernel(3), pts), atol=1e-15)

    def test_schur_product_of_grams(self):
        Ka = Kernel(4, lambda x, y: float((x @ y) ** 2))
        Kb = Kernel(4, lambda x, y: float(1.0 + x @ y))
        pts = sample_sphere(4, 15, seed=5)
        Gp = gram(kernel_product(Ka, Kb), pts)
        assert np.allclose(Gp, gram(Ka, pts) * gram(Kb, pts), atol=1e-13)

    def test_schur_product_stays_psd(self):
        rng = np.random.default_rng(6)
        pts = sample_sphere(3, 25, rng)
        G1 = gram(Kernel(3, lambda x, y: float(eval_gegenbauer(0.5, 3, float(x @ y)))), pts)
        G2 = gram(Kernel(3, lambda x, y: float(eval_gegenbauer(0.5, 1, float(x @ y)))), pts)
        H = G1 * G2
        scale = max(1.0, float(np.linalg.eigvalsh(H)[-1]))
        assert np.linalg.eigvalsh(H).min() >= -1e-8 * scale

    def test_domain_mismatch(self):
        with pytest.raises(DomainError):
            kernel_sum(dot_kernel(3), dot_kernel(4))
        with pytest.raises(DomainError):
            kernel_product(dot_kernel(3), Kernel(3, lambda x, y, Z: 0.0, r=1))


class TestInvariance:
    def test_dot_invariant(self):
        report = check_invariance(dot_kernel(5), trials=100, seed=0)
        assert report.passed
        assert report.max_residual < 1e-12

    def test_bundle_form_invariant(self):
        K = Kernel(5, lambda x, y, Z: float(x @ y), r=2, name="dot-on-bundle")
        report = check_invariance(K, trials=100, seed=0)
        assert report.passed

    def test_scalar_bundle_fn_receives_a_sphere_config(self):
        # the stacked Z of the sampled check reaches a scalar fn as one SphereConfig per pair
        K = Kernel(5, lambda x, y, Z: float(x @ Z.Z @ Z.Z.T @ y), r=2)
        report = check_invariance(K, trials=50, seed=0)
        assert report.passed and report.max_residual < 1e-12

    def test_bundle_check_builds_no_sphere_config(self, monkeypatch):
        K = synth_bundle_kernel(random_feature_expansion(5, 2, d_max=4, seed=1))
        built, init = [], SphereConfig.__init__
        monkeypatch.setattr(SphereConfig, "__init__", lambda self, Z: built.append(1) or init(self, Z))
        assert check_invariance(K, trials=20, seed=0).passed
        assert built == []

    def test_coordinate_kernel_fails(self):
        K = Kernel(3, lambda x, y: float(x[0] * y[0]), name="coord")
        report = check_invariance(K, trials=50, seed=0)
        assert not report.passed

    def test_nan_residual_fails(self):
        report = check_invariance(Kernel(3, lambda x, y: float("nan")), trials=5, seed=0)
        assert np.isnan(report.max_residual) and not report.passed

    def test_bundle_kernel_needs_config(self):
        K = Kernel(3, lambda x, y, Z: 0.0, r=1)
        with pytest.raises(DomainError):
            K(np.eye(3)[0], np.eye(3)[1])
