"""Analysis/synthesis at all three levels: sphere, cylinder, configuration bundle."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_gegenbauer as scipy_gegenbauer

import spherekern.expansion
import spherekern.kernel_core
import spherekern.sphere
from spherekern import (
    BundleExpansion,
    CertificateError,
    DomainError,
    FeatureMapCoefficient,
    InvarianceError,
    Kernel,
    ScalarExpansion,
    SingularityError,
    SphereConfig,
    all_passed,
    basis_for,
    check_invariance,
    check_pd,
    cylinder_coeffs,
    eval_gegenbauer,
    expansion_from_dict,
    gegenbauer_table,
    gram,
    kernel_sum,
    map_t1,
    map_t2,
    musin_coeffs,
    poly_feature_map,
    random_config,
    random_feature_expansion,
    sample_orthogonal,
    sample_sphere,
    schoenberg_coeffs,
    synth_bundle_kernel,
    synth_schoenberg,
)


class TestSchoenbergCoeffs:
    def test_dot_squared(self):
        e = schoenberg_coeffs(lambda x, y: float(x @ y) ** 2, n=3, d_max=4)
        assert np.allclose(e.coefficients, [1 / 3, 0.0, 2 / 3, 0.0, 0.0], atol=1e-12)

    def test_single_gegenbauer_term(self):
        e = schoenberg_coeffs(lambda x, y: float(eval_gegenbauer(0.5, 3, float(x @ y))),
                              n=3, d_max=6)
        want = np.zeros(7)
        want[3] = 1.0
        assert np.allclose(e.coefficients, want, atol=1e-11)

    def test_constant(self):
        e = schoenberg_coeffs(lambda x, y: 1.0, n=4, d_max=5)
        want = np.zeros(6)
        want[0] = 1.0
        assert np.allclose(e.coefficients, want, atol=1e-12)

    def test_non_invariant_rejected(self):
        with pytest.raises(InvarianceError):
            schoenberg_coeffs(lambda x, y: float(x[0] * y[0]), n=3, d_max=4)


class TestSynthSchoenberg:
    def test_e0_is_constant(self):
        K = synth_schoenberg(ScalarExpansion(3, np.array([1.0, 0.0, 0.0])))
        pts = sample_sphere(3, 10, seed=0)
        assert np.allclose(gram(K, pts), 1.0, atol=1e-14)

    def test_roundtrip_random_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            c = rng.uniform(0.0, 1.0, size=11)
            K = synth_schoenberg(ScalarExpansion(4, c))
            e = schoenberg_coeffs(K, n=4, d_max=10, check=False)
            assert np.max(np.abs(e.coefficients - c)) < 1e-9

    @given(n=st.integers(3, 8),
           c=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=13))
    @settings(max_examples=30, deadline=None)
    def test_analysis_inverts_synthesis_property(self, n, c):
        c = np.asarray(c)
        K = synth_schoenberg(ScalarExpansion(n, c))
        e = schoenberg_coeffs(K, n=n, d_max=len(c) - 1, check=False)
        assert np.max(np.abs(e.coefficients - c)) < 1e-9

    def test_nonnegative_coefficients_give_pd(self):
        rng = np.random.default_rng(2)
        c = rng.uniform(0.0, 1.0, size=7)
        K = synth_schoenberg(ScalarExpansion(3, c))
        assert all_passed(check_pd(K, trials=10, m=30, seed=0))


def separable_cylinder(a1, u1, a2, u2, b):
    return a1 * a2 * float(u1 @ u2)


class TestCylinderCoeffs:
    def test_separable_kernel(self):
        for n in (3, 4):
            alpha = n / 2 - 1
            c = cylinder_coeffs(separable_cylinder, b=0.0, a1=0.7, a2=0.4, n=n, d_max=5)
            want = np.zeros(6)
            want[1] = 0.7 * 0.4 / (2 * alpha)
            assert np.allclose(c, want, atol=1e-11)

    def test_fiber_only_kernel(self):
        K = lambda a1, u1, a2, u2, b: np.exp(a1 + a2) + b
        c = cylinder_coeffs(K, b=0.25, a1=0.3, a2=0.9, n=3, d_max=5)
        assert c[0] == pytest.approx(np.exp(1.2) + 0.25, abs=1e-12)
        assert np.max(np.abs(c[1:])) < 1e-12

    def test_swap_symmetry(self):
        K = lambda a1, u1, a2, u2, b: np.exp(a1 * a2 * float(u1 @ u2))
        c12 = cylinder_coeffs(K, b=0.0, a1=0.8, a2=0.5, n=4, d_max=6)
        c21 = cylinder_coeffs(K, b=0.0, a1=0.5, a2=0.8, n=4, d_max=6)
        assert np.max(np.abs(c12 - c21)) < 1e-10

    def test_horizontal_invariance_required(self):
        K = lambda a1, u1, a2, u2, b: a1 * a2 * float(u1[0] * u2[0])
        with pytest.raises(InvarianceError):
            cylinder_coeffs(K, b=0.0, a1=1.0, a2=1.0, n=3, d_max=3)

    def test_monte_carlo_cross_check(self):
        # independent route: the full double integral as the sample ratio
        # E[K P_k] / E[P_k^2] over uniform sphere pairs, with no 1-D reduction
        K = lambda a1, u1, a2, u2, b: np.exp(a1 * a2 * np.sum(u1 * u2, axis=-1))
        n, d_max = 4, 4
        c = cylinder_coeffs(K, b=0.0, a1=0.8, a2=0.5, n=n, d_max=d_max, seed=0)
        rng = np.random.default_rng(0)
        u, w = sample_sphere(n, 200_000, rng), sample_sphere(n, 200_000, rng)
        tab = gegenbauer_table(n / 2 - 1, d_max, np.sum(u * w, axis=1))
        mc = (tab @ K(0.8, u, 0.5, w, 0.0)) / np.sum(tab * tab, axis=1)
        assert c[0] > 0
        assert np.max(np.abs(mc - c)) <= 1e-2 * max(1.0, float(np.max(np.abs(c))))

    def test_known_coefficient_roundtrip(self):
        alpha = 0.5
        funcs = [lambda a: 1.0, lambda a: a, lambda a: a * a]

        def K(a1, u1, a2, u2, b):
            t = float(u1 @ u2)
            return sum(f(a1) * f(a2) * eval_gegenbauer(alpha, k, t)
                       for k, f in enumerate(funcs))

        a1, a2 = 0.6, -0.3
        c = cylinder_coeffs(K, b=0.0, a1=a1, a2=a2, n=3, d_max=4)
        want = np.array([f(a1) * f(a2) for f in funcs] + [0.0, 0.0])
        assert np.max(np.abs(c - want)) < 1e-8

    def test_bitwise_per_draw_oracle(self):
        kernels = [
            separable_cylinder,
            lambda a1, u1, a2, u2, b: np.exp(a1 * a2 * float(u1 @ u2)) + b,
            lambda a1, u1, a2, u2, b: np.exp(a1 * a2 * np.sum(u1 * u2, axis=-1)),
            lambda a1, u1, a2, u2, b: sum((a1 * a2) ** k * eval_gegenbauer(0.5 + k / 3, k, float(u1 @ u2))
                                          for k in range(4)),
            # residuals around INVARIANCE_TOL: some (n, seed) pass, others raise
            lambda a1, u1, a2, u2, b: a1 * a2 * float(u1 @ u2) + 1.5e-8 * float(u1[0] * u2[0]),
            lambda a1, u1, a2, u2, b: a1 * a2 * float(u1[0] * u2[0]),
        ]
        verdicts = set()
        for K in kernels:
            for n in (3, 4, 6):
                for seed in range(3):
                    args = dict(b=0.25, a1=0.9, a2=-0.6, n=n, d_max=6, seed=seed)
                    want = cylinder_oracle(K, **args)
                    verdicts.add(want is None)
                    if want is None:
                        with pytest.raises(InvarianceError, match="not horizontally invariant"):
                            cylinder_coeffs(K, **args)
                    else:
                        assert cylinder_coeffs(K, **args).tobytes() == want.tobytes()
        assert verdicts == {True, False}

    def test_one_invariance_check_per_call(self, monkeypatch):
        calls, check = [], spherekern.expansion.check_invariance
        monkeypatch.setattr(spherekern.expansion, "check_invariance",
                            lambda K, **kw: calls.append((K.n, K.r, kw)) or check(K, **kw))
        cylinder_coeffs(separable_cylinder, b=0.0, a1=0.7, a2=0.4, n=4, d_max=5, seed=3)
        assert calls == [(4, 0, {"trials": 50, "seed": 3, "tol": spherekern.expansion.INVARIANCE_TOL})]


def cylinder_oracle(K, b, a1, a2, n, d_max, seed):
    """cylinder_coeffs one draw and one node at a time; None where its check rejects K."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        u1, u2 = sample_sphere(n, 2, rng)
        M = sample_orthogonal(n, rng)
        worst = max(worst, abs(K(a1, M @ u1, a2, M @ u2, b) - K(a1, u1, a2, u2, b)))
    if worst > 1e-8:
        return None
    e1 = np.eye(n)[0]

    def profile(t):
        P = np.zeros((len(t), n))
        P[:, :2] = np.column_stack([t, np.sqrt(np.maximum(1.0 - t * t, 0.0))])
        return [K(a1, e1, a2, p, b) for p in P]

    return basis_for(n / 2 - 1, d_max).expand(profile)


class TestFailBeforeSampling:
    """A bad n or d_max raises before any sampled check evaluates the kernel."""

    @pytest.mark.parametrize("call", [
        lambda fn: schoenberg_coeffs(fn, 2),
        lambda fn: schoenberg_coeffs(fn, 3, d_max=-1),
        lambda fn: cylinder_coeffs(lambda a1, u1, a2, u2, b: fn(u1, u2), b=0.0, a1=1.0, a2=1.0, n=2),
        lambda fn: cylinder_coeffs(lambda a1, u1, a2, u2, b: fn(u1, u2), b=0.0, a1=1.0, a2=1.0, n=3, d_max=-1),
        lambda fn: musin_coeffs(Kernel(4, fn), SphereConfig(np.eye(4)[:, :1]), d_max=-1),
    ], ids=["schoenberg-n", "schoenberg-d_max", "cylinder-n", "cylinder-d_max", "musin-d_max"])
    def test_counting_kernel_sees_no_call(self, call):
        calls = []
        with pytest.raises(DomainError):
            call(lambda x, y: calls.append(1) or 1.0)
        assert calls == []


class TestBundleSynthesis:
    def test_constant_coefficient_gives_constant_kernel(self):
        c0 = FeatureMapCoefficient(fn=lambda U, Y: np.ones((len(U), 1)))
        K = synth_bundle_kernel(BundleExpansion(n=5, r=2, coefficients=[c0]))
        rng = np.random.default_rng(3)
        cfg = random_config(5, 2, rng)
        for _ in range(10):
            x, y = sample_sphere(5, 2, rng)
            assert K(x, y, cfg) == pytest.approx(1.0, abs=1e-12)

    def test_synthesized_kernel_invariant_and_pd(self):
        e = random_feature_expansion(5, 2, d_max=4, seed=0)
        K = synth_bundle_kernel(e)
        inv = check_invariance(K, trials=100, seed=0)
        assert inv.passed and inv.max_residual < 1e-9
        reports = check_pd(K, trials=5, m=25, seed=0, tol=1e-7)
        assert all_passed(reports)

    def test_user_coefficient_prechecked(self):
        bad = lambda y1, y2, Y: -float(y1 @ y2)
        e = BundleExpansion(n=5, r=2, coefficients=[bad])
        with pytest.raises(CertificateError):
            synth_bundle_kernel(e)

    def test_one_check_pd_per_precheck(self, monkeypatch):
        calls, check = [], spherekern.expansion.check_pd
        monkeypatch.setattr(spherekern.expansion, "check_pd",
                            lambda K, **kw: calls.append((K.n, K.r, kw["trials"], kw["m"])) or check(K, **kw))
        good = lambda y1, y2, Y: 1.0 + float(y1 @ y2)
        synth_bundle_kernel(BundleExpansion(n=5, r=2, coefficients=[good, poly_feature_map(2), good]))
        assert calls == [(5, 2, 2, 25)] * 2

    def test_good_user_coefficient_accepted(self):
        good = lambda y1, y2, Y: 1.0 + float(y1 @ y2)
        e = BundleExpansion(n=5, r=2, coefficients=[good])
        K = synth_bundle_kernel(e)
        rng = np.random.default_rng(4)
        cfg = random_config(5, 2, rng)
        x, y = sample_sphere(5, 2, rng)
        assert np.isfinite(K(x, y, cfg))

    def test_singular_argument_raises(self):
        c0 = FeatureMapCoefficient(fn=lambda U, Y: np.ones((len(U), 1)))
        K = synth_bundle_kernel(BundleExpansion(n=4, r=1, coefficients=[c0]))
        cfg = SphereConfig(np.eye(4)[:, :1])
        x_in_range = np.array([1.0, 0.0, 0.0, 0.0])
        y = np.array([0.0, 1.0, 0.0, 0.0])
        with pytest.raises(SingularityError):
            K(x_in_range, y, cfg)

    def test_needs_room_below_the_fiber(self):
        with pytest.raises(DomainError):
            BundleExpansion(n=3, r=2, coefficients=[1.0])
        with pytest.raises(DomainError, match=r"fiber sphere S\^1 needs n - r >= 3"):
            random_feature_expansion(4, 2)

    def test_needs_a_configuration(self):
        with pytest.raises(DomainError, match="ScalarExpansion"):
            BundleExpansion(n=3, r=0, coefficients=[0.5, 0.25])

    @given(n=st.integers(4, 7), d_max=st.integers(0, 5), seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_synthesized_kernel_invariant_property(self, n, d_max, seed, data):
        r = data.draw(st.integers(1, min(3, n - 3)), label="r")
        K = synth_bundle_kernel(random_feature_expansion(n, r, d_max=d_max, seed=seed), seed=seed)
        rep = check_invariance(K, trials=50, seed=seed, tol=1e-9)
        assert rep.passed, rep.max_residual


def bundle_oracle(e, X, Y, cfg):
    """sum_i c_i(Z^T x, Z^T y, Z^T Z) P_i(t) for every row pair, built apart from synth_bundle_kernel.

    t = v_x . v_y from map_t2 (the QR complement basis, not the Schur form
    of inner_z), each feature vector g_i(Z^T x) from a one-row `features`
    call, other coefficient kernels called per pair, and P_i from scipy.
    """
    Yg = cfg.gram
    splits = [[map_t2(cfg, p) for p in pts] for pts in (X, Y)]
    T = np.clip(np.array([[vx @ vy for vy, _ in splits[1]] for vx, _ in splits[0]]), -1.0, 1.0)
    G = np.zeros(T.shape)
    for i, ci in enumerate(e.coefficients):
        if isinstance(ci, FeatureMapCoefficient):
            gx, gy = ([ci.features(u[None, :], Yg)[0] for _, u in sp] for sp in splits)
            C = np.array([[a @ b for b in gy] for a in gx])
        else:
            C = np.array([[ci(ux, uy, Yg) for _, uy in splits[1]] for _, ux in splits[0]])
        G += C * scipy_gegenbauer(i, e.alpha, T)
    return G


def sphere_oracle(e, X, Y):
    """sum_k c_k P_k(x . y) for every row pair, with P_k from scipy, one pair at a time."""
    T = np.clip(np.array([[float(np.dot(x, y)) for y in Y] for x in X]), -1.0, 1.0)
    return sum(c * scipy_gegenbauer(k, e.alpha, T) for k, c in enumerate(e.coefficients))


def oracle(e, X, Y, cfg=None):
    return sphere_oracle(e, X, Y) if cfg is None else bundle_oracle(e, X, Y, cfg)


def assert_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * max(1.0, float(np.max(np.abs(want))))


def assert_block_matches_scalar(K, pts, cfg=None, e=None):
    """gram of K is exactly symmetric and matches the pair-by-pair oracle of e, and so does one scalar call."""
    Gb = gram(K, pts, cfg)
    assert np.array_equal(Gb, Gb.T)
    want = oracle(e, pts, pts, cfg)
    assert_close(Gb, want)
    args = (pts[0], pts[-1]) if cfg is None else (pts[0], pts[-1], cfg)
    assert K(*args) == pytest.approx(want[0, -1], rel=1e-12, abs=1e-12)


def all_pairs(K, X, Y, cfg=None):
    """K over the rectangle of pairs X x Y, from one pairs call on the stacked rows."""
    i, j = np.meshgrid(np.arange(len(X)), len(X) + np.arange(len(Y)), indexing="ij")
    return K.pairs(np.vstack([X, Y]), i.ravel(), j.ravel(), cfg).reshape(len(X), len(Y))


def invariance_oracle(K, trials, seed):
    """check_invariance's max residual, replayed one trial at a time through scalar calls."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x, y = sample_sphere(K.n, 2, rng)
        M = sample_orthogonal(K.n, rng)
        if K.r:
            cfg = random_config(K.n, K.r, rng)
            worst = max(worst, abs(K(x, y, cfg) - K(M @ x, M @ y, SphereConfig(M @ cfg.Z))))
        else:
            worst = max(worst, abs(K(x, y) - K(M @ x, M @ y)))
    return worst


def stacked_residuals_oracle(K, trials, seed):
    """_rotation_residuals of a bundle kernel, each pair's Z stored column by column and each MZ row by row."""
    n, r = K.n, K.r
    D = np.random.default_rng(seed).standard_normal((trials, 2 * n + n * n + r * n))
    U = np.concatenate([D[:, :2 * n], D[:, 2 * n + n * n:]], axis=1).reshape(trials, 2 + r, n)
    U /= np.linalg.norm(U, axis=2, keepdims=True)
    keep = np.linalg.svd(np.swapaxes(U[:, 2:], 1, 2), compute_uv=False)[:, -1] > spherekern.sphere._MIN_SINGULAR
    P, Zt = U[keep, :2], U[keep, 2:]
    M = spherekern.sphere._haar(D[keep, 2 * n:2 * n + n * n].reshape(-1, n, n))
    Z = np.swapaxes(np.repeat(Zt, 2, axis=0), 1, 2)  # the transpose of a C-ordered stack of Z^T
    MZ = np.repeat(M @ np.swapaxes(Zt, 1, 2), 2, axis=0)
    i = np.arange(0, 2 * len(P), 2)
    lhs = K.pairs(P.reshape(-1, n), i, i + 1, Z)
    rhs = K.pairs((M[:, None] @ P[..., None])[..., 0].reshape(-1, n), i, i + 1, MZ)
    return np.abs(lhs - rhs)


class TestBlockEvaluation:
    @given(n=st.integers(4, 7), d_max=st.integers(0, 5), m=st.integers(2, 30),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_bundle_block_matches_scalar(self, n, d_max, m, seed, data):
        r = data.draw(st.integers(1, min(3, n - 3)), label="r")
        e = random_feature_expansion(n, r, d_max=d_max, seed=seed)
        K = synth_bundle_kernel(e, seed=seed)
        rng = np.random.default_rng(seed)
        cfg = random_config(n, r, rng)
        assert_block_matches_scalar(K, sample_sphere(n, m, rng), cfg, e)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_schoenberg_block_matches_scalar(self, n):
        rng = np.random.default_rng(n)
        for c in (rng.uniform(0.0, 1.0, 13), rng.standard_normal(13)):
            e = ScalarExpansion(n, c)
            assert_block_matches_scalar(synth_schoenberg(e), sample_sphere(n, 40, rng), e=e)

    def test_rectangular_block_matches_fn(self):
        rng = np.random.default_rng(15)
        cfg = random_config(6, 2, rng)
        X, Y = sample_sphere(6, 4, rng), sample_sphere(6, 7, rng)
        e = random_feature_expansion(6, 2, d_max=3, seed=15)
        es = ScalarExpansion(6, rng.uniform(0.0, 1.0, 6))
        assert_close(all_pairs(synth_bundle_kernel(e), X, Y, cfg), bundle_oracle(e, X, Y, cfg))
        assert_close(all_pairs(synth_schoenberg(es), X, Y), sphere_oracle(es, X, Y))

    def test_mixed_coefficient_block_matches_oracle(self):
        good = lambda y1, y2, Y: 1.0 + float(y1 @ y2)
        e = random_feature_expansion(5, 2, d_max=2, seed=16)
        e.coefficients.insert(1, good)
        K = synth_bundle_kernel(e)
        rng = np.random.default_rng(16)
        cfg = random_config(5, 2, rng)
        assert_block_matches_scalar(K, sample_sphere(5, 12, rng), cfg, e)

    def test_scalar_call_is_one_perp_cosines(self, monkeypatch):
        K = synth_bundle_kernel(random_feature_expansion(5, 2, d_max=4, seed=17))
        rng = np.random.default_rng(17)
        cfg = random_config(5, 2, rng)
        x, y = sample_sphere(5, 2, rng)
        calls = []
        perp = spherekern.expansion.perp_cosines
        monkeypatch.setattr(spherekern.expansion, "perp_cosines", lambda *a: calls.append(1) or perp(*a))
        K(x, y, cfg)
        assert len(calls) == 1

    def test_singular_point_raises_on_block_path(self):
        c0 = FeatureMapCoefficient(fn=lambda U, Y: np.ones((len(U), 1)))
        K = synth_bundle_kernel(BundleExpansion(n=4, r=1, coefficients=[c0]))
        cfg = SphereConfig(np.eye(4)[:, :1])
        pts = np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(SingularityError):
            gram(K, pts, cfg)

    def test_feature_maps_see_each_gram_row_once(self):
        e = random_feature_expansion(5, 2, d_max=4, seed=18)
        rows = [[] for _ in e.coefficients]
        for c, seen in zip(e.coefficients, rows):
            c.fn = (lambda fn, seen: lambda U, Y: seen.append(len(U)) or fn(U, Y))(c.fn, seen)
        K = synth_bundle_kernel(e)
        rng = np.random.default_rng(18)
        cfg = random_config(5, 2, rng)
        for m in (24, 40):
            for seen in rows:
                seen.clear()
            gram(K, sample_sphere(5, m, rng), cfg)
            assert all(0 < sum(seen) <= m for seen in rows)

    def test_features_stack_feature_vectors(self):
        c = poly_feature_map(2, degree=2, s=3, seed=14)
        U = np.array([[0.3, -0.2], [0.1, 0.5], [0.0, 0.4]])
        Y = np.array([[1.0, 0.2], [0.2, 1.0]])
        F = c.features(U, Y)
        assert F.shape == (3, 3)
        assert np.array_equal(F, c.fn(U, Y))
        for j in range(3):
            assert np.max(np.abs(F[j] - c.features(U[j:j + 1], Y)[0])) <= 1e-15
        assert c(U[0], U[2], Y) == pytest.approx(float(F[0] @ F[2]), abs=1e-15)
        assert np.array_equal(c.features(U, np.stack([Y] * 3)), F)


class TestBatchedChecks:
    @given(n=st.integers(3, 7), d_max=st.integers(0, 5), trials=st.integers(1, 30),
           seed=st.integers(0, 2 ** 32 - 1), bundle=st.booleans(), invariant=st.booleans(),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_check_invariance_matches_scalar_replay(self, n, d_max, trials, seed, bundle, invariant, data):
        if bundle and n >= 4:
            r = data.draw(st.integers(1, min(3, n - 3)), label="r")
            K = synth_bundle_kernel(random_feature_expansion(n, r, d_max=d_max, seed=seed))
        else:
            K = synth_schoenberg(ScalarExpansion(n, np.random.default_rng(seed).uniform(0.0, 1.0, d_max + 1)))
        if not invariant:
            # a scalar part that sees the coordinates: its residuals pin down every draw
            K = kernel_sum(K, Kernel(n, lambda x, y, *Z: float(x[0] * y[-1]), r=K.r))
        rep = check_invariance(K, trials=trials, seed=seed)
        assert abs(rep.max_residual - invariance_oracle(K, trials, seed)) <= 1e-12

    @pytest.mark.parametrize("n, r", [(5, 1), (5, 2), (6, 3), (7, 2)])
    def test_bundle_residual_bits_follow_the_stacking_layout(self, n, r):
        # stacked matmuls round by memory layout, so the bits pin how each pair's Z is stored
        for seed in range(4):
            K = synth_bundle_kernel(random_feature_expansion(n, r, d_max=4, seed=seed))
            want = stacked_residuals_oracle(K, 20, seed)
            got = spherekern.kernel_core._rotation_residuals(K, np.random.default_rng(seed), 20, n, lambda M: M)
            assert got.tobytes() == want.tobytes()
            if len(want) == 20:
                assert check_invariance(K, trials=20, seed=seed).max_residual == want.max()

    def test_batch_with_a_singular_row_is_drawn_again(self, monkeypatch):
        kc, n = spherekern.kernel_core, 5
        K = synth_bundle_kernel(random_feature_expansion(n, 1, d_max=3, seed=3))
        seen = {"draws": 0, "blocks": []}

        class FirstXInRangeZ(np.random.Generator):
            """Copies the first block's first x onto its Z (a trial's last n normals)."""

            def standard_normal(self, size=None, dtype=np.float64, out=None):
                block = super().standard_normal(size, dtype, out)
                if not seen["blocks"]:
                    block[0, -n:] = block[0, :n]
                seen["blocks"].append(block.shape)
                return block

        loop = kc._max_over_draws

        def counted_loop(draw, samples, what):
            return loop(lambda count: seen.__setitem__("draws", seen["draws"] + 1) or draw(count), samples, what)

        monkeypatch.setattr(kc, "_max_over_draws", counted_loop)
        rep = check_invariance(K, trials=4, seed=FirstXInRangeZ(np.random.PCG64(5)))
        # the first batch's first x lies in range(Z): that whole batch is drawn again
        assert seen["draws"] == 2 and seen["blocks"] == [(4, 2 * n + n * n + n)] * 2
        assert rep.passed and rep.trials == 4


def invariant_test_kernel(n, coeffs):
    return synth_schoenberg(ScalarExpansion(n, np.asarray(coeffs, dtype=float)))


class TestMusin:
    def test_dot_kernel_structure(self):
        cfg = SphereConfig(np.eye(4)[:, :1])
        tc = musin_coeffs(lambda x, y: float(x @ y), cfg, d_max=3)
        rng = np.random.default_rng(5)
        for _ in range(20):
            u1, u2 = rng.uniform(-0.9, 0.9, size=2)
            d = tc.values(np.array([u1]), np.array([u2]))
            assert d[0] == pytest.approx(u1 * u2, abs=1e-10)
            want1 = np.sqrt(1 - u1 ** 2) * np.sqrt(1 - u2 ** 2)
            assert d[1] == pytest.approx(want1, abs=1e-10)
            assert np.max(np.abs(d[2:])) < 1e-10

    def test_constant_kernel(self):
        cfg = SphereConfig(np.eye(5)[:, :2])
        tc = musin_coeffs(lambda x, y: 1.0, cfg, d_max=4)
        d = tc.values(np.array([0.3, 0.2]), np.array([-0.1, 0.4]))
        assert d[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(d[1:])) < 1e-12

    def test_reconstruction(self):
        rng = np.random.default_rng(6)
        K = invariant_test_kernel(4, rng.uniform(0.0, 1.0, size=7))
        cfg = random_config(4, 1, rng)
        tc = musin_coeffs(K, cfg, d_max=6)
        worst = 0.0
        for _ in range(200):
            x, y = sample_sphere(4, 2, rng)
            worst = max(worst, abs(tc.reconstruct(x, y) - K(x, y)))
        assert worst < 1e-8

    def test_reconstruct_singular_in_range(self):
        cfg = SphereConfig(np.eye(4)[:, :1])
        tc = musin_coeffs(lambda x, y: float(x @ y), cfg, d_max=2)
        y = np.array([0.0, 0.6, 0.8, 0.0])
        for x in (np.eye(4)[0], -np.eye(4)[0]):
            with pytest.raises(SingularityError):
                tc.reconstruct(x, y)
            with pytest.raises(SingularityError):
                tc.reconstruct(y, x)

    def test_matches_feature_map_coefficients(self):
        e = random_feature_expansion(5, 2, d_max=3, seed=7)
        Kb = synth_bundle_kernel(e)
        rng = np.random.default_rng(8)
        cfg = random_config(5, 2, rng)
        K_fixed = Kernel(5, lambda x, y: Kb(x, y, cfg), name="fixed-Z slice")
        tc = musin_coeffs(K_fixed, cfg, d_max=3)
        Y = cfg.gram
        for _ in range(10):
            x, y = sample_sphere(5, 2, rng)
            u1 = cfg.Z.T @ x
            u2 = cfg.Z.T @ y
            d = tc.values(u1, u2)
            want = np.array([ci(u1, u2, Y) for ci in e.coefficients])
            assert np.max(np.abs(d - want)) < 1e-8

    def test_orbit_well_defined(self):
        rng = np.random.default_rng(9)
        K = invariant_test_kernel(4, rng.uniform(0.0, 1.0, size=6))
        cfg = random_config(4, 1, rng)
        M = sample_orthogonal(4, rng)
        moved = SphereConfig(M @ cfg.Z)
        tc1 = musin_coeffs(K, cfg, d_max=5)
        tc2 = musin_coeffs(K, moved, d_max=5)
        for _ in range(10):
            u1 = rng.uniform(-0.9, 0.9, size=1)
            u2 = rng.uniform(-0.9, 0.9, size=1)
            assert np.max(np.abs(tc1.values(u1, u2) - tc2.values(u1, u2))) < 1e-8

    def test_fiber_boundary_and_outside(self):
        cfg = SphereConfig(np.eye(4)[:, :1])
        tc = musin_coeffs(lambda x, y: float(x @ y), cfg, d_max=2)
        inside = np.array([0.5])
        with pytest.raises(SingularityError):
            tc.values(np.array([1.0]), inside)
        with pytest.raises(DomainError):
            tc.values(np.array([1.5]), inside)

    def test_thin_fiber_rejected(self):
        cfg = SphereConfig(np.eye(4)[:, :2])
        with pytest.raises(DomainError):
            musin_coeffs(lambda x, y: float(x @ y), cfg, d_max=2)

    def test_stabilizer_invariance_required(self):
        cfg = SphereConfig(np.eye(4)[:, :1])
        with pytest.raises(InvarianceError):
            musin_coeffs(lambda x, y: float(x[1] * y[1]), cfg, d_max=2)


def transported_oracle(tc, u1, u2):
    """values() for one pair, spelled per call: map_t1 at _geodesic's rows, then basis.expand."""
    cfg = tc.cfg

    def along_geodesic(t):
        V = spherekern.expansion._geodesic(cfg.n - cfg.r, t)
        P = np.vstack([map_t1(cfg, V[0], u1), map_t1(cfg, V[1:], u2)])
        return tc.K.pairs(P, np.zeros(len(t), dtype=int), np.arange(1, len(P)))

    return basis_for(tc.alpha, tc.d_max).expand(along_geodesic)


def reconstruct_oracle(tc, x, y):
    """reconstruct() for one pair, spelled per call: the oracle's coefficients summed by basis.synth."""
    t, A, _ = spherekern.sphere.perp_cosines(np.vstack([x, y]), [0], [1], tc.cfg)
    return basis_for(tc.alpha, tc.d_max).synth(transported_oracle(tc, A[0], A[1]), t[0])


def musin_block(n, r, d_max, rows, seed, scalar_part=False):
    """A transported expansion of a p.d. invariant kernel, row blocks X, Y of points, and sup |K| (K(x, x))."""
    rng = np.random.default_rng(seed)
    K = invariant_test_kernel(n, rng.uniform(0.0, 1.0, 6))
    if scalar_part:
        K = kernel_sum(K, Kernel(n, lambda x, y: float(x @ y) ** 3 + 1.0))
    cfg = random_config(n, r, rng)
    X, Y = sample_sphere(n, rows, rng), sample_sphere(n, rows, rng)
    return musin_coeffs(K, cfg, d_max=d_max, check=False), X, Y, K(X[0], X[0])


class TestMusinBlocks:
    @pytest.mark.parametrize("n, r, d_max", [(4, 1, 8), (5, 2, 12), (8, 3, 6), (7, 1, 0)])
    def test_block_equals_per_row_calls(self, n, r, d_max):
        tc, X, Y, scale = musin_block(n, r, d_max, 40, seed=n + 10 * r)
        Z = tc.cfg.Z
        rec, vals = tc.reconstruct(X, Y), tc.values(X @ Z, Y @ Z)
        assert rec.shape == (40,) and vals.shape == (40, d_max + 1)
        one = [tc.reconstruct(x, y) for x, y in zip(X, Y)]
        assert all(type(v) is float for v in one)
        assert np.max(np.abs(rec - one)) <= 1e-14 * scale
        assert np.max(np.abs(vals - [tc.values(a, b) for a, b in zip(X @ Z, Y @ Z)])) <= 1e-14 * scale
        # a one-row block is a block; 1-D arguments are the one-pair call
        assert tc.reconstruct(X[:1], Y[:1]).shape == (1,) and tc.values(Z.T @ X[0], Z.T @ Y[0]).shape == (d_max + 1,)

    @given(n=st.integers(4, 8), d_max=st.integers(0, 12), rows=st.integers(1, 6),
           seed=st.integers(0, 2 ** 32 - 1), scalar_part=st.booleans(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_block_matches_per_call_oracle(self, n, d_max, rows, seed, scalar_part, data):
        r = data.draw(st.integers(1, n - 3), label="r")
        tc, X, Y, scale = musin_block(n, r, d_max, rows, seed, scalar_part)
        A, B = X @ tc.cfg.Z, Y @ tc.cfg.Z
        want = np.array([transported_oracle(tc, a, b) for a, b in zip(A, B)])
        assert np.max(np.abs(tc.values(A, B) - want)) <= 1e-13 * scale
        assert np.max(np.abs(tc.values(A[0], B[0]) - want[0])) <= 1e-13 * scale
        want = np.array([reconstruct_oracle(tc, x, y) for x, y in zip(X, Y)])
        assert np.max(np.abs(tc.reconstruct(X, Y) - want)) <= 1e-13 * scale
        assert abs(tc.reconstruct(X[-1], Y[-1]) - want[-1]) <= 1e-13 * scale

    def test_bad_rows_raise(self):
        tc, X, Y, _ = musin_block(5, 1, 4, 6, seed=3)
        Z = tc.cfg.Z
        X[3] = Z[:, 0]  # one row in range(Z)
        with pytest.raises(SingularityError):
            tc.reconstruct(X, Y)
        with pytest.raises(SingularityError):
            tc.reconstruct(Y, X)
        U = Y @ Z
        outside = U.copy()
        outside[2] = 1.5
        with pytest.raises(DomainError):
            tc.values(U, outside)
        for bad in ((X[:5], Y), (X, Y[:, :4]), (X[None], Y[None]), (X[:0], Y[:0])):
            with pytest.raises(DomainError):
                tc.reconstruct(*bad)
        for bad in ((U[:5], U), (U, np.ones((6, 2)) * 0.1), (U[None], U[None]), (U[:0], U[:0])):
            with pytest.raises(DomainError):
                tc.values(*bad)

    def test_one_evaluator_call_per_block(self):
        base = invariant_test_kernel(5, [0.5, 0.3, 0.2])
        calls = []
        K = Kernel.from_pairs(5, lambda P, i, j: calls.append(len(i)) or base.pairs(P, i, j), 0, "counted")
        tc, X, Y, _ = musin_block(5, 2, 6, 7, seed=4)
        tc = musin_coeffs(K, tc.cfg, d_max=6, check=False)
        tc.reconstruct(X, Y)
        tc.values(X @ tc.cfg.Z, Y @ tc.cfg.Z)
        tc.reconstruct(X[0], Y[0])
        assert calls == [7 * (6 + 8)] * 2 + [6 + 8]


class TestSliceNotPd:
    """A p.d. cylinder kernel whose fixed-fiber slice fails to be p.d."""

    def test_parent_kernel_is_pd(self):
        rng = np.random.default_rng(10)
        a = rng.uniform(-1.0, 1.0, size=30)
        u = sample_sphere(3, 30, rng)
        feats = a[:, None] * u
        G = np.array([[separable_cylinder(a[i], u[i], a[j], u[j], 0.0)
                       for j in range(30)] for i in range(30)])
        assert np.allclose(G, feats @ feats.T, atol=1e-12)
        assert np.linalg.eigvalsh(G).min() >= -1e-10

    def test_slice_fails(self):
        K_slice = Kernel(3, lambda u1, u2: separable_cylinder(1.0, u1, -1.0, u2, 0.0))
        e1 = np.array([1.0, 0.0, 0.0])
        G = gram(K_slice, np.array([e1, -e1]))
        assert np.allclose(G, [[-1.0, 1.0], [1.0, -1.0]], atol=1e-14)
        assert np.linalg.eigvalsh(G).min() == pytest.approx(-2.0, abs=1e-12)

    def test_slice_coefficient_is_negative(self):
        c = cylinder_coeffs(separable_cylinder, b=0.0, a1=1.0, a2=-1.0, n=3, d_max=3)
        assert c[1] < 0


class TestSerialization:
    def test_scalar_roundtrip(self):
        e = ScalarExpansion(4, np.array([0.2, 0.0, 0.5, 0.3]))
        d = json.loads(json.dumps(e.to_dict()))
        e2 = expansion_from_dict(d)
        assert isinstance(e2, ScalarExpansion)
        assert e2.n == 4
        assert np.allclose(e2.coefficients, e.coefficients, atol=0)
        pts = sample_sphere(4, 6, seed=11)
        assert np.allclose(gram(synth_schoenberg(e), pts),
                           gram(synth_schoenberg(e2), pts), atol=1e-15)

    def test_bundle_roundtrip(self):
        e = random_feature_expansion(5, 2, d_max=2, seed=12)
        d = json.loads(json.dumps(e.to_dict()))
        e2 = expansion_from_dict(d)
        assert isinstance(e2, BundleExpansion)
        K1 = synth_bundle_kernel(e)
        K2 = synth_bundle_kernel(e2)
        rng = np.random.default_rng(13)
        cfg = random_config(5, 2, rng)
        for _ in range(10):
            x, y = sample_sphere(5, 2, rng)
            assert K1(x, y, cfg) == pytest.approx(K2(x, y, cfg), abs=1e-12)

    def test_non_feature_map_not_serializable(self):
        e = BundleExpansion(n=5, r=2, coefficients=[lambda y1, y2, Y: 1.0])
        with pytest.raises(DomainError):
            e.to_dict()

    def test_poly_feature_map_weights_roundtrip(self):
        c = poly_feature_map(2, degree=2, s=3, seed=14)
        c2 = poly_feature_map(2, degree=2, weights=c.spec["weights"])
        y1 = np.array([0.3, -0.2])
        y2 = np.array([0.1, 0.5])
        Y = np.array([[1.0, 0.2], [0.2, 1.0]])
        assert c(y1, y2, Y) == pytest.approx(c2(y1, y2, Y), abs=1e-15)

    def test_unknown_dict_rejected(self):
        with pytest.raises(DomainError):
            expansion_from_dict({"n": 3})
