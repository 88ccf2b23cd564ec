"""Configurations, projectors, coordinate maps, stabilizers, samplers."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spherekern import (
    DomainError,
    RankError,
    SingularityError,
    SphereConfig,
    inner_z,
    map_t1,
    map_t2,
    projectors,
    random_config,
    sample_orthogonal,
    sample_sphere,
    stabilizer_element,
)
from spherekern.sphere import TOL_PERP, _max_over_draws, perp_cosines

E1_3 = np.eye(3)[:, :1]


class TestConfig:
    def test_unit_column_enforced(self):
        with pytest.raises(DomainError):
            SphereConfig(np.array([[1.0], [1.0], [0.0]]))

    def test_rank_flag(self):
        cfg = SphereConfig(np.column_stack([np.eye(2)[:, 0], np.eye(2)[:, 0]]))
        assert not cfg.full_rank
        with pytest.raises(RankError):
            projectors(cfg)

    def test_empty_configuration(self):
        cfg = SphereConfig(np.zeros((4, 0)))
        assert cfg.full_rank
        pp = cfg.proj
        assert np.allclose(pp.Pi, 0)
        assert np.allclose(pp.PiPerp, np.eye(4))
        x = np.array([0.0, 1.0, 0.0, 0.0])
        assert inner_z(cfg, x, x) == pytest.approx(1.0)

    def test_extend(self):
        cfg = SphereConfig(E1_3)
        ext = cfg.extend(np.array([0.0, 1.0, 0.0]))
        assert ext.r == 2
        assert ext.full_rank


class TestProjectors:
    def test_axis_examples(self):
        pp = projectors(SphereConfig(E1_3))
        assert np.allclose(pp.Pi, np.diag([1.0, 0.0, 0.0]), atol=1e-14)
        assert np.allclose(pp.PiPerp, np.diag([0.0, 1.0, 1.0]), atol=1e-14)
        pp2 = projectors(SphereConfig(np.eye(3)[:, :2]))
        assert np.allclose(pp2.Pi, np.diag([1.0, 1.0, 0.0]), atol=1e-14)

    def test_invariants_random(self):
        rng = np.random.default_rng(0)
        count = 0
        while count < 1000:
            n = int(rng.integers(3, 9))
            r = int(rng.integers(1, n - 1))
            cfg = random_config(n, r, rng)
            pp = cfg.proj
            eye = np.eye(n)
            assert np.max(np.abs(pp.Pi @ pp.Pi - pp.Pi)) < 1e-10
            assert np.max(np.abs(pp.PiPerp @ pp.PiPerp - pp.PiPerp)) < 1e-10
            assert np.max(np.abs(pp.Pi + pp.PiPerp - eye)) < 1e-10
            assert np.max(np.abs(pp.Pi @ cfg.Z - cfg.Z)) < 1e-10
            assert np.max(np.abs(pp.ort.T @ pp.ort - np.eye(n - r))) < 1e-10
            assert np.max(np.abs(pp.Pi @ pp.ort)) < 1e-10
            count += 1

    def test_phi_isometry(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(3, 9))
            r = int(rng.integers(1, n - 1))
            cfg = random_config(n, r, rng)
            pp = cfg.proj
            a1 = pp.PiPerp @ rng.standard_normal(n)
            a2 = pp.PiPerp @ rng.standard_normal(n)
            lhs = (pp.ort.T @ a1) @ (pp.ort.T @ a2)
            assert abs(lhs - a1 @ a2) < 1e-10


class TestInnerZ:
    def test_trivial_values(self):
        cfg = SphereConfig(E1_3)
        y = np.array([0.0, 1.0, 0.0])
        assert inner_z(cfg, y, y) == pytest.approx(1.0, abs=1e-14)
        e1 = np.array([1.0, 0.0, 0.0])
        assert inner_z(cfg, e1, y) == pytest.approx(0.0, abs=1e-14)
        assert inner_z(cfg, e1, e1) == pytest.approx(0.0, abs=1e-14)

    def test_schur_matches_projector_form(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(3, 8))
            r = int(rng.integers(1, n - 1))
            cfg = random_config(n, r, rng)
            x, y = sample_sphere(n, 2, rng)
            pp = cfg.proj
            want = (pp.PiPerp @ x) @ (pp.PiPerp @ y)
            assert abs(inner_z(cfg, x, y) - want) < 1e-12

    @given(n=st.integers(3, 8), mx=st.integers(1, 6), my=st.integers(1, 6),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_block_matches_projector_form(self, n, mx, my, seed, data):
        r = data.draw(st.integers(0, n - 1), label="r")
        rng = np.random.default_rng(seed)
        cfg = random_config(n, r, rng)
        X, Y = sample_sphere(n, mx, rng), sample_sphere(n, my, rng)
        P = cfg.proj.PiPerp
        B = inner_z(cfg, X, Y)
        assert B.shape == (mx, my)
        assert np.max(np.abs(B - (X @ P) @ (Y @ P).T)) < 1e-12
        assert abs(inner_z(cfg, X[0], Y[0]) - B[0, 0]) < 1e-12

    def test_perp_cosines(self):
        cfg = SphereConfig(E1_3)
        X = np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]])
        t, A, Y = perp_cosines(X, [0, 0, 1], [0, 1, 1], cfg)
        assert np.allclose(t, [1.0, 0.0, 1.0], atol=1e-15)
        assert np.array_equal(A, X @ E1_3) and np.array_equal(Y, cfg.gram)
        t2, _, Y2 = perp_cosines(X, [0, 0, 1], [0, 1, 1], np.stack([E1_3] * 2))
        assert np.allclose(t2, t, atol=1e-15) and Y2.shape == (2, 1, 1)
        near = np.array([1.0, 0.5 * TOL_PERP, 0.0])
        P = np.vstack([X, near / np.linalg.norm(near)])
        with pytest.raises(SingularityError):
            perp_cosines(P, [0], [2], cfg)
        with pytest.raises(SingularityError):
            perp_cosines(P, [2], [0], np.stack([E1_3] * 3))
        # one rank-deficient row of the stack is enough
        e1, e2 = np.eye(3)[:, 0], np.eye(3)[:, 1]
        deficient = np.stack([np.column_stack([e1, e2]), np.column_stack([e1, e1])])
        with pytest.raises(RankError):
            perp_cosines(np.eye(3)[[2, 2]], [0], [1], deficient)

    def test_rank_error(self):
        cfg = SphereConfig(np.column_stack([np.eye(3)[:, 0], np.eye(3)[:, 0]]))
        with pytest.raises(RankError):
            inner_z(cfg, np.eye(3)[:, 1], np.eye(3)[:, 1])


class TestCoordinateMaps:
    def test_t1_examples(self):
        cfg = SphereConfig(E1_3)
        x = map_t1(cfg, np.array([0.0, 1.0]), np.array([0.0]))
        assert np.allclose(x, [0.0, 0.0, 1.0], atol=1e-14)
        x2 = map_t1(cfg, np.array([1.0, 0.0]), np.array([1.0]))
        assert np.allclose(x2, [1.0, 0.0, 0.0], atol=1e-14)

    def test_t1_outputs_unit(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(3, 8))
            r = int(rng.integers(1, n - 1))
            cfg = random_config(n, r, rng)
            v = sample_sphere(n - r, 1, rng)[0]
            x0 = sample_sphere(n, 1, rng)[0]
            u = cfg.Z.T @ x0
            x = map_t1(cfg, v, u)
            assert abs(np.linalg.norm(x) - 1.0) < 1e-10

    def test_t1_domain_error(self):
        cfg = SphereConfig(E1_3)
        with pytest.raises(DomainError):
            map_t1(cfg, np.array([1.0, 0.0]), np.array([1.5]))
        with pytest.raises(DomainError):
            map_t1(cfg, np.array([2.0, 0.0]), np.array([0.0]))

    def test_t2_examples(self):
        cfg = SphereConfig(E1_3)
        v, u = map_t2(cfg, np.array([0.0, 0.0, 1.0]))
        assert np.allclose(v, [0.0, 1.0], atol=1e-14)
        assert np.allclose(u, [0.0], atol=1e-14)
        with pytest.raises(SingularityError):
            map_t2(cfg, np.array([1.0, 0.0, 0.0]))

    def test_t2_spec_point(self):
        cfg = SphereConfig(np.eye(4)[:, :2])
        v, u = map_t2(cfg, np.array([0.6, 0.0, 0.8, 0.0]))
        assert np.allclose(u, [0.6, 0.0], atol=1e-14)
        assert np.allclose(v, [1.0, 0.0], atol=1e-14)

    def test_t1_t2_identity(self):
        rng = np.random.default_rng(3)
        for n, r in [(4, 1), (5, 2), (8, 3)]:
            for _ in range(100):
                cfg = random_config(n, r, rng)
                x = sample_sphere(n, 1, rng)[0]
                if np.linalg.norm(cfg.proj.PiPerp @ x) <= 1e-6:
                    continue
                v, u = map_t2(cfg, x)
                assert np.linalg.norm(map_t1(cfg, v, u) - x) < 1e-12

    @given(n=st.integers(3, 9), r_gap=st.integers(2, 9), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_t1_t2_identity_property(self, n, r_gap, seed):
        assume(r_gap <= n)
        rng = np.random.default_rng(seed)
        cfg = random_config(n, n - r_gap, rng)
        x = sample_sphere(n, 1, rng)[0]
        assume(np.linalg.norm(cfg.proj.PiPerp @ x) > 1e-3)
        v, u = map_t2(cfg, x)
        assert np.linalg.norm(map_t1(cfg, v, u) - x) < 1e-12

    def test_t2_injectivity(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = int(rng.integers(4, 8))
            r = int(rng.integers(1, n - 2))
            cfg = random_config(n, r, rng)
            x1, x2 = sample_sphere(n, 2, rng)
            if np.linalg.norm(x1 - x2) <= 1e-6:
                continue
            if min(np.linalg.norm(cfg.proj.PiPerp @ x1), np.linalg.norm(cfg.proj.PiPerp @ x2)) <= 1e-6:
                continue
            v1, u1 = map_t2(cfg, x1)
            v2, u2 = map_t2(cfg, x2)
            dist = np.linalg.norm(np.concatenate([v1 - v2, u1 - u2]))
            assert dist > 1e-9


class TestStabilizer:
    def test_identity(self):
        cfg = SphereConfig(E1_3)
        assert np.allclose(stabilizer_element(cfg, np.eye(2)), np.eye(3), atol=1e-14)

    def test_block_rotation(self):
        cfg = SphereConfig(E1_3)
        Q = np.array([[0.0, -1.0], [1.0, 0.0]])
        M = stabilizer_element(cfg, Q)
        want = np.zeros((3, 3))
        want[0, 0] = 1.0
        want[1:, 1:] = Q
        assert np.allclose(M, want, atol=1e-12)

    def test_random_properties(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(3, 8))
            r = int(rng.integers(1, n - 1))
            cfg = random_config(n, r, rng)
            M = stabilizer_element(cfg, sample_orthogonal(n - r, rng))
            assert np.max(np.abs(M @ cfg.Z - cfg.Z)) < 1e-10
            assert np.max(np.abs(M.T @ M - np.eye(n))) < 1e-10

    def test_rejects_non_orthogonal(self):
        cfg = SphereConfig(E1_3)
        with pytest.raises(DomainError):
            stabilizer_element(cfg, np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestSamplers:
    def test_sphere_unit_and_deterministic(self):
        pts = sample_sphere(5, 50, seed=9)
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-12
        assert np.array_equal(pts, sample_sphere(5, 50, seed=9))

    def test_sphere_mean_clt(self):
        pts = sample_sphere(3, 100000, seed=0)
        assert np.linalg.norm(pts.mean(axis=0)) < 0.02

    def test_orthogonal_properties(self):
        M = sample_orthogonal(6, seed=1)
        assert np.max(np.abs(M.T @ M - np.eye(6))) < 1e-10
        assert abs(abs(np.linalg.det(M)) - 1.0) < 1e-10

    def test_orthogonal_column_mean_clt(self):
        rng = np.random.default_rng(2)
        acc = np.zeros((4, 4))
        for _ in range(10000):
            acc += sample_orthogonal(4, rng)
        assert np.linalg.norm(acc / 10000) < 0.05

    def test_random_config_full_rank(self):
        for seed in range(20):
            cfg = random_config(6, 3, seed=seed)
            assert cfg.full_rank
            assert np.linalg.svd(cfg.Z, compute_uv=False)[-1] > 1e-3

    def test_too_many_columns(self):
        with pytest.raises(DomainError):
            random_config(3, 4)

    def test_rejection_sampling_cap(self):
        draws = []

        def always_singular(count):
            draws.append(count)
            raise SingularityError("degenerate draw")

        with pytest.raises(SingularityError, match="could not draw enough points"):
            _max_over_draws(always_singular, 3, "points")
        assert draws == [3] * 150

    def test_rejection_sampling_max_of_accepted(self):
        values = iter([0.5, None, 2.0, 1.0])

        def draw(count):
            v = next(values)
            if v is None:
                raise SingularityError("rejected")
            return v

        assert _max_over_draws(draw, 3, "values") == 2.0
        for samples in (0, -5):
            with pytest.raises(DomainError, match="at least one"):
                _max_over_draws(draw, samples, "values")

    def test_rejection_sampling_asks_for_what_remains(self):
        asked = []

        def draw(count):
            asked.append(count)
            return np.full(max(count - 1, 1), float(count))  # drops one draw while more than one is asked for

        assert _max_over_draws(draw, 4, "values") == 4.0
        assert asked == [4, 1]
