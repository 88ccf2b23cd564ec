"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every test asserts both the numerical criterion and its runtime budget.
"""

import time

import numpy as np

from spherekern import (
    LPBoundProblem,
    ScalarExpansion,
    all_passed,
    addition_constants,
    certify,
    check_invariance,
    check_pd,
    delsarte_lp,
    gauss_gegenbauer_rule,
    gegenbauer_table,
    gram,
    map_t1,
    map_t2,
    musin_coeffs,
    random_config,
    random_feature_expansion,
    sample_sphere,
    schoenberg_coeffs,
    synth_bundle_kernel,
    synth_schoenberg,
    verify_addition,
)
from spherekern.cli import named_kernel
from spherekern.exceptions import SingularityError


def _verdict(num, name, ok, detail, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[criterion {num}] {status} {name}: {detail} ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < limit, f"criterion {num} overran: {elapsed:.2f}s >= {limit}s"


def test_criterion_1_orthogonality():
    start = time.monotonic()
    worst = 0.0
    for n in (3, 4, 5, 8):
        alpha = n / 2 - 1
        rule = gauss_gegenbauer_rule(alpha, 25)
        tab = gegenbauer_table(alpha, 20, rule.nodes)
        M = (tab * rule.weights) @ tab.T
        norms = np.sqrt(np.diag(M))
        ratios = np.abs(M) / np.outer(norms, norms)
        np.fill_diagonal(ratios, 0.0)
        worst = max(worst, float(np.max(ratios)))
    elapsed = time.monotonic() - start
    _verdict(1, "orthogonality n in {3,4,5,8}, degrees <= 20", worst < 1e-10,
             f"max scaled off-diagonal {worst:.3e} < 1e-10", elapsed, 5.0)


def test_criterion_2_expansion_roundtrip():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for n in (3, 5):
        for _ in range(100):
            c = rng.uniform(0.0, 1.0, size=13)
            K = synth_schoenberg(ScalarExpansion(n, c))
            e = schoenberg_coeffs(K, n, d_max=12, check=False)
            worst = max(worst, float(np.max(np.abs(e.coefficients - c))))
    elapsed = time.monotonic() - start
    _verdict(2, "expansion roundtrip, 100 vectors per n in {3,5}, d_max=12",
             worst < 1e-9, f"max recovery error {worst:.3e} < 1e-9", elapsed, 10.0)


def test_criterion_3_coordinate_maps():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    worst_rt = 0.0
    ok_inj = True
    for n, r in [(4, 1), (5, 2), (8, 3)]:
        done = 0
        while done < 1000:
            cfg = random_config(n, r, rng)
            x1, x2 = sample_sphere(n, 2, rng)
            try:
                v1, u1 = map_t2(cfg, x1)
                v2, u2 = map_t2(cfg, x2)
            except SingularityError:
                continue
            worst_rt = max(worst_rt,
                           float(np.linalg.norm(map_t1(cfg, v1, u1) - x1)),
                           float(np.linalg.norm(map_t1(cfg, v2, u2) - x2)))
            if np.linalg.norm(x1 - x2) > 1e-6:
                gap = np.linalg.norm(np.concatenate([v1 - v2, u1 - u2]))
                ok_inj = ok_inj and gap > 1e-9
            done += 1
    elapsed = time.monotonic() - start
    _verdict(3, "T1/T2 inverse pair, 1000 draws per shape",
             worst_rt < 1e-12 and ok_inj,
             f"max roundtrip {worst_rt:.3e} < 1e-12, injectivity margin held", elapsed, 5.0)


def test_criterion_4_bundle_synthesis():
    start = time.monotonic()
    e = random_feature_expansion(5, 2, d_max=4, seed=0)
    K = synth_bundle_kernel(e, seed=0)
    reports = check_pd(K, trials=20, m=40, seed=0, tol=1e-7)
    min_eig = min(r.min_eig for r in reports)
    inv = check_invariance(K, trials=500, seed=0, tol=1e-9)
    elapsed = time.monotonic() - start
    _verdict(4, "feature-map synthesis n=5 r=2 d_max=4 is p.d. and invariant",
             all_passed(reports) and inv.passed,
             f"min eig {min_eig:.3e} over 20x40, invariance residual {inv.max_residual:.3e} < 1e-9",
             elapsed, 60.0)


def test_criterion_5_musin_reconstruction():
    start = time.monotonic()
    rng = np.random.default_rng(2)
    kernels = [named_kernel("dot", 4)]
    for seed in (3, 4):
        c = np.random.default_rng(seed).uniform(0.0, 1.0, size=9)
        kernels.append(synth_schoenberg(ScalarExpansion(4, c)))
    worst = 0.0
    for K in kernels:
        cfg = random_config(4, 1, rng)
        tc = musin_coeffs(K, cfg, d_max=8, seed=0)
        done = 0
        while done < 200:
            x, y = sample_sphere(4, 2, rng)
            try:
                worst = max(worst, abs(tc.reconstruct(x, y) - K(x, y)))
            except SingularityError:
                continue
            done += 1
    elapsed = time.monotonic() - start
    _verdict(5, "transported coefficients rebuild three invariant kernels, n=4 r=1",
             worst < 1e-8, f"max reconstruction error {worst:.3e} < 1e-8 at 200 points each",
             elapsed, 30.0)


def test_criterion_6_addition_identity():
    start = time.monotonic()
    worst = 0.0
    for k in range(7):
        rep = verify_addition(6, 1, k, samples=200, seed=0, tol=1e-8)
        worst = max(worst, rep.max_residual)
        assert rep.passed
    alpha = (6 - 1) / 2 - 1
    consts = addition_constants(alpha, 1)
    c_err = max(abs(consts.c[0] - 1 / (2 * alpha)),
                abs(consts.c[1] - 2 * alpha / (2 * alpha - 1)))
    elapsed = time.monotonic() - start
    _verdict(6, "addition identity n=6 r=1 k<=6 plus closed-form constants",
             worst < 1e-8 and c_err < 1e-10,
             f"max residual {worst:.3e} < 1e-8, constants error {c_err:.3e} < 1e-10",
             elapsed, 10.0)


def test_criterion_7_lp_bounds():
    start = time.monotonic()
    targets = {3: (13.16, 0.05), 4: (25.6, 0.1), 8: (240.0, 0.5)}
    details = []
    ok = True
    for n, (target, window) in targets.items():
        p = LPBoundProblem(n=n, theta=np.pi / 3, d_max=12)
        cert = delsarte_lp(p)
        rep = certify(cert, p)
        ok = ok and abs(cert.bound - target) < window and rep.passed and rep.max_violation <= 1e-9
        details.append(f"n={n}: {cert.bound:.4f} (target {target}+-{window}, violation {rep.max_violation:.1e})")
    elapsed = time.monotonic() - start
    _verdict(7, "LP bounds at theta=60deg d_max=12 with certified margins",
             ok, "; ".join(details), elapsed, 60.0)


def test_criterion_8_negative_controls():
    start = time.monotonic()
    neg = named_kernel("neg-dot", 3)
    reports = check_pd(neg, trials=5, m=10, seed=0)
    neg_failed = not all_passed(reports)
    witness_ok = any(r.witness_points is not None for r in reports if not r.passed)

    coord = named_kernel("coord", 3)
    coord_failed = not check_invariance(coord, trials=100, seed=0).passed

    # slice of a p.d. cylinder kernel taken at opposite fiber signs
    parent = lambda a1, u1, a2, u2: a1 * a2 * float(u1 @ u2)
    rng = np.random.default_rng(5)
    a = rng.uniform(-1.0, 1.0, size=20)
    u = sample_sphere(3, 20, rng)
    G_parent = np.array([[parent(a[i], u[i], a[j], u[j]) for j in range(20)] for i in range(20)])
    parent_ok = float(np.linalg.eigvalsh(G_parent)[0]) >= -1e-10
    from spherekern import Kernel
    K_slice = Kernel(3, lambda u1, u2: parent(1.0, u1, -1.0, u2))
    e1 = np.array([1.0, 0.0, 0.0])
    slice_min = float(np.linalg.eigvalsh(gram(K_slice, np.array([e1, -e1])))[0])
    slice_bad = slice_min < -1e-8

    elapsed = time.monotonic() - start
    _verdict(8, "negative controls: failing kernels fail, p.d. parent with bad slice",
             neg_failed and witness_ok and coord_failed and parent_ok and slice_bad,
             f"neg-dot witnessed, coord caught, slice min eig {slice_min:.2f} < 0 under p.d. parent",
             elapsed, 10.0)
