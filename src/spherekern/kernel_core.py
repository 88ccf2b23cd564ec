"""Kernel abstractions with sampling-based positive-definiteness and invariance checks.

A kernel is a symmetric bivariate function on the sphere; a bundle kernel
additionally takes a configuration Z and is a kernel on the fiber over each
Z. All verification here is randomized sampling, never a proof: a pass is
evidence, a fail is a certified counterexample (the witness point set).
"""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainError
from .sphere import SphereConfig, _max_over_draws, random_config, sample_orthogonal, sample_sphere

__all__ = [
    "Kernel",
    "kernel_sum",
    "kernel_product",
    "gram",
    "GramReport",
    "check_pd",
    "all_passed",
    "InvarianceReport",
    "check_invariance",
]


class Kernel:
    """Evaluator plus domain descriptor.

    r = 0: plain sphere kernel, fn(x, y) -> float.
    r > 0: bundle kernel over r-point configurations, fn(x, y, Z) -> float
    with Z a SphereConfig. Evaluators must be pure (no hidden mutable
    state), so a kernel can be evaluated in any order.

    `block`, when given, evaluates the kernel on whole point blocks:
    block(X, Y) (or block(X, Y, Z) for r > 0) with points as the rows of X
    (mX x n) and Y (mY x n) returns the (mX, mY) matrix of fn values. It
    must be pure too and agree with fn entrywise up to rounding; `gram`
    uses it instead of one fn call per entry.
    """

    def __init__(self, n: int, fn, r: int = 0, name: str = "", block=None):
        self.n = int(n)
        self.r = int(r)
        self.fn = fn
        self.name = name
        self.block = block

    def _tail(self, Z: SphereConfig | None) -> tuple:
        """Evaluator arguments after the points: none for r = 0, else the configuration."""
        if self.r == 0:
            return ()
        if Z is None:
            raise DomainError("bundle kernel requires a configuration Z")
        return (Z,)

    def __call__(self, x, y, Z: SphereConfig | None = None) -> float:
        return float(self.fn(x, y, *self._tail(Z)))

    def __repr__(self):
        tag = self.name or "kernel"
        return f"Kernel({tag}, n={self.n}, r={self.r})"


def _same_domain(kernels):
    first = kernels[0]
    for k in kernels[1:]:
        if (k.n, k.r) != (first.n, first.r):
            raise DomainError(f"kernel domain mismatch: {k!r} vs {first!r}")
    return first


def _combine(kernels, op, sep: str) -> Kernel:
    """Pointwise op of kernels on one domain; blockwise too when every part has a block."""
    first = _same_domain(kernels)
    fn = lambda x, y, *Z: op([k(x, y, *Z) for k in kernels])
    blocks = [k.block for k in kernels]
    block = None
    if all(b is not None for b in blocks):
        block = lambda X, Y, *Z: op([b(X, Y, *Z) for b in blocks])
    return Kernel(first.n, fn, r=first.r, name=sep.join(k.name or "k" for k in kernels),
                  block=block)


def kernel_sum(*kernels: Kernel) -> Kernel:
    """Pointwise sum; p.d. whenever every summand is."""
    return _combine(kernels, sum, "+")


def kernel_product(*kernels: Kernel) -> Kernel:
    """Pointwise (Schur) product; p.d. whenever every factor is."""
    return _combine(kernels, lambda vals: np.prod(vals, axis=0), "*")


def gram(K: Kernel, points, Z: SphereConfig | None = None) -> np.ndarray:
    """Gram matrix of K at the given points (rows), exactly symmetric.

    Uses K.block when present, else one K call per upper-triangle entry;
    either way the upper triangle is mirrored onto the lower.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != K.n:
        raise DomainError(f"points live in R^{pts.shape[1]}, kernel domain is R^{K.n}")
    m = pts.shape[0]
    if K.block is None:
        G = np.empty((m, m))
        for i in range(m):
            for j in range(i, m):
                G[i, j] = K(pts[i], pts[j], Z)
                G[j, i] = G[i, j]
        return G
    G = np.array(K.block(pts, pts, *K._tail(Z)), dtype=float)
    if G.shape != (m, m):
        raise DomainError(f"block evaluator returned shape {G.shape}, expected {(m, m)}")
    lower = np.tril_indices(m, -1)
    G[lower] = G.T[lower]
    return G


@dataclass
class GramReport:
    """Eigenvalue summary of one sampled Gram matrix.

    Pass means min_eig >= -tol * max(1, max_eig). On failure the sample
    (and configuration, for bundle kernels) is kept as the witness.
    """

    m: int
    min_eig: float
    max_eig: float
    tol: float
    passed: bool
    witness_points: np.ndarray | None = field(default=None, repr=False)
    witness_Z: np.ndarray | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        out = {
            "m": self.m,
            "min_eig": self.min_eig,
            "max_eig": self.max_eig,
            "tol": self.tol,
            "passed": self.passed,
        }
        if self.witness_points is not None:
            out["witness_points"] = self.witness_points.tolist()
            if self.witness_Z is not None:
                out["witness_Z"] = self.witness_Z.tolist()
        return out


def grade_gram(G: np.ndarray, tol: float = 1e-8) -> GramReport:
    """GramReport for an explicitly assembled matrix."""
    eigs = np.linalg.eigvalsh(0.5 * (G + G.T))
    lo, hi = float(eigs[0]), float(eigs[-1])
    return GramReport(m=G.shape[0], min_eig=lo, max_eig=hi, tol=tol,
                      passed=lo >= -tol * max(1.0, hi))


def check_pd(K: Kernel, trials: int = 20, m: int = 40, seed=0,
             tol: float = 1e-8) -> list[GramReport]:
    """Randomized positive-definiteness check; one GramReport per trial.

    Each trial samples m sphere points (and a fresh full-rank configuration
    for bundle kernels) and grades the Gram matrix. Overall pass iff every
    trial passes; failing trials carry their point set as a witness.
    """
    if m < 2:
        raise DomainError("need at least 2 points per trial")
    root = np.random.default_rng(seed)
    reports = []
    for s in root.integers(0, 2 ** 63 - 1, size=trials):
        rng = np.random.default_rng(int(s))
        pts = sample_sphere(K.n, m, rng)
        Z = random_config(K.n, K.r, rng) if K.r else None
        rep = grade_gram(gram(K, pts, Z), tol)
        if not rep.passed:
            rep.witness_points = pts
            rep.witness_Z = Z.Z if Z is not None else None
        reports.append(rep)
    return reports


def all_passed(reports: list[GramReport]) -> bool:
    return all(r.passed for r in reports)


@dataclass
class InvarianceReport:
    max_residual: float
    tol: float
    trials: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "max_residual": self.max_residual,
            "tol": self.tol,
            "trials": self.trials,
            "passed": self.passed,
        }


def check_invariance(K: Kernel, trials: int = 500, seed=0, tol: float = 1e-9) -> InvarianceReport:
    """Residuals of K under simultaneous rotation of all arguments.

    Draws random (x, y, Z, M) and compares K(Mx, My, MZ) with K(x, y, Z)
    (Z omitted for plain sphere kernels). Pass iff the max residual is
    below tol.
    """
    rng = np.random.default_rng(seed)

    def draw():
        x, y = sample_sphere(K.n, 2, rng)
        M = sample_orthogonal(K.n, rng)
        if K.r == 0:
            return abs(K(x, y) - K(M @ x, M @ y))
        cfg = random_config(K.n, K.r, rng)
        return abs(K(x, y, cfg) - K(M @ x, M @ y, SphereConfig(M @ cfg.Z)))

    worst = _max_over_draws(draw, trials, "invariance samples")
    return InvarianceReport(max_residual=worst, tol=tol, trials=trials, passed=worst < tol)
