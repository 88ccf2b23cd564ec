"""Kernel abstractions with sampling-based positive-definiteness and invariance checks.

A kernel is a symmetric bivariate function on the sphere; a bundle kernel
additionally takes a configuration Z and is a kernel on the fiber over each
Z. All verification here is randomized sampling, never a proof: a pass is
evidence, a fail is a certified counterexample (the witness point set).
"""

from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from .exceptions import DomainError, SingularityError
from .sphere import _MIN_SINGULAR, SphereConfig, _haar, _max_over_draws, random_config, sample_sphere

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
    """Domain descriptor plus the one evaluator that every evaluation goes through.

    r = 0: plain sphere kernel; r > 0: bundle kernel over r-point
    configurations. pairs(P, i, j[, Z]) returns K(P[i_k], P[j_k]) for
    points as the rows of P; Z is one SphereConfig, or a (rows, n, r) array
    (pair k then uses Z[i_k]). Kernel(n, fn, r) lifts a scalar fn(x, y)
    (fn(x, y, Z) for r > 0, Z a SphereConfig) to an evaluator calling
    self.fn once per pair; Kernel.from_pairs takes an evaluator of whole
    arrays. Evaluators must be pure, so a kernel can be evaluated in any order.
    """

    def __init__(self, n: int, fn, r: int = 0, name: str = ""):
        self.n = int(n)
        self.r = int(r)
        self.fn = fn
        self.name = name
        self._evaluator = self._per_pair

    @classmethod
    def from_pairs(cls, n: int, pairs, r: int, name: str) -> "Kernel":
        K = cls(n, None, r, name)
        K._evaluator = pairs
        return K

    def _per_pair(self, P, i, j, *Z):
        if Z and not isinstance(Z[0], SphereConfig):
            return [float(self.fn(P[a], P[b], SphereConfig(Z[0][a]))) for a, b in zip(i, j)]
        return [float(self.fn(P[a], P[b], *Z)) for a, b in zip(i, j)]

    def pairs(self, P, i, j, Z=None) -> np.ndarray:
        """K(P[i_k], P[j_k]) for every k, from one evaluator call."""
        P = np.atleast_2d(np.asarray(P, dtype=float))
        if P.shape[1] != self.n:
            raise DomainError(f"points live in R^{P.shape[1]}, kernel domain is R^{self.n}")
        if self.r:
            shared = isinstance(Z, SphereConfig)
            if np.shape(Z.Z if shared else Z) != ((self.n, self.r) if shared else (len(P), self.n, self.r)):
                raise DomainError(f"bundle kernel requires a configuration Z: a SphereConfig of shape "
                                  f"{(self.n, self.r)} or a {(len(P), self.n, self.r)} array")
        i = np.asarray(i, dtype=int)
        out = np.asarray(self._evaluator(P, i, np.asarray(j, dtype=int), *([Z] if self.r else [])), dtype=float)
        if out.shape != i.shape:
            raise DomainError(f"evaluator returned shape {out.shape}, expected {i.shape}")
        return out

    def __call__(self, x, y, Z: SphereConfig | None = None) -> float:
        return float(self.pairs(np.vstack([x, y]), [0], [1], Z)[0])

    def __repr__(self):
        return f"Kernel({self.name or 'kernel'}, n={self.n}, r={self.r})"


def _combine(kernels, op, sep: str) -> Kernel:
    """Pointwise op of kernels on one domain, each part evaluated by its own evaluator."""
    first = kernels[0]
    if any((k.n, k.r) != (first.n, first.r) for k in kernels):
        raise DomainError(f"kernel domain mismatch: {list(kernels)!r}")
    pairs = lambda P, i, j, *Z: op([k.pairs(P, i, j, *Z) for k in kernels])
    return Kernel.from_pairs(first.n, pairs, first.r, sep.join(k.name or "k" for k in kernels))


def kernel_sum(*kernels: Kernel) -> Kernel:
    """Pointwise sum; p.d. whenever every summand is."""
    return _combine(kernels, sum, "+")


def kernel_product(*kernels: Kernel) -> Kernel:
    """Pointwise (Schur) product; p.d. whenever every factor is."""
    return _combine(kernels, lambda vals: np.prod(vals, axis=0), "*")


@lru_cache(maxsize=64)
def _upper_triangle(m: int) -> tuple:
    """Row and column indices of the upper triangle of an m x m matrix, row by row, read-only."""
    i, j = np.triu_indices(m)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def gram(K: Kernel, points, Z: SphereConfig | None = None) -> np.ndarray:
    """Gram matrix of K at the given points (rows), exactly symmetric.

    One K.pairs call on the upper triangle, mirrored onto the lower.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = pts.shape[0]
    i, j = _upper_triangle(m)
    G = np.empty((m, m))
    G[i, j] = G[j, i] = K.pairs(pts, i, j, Z)
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
        out = {k: getattr(self, k) for k in ("m", "min_eig", "max_eig", "tol", "passed")}
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
    if trials < 1:
        raise DomainError(f"need at least one trial, got {trials}")
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
        return asdict(self)


def _rotation_residuals(K: Kernel, rng, trials: int, m: int, rotation) -> np.ndarray:
    """|K(x, y[, Z]) - K(Mx, My[, MZ])| for up to `trials` draws, one K.pairs call per side.

    One Gaussian block holds each trial's x, y, sample_orthogonal's m x m
    Gaussian and Z's r columns in that order, the normals of a per-trial
    loop. A trial whose Z has a singular value at most _MIN_SINGULAR is
    dropped; the QRs run stacked, and rotation maps them to the Ms.
    """
    n, r = K.n, K.r
    D = rng.standard_normal((trials, 2 * n + m * m + r * n))
    U = np.concatenate([D[:, :2 * n], D[:, 2 * n + m * m:]], axis=1).reshape(trials, 2 + r, n)
    U /= np.linalg.norm(U, axis=2, keepdims=True)
    keep = np.all(np.linalg.svd(np.swapaxes(U[:, 2:], 1, 2), compute_uv=False) > _MIN_SINGULAR, axis=1)
    if not keep.any():
        raise SingularityError("every configuration drawn is nearly rank deficient")
    P, Zs = U[keep, :2], np.swapaxes(U[keep, 2:], 1, 2)
    M = rotation(_haar(D[keep, 2 * n:2 * n + m * m].reshape(-1, m, m)))
    twice = lambda stack: np.stack([z for z in stack for _ in (0, 1)])  # the Z of each point of each pair
    Z, MZ = (twice(Zs), twice(M @ Zs)) if r else (None, None)
    i = np.arange(0, 2 * len(P), 2)
    side = lambda X, Zrows: K.pairs(X.reshape(2 * len(P), -1), i, i + 1, Zrows)
    return np.abs(side(P, Z) - side((M[:, None] @ P[..., None])[..., 0], MZ))


def check_invariance(K: Kernel, trials: int = 500, seed=0, tol: float = 1e-9) -> InvarianceReport:
    """Residuals of K under simultaneous rotation of all arguments.

    Draws random (x, y, Z, M) per trial and compares K(Mx, My, MZ) with
    K(x, y, Z) (Z omitted for plain sphere kernels), all trials from one
    Gaussian block (see _rotation_residuals). A dropped trial, or a batch
    that raises SingularityError, is drawn again, so exactly `trials`
    (at least 1) count. Pass iff the max residual is below tol.
    """
    rng = np.random.default_rng(seed)
    worst = _max_over_draws(lambda count: _rotation_residuals(K, rng, count, K.n, lambda M: M),
                            trials, "invariance samples")
    return InvarianceReport(max_residual=worst, tol=tol, trials=trials, passed=worst < tol)
