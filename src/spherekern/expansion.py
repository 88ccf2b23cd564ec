"""Coefficient extraction and truncated synthesis for invariant kernel expansions.

Three levels, one mechanism. A rotation-invariant kernel on the sphere is a
function of x^T y and expands in Gegenbauer polynomials of order n/2 - 1
(analysis = weighted 1-D projection, synthesis = finite sum). A cylinder
kernel, invariant under rotations of the sphere factor only, expands the
same way per pair of fiber points, giving coefficient functions instead of
scalars. A kernel on the bundle of sphere points over r-point
configurations expands in Gegenbauer polynomials of order (n-r)/2 - 1 of
the normalized perpendicular inner product, with coefficient kernels in
the base coordinates (Z^T x, Z^T y, Z^T Z).

Normalization convention: analysis is inverse to synthesis on truncated
families, so the sphere-area constants of the double integral never
appear. Estimating the same ratio E[K P_k] / E[P_k^2] from uniform sphere
pairs (Monte Carlo, as the tests do for cylinder_coeffs) is an independent
route to the identical normalization.
"""

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .exceptions import CertificateError, DomainError, InvarianceError, SingularityError
from .gegenbauer import ALPHA_MIN, basis_for, gegenbauer_table
from .kernel_core import Kernel, _rotation_residuals, check_invariance, grade_gram, gram
from .sphere import (
    SphereConfig,
    _max_over_draws,
    perp_cosines,
    random_config,
    sample_orthogonal,
    sample_sphere,
    stabilizer_element,
)

__all__ = [
    "ScalarExpansion",
    "schoenberg_coeffs",
    "synth_schoenberg",
    "cylinder_coeffs",
    "FeatureMapCoefficient",
    "poly_feature_map",
    "BundleExpansion",
    "random_feature_expansion",
    "synth_bundle_kernel",
    "TransportedCoefficients",
    "musin_coeffs",
    "expansion_from_dict",
]

DEFAULT_D_MAX = 16
INVARIANCE_TOL = 1e-8  # largest sampled residual cylinder_coeffs and musin_coeffs accept


def _sphere_alpha(n: int) -> float:
    """Gegenbauer order attached to S^{n-1}."""
    alpha = n / 2.0 - 1.0
    if alpha < ALPHA_MIN:
        raise DomainError(f"sphere dimension n={n} needs order {alpha}, below the supported minimum {ALPHA_MIN}")
    return alpha


def _geodesic(m: int, t: np.ndarray) -> np.ndarray:
    """Rows e1, then t_k e1 + sqrt(1 - t_k^2) e2 in R^m: row k + 1 has e1-product t_k."""
    P = np.zeros((len(t) + 1, m))
    P[0, 0] = 1.0
    P[1:, :2] = np.column_stack([t, np.sqrt(np.maximum(1.0 - t * t, 0.0))])
    return P


@lru_cache(maxsize=64)
def _fiber_pairs(rows: int, nodes: int) -> tuple:
    """Pairs (b, rows + b * nodes + k): first point b against its nodes, stacked after all first points; read-only."""
    i, j = np.repeat(np.arange(rows), nodes), np.arange(rows, rows + rows * nodes)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _as_sphere_kernel(K, n: int) -> Kernel:
    if isinstance(K, Kernel):
        if K.r != 0:
            raise DomainError("expected a plain sphere kernel, got a bundle kernel")
        if K.n != n:
            raise DomainError(f"kernel lives on S^{K.n - 1}, expected S^{n - 1}")
        return K
    return Kernel(n, K)


@dataclass
class ScalarExpansion:
    """Truncated Gegenbauer expansion of an invariant sphere kernel.

    Stores coefficients c_0..c_d_max of sum_k c_k P_k^{n/2-1}(x^T y).
    Nonnegative coefficients give a positive-definite kernel; negative
    entries are representable (analysis of arbitrary kernels) but the
    synthesized kernel then carries no p.d. guarantee.
    """

    n: int
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float).reshape(-1)
        _sphere_alpha(self.n)

    @property
    def alpha(self) -> float:
        return _sphere_alpha(self.n)

    @property
    def d_max(self) -> int:
        return len(self.coefficients) - 1

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "r": 0,
            "alpha": self.alpha,
            "d_max": self.d_max,
            "coefficients": self.coefficients.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScalarExpansion":
        return cls(n=int(d["n"]), coefficients=np.asarray(d["coefficients"], dtype=float))


def schoenberg_coeffs(K, n: int, d_max: int = DEFAULT_D_MAX, check: bool = True,
                      check_tol: float = 1e-8, seed=0) -> ScalarExpansion:
    """Expansion coefficients of an invariant kernel on S^{n-1}.

    Reduces the double sphere integral to one dimension: by invariance
    K(x, y) = kappa(x^T y), and kappa is sampled along the geodesic
    x = e1, y = t e1 + sqrt(1-t^2) e2. Coefficients are the weighted
    Gegenbauer projections of kappa, normalized so that analysis inverts
    synthesis on degree <= d_max kernels.

    With check=True the invariance assumption is verified by sampling
    first; a kernel that is not a function of x^T y is rejected rather
    than silently projected.
    """
    K = _as_sphere_kernel(K, n)
    if check:
        rep = check_invariance(K, trials=200, seed=seed, tol=check_tol)
        if not rep.passed:
            raise InvarianceError(
                f"kernel is not rotation invariant: max residual {rep.max_residual:.3e} exceeds {check_tol:.1e}")
    c = basis_for(_sphere_alpha(n), d_max).expand(lambda t: K.pairs(_geodesic(n, t), *_fiber_pairs(1, len(t))))
    return ScalarExpansion(n=n, coefficients=c)


def synth_schoenberg(e: ScalarExpansion) -> Kernel:
    """Kernel K(x, y) = sum_k c_k P_k^{n/2-1}(x^T y) from stored coefficients."""
    alpha, d_max = e.alpha, e.d_max
    if d_max < 0:
        raise DomainError(f"d_max must be nonnegative, got {d_max}")
    coeffs = e.coefficients.copy()

    def pairs(P, i, j):
        return coeffs @ gegenbauer_table(alpha, d_max, np.clip(np.vecdot(P[i], P[j]), -1.0, 1.0))

    return Kernel.from_pairs(e.n, pairs, 0, "schoenberg-synth")


def cylinder_coeffs(K, b, a1, a2, n: int, d_max: int = DEFAULT_D_MAX, check: bool = True,
                    seed=0) -> np.ndarray:
    """Expansion coefficients (c_k)_b(a1, a2), k = 0..d_max, of a cylinder kernel.

    K is a callable K(a1, u1, a2, u2, b) with u1, u2 on S^{n-1} and a1, a2
    fiber points over base point b. Horizontal invariance (in the sphere
    arguments only) makes the double sphere integral collapse to the same
    1-D projection as the plain sphere case, at fixed (a1, a2).
    """
    if check:
        rng = np.random.default_rng(seed)

        def draw(_):
            u1, u2 = sample_sphere(n, 2, rng)
            M = sample_orthogonal(n, rng)
            return abs(K(a1, M @ u1, a2, M @ u2, b) - K(a1, u1, a2, u2, b))

        worst = _max_over_draws(draw, 50, "sphere pairs")
        if worst > INVARIANCE_TOL:
            raise InvarianceError(
                f"kernel is not horizontally invariant: max residual {worst:.3e} exceeds {INVARIANCE_TOL:.1e}")
    e1 = np.eye(n)[0]
    return basis_for(_sphere_alpha(n), d_max).expand(lambda t: [K(a1, e1, a2, p, b) for p in _geodesic(n, t)[1:]])


def _monomial_factors(n_vars: int, degree: int) -> np.ndarray:
    """Monomials of total degree <= degree as rows of variable indices.

    Row j lists the variables whose product is monomial j, padded with
    n_vars: the index of a constant 1 appended to the variable vector.
    """
    combos = []
    for deg in range(degree + 1):
        combos.extend(itertools.combinations_with_replacement(range(n_vars), deg))
    F = np.full((len(combos), degree), n_vars)
    for j, c in enumerate(combos):
        F[j, :len(c)] = c
    return F


@dataclass
class FeatureMapCoefficient:
    """Coefficient kernel c(y1, y2, Y) = g(y1, Y)^T g(y2, Y) for a feature map g.

    fn(U, Y) acts on row blocks: for base coordinates as the rows of U
    (m x r) and configuration Gram matrix Y, one (r, r) or one per row, it
    returns the (m, s) feature matrix whose row j is g(U[j], Y or Y[j]).
    Positive definite by construction: every Gram matrix is F F^T. `spec`
    is a serializable description, if any.
    """

    fn: object
    spec: dict | None = None

    def __call__(self, y1, y2, Y) -> float:
        F = self.features([np.ravel(y1), np.ravel(y2)], Y)
        return float(F[0] @ F[1])

    def features(self, U, Y) -> np.ndarray:
        """Feature matrix of the rows of U: row j is g(U[j], Y)."""
        U = np.atleast_2d(np.asarray(U, dtype=float))
        return np.asarray(self.fn(U, Y), dtype=float).reshape(len(U), -1)


def poly_feature_map(r: int, degree: int = 2, s: int = 3, seed=0,
                     weights=None) -> FeatureMapCoefficient:
    """Random polynomial feature map in (y, upper triangle of Y).

    Features are monomials of total degree <= degree in the r entries of y
    and the r(r+1)/2 distinct entries of Y, combined by an s x n_monomials
    weight matrix. Pass `weights` to reconstruct a specific map; otherwise
    weights are drawn from the seeded generator and recorded in `spec`.
    """
    if r < 0:
        raise DomainError("r must be nonnegative")
    iu = np.triu_indices(r)
    n_vars = r + len(iu[0])
    F = _monomial_factors(n_vars, degree)
    n_mono = len(F)
    if weights is None:
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((s, n_mono)) / max(1, n_mono) ** 0.5
    else:
        W = np.asarray(weights, dtype=float)
        if W.ndim != 2 or W.shape[1] != n_mono:
            raise DomainError(f"weights must have {n_mono} columns for r={r}, degree={degree}")

    def fn(U, Y):
        V = np.ones((len(U), n_vars + 1))
        V[:, :r] = U
        V[:, r:n_vars] = np.asarray(Y)[..., iu[0], iu[1]]
        return V[:, F].prod(axis=2) @ W.T

    spec = {"kind": "poly", "r": r, "degree": degree, "weights": W.tolist()}
    return FeatureMapCoefficient(fn=fn, spec=spec)


def _coefficient_from_spec(spec: dict) -> FeatureMapCoefficient:
    if spec.get("kind") != "poly":
        raise DomainError(f"unknown feature map kind {spec.get('kind')!r}")
    return poly_feature_map(int(spec["r"]), degree=int(spec["degree"]), weights=spec["weights"])


@dataclass
class BundleExpansion:
    """Truncated expansion of an invariant bundle kernel.

    coefficients[i] is the coefficient kernel (c_i)(y1, y2, Y). Needs
    r >= 1 (r = 0 is a ScalarExpansion) and n - r >= 3, so the fiber
    sphere S^{n-r-1} has a supported Gegenbauer order. Coefficient kernels
    must be positive definite on sampled fibers for the synthesized kernel
    to be; feature maps satisfy that unconditionally.
    """

    n: int
    r: int
    coefficients: list = field(default_factory=list)

    def __post_init__(self):
        if self.r < 1:
            raise DomainError(f"bundle expansions need r >= 1, got r={self.r}; "
                              "use ScalarExpansion for plain sphere kernels")
        if self.n - self.r < 3:
            raise DomainError(f"the fiber sphere S^{self.n - self.r - 1} needs n - r >= 3, "
                              f"got n={self.n}, r={self.r}")

    @property
    def d_max(self) -> int:
        return len(self.coefficients) - 1

    @property
    def alpha(self) -> float:
        """Order of the perpendicular-angle Gegenbauer factor."""
        return _sphere_alpha(self.n - self.r)

    def to_dict(self) -> dict:
        specs = []
        for c in self.coefficients:
            if not isinstance(c, FeatureMapCoefficient) or c.spec is None:
                raise DomainError("only feature-map coefficient kernels are serializable")
            specs.append(c.spec)
        return {
            "n": self.n,
            "r": self.r,
            "alpha": self.alpha,
            "d_max": self.d_max,
            "feature_map_spec": specs,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BundleExpansion":
        coeffs = [_coefficient_from_spec(s) for s in d["feature_map_spec"]]
        return cls(n=int(d["n"]), r=int(d["r"]), coefficients=coeffs)


def expansion_from_dict(d: dict):
    """Rebuild a serialized expansion; dispatches on the stored fields."""
    if "coefficients" in d:
        return ScalarExpansion.from_dict(d)
    if "feature_map_spec" in d:
        return BundleExpansion.from_dict(d)
    raise DomainError("not a serialized expansion: need coefficients or feature_map_spec")


def random_feature_expansion(n: int, r: int, d_max: int = 4, seed=0) -> BundleExpansion:
    """BundleExpansion with d_max + 1 independent random feature-map coefficients."""
    root = np.random.default_rng(seed)
    coeffs = [poly_feature_map(r, seed=root) for _ in range(d_max + 1)]
    return BundleExpansion(n=n, r=r, coefficients=coeffs)


def _coefficient_pairs(coefficients, A, Y, i, j) -> np.ndarray:
    """(T, len(coefficients)) array of c_k(A[i_m], A[j_m], Y) over pairs m and coefficients k.

    Feature maps run once per row of A, side by side in F, and `owner` sums
    each one's columns of F[i] * F[j]; other coefficient kernels run per pair.
    """
    maps = [k for k, ci in enumerate(coefficients) if isinstance(ci, FeatureMapCoefficient)]
    F = [coefficients[k].features(A, Y) for k in maps]
    owner = np.repeat(np.eye(len(coefficients))[maps], [f.shape[1] for f in F], axis=0)
    F = np.concatenate(F, axis=1) if F else np.empty((len(A), 0))
    C = (F.take(i, axis=0) * F.take(j, axis=0)) @ owner
    for k, ci in enumerate(coefficients):
        if k not in maps:
            C[:, k] = [ci(A[a], A[b], Y if Y.ndim == 2 else Y[a]) for a, b in zip(i, j)]
    return C


def _precheck_coefficient(ci, i, n, r, rng, trials=2, m=25, tol=1e-7):
    for _ in range(trials):
        cfg = random_config(n, r, rng)
        ys = sample_sphere(n, m, rng) @ cfg.Z
        rep = grade_gram(gram(Kernel(r, lambda y1, y2: ci(y1, y2, cfg.gram)), ys), tol)
        if not rep.passed:
            raise CertificateError(
                f"coefficient kernel {i} failed the sampled p.d. check: min eigenvalue {rep.min_eig:.3e}")


def synth_bundle_kernel(e: BundleExpansion, seed=0) -> Kernel:
    """Invariant kernel on the configuration bundle from coefficient kernels.

    K(x, y, Z) = sum_i c_i(Z^T x, Z^T y, Z^T Z) P_i^{(n-r)/2-1}(t) with
    t the normalized inner product of the components of x and y
    perpendicular to range(Z). Undefined when x or y lies in range(Z)
    (the angle is 0/0 there); such calls raise a singularity error
    instead of extending by continuity.

    Coefficient kernels that are not feature maps are screened by a
    sampled p.d. check on random fibers before synthesis; the expansion
    only produces a p.d. kernel when every coefficient kernel is.

    Its one formula is its pairs evaluator: one perp_cosines call for t,
    one Gegenbauer table, each feature map once per row of P (c_i is then
    a row dot product) and any other coefficient kernel once per pair.
    """
    alpha, d_max, r = e.alpha, e.d_max, e.r
    coefficients = list(e.coefficients)
    rng = np.random.default_rng(seed)
    for i, ci in enumerate(coefficients):
        if not isinstance(ci, FeatureMapCoefficient):
            _precheck_coefficient(ci, i, e.n, r, rng)

    def pairs(P, i, j, Z):
        t, A, Y = perp_cosines(P, i, j, Z)
        return np.einsum("tk,kt->t", _coefficient_pairs(coefficients, A, Y, i, j), gegenbauer_table(alpha, d_max, t))

    return Kernel.from_pairs(e.n, pairs, r, "bundle-synth")


def _stacked_rows(a, b, width: int, what: str) -> tuple:
    """[a; b] as 2B rows of length width, from one row each (1-D) or B rows each, and whether both were 1-D."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    single = a.ndim < 2 and b.ndim < 2
    a, b = np.atleast_2d(a, b)
    if a.ndim != 2 or a.shape[1] != width or a.shape != b.shape or not len(a):
        raise DomainError(f"{what} must be one or more rows of length {width}, as many in both blocks")
    return np.concatenate([a, b]), single


class TransportedCoefficients:
    """Per-configuration coefficient kernels of a stabilizer-invariant sphere kernel.

    For fixed full-rank Z, a kernel K on S^{n-1} invariant under the
    stabilizer of Z pulls back through the fiber coordinates to a cylinder
    kernel L((u1, v1), (u2, v2)) = K(x1, x2) with x_j reassembled from the
    base coordinate u_j and perpendicular direction v_j. L is horizontally
    invariant in v, so per (u1, u2) it expands over the fiber sphere
    S^{n-r-1}; values() returns those coefficients and reconstruct() sums
    the expansion back at sphere points off range(Z).

    Both take one pair as 1-D arguments, or a block of pairs as the rows
    of two arrays, and evaluate a block with one K.pairs call over every
    pair's geodesic quadrature points.
    """

    def __init__(self, K: Kernel, cfg: SphereConfig, d_max: int):
        cfg._require_full_rank()
        self.K = K
        self.cfg = cfg
        self.d_max = int(d_max)
        self.alpha = _sphere_alpha(cfg.n - cfg.r)
        self._basis = basis_for(self.alpha, self.d_max)
        # map_t1's fiber directions ort v: row 0 for each pair's first point, row k + 1 for quadrature node k
        V = _geodesic(cfg.n - cfg.r, self._basis.quad.nodes)
        self._directions = (cfg.proj.ort @ V[..., None])[..., 0]

    def _coefficients(self, U: np.ndarray) -> np.ndarray:
        """(B, d_max + 1) coefficients of the pairs (U[b], U[B + b]) of base coordinates."""
        cfg, D, rows = self.cfg, self._directions, len(U) // 2
        # gamma(u) and the points are map_t1's products, so a one-pair call keeps the bits of map_t1's path
        G = (cfg.proj.gamma @ U[..., None])[..., 0]
        g2 = np.vecdot(G, G)
        if g2.max() > 1.0 + 1e-12:
            raise DomainError("coordinate has no preimage on the sphere: ||gamma(u)|| > 1")
        if g2.max() >= 1.0 - 1e-12:
            raise SingularityError("coordinate lies on the fiber boundary ||gamma(u)|| = 1")
        s = np.sqrt(1.0 - g2)[:, None]
        nodes = D[1:] * s[rows:, None] + G[rows:, None]
        vals = self.K.pairs(np.concatenate([D[0] * s[:rows] + G[:rows], nodes.reshape(-1, cfg.n)]),
                            *_fiber_pairs(rows, len(D) - 1))
        basis = self._basis
        return (vals.reshape(rows, -1) * basis.quad.weights) @ basis._node_table.T / basis.norms

    def values(self, u1, u2) -> np.ndarray:
        """Coefficients (d_k)(u1, u2), k = 0..d_max: a vector for one pair, a row per pair of rows."""
        U, single = _stacked_rows(u1, u2, self.cfg.r, "fiber coordinates")
        d = self._coefficients(U)
        return d[0] if single else d

    def reconstruct(self, x, y):
        """Evaluate sum_k d_k(Z^T x, Z^T y) P_k((n-r)/2-1 order angle term).

        A float for points x, y; one value per row for blocks. Matches
        K(x, y) on sphere points off range(Z) up to truncation; raises
        SingularityError at points of range(Z).
        """
        P, single = _stacked_rows(x, y, self.cfg.n, "points")
        rows = len(P) // 2
        t, A, _ = perp_cosines(P, np.arange(rows), np.arange(rows, 2 * rows), self.cfg)
        out = np.vecdot(self._coefficients(A), gegenbauer_table(self.alpha, self.d_max, t).T)
        return float(out[0]) if single else out


def musin_coeffs(K, cfg: SphereConfig, d_max: int = DEFAULT_D_MAX, check: bool = True,
                 seed=0) -> TransportedCoefficients:
    """Coefficient kernels of a fixed-configuration invariant expansion.

    K must be a kernel on S^{n-1} invariant under the stabilizer of cfg
    (orthogonal maps fixing every column of Z); with check=True that is
    verified on sampled stabilizer elements before any transport happens.
    """
    K = _as_sphere_kernel(K, cfg.n)
    cfg._require_full_rank()
    if cfg.n - cfg.r < 3:
        raise DomainError(f"fiber sphere needs n - r >= 3, got n={cfg.n}, r={cfg.r}")
    if check:
        rng = np.random.default_rng(seed)
        draw = lambda count: _rotation_residuals(K, rng, count, cfg.n - cfg.r, lambda Q: stabilizer_element(cfg, Q))
        worst = _max_over_draws(draw, 100, "stabilizer samples")
        if worst > INVARIANCE_TOL:
            raise InvarianceError(
                f"kernel is not stabilizer invariant: max residual {worst:.3e} exceeds {INVARIANCE_TOL:.1e}")
    return TransportedCoefficients(K, cfg, d_max)
