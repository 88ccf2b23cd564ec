"""Addition formula for Gegenbauer polynomials: closed-form constants and identity checks.

The classical identity splits P_k^alpha of a composite angle,

    P_k^a(cos t cos s + sin t sin s cos g)
        = sum_i c_{k,i} (sin t sin s)^i P_i^{a-1/2}(cos g)
                 P_{k-i}^{a+i}(cos t) P_{k-i}^{a+i}(cos s),

with positive constants depending on (alpha, k, i) only. They have the
closed form of DLMF eq. 18.18.8,

    c_{k,i} = 4^i (k-i)! ((alpha)_i)^2 (2 alpha + 2i - 1)
              / ((2 alpha)_{k+i} (2 alpha - 1)),

evaluated here by its ratio in i so that no factor overflows. The
geometric form of the identity (projected inner products with respect to
configurations Z and [Z q]) is checked at random sphere points by
verify_addition.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .exceptions import DomainError, SingularityError
from .gegenbauer import eval_gegenbauer, gegenbauer_table
from .sphere import SphereConfig, _max_over_draws, inner_z

__all__ = [
    "AdditionConstants",
    "addition_constants",
    "addition_residual",
    "AdditionReport",
    "verify_addition",
]

ALPHA_MIN_ADDITION = 0.75
K_MAX = 30
#: verify_addition rejects draws with a perpendicular norm at or below this: an
#: angle divided by a nearly vanishing norm loses the digits the check needs.
_DRAW_MIN_PERP = 1e-4


@dataclass
class AdditionConstants:
    """Constants c_{k,i}, i = 0..k, for one (alpha, k)."""

    alpha: float
    k: int
    c: np.ndarray

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "k": self.k, "c": self.c.tolist()}


def addition_constants(alpha: float, k: int) -> AdditionConstants:
    """The addition constants c_{k,i} for Gegenbauer order alpha (DLMF 18.18.8).

    c_{k,0} = k! / (2 alpha)_k, and each next constant follows from

        c_i / c_{i-1} = 4 (alpha+i-1)^2 (2 alpha+2i-1)
                        / ((k-i+1) (2 alpha+2i-3) (2 alpha+k+i-1)).
    """
    if alpha < ALPHA_MIN_ADDITION:
        raise DomainError(f"alpha must be at least {ALPHA_MIN_ADDITION} (inner order alpha - 1/2), got {alpha}")
    if not 0 <= k <= K_MAX:
        raise DomainError(f"degree must be in 0..{K_MAX}, got {k}")
    a = float(alpha)
    c = np.empty(k + 1)
    c[0] = math.prod((j + 1) / (2 * a + j) for j in range(k))
    for i in range(1, k + 1):
        c[i] = c[i - 1] * (4 * (a + i - 1) ** 2 * (2 * a + 2 * i - 1)
                           / ((k - i + 1) * (2 * a + 2 * i - 3) * (2 * a + k + i - 1)))
    return AdditionConstants(alpha=a, k=int(k), c=c)


def addition_residual(cfg: SphereConfig, x, y, q, k: int,
                      consts: AdditionConstants | None = None) -> float:
    """|LHS - RHS| of the projected addition identity at one point set.

    LHS is P_k of the Z-projected angle between x and y; RHS splits it
    through the extended configuration [Z q]. Terms with vanishing
    [Z q]-norm prefactor are dropped: they carry a factor that decays
    like the prefactor itself while their angle becomes undefined.
    consts, when given, must belong to alpha = (n - r)/2 - 1 and k.
    """
    n, r = cfg.n, cfg.r
    alpha = (n - r) / 2.0 - 1.0
    if consts is None:
        consts = addition_constants(alpha, k)
    elif (consts.alpha, consts.k) != (alpha, k):
        raise DomainError(f"constants are for (alpha, k) = ({consts.alpha}, {consts.k}), "
                          f"the identity needs ({alpha}, {k})")
    P = np.array([x, y, q], dtype=float)
    return float(_residual(alpha, k, consts, inner_z(cfg, P, P)[None],
                           inner_z(cfg.extend(q), P[:2], P[:2])[None])[0])


def _perp_grams(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """inner_z for stacks: X_b X_b^T - (X_b Z_b) (Z_b^T Z_b)^{-1} (X_b Z_b)^T for each b."""
    XZ = X @ Z
    return X @ np.swapaxes(X, 1, 2) - XZ @ np.linalg.inv(np.swapaxes(Z, 1, 2) @ Z) @ np.swapaxes(XZ, 1, 2)


def _residual(alpha: float, k: int, consts: AdditionConstants, Gz: np.ndarray, Ge: np.ndarray) -> np.ndarray:
    """|LHS - RHS| per draw from stacked perpendicular Grams: of (x, y, q) for Z, of (x, y) for [Z q]."""
    nz, ne = Gz.diagonal(0, 1, 2), Ge.diagonal(0, 1, 2)
    if np.any(nz <= 0.0):
        raise SingularityError("a point lies in range(Z)")
    cz = np.clip(Gz / np.sqrt(nz[:, :, None] * nz[:, None, :]), -1.0, 1.0)
    lhs = eval_gegenbauer(alpha, k, cz[:, 0, 1])

    sxy = np.prod(np.sqrt(np.maximum(ne, 0.0) / nz[:, :2]), axis=1).astype(object)
    live = ne.min(axis=1) >= 1e-24
    cg = Ge[:, 0, 1] / np.sqrt(np.where(live, ne[:, 0] * ne[:, 1], 1.0))
    inner = gegenbauer_table(alpha - 0.5, k, np.clip(cg, -1.0, 1.0))
    inner[1:] *= live  # a draw whose [Z q]-norms vanish keeps only the i = 0 term
    cts, rhs = cz[:, :2, 2].T, 0.0
    for i in range(k + 1):
        pt, ps = gegenbauer_table(alpha + i, k - i, cts)[k - i]
        # Python's float pow is the C library's bit for bit; numpy's vector pow (SVML on AVX-512) may round differently
        rhs = rhs + consts.c[i] * (sxy ** i).astype(float) * inner[i] * pt * ps
    return np.abs(lhs - rhs)


@dataclass
class AdditionReport:
    n: int
    r: int
    k: int
    samples: int
    max_residual: float
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def verify_addition(n: int, r: int, k: int, samples: int = 200, seed=0,
                    tol: float = 1e-8) -> AdditionReport:
    """Check the projected addition identity at random (x, y, q, Z).

    Requires n - r >= 4 so both polynomial orders in the identity stay in
    the supported range. One Gaussian block holds every draw's Z columns,
    x, y and q (random_config's and sample_sphere's order). A draw is
    dropped and replaced when [Z q] has a singular value at most 1e-3 or a
    projected norm is at most _DRAW_MIN_PERP, keeping every angle defined.
    """
    if r < 0:
        raise DomainError("r must be nonnegative")
    if n - r < 4:
        raise DomainError(
            f"need n - r >= 4 (inner order (n-r)/2 - 3/2 at least {ALPHA_MIN_ADDITION - 0.5}), got n={n}, r={r}")
    alpha = (n - r) / 2.0 - 1.0
    consts = addition_constants(alpha, k)
    rng = np.random.default_rng(seed)

    def draw(count):
        U = rng.standard_normal((count, r + 3, n))  # per draw: Z's columns, then x, y, q
        U /= np.linalg.norm(U, axis=2, keepdims=True)
        E = np.concatenate([np.swapaxes(U[:, :r], 1, 2), U[:, r + 2, :, None]], axis=2)
        keep = np.linalg.svd(E, compute_uv=False)[:, -1] > 1e-3
        U, E = U[keep], E[keep]
        Gz, Ge = _perp_grams(U[:, r:], np.swapaxes(U[:, :r], 1, 2)), _perp_grams(U[:, r:r + 2], E)
        keep = np.minimum(Gz.diagonal(0, 1, 2).min(1), Ge.diagonal(0, 1, 2).min(1)) > _DRAW_MIN_PERP ** 2
        return _residual(alpha, k, consts, Gz[keep], Ge[keep])

    worst = _max_over_draws(draw, samples, "nondegenerate samples")
    return AdditionReport(n=n, r=r, k=k, samples=samples, max_residual=float(worst),
                          tol=tol, passed=bool(worst < tol))
