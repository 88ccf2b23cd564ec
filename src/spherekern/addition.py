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
from .sphere import SphereConfig, _max_over_draws, inner_z, random_config, sample_sphere

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
    return _residual(alpha, k, consts, inner_z(cfg, P, P), inner_z(cfg.extend(q), P[:2], P[:2]))


def _residual(alpha: float, k: int, consts: AdditionConstants, Gz: np.ndarray, Ge: np.ndarray) -> float:
    """|LHS - RHS| from the perpendicular Gram blocks of (x, y, q) for Z and of (x, y) for [Z q]."""
    nz, ne = np.diag(Gz), np.diag(Ge)
    if nz.min() <= 0.0:
        raise SingularityError("a point lies in range(Z)")
    cz = np.clip(Gz / np.sqrt(np.outer(nz, nz)), -1.0, 1.0)
    lhs = eval_gegenbauer(alpha, k, cz[0, 1])

    sx, sy = np.sqrt(np.maximum(ne, 0.0) / nz[:2])
    ct, cs = cz[0, 2], cz[1, 2]
    degenerate = ne.min() < 1e-24
    if not degenerate:
        cg = np.clip(Ge[0, 1] / np.sqrt(ne[0] * ne[1]), -1.0, 1.0)
        inner = gegenbauer_table(alpha - 0.5, k, cg)
    rhs = 0.0
    for i in range(k + 1):
        if i > 0 and degenerate:
            break
        gfac = 1.0 if i == 0 else inner[i]
        pt, ps = gegenbauer_table(alpha + i, k - i, np.array([ct, cs]))[k - i]
        rhs += consts.c[i] * (sx * sy) ** i * gfac * pt * ps
    return float(abs(lhs - rhs))


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
    the supported range. Draws are rejected when any projected norm is at
    most _DRAW_MIN_PERP, keeping every angle well defined.
    """
    if r < 0:
        raise DomainError("r must be nonnegative")
    if n - r < 4:
        raise DomainError(
            f"need n - r >= 4 (inner order (n-r)/2 - 3/2 at least {ALPHA_MIN_ADDITION - 0.5}), got n={n}, r={r}")
    alpha = (n - r) / 2.0 - 1.0
    consts = addition_constants(alpha, k)
    rng = np.random.default_rng(seed)

    def draw():
        cfg = random_config(n, r, rng)
        P = sample_sphere(n, 3, rng)
        ext = cfg.extend(P[2])
        if ext.svals[-1] <= 1e-3:
            raise SingularityError("[Z q] is nearly rank deficient")
        Gz, Ge = inner_z(cfg, P, P), inner_z(ext, P[:2], P[:2])
        if min(np.diag(Gz).min(), np.diag(Ge).min()) <= _DRAW_MIN_PERP ** 2:
            raise SingularityError("a point lies too close to range(Z) or range([Z q])")
        return _residual(alpha, k, consts, Gz, Ge)

    worst = _max_over_draws(draw, samples, "nondegenerate samples")
    return AdditionReport(n=n, r=r, k=k, samples=samples, max_residual=float(worst),
                          tol=tol, passed=bool(worst < tol))
