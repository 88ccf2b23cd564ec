"""Linear programming upper bound for spherical codes with pairwise angle >= theta.

If f(t) = sum_k c_k P_k^{n/2-1}(t) has c_k >= 0, c_0 > 0, and f(t) <= 0
for all t in [-1, cos theta], then no code with minimum angle theta can
have more than f(1)/c_0 points: summing f over all pairs of a code is
nonnegative term by term in the expansion yet the off-diagonal kernel
values are all <= 0. The optimization over such f is a linear program.

The sign constraint is imposed on a Chebyshev grid, so the grid optimum
f may rise slightly above 0 between grid points. Its peak delta on
[-1, cos theta] lies at an endpoint or a real root of f' (_peak);
subtracting delta from c_0 makes f <= 0 on the whole interval and gives a
certificate that is feasible by construction, at the price of a bound
(f(1) - delta)/(1 - delta) slightly above the grid optimum. certify
measures a stored certificate's peak the same way. The roots are found
in floating point, so that is a search, not a proof of the sign of f.

The solver works on the dual covering form: maximize the number of
touched grid points subject to one covering row per expansion degree.
Its right-hand side P_k(1) is positive, so the origin is feasible and
the small dense simplex in _simplex applies directly; the expansion
coefficients come back as the dual multipliers.
"""

from dataclasses import asdict, dataclass

import numpy as np

from ._simplex import simplex_max
from .exceptions import CertificateError, DomainError, InfeasibleError, UnboundedError
from .gegenbauer import gegenbauer_table

__all__ = [
    "LPBoundProblem",
    "LPCertificate",
    "CertifyReport",
    "chebyshev_grid",
    "delsarte_lp",
    "certify",
]

DEFAULT_GRID = 400
MAX_ROUNDS = 3
MARGIN_TOL = 1e-9
# A grid solution that peaks above MAX_SHIFT is re-solved on a doubled grid
# instead of shifted, since a shift near 1 leaves c_0 near 0. Over 700 seeded
# random instances (n 3..24, d_max 1..40, theta 25..150 deg), a cap of 0.999
# made some bounds up to 6x looser, 0.25 refused one instance that 0.5 solves,
# and 0.5 left no bound more than 0.36 % looser than padding and re-solving.
MAX_SHIFT = 0.5
D_MAX_LIMIT = 60


def chebyshev_grid(a: float, b: float, count: int) -> np.ndarray:
    """count Chebyshev-Lobatto points on [a, b], increasing, endpoints exact."""
    if count < 2:
        raise DomainError("grid needs at least 2 points")
    j = np.arange(count)
    pts = a + (b - a) * 0.5 * (1.0 - np.cos(np.pi * j / (count - 1)))
    pts[0], pts[-1] = a, b
    return pts


@dataclass
class LPBoundProblem:
    """Bound computation input: dimension, minimum angle, degree."""

    n: int
    theta: float
    d_max: int

    def __post_init__(self):
        if self.n < 3:
            raise DomainError(f"dimension must be at least 3, got {self.n}")
        if not 0.0 < self.theta <= np.pi:
            raise DomainError(f"theta must lie in (0, pi], got {self.theta}")
        if not 1 <= self.d_max <= D_MAX_LIMIT:
            raise DomainError(f"d_max must be in 1..{D_MAX_LIMIT}, got {self.d_max}")

    @property
    def alpha(self) -> float:
        return self.n / 2.0 - 1.0

    @property
    def cos_theta(self) -> float:
        return float(np.cos(self.theta))


@dataclass
class LPCertificate:
    """Expansion coefficients plus the bound f(1)/c_0 they claim; certify checks both."""

    n: int
    theta: float
    d_max: int
    coefficients: np.ndarray
    bound: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "theta": self.theta,
            "d_max": self.d_max,
            "coefficients": self.coefficients.tolist(),
            "bound": self.bound,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LPCertificate":
        missing = [k for k in ("n", "theta", "d_max", "coefficients", "bound") if k not in d]
        if missing:
            raise DomainError(f"certificate is missing {', '.join(missing)}")
        try:
            return cls(n=int(d["n"]), theta=float(d["theta"]), d_max=int(d["d_max"]),
                       coefficients=np.asarray(d["coefficients"], dtype=float),
                       bound=float(d["bound"]))
        except (TypeError, ValueError) as exc:
            raise DomainError(f"certificate has a malformed field: {exc}") from exc


def _solve_on_grid(p: LPBoundProblem, grid: np.ndarray) -> np.ndarray:
    """Grid LP via the dual covering form; returns coefficients with c_0 = 1.

    Primal: min sum_k c_k P_k(1) over c_k >= 0 with
    sum_{k>=1} c_k P_k(t_j) <= -1 for every grid point. The dual maximizes
    sum_j z_j under sum_j z_j P_k(t_j) >= -P_k(1), which after sign flip
    is origin-feasible covering form; each row is divided by its P_k(1),
    so the duals come back divided by it too.
    """
    tab = gegenbauer_table(p.alpha, p.d_max, grid)
    pk1 = gegenbauer_table(p.alpha, p.d_max, 1.0)
    try:
        res = simplex_max(np.ones(len(grid)), -tab[1:] / pk1[1:, None], np.ones(p.d_max))
    except UnboundedError as exc:
        raise InfeasibleError("no feasible expansion at this degree and angle") from exc
    return np.concatenate([[1.0], np.maximum(res.duals, 0.0) / pk1[1:]])


def _peak(coeffs: np.ndarray, alpha: float, a: float, b: float) -> float:
    """Maximum of f = sum_k c_k P_k^alpha on [a, b]: at an endpoint or a real root of f'.

    f is interpolated exactly at d + 1 Chebyshev points, mapped from [-1, 1] by t = off + scl * x;
    the real parts of all roots of its derivative, mapped back and clipped to [a, b], join a and
    b as candidates, and f is evaluated at each of them directly.
    """
    d = len(coeffs) - 1
    ts = np.array([a, b])
    if d >= 2:
        cheb = np.polynomial.chebyshev  # loaded on first use, not on import
        off, scl = (a + b) / 2, (b - a) / 2
        f = cheb.chebinterpolate(lambda x: coeffs @ gegenbauer_table(alpha, d, off + scl * x), d)
        roots = off + scl * cheb.chebroots(cheb.chebder(f, 1, 2 / (b - a)))
        ts = np.concatenate([ts, np.clip(roots.real, a, b)])
    return float(np.max(coeffs @ gegenbauer_table(alpha, d, ts)))


def delsarte_lp(p: LPBoundProblem) -> LPCertificate:
    """Degree-d_max bound from one grid solve, shifted to be feasible everywhere.

    Solves the LP on DEFAULT_GRID Chebyshev points of [-1, cos theta],
    takes the peak delta of f on that interval (see _peak), and returns
    c_0 <- c_0 - delta with bound f(1)/c_0. The shifted f peaks at 0 up to
    rounding, so the certificate carries no grade of its own; certify
    measures it. Only if delta exceeds MAX_SHIFT does the solve repeat on
    a doubled grid; after MAX_ROUNDS solves it raises CertificateError.
    IllConditionedError means the simplex reached its iteration limit.
    """
    top = p.cos_theta
    size = DEFAULT_GRID
    for _ in range(MAX_ROUNDS):
        coeffs = _solve_on_grid(p, chebyshev_grid(-1.0, top, size))
        delta = _peak(coeffs, p.alpha, -1.0, top)
        if delta <= MAX_SHIFT:
            coeffs[0] -= delta
            bound = float(coeffs @ gegenbauer_table(p.alpha, p.d_max, 1.0) / coeffs[0])
            return LPCertificate(n=p.n, theta=p.theta, d_max=p.d_max, coefficients=coeffs, bound=bound)
        size *= 2
    raise CertificateError(
        f"grid solutions peak above the shift cap {MAX_SHIFT} after {MAX_ROUNDS} rounds; last peak {delta:.3e}")


@dataclass
class CertifyReport:
    """Outcome of certify; failed names each condition that did not hold."""

    max_violation: float
    bound: float
    claimed_bound: float
    tol: float
    failed: list[str]

    @property
    def passed(self) -> bool:
        return not self.failed

    def to_dict(self) -> dict:
        return dict(asdict(self), passed=self.passed)


def certify(cert: LPCertificate, p: LPBoundProblem, tol: float = MARGIN_TOL) -> CertifyReport:
    """Re-verify a certificate against p, which must carry its n, theta and d_max.

    A mismatched p raises DomainError rather than grade f on another
    interval. Reports max_violation, the peak of f on [-1, cos theta]
    found by _peak as delsarte_lp measures its shift (a floating-point
    search, not a proof), and the recomputed bound f(1)/c_0. Pass means
    the certificate proves its bound up to tol: that peak is <= tol
    ("violation"), c_k >= -tol ("coefficients"), and the claimed bound is
    not below the recomputed one by more than tol * max(1, bound)
    ("claim"). The report lists the conditions that failed under those
    names. An optimal-but-infeasible coefficient vector fails here
    regardless of how it was produced.
    """
    if (p.n, p.theta, p.d_max) != (cert.n, cert.theta, cert.d_max):
        raise DomainError(f"certificate is for n={cert.n}, theta={cert.theta!r}, d_max={cert.d_max}; "
                          f"problem is n={p.n}, theta={p.theta!r}, d_max={p.d_max}")
    coeffs = np.asarray(cert.coefficients, dtype=float)
    if coeffs.shape != (cert.d_max + 1,):
        raise DomainError(f"certificate has {coeffs.size} coefficients, d_max={cert.d_max} needs {cert.d_max + 1}")
    if not np.all(np.isfinite(coeffs)):
        raise DomainError("certificate coefficients must be finite")
    if coeffs[0] <= 0:
        raise DomainError("certificate needs c_0 > 0")
    worst = _peak(coeffs, p.alpha, -1.0, p.cos_theta)
    bound = float(coeffs @ gegenbauer_table(p.alpha, p.d_max, 1.0)) / float(coeffs[0])
    checks = {
        "violation": worst <= tol,
        "coefficients": bool(np.min(coeffs) >= -tol),
        "claim": cert.bound >= bound - tol * max(1.0, bound),
    }
    return CertifyReport(max_violation=worst, bound=bound, claimed_bound=cert.bound, tol=tol,
                         failed=[name for name, ok in checks.items() if not ok])
