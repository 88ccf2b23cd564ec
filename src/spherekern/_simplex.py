"""Dense tableau simplex for small inequality-form linear programs.

Solves max c^T x subject to G x <= h, x >= 0 with h >= 0, so the origin
is feasible and no phase-1 is needed. That is exactly the shape of the
dual covering problems this package produces (a handful of rows, a few
hundred columns); a dense tableau is the simplest correct tool at that
size. Dantzig pricing with a switch to Bland's rule guards against
cycling on degenerate vertices.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, IllConditionedError, UnboundedError

__all__ = ["SimplexResult", "simplex_max"]

_PIVOT_TOL = 1e-11
_OPT_TOL = 1e-9
_DANTZIG_CAP = 5000
_ITERATION_CAP = 50000


@dataclass
class SimplexResult:
    x: np.ndarray
    value: float
    duals: np.ndarray
    iterations: int


def simplex_max(c, G, h) -> SimplexResult:
    """Maximize c^T x over G x <= h, x >= 0.

    Requires h >= 0. Returns the optimum, its value, and the dual vector
    (one multiplier per row, read off the slack reduced costs), which
    solves min h^T u over G^T u >= c, u >= 0.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    h = np.asarray(h, dtype=float).reshape(-1)
    m, n = G.shape
    if c.shape != (n,) or h.shape != (m,):
        raise DomainError("inconsistent LP dimensions")
    if np.any(h < 0):
        raise DomainError("right-hand side must be nonnegative (origin-feasible form)")

    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = G
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = h
    T[m, :n] = -c
    basis = list(range(n, n + m))

    for it in range(_ITERATION_CAP):
        obj = T[m, :-1]
        if it < _DANTZIG_CAP:
            j = int(np.argmin(obj))
            if obj[j] >= -_OPT_TOL:
                break
        else:
            candidates = np.flatnonzero(obj < -_OPT_TOL)
            if len(candidates) == 0:
                break
            j = int(candidates[0])
        col = T[:m, j]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(col > _PIVOT_TOL, T[:m, -1] / col, np.inf)
        i = int(np.argmin(ratios))
        if not np.isfinite(ratios[i]):
            raise UnboundedError("objective unbounded above on the feasible set")
        if it >= _DANTZIG_CAP:
            ties = np.flatnonzero(ratios <= ratios[i] + 1e-12 * abs(ratios[i]))
            i = int(min(ties, key=lambda row: basis[row]))
        piv = T[i] / T[i, j]
        T -= np.outer(T[:, j], piv)
        T[i] = piv
        basis[i] = j
    else:
        raise IllConditionedError("simplex iteration limit reached")

    x = np.zeros(n + m)
    for row, b in enumerate(basis):
        x[b] = T[row, -1]
    return SimplexResult(x=x[:n], value=float(T[m, -1]),
                         duals=T[m, n:n + m].copy(), iterations=it)
