"""Gegenbauer (ultraspherical) polynomials, norms, and weighted quadrature.

Everything here lives on [-1, 1] with the weight (1 - t^2)^(alpha - 1/2).
Coefficient extraction for kernel expansions reduces to integrals against
this weight, so the quadrature rule is the workhorse of the whole package.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import DomainError

__all__ = [
    "eval_gegenbauer",
    "gegenbauer_table",
    "weight_mass",
    "gauss_gegenbauer_rule",
    "QuadratureRule",
    "GegenbauerBasis",
    "basis_for",
]

#: Smallest weight order supported by quadrature-backed operations.
#: (alpha = 0 degenerates the recurrence: P_1^0 is identically zero.)
ALPHA_MIN = 0.25

_T_SLACK = 1e-12


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if alpha < ALPHA_MIN:
        raise DomainError(f"weight order alpha={alpha} below supported minimum {ALPHA_MIN}")
    return alpha


def eval_gegenbauer(alpha: float, d: int, t):
    """P_d^alpha(t): the last row of gegenbauer_table, a float for scalar t."""
    p = gegenbauer_table(alpha, d, t)[d]
    return float(p) if p.ndim == 0 else p


def gegenbauer_table(alpha: float, d_max: int, t) -> np.ndarray:
    """All degrees at once: row k of the result is P_k^alpha evaluated at t.

    Forward recurrence: P_0 = 1, P_1 = 2*alpha*t, and
    k*P_k(t) = 2t(k+alpha-1)*P_{k-1}(t) - (k+2*alpha-2)*P_{k-2}(t).
    Returns an array of shape (d_max + 1, *shape(t)). One recurrence pass,
    so this is the preferred way to evaluate a truncated expansion.
    """
    if d_max < 0:
        raise DomainError(f"degree must be nonnegative, got {d_max}")
    t_arr = np.asarray(t, dtype=float)
    shape = t_arr.shape
    if t_arr.size == 1:
        t_arr = t_arr.reshape(())  # one point: the recurrence runs on np.float64 scalars, same rounding
    if (np.abs(t_arr) > 1.0 + _T_SLACK).any():
        raise DomainError("argument outside [-1, 1]")
    t_arr = t_arr.clip(-1.0, 1.0)

    two_t = 2.0 * t_arr
    out = np.empty((d_max + 1,) + t_arr.shape)
    out[0] = 1.0
    out[1:2] = alpha * two_t  # no row 1 when d_max = 0
    for k in range(2, d_max + 1):
        out[k] = (two_t * (k + alpha - 1.0) * out[k - 1]
                  - (k + 2.0 * alpha - 2.0) * out[k - 2]) / k
    return out.reshape((d_max + 1,) + shape)


def weight_mass(alpha: float) -> float:
    """Total mass of the weight: integral of (1-t^2)^(alpha-1/2) over [-1, 1]."""
    alpha = float(alpha)
    return math.exp(0.5 * math.log(math.pi) + math.lgamma(alpha + 0.5) - math.lgamma(alpha + 1.0))


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule for the weight (1-t^2)^(alpha-1/2) on [-1, 1].

    An m-node rule integrates polynomials of degree <= 2m-1 exactly
    against the weight: weights @ f(nodes).
    """

    nodes: np.ndarray
    weights: np.ndarray
    alpha: float


def gauss_gegenbauer_rule(alpha: float, m: int) -> QuadratureRule:
    """Golub-Welsch construction of the m-node Gauss rule for the weight.

    The symmetric Jacobi matrix is built from the three-term recurrence of
    the (monic) orthogonal polynomials for (1-t^2)^(alpha-1/2): zero
    diagonal, off-diagonal sqrt(beta_k) with

        beta_k = k (k + 2*alpha - 1) / (4 (k + alpha) (k + alpha - 1)).

    Nodes are its eigenvalues; weights are mass * (first eigenvector row)^2.
    """
    alpha = _check_alpha(alpha)
    if m < 1:
        raise DomainError(f"node count must be positive, got {m}")
    if m == 1:
        return QuadratureRule(np.zeros(1), np.array([weight_mass(alpha)]), alpha)
    k = np.arange(1, m, dtype=float)
    beta = k * (k + 2.0 * alpha - 1.0) / (4.0 * (k + alpha) * (k + alpha - 1.0))
    off = np.sqrt(beta)
    nodes, vecs = np.linalg.eigh(np.diag(off, -1) + np.diag(off, 1))
    weights = weight_mass(alpha) * vecs[0] ** 2
    return QuadratureRule(nodes, weights, alpha)


class GegenbauerBasis:
    """Gegenbauer family up to a fixed degree with precomputed norms.

    Carries a (d_max + 8)-node quadrature rule, exact for every integral
    the expansion formulas need (degree 2*d_max integrands against the weight).
    """

    def __init__(self, alpha: float, d_max: int):
        self.alpha = _check_alpha(alpha)
        if d_max < 0:
            raise DomainError(f"d_max must be nonnegative, got {d_max}")
        self.d_max = int(d_max)
        self.quad = gauss_gegenbauer_rule(self.alpha, self.d_max + 8)
        self._node_table = gegenbauer_table(self.alpha, self.d_max, self.quad.nodes)
        self.norms = (self._node_table ** 2) @ self.quad.weights

    def norm(self, k: int) -> float:
        if k > self.d_max:
            raise DomainError(f"degree {k} exceeds basis d_max {self.d_max}")
        return float(self.norms[k])

    def expand(self, f) -> np.ndarray:
        """Coefficients c_k = <f, P_k> / ||P_k||^2 for k = 0..d_max, by quadrature.

        f is called once, on the array of nodes (a constant broadcasts).
        Exact whenever f is a polynomial with deg f + d_max < 2 * (d_max + 8).
        """
        return (self._node_table @ (np.asarray(f(self.quad.nodes), dtype=float) * self.quad.weights)) / self.norms

    def synth(self, coefficients: np.ndarray, t):
        """Evaluate sum_k c_k P_k^alpha(t)."""
        c = np.asarray(coefficients, dtype=float)
        if len(c) > self.d_max + 1:
            raise DomainError("more coefficients than basis degrees")
        tab = gegenbauer_table(self.alpha, len(c) - 1, t)
        out = np.tensordot(c, tab, axes=1)
        return float(out) if np.ndim(t) == 0 else out


@lru_cache(maxsize=128)
def basis_for(alpha: float, d_max: int) -> GegenbauerBasis:
    """Cached basis lookup; safe because GegenbauerBasis is immutable in use."""
    return GegenbauerBasis(alpha, d_max)
