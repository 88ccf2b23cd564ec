"""Geometry of the unit sphere and of point configurations Z.

A configuration is an n x r matrix with unit columns. Operations here
provide the projections onto its range and complement, the bundle
coordinate maps between the sphere and (fiber sphere) x (base disk)
coordinates, stabilizer elements, and seeded samplers.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, RankError, SingularityError

__all__ = [
    "SphereConfig",
    "ProjectorPair",
    "projectors",
    "map_t1",
    "map_t2",
    "inner_z",
    "stabilizer_element",
    "sample_sphere",
    "sample_orthogonal",
    "random_config",
]

UNIT_TOL = 1e-12
RANK_RTOL = 1e-8  # full rank: smallest singular value > RANK_RTOL * largest
TOL_PERP = 1e-8  # a point whose perpendicular norm is at most this lies in range(Z)
_MIN_SINGULAR = 1e-3  # smallest singular value random_config accepts


@dataclass(frozen=True)
class ProjectorPair:
    """Orthogonal projectors onto range(Z) and its complement.

    `ort` holds an orthonormal basis of range(Z)^perp as columns;
    `gamma` is the factor Z (Z^T Z)^{-1}, so gamma @ u is the range
    point with coordinate vector u.
    """

    Pi: np.ndarray
    PiPerp: np.ndarray
    ort: np.ndarray
    gamma: np.ndarray


class SphereConfig:
    """An n x r configuration of unit vectors with cached rank data.

    Columns must be unit vectors (checked to 1e-12). `svals` holds the
    singular values of Z in descending order; `full_rank` means the
    smallest exceeds RANK_RTOL times the largest. r = 0 is the empty
    configuration.
    """

    def __init__(self, Z: np.ndarray):
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        if Z.ndim != 2:
            raise DomainError("Z must be a 2-d array")
        self.Z = Z
        self.n, self.r = Z.shape
        if self.r > 0:
            norms = np.linalg.norm(Z, axis=0)
            if np.any(np.abs(norms - 1.0) > UNIT_TOL):
                raise DomainError("configuration columns must be unit vectors")
        self.svals = np.linalg.svd(Z, compute_uv=False) if self.r else np.zeros(0)
        self.full_rank = self.r == 0 or bool(self.svals[-1] > RANK_RTOL * self.svals[0])
        self._proj: ProjectorPair | None = None
        self._gram_inv: np.ndarray | None = None

    @property
    def gram(self) -> np.ndarray:
        return self.Z.T @ self.Z

    @property
    def gram_inv(self) -> np.ndarray:
        if self._gram_inv is None:
            self._require_full_rank()
            if self.r == 0:
                self._gram_inv = np.zeros((0, 0))
            else:
                self._gram_inv = np.linalg.inv(self.gram)
        return self._gram_inv

    def _require_full_rank(self):
        if not self.full_rank:
            raise RankError("configuration is rank deficient")

    @property
    def proj(self) -> ProjectorPair:
        if self._proj is None:
            self._proj = projectors(self)
        return self._proj

    def extend(self, q: np.ndarray) -> "SphereConfig":
        """Configuration [Z q] with one extra column."""
        q = np.asarray(q, dtype=float).reshape(-1)
        return SphereConfig(np.column_stack([self.Z, q]))

    def __repr__(self):
        return f"SphereConfig(n={self.n}, r={self.r}, full_rank={self.full_rank})"


def _fix_column_signs(Q: np.ndarray) -> np.ndarray:
    """Deterministic sign convention: first nonzero entry of each column positive."""
    Q = Q.copy()
    for j in range(Q.shape[1]):
        col = Q[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if len(nz) and col[nz[0]] < 0.0:
            Q[:, j] = -col
    return Q


def projectors(cfg: SphereConfig) -> ProjectorPair:
    """Projector pair for a full-rank configuration.

    Pi = Z (Z^T Z)^{-1} Z^T, PiPerp = I - Pi. The complement basis comes
    from a Householder QR of Z (trailing n-r columns of the full factor),
    sign-fixed so the construction is deterministic.
    """
    cfg._require_full_rank()
    n, r = cfg.n, cfg.r
    if r == 0:
        eye = np.eye(n)
        return ProjectorPair(Pi=np.zeros((n, n)), PiPerp=eye, ort=eye.copy(),
                             gamma=np.zeros((n, 0)))
    gamma = cfg.Z @ cfg.gram_inv
    Pi = gamma @ cfg.Z.T
    Pi = 0.5 * (Pi + Pi.T)
    PiPerp = np.eye(n) - Pi
    Q, _ = np.linalg.qr(cfg.Z, mode="complete")
    ort = _fix_column_signs(Q[:, r:])
    return ProjectorPair(Pi=Pi, PiPerp=PiPerp, ort=ort, gamma=gamma)


def inner_z(cfg: SphereConfig, x: np.ndarray, y: np.ndarray):
    """Inner products of the components orthogonal to range(Z), points as rows.

    Schur form X Y^T - (XZ) (Z^T Z)^{-1} (YZ)^T, which equals
    (X PiPerp)(Y PiPerp)^T: the (mX, mY) matrix for blocks X and Y, a
    float for two points x and y.
    """
    cfg._require_full_rank()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = x @ y.T - (x @ cfg.Z) @ cfg.gram_inv @ (y @ cfg.Z).T
    return float(out) if np.ndim(out) == 0 else out


def perp_cosines(P: np.ndarray, i, j, Z) -> tuple:
    """Cosines between the range(Z)-perpendicular parts of the row pairs (P[i_k], P[j_k]).

    Z is one SphereConfig, or a (rows, n, r) array (pair k uses Z[i_k]).
    Returns the clipped cosines, the base coordinates A (row p is Z^T p)
    and Y = Z^T Z (one, or one per row). The angle is 0/0 at a point of
    range(Z), so a row of P whose perpendicular norm is at most TOL_PERP
    raises SingularityError instead of being extended by continuity.
    """
    if isinstance(Z, SphereConfig):
        Z._require_full_rank()
        A = P @ Z.Z
        Y, W = Z.gram, A @ Z.gram_inv
    else:
        svals = np.linalg.svd(Z, compute_uv=False)  # SphereConfig.full_rank's rule, row by row
        if np.any(svals[:, -1] <= RANK_RTOL * svals[:, 0]):
            raise RankError("configuration is rank deficient")
        A = (P[:, None] @ Z)[:, 0]
        Y = np.swapaxes(Z, 1, 2) @ Z
        W = np.linalg.solve(Y, A[..., None])[..., 0]
    # the Schur form p.q - (Z^T p)^T (Z^T Z)^{-1} (Z^T q) is the dot product of rows L_p and R_q
    L, R = np.concatenate([P, A], axis=1), np.concatenate([P, -W], axis=1)
    n2 = np.vecdot(L, R)
    if n2.min() <= TOL_PERP ** 2:
        raise SingularityError("argument lies in range(Z); the perpendicular angle is undefined there")
    t = np.vecdot(L.take(i, axis=0), R.take(j, axis=0)) / np.sqrt(n2.take(i) * n2.take(j))
    return np.clip(t, -1.0, 1.0), A, Y


def map_t1(cfg: SphereConfig, v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Assemble the sphere point with perpendicular direction v and base coordinate u.

    x = ort(Z) v * sqrt(1 - ||gamma(u)||^2) + Z (Z^T Z)^{-1} u. Requires
    ||v|| = 1 and ||gamma(u)|| <= 1; v may hold one direction per row.
    """
    cfg._require_full_rank()
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float).reshape(-1)
    if v.ndim not in (1, 2) or v.shape[-1] != cfg.n - cfg.r:
        raise DomainError(f"v must have length {cfg.n - cfg.r}")
    if u.shape != (cfg.r,):
        raise DomainError(f"u must have length {cfg.r}")
    if np.any(np.abs(np.linalg.norm(v, axis=-1) - 1.0) > 1e-10):
        raise DomainError("v must be a unit vector")
    proj = cfg.proj
    g = proj.gamma @ u
    g2 = float(g @ g)
    if g2 > 1.0 + 1e-12:
        raise DomainError("base coordinate outside the fiber disk: ||gamma(u)|| > 1")
    scale = np.sqrt(max(1.0 - g2, 0.0))
    return (proj.ort @ v[..., None])[..., 0] * scale + g


def map_t2(cfg: SphereConfig, x: np.ndarray):
    """Split a sphere point into perpendicular direction and base coordinate.

    Returns (v, u) with v = ort^T x normalized and u = Z^T x. Only defined
    off range(Z): raises SingularityError when ||PiPerp x|| <= TOL_PERP.
    """
    cfg._require_full_rank()
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (cfg.n,):
        raise DomainError(f"x must have length {cfg.n}")
    proj = cfg.proj
    w = proj.ort.T @ x
    wn = float(np.linalg.norm(w))
    if wn <= TOL_PERP:
        raise SingularityError("point lies in range(Z); perpendicular part vanishes")
    return w / wn, cfg.Z.T @ x


def stabilizer_element(cfg: SphereConfig, Q: np.ndarray) -> np.ndarray:
    """Orthogonal matrix fixing every column of Z, acting as Q on range(Z)^perp.

    M = Pi + ort Q ort^T for orthogonal (n-r) x (n-r) Q, or a stack of them.
    """
    cfg._require_full_rank()
    Q = np.asarray(Q, dtype=float)
    m = cfg.n - cfg.r
    if Q.shape[-2:] != (m, m):
        raise DomainError(f"Q must be {m} x {m}")
    if np.max(np.abs(np.swapaxes(Q, -1, -2) @ Q - np.eye(m))) > 1e-10:
        raise DomainError("Q is not orthogonal")
    proj = cfg.proj
    return proj.Pi + proj.ort @ Q @ proj.ort.T


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def sample_sphere(n: int, count: int, seed=0) -> np.ndarray:
    """Uniform points on the unit sphere, one per row. Deterministic per seed."""
    if n < 1:
        raise DomainError("dimension must be at least 1")
    rng = _rng(seed)
    pts = rng.standard_normal((count, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts


def sample_orthogonal(n: int, seed=0) -> np.ndarray:
    """Haar-distributed orthogonal matrix: QR of a Gaussian with sign-fixed R diagonal."""
    if n < 1:
        raise DomainError("dimension must be at least 1")
    return _haar(_rng(seed).standard_normal((n, n)))


def _haar(G: np.ndarray) -> np.ndarray:
    """Haar orthogonal matrices from Gaussian ones (or a stack of them): QR with a sign-fixed R diagonal."""
    Q, R = np.linalg.qr(G)
    signs = np.sign(np.diagonal(R, axis1=-2, axis2=-1))
    signs[signs == 0.0] = 1.0
    return Q * signs[..., None, :]


def _max_over_draws(draw, samples: int, what: str) -> float:
    """Largest value over exactly `samples` accepted draws; samples < 1 is a DomainError.

    draw(count) returns at most count values, one per draw it accepts, and
    rejects all it drew by raising SingularityError; a NaN makes the result
    NaN. Gives up after 50 * samples calls, so no sampler loops forever.
    """
    if samples < 1:
        raise DomainError(f"need at least one of the {what}, got {samples}")
    worst = 0.0
    done = attempts = 0
    while done < samples:
        attempts += 1
        if attempts > 50 * samples:
            raise SingularityError(f"could not draw enough {what}")
        try:
            vals = np.atleast_1d(draw(samples - done))
        except SingularityError:
            continue
        worst = float(np.max(vals, initial=worst))
        done += vals.size
    return worst


def random_config(n: int, r: int, seed=0) -> SphereConfig:
    """Random full-rank configuration of r unit vectors in R^n.

    Resamples until the smallest singular value clears 1e-3, so the
    returned configuration is comfortably inside the full-rank set.
    """
    if r > n:
        raise DomainError("cannot have more than n independent unit columns")
    rng = _rng(seed)
    if r == 0:
        return SphereConfig(np.zeros((n, 0)))
    for _ in range(100):
        cfg = SphereConfig(sample_sphere(n, r, rng).T)
        if cfg.full_rank and cfg.svals[-1] > _MIN_SINGULAR:
            return cfg
    raise RankError("failed to sample a well-conditioned configuration")
