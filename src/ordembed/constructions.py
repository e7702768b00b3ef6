"""Constructive realizations of prescribed orders at the optimal dimension.

Three pipelines:
  * any total preorder on D_n       -> n points in R^(n-1)
  * any linear order on D_n         -> n points in R^(n-2)
  * any total preorder on B_{n,m}   -> n + m points in R^min(n,m)

All three perturb a regular simplex: pairs of rank k get target distance
1 + k*eps, and eps shrinks geometrically until every Gram matrix involved
is positive definite with margin eta. Positive definiteness of the limit
guarantees the search terminates.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (DegenerateHyperplane, DistanceMismatch, EpsilonExhausted,
                     NonFiniteEntry, NotLinear, ShapeMismatch)
from .orders import OrderSpec
from .schoenberg import (CHUNK, GramMatrix, PointConfig, factor_points,
                         gram_from_distances, min_eigenvalue, pair_distances,
                         upper_pairs)

ETA = 1e-6
TOL_ALIGN = 1e-8


@dataclass(frozen=True)
class EpsilonSearch:
    """Geometric search schedule for the perturbation size."""

    initial: float
    shrink_factor: float = 0.5
    max_steps: int = 60

    def __post_init__(self):
        if self.initial <= 0:
            raise ValueError("initial must be positive")
        if not 0 < self.shrink_factor < 1:
            raise ValueError("shrink_factor must lie in (0,1)")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass(frozen=True)
class RealizationReport:
    config: PointConfig
    epsilon: float
    margin: float
    min_eigenvalues: tuple[float, ...] = field(default_factory=tuple)


def choose_epsilon(search: EpsilonSearch, test: Callable[[float], bool]) -> float:
    """First eps in initial * shrink^k accepted by test."""
    eps = search.initial
    for _ in range(search.max_steps):
        if test(eps):
            return eps
        eps *= search.shrink_factor
    raise EpsilonExhausted(
        f"no eps accepted after {search.max_steps} steps from {search.initial}")


def default_search(spec: OrderSpec) -> EpsilonSearch:
    """initial = 1/(2K) keeps every target distance in [1, 1.5]."""
    return EpsilonSearch(initial=1.0 / (2 * spec.num_classes))


def perturbed_distances(spec: OrderSpec, eps: float) -> np.ndarray:
    """m_ij = 1 + rank(i,j)*eps, zero diagonal. Complete specs only."""
    M = np.zeros((spec.n, spec.n))
    M[upper_pairs(spec.n)] = 1.0 + spec.ranks * eps
    return M + M.T


def _realized_margin(spec: OrderSpec, config: PointConfig) -> float:
    """Smallest gap between max distance of one class and min distance of
    the next, over consecutive classes."""
    lo, hi = spec.extremes(pair_distances(config))
    gaps = lo[1:] - hi[:-1]
    return float(gaps.min()) if gaps.size else float("inf")


def realize_preorder_complete(spec: OrderSpec, eta: float = ETA,
                              search: EpsilonSearch | None = None
                              ) -> RealizationReport:
    """n points in R^(n-1) inducing the given preorder on D_n exactly."""
    spec.ranks  # validates
    if spec.kind != "complete":
        raise ShapeMismatch("realize_preorder_complete needs a complete spec")
    n = spec.n
    search = search or default_search(spec)

    def pd(eps: float) -> bool:
        G = gram_from_distances(perturbed_distances(spec, eps), n)
        return min_eigenvalue(G) > eta

    eps = choose_epsilon(search, pd)
    G = gram_from_distances(perturbed_distances(spec, eps), n)
    lam = min_eigenvalue(G)
    config = factor_points(G, n - 1)
    return RealizationReport(config=config, epsilon=eps,
                             margin=_realized_margin(spec, config),
                             min_eigenvalues=(lam,))


def align_isometry(source: np.ndarray, target: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Rigid map (R, t) with R @ source_i + t ~= target_i.

    Both lists must be congruent: the pair distances of the two lists,
    from pair_distances, agree within TOL_ALIGN * scale. The orthogonal
    factor comes from the singular decomposition of the cross-covariance,
    reflections permitted.
    """
    S = np.asarray(source, dtype=float)
    T = np.asarray(target, dtype=float)
    if S.shape != T.shape:
        raise ShapeMismatch(f"shape mismatch {S.shape} vs {T.shape}")
    ds = pair_distances(PointConfig(dim=S.shape[1], P=S))
    dt = pair_distances(PointConfig(dim=T.shape[1], P=T))
    scale = max(1.0, float(ds.max(initial=0.0)))
    if np.abs(ds - dt).max(initial=0.0) > TOL_ALIGN * scale:
        raise DistanceMismatch("point lists are not congruent")
    cs, ct = S.mean(axis=0), T.mean(axis=0)
    H = (S - cs).T @ (T - ct)
    U, _, Vt = np.linalg.svd(H)
    R = Vt.T @ U.T
    t = ct - R @ cs
    return R, t


def _hyperplane(spanning: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centroid and unit normal of the affine hyperplane spanned by the
    given points; they must span codimension exactly 1."""
    S = np.asarray(spanning, dtype=float)
    d = S.shape[1]
    c = S.mean(axis=0)
    _, sv, Vt = np.linalg.svd(S - c, full_matrices=True)
    svals = np.zeros(d)
    svals[: sv.size] = sv
    tol = 1e-9 * max(1.0, float(svals.max(initial=0.0)))
    rank = int((svals > tol).sum())
    if rank != d - 1:
        raise DegenerateHyperplane(
            f"spanning set has affine rank {rank}, need {d - 1}")
    return c, Vt[d - 1]


def realize_linear_complete(spec: OrderSpec, eta: float = ETA,
                            search: EpsilonSearch | None = None
                            ) -> RealizationReport:
    """n points in R^(n-2) inducing the given linear order on D_n.

    Pipeline: order the points so the minimal pair's two endpoints come
    last (an index permutation of the target matrix; the others keep their
    relative order); prescribe 1 + k*eps on every other pair; embed the
    first n-1 and the first n-2 plus the last point separately from two
    Gram matrices; align the shared n-2 points rigidly; reflect the second
    apex to the first apex's side of their affine hyperplane; accept eps
    once both Grams clear eta and the apex distance falls in (0, 1); undo
    the permutation on the rows. The distance of the minimal pair is never
    prescribed; it is forced below 1 as eps shrinks.
    """
    spec.ranks  # validates
    if spec.kind != "complete":
        raise ShapeMismatch("realize_linear_complete needs a complete spec")
    n = spec.n
    if n < 3:
        raise ShapeMismatch("realize_linear_complete needs n >= 3")
    if not spec.is_linear():
        raise NotLinear("realize_linear_complete needs a linear order")
    i1, j1 = spec.classes[0][0]
    perm = [k for k in range(n) if k not in (i1 - 1, j1 - 1)]
    perm += [i1 - 1, j1 - 1]
    search = search or default_search(spec)
    state: dict = {}

    # the permuted points without the last, and without the second to last
    idx_g, idx_h = perm[:-1], perm[:-2] + perm[-1:]

    def attempt(eps: float) -> bool:
        M = perturbed_distances(spec, eps)
        G = gram_from_distances(M[np.ix_(idx_g, idx_g)], n - 1)
        H = gram_from_distances(M[np.ix_(idx_h, idx_h)], n - 1)
        lam_g, lam_h = min_eigenvalue(G), min_eigenvalue(H)
        if lam_g <= eta or lam_h <= eta:
            return False
        Pg = factor_points(G, n - 2).P
        Ph = factor_points(H, n - 2).P
        shared_g, apex_g = Pg[: n - 2], Pg[n - 2]
        shared_h, apex_h = Ph[: n - 2], Ph[n - 2]
        R, t = align_isometry(shared_h, shared_g)
        qn = R @ apex_h + t
        try:
            c, u = _hyperplane(shared_g)
        except DegenerateHyperplane:
            return False
        if float(np.dot(apex_g - c, u)) * float(np.dot(qn - c, u)) < 0:
            qn = qn - 2.0 * float(np.dot(qn - c, u)) * u
        dmin = float(np.linalg.norm(apex_g - qn))
        if not 0.0 < dmin < 1.0:
            return False
        state["P"] = np.vstack([shared_g, apex_g[None, :], qn[None, :]])
        state["eigs"] = (lam_g, lam_h)
        return True

    eps = choose_epsilon(search, attempt)
    P = np.empty_like(state["P"])
    P[perm] = state["P"]
    config = PointConfig(dim=n - 2, P=P)
    return RealizationReport(config=config, epsilon=eps,
                             margin=_realized_margin(spec, config),
                             min_eigenvalues=state["eigs"])


def realize_preorder_bipartite(spec: OrderSpec, eta: float = ETA,
                               search: EpsilonSearch | None = None
                               ) -> RealizationReport:
    """n + m points in R^min(n,m) inducing the given preorder on B_{n,m}.

    The smaller collection is a fixed regular simplex of side 1 + eps whose
    last coordinate is zero (when m < n the rank matrix is transposed and
    P and Q swap at the end); each apex of the other collection is
    recovered from its prescribed squared distances 1 + r*eps by a linear
    solve, with the orthogonal coordinate's sign fixed nonnegative. One
    shared eps must make all apex Gram matrices positive definite with
    margin eta. Those Grams differ only in their last row and column, so
    each eps step writes them as a stack straight from the rank matrix and
    checks them with one batched eigen-solve per block of at most CHUNK
    entries; the accepted step's minimum eigenvalues are the report's.
    """
    spec.ranks  # validates
    if spec.kind != "bipartite":
        raise ShapeMismatch("realize_preorder_bipartite needs bipartite spec")
    R = spec.ranks.reshape(spec.n, spec.m)
    swap = spec.m < spec.n
    if swap:
        R = R.T
    n, m = R.shape
    search = search or default_search(spec)
    state: dict = {}

    def pd(eps: float) -> bool:
        # row j of A holds apex j's prescribed distances to the simplex
        A = 1.0 + R.T * eps
        if not np.isfinite(A).all():
            raise NonFiniteEntry("distance matrix has non-finite entries")
        # apex j's Gram is the simplex's Gram (base point n) bordered by
        # row j of edge and tip[j]; the float operations are those of
        # gram_from_distances on apex j's distance matrix
        s2 = (1.0 + eps) * (1.0 + eps)
        corner = np.full((n - 1, n - 1), 0.5 * (s2 + s2 - s2))
        np.fill_diagonal(corner, 0.5 * (s2 + s2))
        a2 = A * A
        edge = 0.5 * (s2 + a2[:, n - 1:] - a2[:, : n - 1])
        tip = 0.5 * (a2[:, n - 1] + a2[:, n - 1])
        step = max(1, CHUNK // (n * n))
        lam = np.empty(m)
        for a in range(0, m, step):
            G = np.empty((min(step, m - a), n, n))
            G[:, : n - 1, : n - 1] = corner
            G[:, : n - 1, n - 1] = G[:, n - 1, : n - 1] = edge[a:a + step]
            G[:, n - 1, n - 1] = tip[a:a + step]
            if not np.isfinite(G).all():
                raise NonFiniteEntry("matrix has non-finite entries")
            lam[a:a + step] = np.linalg.eigvalsh(G)[:, 0]
        state.update(A=A, corner=corner, eigs=lam)
        return bool((lam > eta).all())

    eps = choose_epsilon(search, pd)
    A = state["A"]
    P = factor_points(GramMatrix(state["corner"], base=n, n=n), n).P
    Q = np.zeros((m, n))
    if n == 1:
        # a single simplex point at the origin: each apex sits at its
        # prescribed distance along the only axis
        Q[:, 0] = A[:, 0]
    else:
        Pt = P[: n - 1, : n - 1]
        for j in range(m):
            a = A[j]
            b = (P[: n - 1] ** 2).sum(axis=1) + a[n - 1] ** 2 - a[: n - 1] ** 2
            qt = np.linalg.solve(2.0 * Pt, b)
            h2 = a[n - 1] ** 2 - float((qt ** 2).sum())
            if h2 < 0:
                # the PD acceptance makes this impossible; guard anyway
                raise EpsilonExhausted("apex height underflow at accepted eps")
            Q[j, : n - 1] = qt
            Q[j, n - 1] = np.sqrt(h2)
    if swap:
        P, Q = Q, P
    config = PointConfig(dim=n, P=P, Q=Q)
    return RealizationReport(config=config, epsilon=eps,
                             margin=_realized_margin(spec, config),
                             min_eigenvalues=tuple(state["eigs"].tolist()))


def realize(spec: OrderSpec, eta: float = ETA,
            search: EpsilonSearch | None = None) -> RealizationReport:
    """Dispatch on kind and linearity to the matching construction, which
    validates the spec."""
    if spec.kind == "bipartite":
        return realize_preorder_bipartite(spec, eta, search)
    if spec.is_linear() and spec.n >= 3:
        return realize_linear_complete(spec, eta, search)
    return realize_preorder_complete(spec, eta, search)
