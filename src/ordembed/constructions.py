"""Constructive realizations of prescribed orders at the optimal dimension.

Three pipelines:
  * any total preorder on D_n       -> n points in R^(n-1)
  * any linear order on D_n         -> n points in R^(n-2)
  * any total preorder on B_{n,m}   -> n + m points in R^min(n,m)

All three perturb a regular simplex: pairs of rank k get target distance
1 + k*eps, and eps shrinks geometrically until every Gram matrix involved
is positive definite with margin eta. Positive definiteness of the limit
guarantees the search terminates. Each realizer splits its points into a
base simplex and apexes and hands their target distances to one search,
_realize_apexes, which builds them with one primitive, place_apexes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (BadSize, DistanceMismatch, EpsilonExhausted,
                     NonFiniteEntry, NotLinear, NotPSD, ShapeMismatch)
from .orders import OrderSpec
from .schoenberg import (PointConfig, check_pair_count, pair_distances,
                         pair_index)

ETA = 1e-6
UNIT_ROUNDOFF = 2.0 ** -53
TOL_ALIGN = 1e-8


@dataclass(frozen=True)
class EpsilonSearch:
    """Geometric search schedule for the perturbation size."""

    initial: float
    shrink_factor: float = 0.5
    max_steps: int = 60

    def __post_init__(self):
        if not self.initial > 0:
            raise BadSize("initial must be positive")
        if not 0 < self.shrink_factor < 1:
            raise BadSize("shrink_factor must lie in (0,1)")
        if self.max_steps < 1:
            raise BadSize("max_steps must be >= 1")


@dataclass(frozen=True)
class RealizationReport:
    """The configuration realizing spec, the accepted eps and the least
    eigenvalue of each apex Gram there. margin, the least gap between
    consecutive classes' distances, is computed on first read; a verify
    report that matches holds the same figure."""

    config: PointConfig
    epsilon: float
    spec: OrderSpec = field(repr=False, compare=False)
    min_eigenvalues: tuple[float, ...] = field(default_factory=tuple)

    @cached_property
    def margin(self) -> float:
        return _realized_margin(self.spec, self.config)


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
    M[pair_index(spec.n, spec.m)] = 1.0 + spec.ranks * eps
    return M + M.T


def _realized_margin(spec: OrderSpec, config: PointConfig) -> float:
    """Least gap from one class's greatest distance to the next's least."""
    return spec.separation(pair_distances(config))[0]


def _apex_grams(base: np.ndarray, apexes: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The apex Grams in pieces: corner, the Gram of the base relative to
    its last point, bordered for apex j by edge[j] and tip[j].

    base holds the k x k target distances among the base points, apexes
    the m x k target distances of each apex to them. The float operations
    are gram_from_distances' on each apex's (k+1)-point distance matrix
    with the last base point as base. Non-finite pieces raise
    NonFiniteEntry."""
    b2, a2 = base * base, apexes * apexes
    db2 = b2[-1, :-1]
    corner = 0.5 * (db2[:, None] + db2[None, :] - b2[:-1, :-1])
    edge = 0.5 * (db2 + a2[:, -1:] - a2[:, :-1])
    tip = 0.5 * (a2[:, -1] + a2[:, -1])
    if not all(np.isfinite(x).all() for x in (corner, edge, tip)):
        raise NonFiniteEntry("matrix has non-finite entries")
    return corner, edge, tip


def _bordered_cholesky(corner: np.ndarray, edge: np.ndarray,
                       tip: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """L = cholesky(corner), Y = L^-1 edge^T and the Schur complements
    s_j = tip_j - |Y_j|^2 (Y_j is column j of Y).

    Apex j's Gram is positive definite iff L exists and s_j > 0. If L
    does not exist, every apex Gram has an eigenvalue at or below zero
    (interlacing), and NotPSD is raised."""
    try:
        L = np.linalg.cholesky(corner)
        Y = np.linalg.solve(L, edge.T)
    except np.linalg.LinAlgError:
        raise NotPSD("base Gram is not positive definite") from None
    return L, Y, tip - (Y * Y).sum(axis=0)


def _least_eigenvalues(corner: np.ndarray, edge: np.ndarray,
                       tip: np.ndarray) -> np.ndarray:
    """Least eigenvalue of each apex Gram, the Grams written as one stack
    and eigen-solved together, a per-apex vector."""
    G = np.empty((len(tip),) + (len(corner) + 1,) * 2)
    G[:, :-1, :-1] = corner
    G[:, :-1, -1] = G[:, -1, :-1] = edge
    G[:, -1, -1] = tip
    return np.linalg.eigvalsh(G)[:, 0]


def _simplex_least_eigenvalues(corner: np.ndarray, edge: np.ndarray,
                               tip: np.ndarray) -> np.ndarray:
    """_least_eigenvalues over a regular simplex, from one 3 x 3 matrix per
    apex (realize_preorder_bipartite), scaled by a power of two that puts c
    in [0.5, 1): |w_j|^2 and ck/2 stay finite wherever the Gram's are."""
    m, k = len(tip), len(corner) + 1
    c = max(corner.diagonal().tolist(), default=0.0)  # no corner at k = 1
    f = math.ldexp(1.0, -math.frexp(c)[1])
    e = edge * f
    mean = np.add.reduce(e, axis=1) / max(k - 1, 1)
    w = e - mean[:, None]  # not |e|^2 - alpha^2: edge entries nearly agree
    G = np.zeros((m, 3, 3))  # eigvalsh reads the lower triangle by default
    G[:, 0, 0], G[:, 1, 1] = 0.5 * c * f, 0.5 * c * f * k
    G[:, 2, 0] = np.sqrt(np.add.reduce(w * w, axis=1))
    G[:, 2, 1] = mean * math.sqrt(k - 1)
    G[:, 2, 2] = tip * f
    s = max(0, 3 - k)
    return np.linalg.eigvalsh(G[:, s:, s:])[:, 0] / f


def place_apexes(L: np.ndarray, Y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """k base points and m apexes in R^k, each apex at its target
    distances from the base and all of them on one side of its hyperplane.

    The paper's one construction: the Cholesky factor (L, Y, s) of the
    apex Grams, from _bordered_cholesky, is the configuration. The base
    rows are L with a zero last column, then the origin, so base point i
    is nonzero only in its first i coordinates; apex j is (Y_j, sqrt(s_j)),
    its positive height the same-side choice. Returns the base rows, then
    the apex rows. A complement s_j <= 0 (apex Gram j not positive
    definite) raises NotPSD."""
    if not (s > 0).all():
        raise NotPSD(f"apex height squared {s.min():.3e} not positive")
    k = len(L) + 1
    X = np.zeros((k + len(s), k))
    X[:k - 1, :k - 1] = L
    X[k:, :-1] = Y.T
    X[k:, -1] = np.sqrt(s)
    return X


def _realize_apexes(spec: OrderSpec, eta: float,
                    search: EpsilonSearch | None,
                    target: Callable[[float], tuple[np.ndarray, np.ndarray]],
                    order: list[int],
                    accept: Callable[[np.ndarray], bool] | None = None,
                    least: Callable[..., np.ndarray] = _least_eigenvalues
                    ) -> RealizationReport:
    """The realizers' one epsilon search.

    target(eps) gives the base and apex target distances (the arguments
    of _apex_grams). A step is accepted once every apex Gram's least
    eigenvalue, least(corner, edge, tip), clears max(eta, (k + 1) u s),
    place_apexes places the apexes and accept, if given, passes the placed
    rows; any other step is rejected. The second bound is the rounding
    residue of a least eigenvalue of a k x k Gram whose diagonal is at most
    s = (1 + K eps)^2 (K classes, u the unit roundoff): a least eigenvalue
    below it may be residue alone, as it is for any spec of more than one
    class at eps beyond about 1e73. It passes eta only once K eps passes
    about 5e4. Placed row i is row order[i] of the configuration, P or P
    stacked over Q. A spec of more than MAX_PAIRS pairs raises BadSize
    first; a step whose Grams overflow raises NonFiniteEntry.

    Each step is factored once, by _bordered_cholesky, and placed from
    that factor. A step that does not place has an apex Gram that is not
    positive definite, whose least eigenvalue is at or below 0 < eta, so
    it is rejected without calling least."""
    if not eta > 0:
        raise BadSize(f"eta must be positive, got {eta}")
    check_pair_count(len(spec.ranks))
    state: dict = {}

    def step(eps: float) -> bool:
        grams = _apex_grams(*target(eps))
        try:
            X = place_apexes(*_bordered_cholesky(*grams))
        except NotPSD:
            return False
        lam = least(*grams)
        k, top = len(grams[0]) + 1, 1.0 + spec.num_classes * eps
        bound = max(eta, (k + 1) * UNIT_ROUNDOFF * top * top)
        if not (lam > bound).all() or (accept is not None and not accept(X)):
            return False
        state.update(X=X, eigs=lam)
        return True

    with np.errstate(over="ignore", invalid="ignore"):
        eps = choose_epsilon(search or default_search(spec), step)
    rows = np.empty_like(state["X"])
    rows[order] = state["X"]
    config = PointConfig.from_rows(rows, spec.n, spec.kind)
    return RealizationReport(config=config, epsilon=eps, spec=spec,
                             min_eigenvalues=tuple(state["eigs"].tolist()))


def realize_preorder_complete(spec: OrderSpec, eta: float = ETA,
                              search: EpsilonSearch | None = None
                              ) -> RealizationReport:
    """n points in R^(n-1) inducing the given preorder on D_n exactly.

    The base is points 1..n-2 followed by point n, the apex point n-1, so
    the apex Gram is the Gram of the whole target matrix relative to
    point n."""
    spec.ranks  # validates
    if spec.kind != "complete":
        raise ShapeMismatch("realize_preorder_complete needs a complete spec")
    n = spec.n
    order = [*range(n - 2), n - 1, n - 2]

    def target(eps: float) -> tuple[np.ndarray, np.ndarray]:
        M = perturbed_distances(spec, eps)[np.ix_(order, order)]
        return M[:-1, :-1], M[-1:, :-1]

    return _realize_apexes(spec, eta, search, target, order)


def align_isometry(source: np.ndarray, target: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Rigid map (R, t) with R @ source_i + t ~= target_i.

    Both lists must be congruent: the pair distances of the two lists,
    from pair_distances, agree within TOL_ALIGN * scale. The orthogonal
    factor comes from the singular decomposition of the cross-covariance,
    reflections permitted. The realizers do not use it.
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


def realize_linear_complete(spec: OrderSpec, eta: float = ETA,
                            search: EpsilonSearch | None = None
                            ) -> RealizationReport:
    """n points in R^(n-2) inducing the given linear order on D_n.

    The base is the n-2 points outside the minimal pair, in their order,
    and the apexes are that pair's two endpoints; every pair but the
    minimal one gets 1 + k*eps. eps is accepted once both apex Grams clear
    eta and the apexes, placed on one side of the base, lie at a distance
    in (0, 1). The distance of the minimal pair is never prescribed; it is
    forced below 1 as eps shrinks.
    """
    spec.ranks  # validates
    if spec.kind != "complete":
        raise ShapeMismatch("realize_linear_complete needs a complete spec")
    n = spec.n
    if n < 3:
        raise ShapeMismatch("realize_linear_complete needs n >= 3")
    if not spec.is_linear():
        raise NotLinear("realize_linear_complete needs a linear order")
    i1, j1 = spec._ij[0].tolist()
    order = [k for k in range(n) if k not in (i1 - 1, j1 - 1)]
    order += [i1 - 1, j1 - 1]

    def target(eps: float) -> tuple[np.ndarray, np.ndarray]:
        M = perturbed_distances(spec, eps)[np.ix_(order, order[:-2])]
        return M[:-2], M[-2:]

    def apart(X: np.ndarray) -> bool:
        return 0.0 < float(np.linalg.norm(X[-2] - X[-1])) < 1.0

    return _realize_apexes(spec, eta, search, target, order, apart)


def realize_preorder_bipartite(spec: OrderSpec, eta: float = ETA,
                               search: EpsilonSearch | None = None
                               ) -> RealizationReport:
    """n + m points in R^min(n,m) inducing the given preorder on B_{n,m}.

    The base is the smaller collection, a regular simplex of side 1 + eps
    (Q when m < n, with the rank matrix transposed); each point of the
    other collection is an apex at distances 1 + r*eps. One shared eps
    must make all apex Grams positive definite with margin eta; the
    accepted step's least eigenvalues are the report's. Every apex Gram
    has the corner (c/2)(I + J), c = (1 + eps)^2. Split apex j's edge into
    alpha_j along the unit all-ones vector and w_j orthogonal to it; the
    corner's eigenvectors orthogonal to both keep eigenvalue c/2, so by
    interlacing the least eigenvalue is that of [[c/2, 0, |w_j|], [0, ck/2,
    alpha_j], [|w_j|, alpha_j, tip_j]], O(k) work instead of O(k^3). At
    k = 2 the trailing 2 x 2 block is the Gram; at k = 1 the tip is.
    """
    spec.ranks  # validates
    if spec.kind != "bipartite":
        raise ShapeMismatch("realize_preorder_bipartite needs bipartite spec")
    n, m = spec.n, spec.m
    R = spec.ranks.reshape(n, m)
    order = list(range(n + m))
    if m < n:
        R = R.T
        order = order[n:] + order[:n]

    def target(eps: float) -> tuple[np.ndarray, np.ndarray]:
        base = np.full((len(R),) * 2, 1.0 + eps)
        np.fill_diagonal(base, 0.0)
        # row j holds apex j's target distances to the simplex
        return base, 1.0 + R.T * eps

    return _realize_apexes(spec, eta, search, target, order,
                           least=_simplex_least_eigenvalues)


def realize(spec: OrderSpec, eta: float = ETA,
            search: EpsilonSearch | None = None) -> RealizationReport:
    """Dispatch on kind and linearity to the matching construction, which
    validates the spec."""
    if spec.kind == "bipartite":
        return realize_preorder_bipartite(spec, eta, search)
    if spec.is_linear() and spec.n >= 3:
        return realize_linear_complete(spec, eta, search)
    return realize_preorder_complete(spec, eta, search)
