"""Constructive realizations of prescribed orders at the optimal dimension.

Three pipelines:
  * any total preorder on D_n       -> n points in R^(n-1)
  * any linear order on D_n         -> n points in R^(n-2)
  * any total preorder on B_{n,m}   -> n + m points in R^min(n,m)

All three perturb a regular simplex: pairs of rank k get target distance
1 + k*eps, and eps shrinks geometrically until every Gram matrix involved
is positive definite with margin eta. Positive definiteness of the limit
guarantees the search terminates. Each realizer hands one search,
_realize_apexes, a plan of its apex Grams and a factor that places the
apexes (place_apexes) and returns their Grams' least eigenvalues.
"""
from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import (BadSize, DistanceMismatch, EpsilonExhausted,
                     NonFiniteEntry, NotLinear, NotPSD, ShapeMismatch)
from .orders import OrderSpec
from .schoenberg import (CHUNK, PointConfig, _is_index_type, _is_real,
                         pair_distances, pair_index, pair_position)

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
        if not (_is_real(self.initial) and 0 < self.initial < math.inf):
            raise BadSize("initial must be a positive number within float "
                          f"range, got {reprlib.repr(self.initial)}")
        if not (_is_real(self.shrink_factor) and 0 < self.shrink_factor < 1):
            raise BadSize("shrink_factor must lie in (0,1), got "
                          f"{reprlib.repr(self.shrink_factor)}")
        if not (_is_index_type(type(self.max_steps)) and self.max_steps >= 1):
            raise BadSize("max_steps must be an integer >= 1, "
                          f"got {reprlib.repr(self.max_steps)}")


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
    eps = float(search.initial)  # an int initial may pass int64
    for _ in range(search.max_steps):
        if test(eps):
            return eps
        eps *= float(search.shrink_factor)  # a float32 would round eps
    raise EpsilonExhausted(
        f"no eps accepted after {search.max_steps} steps from {search.initial}")


def default_search(spec: OrderSpec) -> EpsilonSearch:
    """initial = 1/(2K) keeps every target distance in [1, 1.5]."""
    return EpsilonSearch(initial=1.0 / (2 * spec.num_classes))


def perturbed_distances(spec: OrderSpec, eps: float) -> np.ndarray:
    """m_ij = 1 + rank(i,j)*eps, zero diagonal. Complete specs only."""
    if spec.kind != "complete":
        raise ShapeMismatch("perturbed_distances needs a complete spec")
    if not (_is_real(eps) and -math.inf < eps < math.inf):
        raise BadSize("eps must be a real number within float range, got "
                      f"{reprlib.repr(eps)}")
    M = np.zeros((spec.n, spec.n))
    M[pair_index(spec.n)] = 1.0 + spec.ranks * float(eps)
    return M + M.T


def _realized_margin(spec: OrderSpec, config: PointConfig) -> float:
    """Least gap from one class's greatest distance to the next's least."""
    return spec.separation(pair_distances(config))[0]


@lru_cache(maxsize=128)
def _apex_plan(n: int, pair: tuple[int, int] | None, dtype
               ) -> tuple[np.ndarray, ...]:
    """A complete realizer's read-only plan (rows, a, c, e) of its shape:
    k base points, then the apexes (point n - 1, or the minimal pair of a
    linear order), point i placed as row rows[i]. Apex j's Gram is that of
    the base but its last point b, then the apex, relative to b. With sq
    the squared targets in pair_index order and a 0.0 appended, its entry
    (i, l) is 0.5 ((s[i] + s[l]) - sq[c[0, i, l]]), s = sq[a[j]], but
    sq[e[j - 1]] in the last row and column of apex j > 0, the float
    operations of gram_from_distances. Plans with k * k <= CHUNK are
    cached (128 x CHUNK indices, 64 MB, at most); _gathered_target builds
    larger ones on each call, with 4-byte indices."""
    order = ([*range(n - 2), n - 1, n - 2] if pair is None
             else [x for x in range(n) if x not in pair] + [*pair])
    k = n - 1 if pair is None else n - 2

    def lex(g, h):  # positions of the pairs {g, h}; the 0.0 where g == h
        lo, hi = np.minimum(g, h), np.maximum(g, h)
        return np.where(lo == hi, n * (n - 1) // 2, pair_position(n, lo, hi))

    gram = np.array([order[:k - 1] + [x] for x in order[k:]], dtype=dtype)
    c, step = np.empty((1, k, k), dtype), max(1, CHUNK // k)
    # row blocks of ~CHUNK entries save time (n = 1000: 3.5 ms, one pass
    # 11.7, 2-core Xeon), not memory: the search's (m, k, k) stack sets it
    for r in range(0, k, step):
        c[0, r:r + step] = lex(gram[0, r:r + step, None], gram[0])
    plan = (np.argsort(order), lex(gram, order[k - 1]), c,
            lex(gram[1:, -1:], gram[1:]))
    for x in plan:
        x.flags.writeable = False
    return plan


def _stack_factor(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The placed rows and the Grams' least eigenvalues (one eigen-solve).
    The Cholesky factors F_j of the Grams are taken in turn, none after
    one fails (NotPSD); F_0's leading block and each F_j's last row place
    the apexes. The Grams share that block, which LAPACK factors from it
    alone, so only the last F_j is kept whole."""
    try:
        last = [np.linalg.cholesky(g)[-1].copy() for g in G[:-1]]
        F = np.linalg.cholesky(G[-1])
    except np.linalg.LinAlgError:
        raise NotPSD("an apex Gram is not positive definite") from None
    last = np.array(last + [F[-1]])
    return (place_apexes(F[:-1, :-1], last[:, :-1], last[:, -1]),
            np.linalg.eigvalsh(G)[:, 0])


@lru_cache(maxsize=16)
def _unit_simplex_factor(p: int) -> np.ndarray:
    """cholesky(I + J), p x p, read-only (see _simplex_factor)."""
    r = np.arange(1.0, p + 1)
    L0 = np.tril(np.broadcast_to(1.0 / np.sqrt(r * (r + 1)), (p, p)), -1)
    L0[np.diag_indices(p)] = np.sqrt((r + 1) / r)
    L0.flags.writeable = False
    return L0


def _simplex_factor(c: float, edge: np.ndarray, tip: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The rows placed over a regular simplex in closed form, and the
    Grams' least eigenvalues (_simplex_least_eigenvalues). The corner
    (c/2)(I + J), p x p, has the factor sqrt(c/2) L0, L0[i, i] =
    sqrt((i + 2)/(i + 1)) and L0[i, j < i] = 1/sqrt((j + 1)(j + 2)), so
    forward substitution is a prefix mean, O(mk): Y_j[i] = (e[i] - (e[0] +
    ... + e[i-1])/(i + 1)) sqrt((i + 1)/(i + 2)) / sqrt(c/2), e = edge[j],
    and apex j's height squared is tip_j - |Y_j|^2 (NotPSD, before L0 is
    built, unless positive). The prefix sums are scaled by the power of
    two f that puts c in [0.5, 1), so they are finite where the edges are."""
    p = edge.shape[1]
    r, f = np.arange(1.0, p + 1), math.ldexp(1.0, -math.frexp(c)[1])
    prefix = np.cumsum(edge[:, :-1] * f, axis=1)
    Y = edge.copy()
    Y[:, 1:] -= np.divide(prefix, r[1:] * f, out=prefix)
    Y *= np.sqrt(r / (r + 1)) / math.sqrt(0.5 * c)
    s = tip - np.einsum("ij,ij->i", Y, Y)
    if not (s > 0).all():
        raise NotPSD(f"apex height squared {s.min():.3e} not positive")
    L0 = (_unit_simplex_factor if p * p <= CHUNK  # at most 8 MB cached
          else _unit_simplex_factor.__wrapped__)(p)
    return (place_apexes(math.sqrt(0.5 * c) * L0, Y, np.sqrt(s)),
            _simplex_least_eigenvalues(c, edge, tip))


def _simplex_least_eigenvalues(c: float, edge: np.ndarray,
                               tip: np.ndarray) -> np.ndarray:
    """Least eigenvalue of each apex Gram over a regular simplex, from a
    3 x 3 matrix per apex. Split edge[j] into alpha_j along the unit
    all-ones vector and w_j orthogonal to it: corner eigenvectors
    orthogonal to both keep eigenvalue c/2, so by interlacing the least
    eigenvalue is that of [[c/2, 0, |w_j|], [0, ck/2, alpha_j], [|w_j|,
    alpha_j, tip_j]] (its trailing 2 x 2 block at k = 2, tip_j at k = 1).
    Scaled by f as in _simplex_factor, it is finite where the Gram is."""
    m, k = len(tip), edge.shape[1] + 1
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


def place_apexes(L: np.ndarray, Y: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The paper's one construction, the apex Grams' Cholesky factor laid
    out as k base points and m apexes in R^k: L (the corner's factor) with
    a zero last column, then the origin, then apex j at (Y[j], h[j]), each
    height positive, so every apex is on one side of the base."""
    k = len(L) + 1
    X = np.zeros((k + len(h), k))
    X[:k - 1, :k - 1], X[k:, :-1], X[k:, -1] = L, Y, h
    return X


def _realize_apexes(spec: OrderSpec, eta: float,
                    search: EpsilonSearch | None,
                    plan: Callable[[], tuple],
                    factor: Callable[..., tuple[np.ndarray, np.ndarray]],
                    accept: Callable[[np.ndarray], bool] | None = None
                    ) -> RealizationReport:
    """The realizers' one epsilon search. plan(), called once eta is
    checked, gives target and rows; target(eps) gives a step's apex Grams in
    pieces, and factor(*pieces) the placed rows X and the Grams' least
    eigenvalues, or NotPSD, which rejects the step. It is accepted once
    every least eigenvalue clears max(eta, (k + 1) u s) and accept, if
    given, passes X. The second bound is the rounding residue of a least
    eigenvalue of a k x k Gram of diagonal at most s = (1 + K eps)^2 (K
    classes, u the unit roundoff); it passes eta only past K eps ~ 5e4.
    Row i of P, or of P over Q, is X[rows[i]] (X[i] if rows is None).
    NonFiniteEntry on overflow."""
    if not (_is_real(eta) and 0 < eta < math.inf):
        raise BadSize("eta must be a positive number within float range, "
                      f"got {reprlib.repr(eta)}")
    target, rows = plan()
    state: dict = {}

    def step(eps: float) -> bool:
        pieces = target(eps)
        if not all(np.isfinite(x).all() for x in pieces):
            raise NonFiniteEntry("matrix has non-finite entries")
        try:
            X, lam = factor(*pieces)
        except NotPSD:
            return False
        top = 1.0 + spec.num_classes * eps
        bound = max(eta, (X.shape[1] + 1) * UNIT_ROUNDOFF * top * top)
        if not (lam > bound).all() or (accept is not None and not accept(X)):
            return False
        state.update(X=X, eigs=lam)
        return True

    with np.errstate(over="ignore", invalid="ignore"):
        eps = choose_epsilon(search or default_search(spec), step)
    X = state["X"] if rows is None else state["X"][rows]
    config = PointConfig.from_rows(X, spec.n, spec.kind)
    return RealizationReport(config=config, epsilon=eps, spec=spec,
                             min_eigenvalues=tuple(state["eigs"].tolist()))


def _gathered_target(spec: OrderSpec, pair: tuple[int, int] | None
                     ) -> tuple[Callable[[float], tuple], np.ndarray]:
    """A complete realizer's target and rows: a step squares the targets
    1 + r eps and gathers the apex Grams with _apex_plan, no n x n matrix."""
    small = (spec.n - 1 - (pair is not None)) ** 2 <= CHUNK
    rows, a, c, e = (_apex_plan if small else _apex_plan.__wrapped__)(
        spec.n, pair, np.intp if small else np.int32)
    ranks = spec.ranks

    def target(eps: float) -> tuple[np.ndarray]:
        sq = np.zeros(len(ranks) + 1)
        t = np.add(np.multiply(ranks, eps, out=sq[:-1]), 1.0, out=sq[:-1])
        t *= t
        s = sq[a]
        S = s[0, :, None] + s[0]  # Gram 0's sums, the others' but the last
        G = np.empty((len(s),) + S.shape)
        np.subtract(S, sq[c], out=G)
        if len(e):
            G[1:, -1] = G[1:, :, -1] = (s[1:, -1:] + s[1:]) - sq[e]
        G *= 0.5
        return G,

    return target, rows


def realize_preorder_complete(spec: OrderSpec, eta: float = ETA,
                              search: EpsilonSearch | None = None
                              ) -> RealizationReport:
    """n points in R^(n-1) inducing the given preorder on D_n exactly.

    The base is points 1..n-2 followed by point n, the apex point n-1, so
    the apex Gram is the Gram of the whole target matrix relative to
    point n."""
    if spec.kind != "complete":
        raise ShapeMismatch("realize_preorder_complete needs a complete spec")
    return _realize_apexes(spec, eta, search,
                           lambda: _gathered_target(spec, None), _stack_factor)


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
    if spec.kind != "complete" or spec.n < 3:
        raise ShapeMismatch(
            "realize_linear_complete needs a complete spec with n >= 3")
    if not spec.is_linear():
        raise NotLinear("realize_linear_complete needs a linear order")
    pair = tuple(i - 1 for i in spec._ij[0].tolist())
    return _realize_apexes(
        spec, eta, search, lambda: _gathered_target(spec, pair), _stack_factor,
        lambda X: 0.0 < float(np.linalg.norm(X[-2] - X[-1])) < 1.0)


def realize_preorder_bipartite(spec: OrderSpec, eta: float = ETA,
                               search: EpsilonSearch | None = None
                               ) -> RealizationReport:
    """n + m points in R^min(n,m) inducing the given preorder on B_{n,m}.

    The base is the smaller collection, a regular simplex of side 1 + eps
    (Q when m < n, with the rank matrix transposed); each point of the
    other collection is an apex at distances 1 + r*eps. One shared eps
    must make all apex Grams positive definite with margin eta; the
    accepted step's least eigenvalues are the report's. Every apex Gram has
    the corner (c/2)(I + J), c = (1 + eps)^2, which _simplex_factor and
    _simplex_least_eigenvalues use for O(k) work per apex, not O(k^3).
    """
    if spec.kind != "bipartite":
        raise ShapeMismatch("realize_preorder_bipartite needs bipartite spec")
    n, m = spec.n, spec.m

    def plan():
        A = spec.ranks.reshape(n, m)
        if m >= n:  # row j of A holds apex j's ranks, C-ordered for the sums
            A = A.T.copy()

        def target(eps: float) -> tuple[float, np.ndarray, np.ndarray]:
            # the simplex's squared side, then the apex Grams' edge and tip
            c, a2 = (1.0 + eps) * (1.0 + eps), np.square(1.0 + A * eps)
            return (c, 0.5 * (c + a2[:, -1:] - a2[:, :-1]),
                    0.5 * (a2[:, -1] + a2[:, -1]))

        return target, None if m >= n else [*range(m, m + n), *range(m)]

    return _realize_apexes(spec, eta, search, plan, _simplex_factor)


def realize(spec: OrderSpec, eta: float = ETA,
            search: EpsilonSearch | None = None) -> RealizationReport:
    """Dispatch on kind and linearity to the matching construction."""
    if spec.kind == "bipartite":
        return realize_preorder_bipartite(spec, eta, search)
    if spec.n >= 3 and spec.is_linear():
        return realize_linear_complete(spec, eta, search)
    return realize_preorder_complete(spec, eta, search)
