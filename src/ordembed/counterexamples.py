"""Lower-bound order families and a numerical feasibility falsifier.

The gallery reproduces the order families whose realizations provably need
one more dimension than the falsifier is given. The falsifier then attacks
a (spec, dim) instance by stress minimization over point coordinates with
random restarts: squared distances are scale-normalized to mean one, strict
class steps are hinge constraints with a margin, within-class ties are
equality constraints, and every point pair must clear a distinctness floor
so the search stays away from configurations with merged points (the
impossibility arguments all assume the relevant points distinct). An
"infeasible" verdict is evidence under the given budget, never a proof.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from . import orders, verifier
from .errors import BadSize, UnknownName
from .orders import OrderSpec
from .schoenberg import PointConfig, upper_pairs

MARGIN = 5e-2
FLOOR = 5e-2
FEASIBLE_LOSS = 1e-10
STOP_LOSS = 1e-14
VERIFY_TOL = 1e-5
STEP_INIT = 1.0
ARMIJO_C = 1e-4
MIN_STEP = 1e-18
STALL_REL = 1e-8
STALL_ITERS = 50


# ---------------------------------------------------------------------------
# gallery

def _lex_extension(pairs, relations):
    """Complete a strict partial order into the lexicographically smallest
    compatible linear order (Kahn's algorithm with a lex min-heap)."""
    succ = {p: [] for p in pairs}
    indeg = {p: 0 for p in pairs}
    for a, b in relations:
        succ[a].append(b)
        indeg[b] += 1
    heap = [p for p in pairs if indeg[p] == 0]
    heapq.heapify(heap)
    out = []
    while heap:
        p = heapq.heappop(heap)
        out.append(p)
        for q in succ[p]:
            indeg[q] -= 1
            if indeg[q] == 0:
                heapq.heappush(heap, q)
    if len(out) != len(pairs):
        raise AssertionError("relation cycle in gallery construction")
    return out


def _d4_linear(n: int) -> OrderSpec:
    if n != 4:
        raise BadSize("d4_linear is fixed at n = 4")
    pairs = orders.complete_pairs(4)
    relations = [((1, 2), (1, 3)), ((2, 4), (3, 4))]
    relations += [(p, (1, 4)) for p in pairs if p != (1, 4)]
    chain = _lex_extension(pairs, relations)
    return OrderSpec("complete", 4, tuple((p,) for p in chain))


def _block_linear(n: int) -> OrderSpec:
    if n < 4:
        raise BadSize("block_linear needs n >= 4")
    low = [(i, j) for i in range(1, n - 2) for j in (n - 2, n - 1, n)]
    mid = [(n - 2, n - 1), (n - 2, n), (n - 1, n)]
    top = orders.complete_pairs(n - 3) if n >= 5 else []
    chain = sorted(low) + mid + sorted(top)
    return OrderSpec("complete", n, tuple((p,) for p in chain))


def _diameter_preorder(n: int) -> OrderSpec:
    if n < 3:
        raise BadSize("diameter_preorder needs n >= 3")
    rest = tuple(p for p in orders.complete_pairs(n) if p != (n - 1, n))
    return OrderSpec("complete", n, (((n - 1, n),), rest))


def _bip_cyclic_linear(n: int) -> OrderSpec:
    if n < 3:
        raise BadSize("bip_cyclic_linear needs n >= 3")
    pairs = orders.bipartite_pairs(n, n)
    relations = []
    for col in range(1, n + 1):
        rows = [((col - 1 + k) % n) + 1 for k in range(n)]
        relations += [((a, col), (b, col)) for a, b in zip(rows, rows[1:])]
    chain = _lex_extension(pairs, relations)
    return OrderSpec("bipartite", n, tuple((p,) for p in chain), m=n)


def _bip_affine_preorder(n: int) -> OrderSpec:
    if n < 3:
        raise BadSize("bip_affine_preorder needs n >= 3")
    classes = [tuple((1, j) for j in range(1, n + 1)),
               tuple((2, j) for j in range(1, n + 1))]
    for i in range(3, n):
        cut = n + 2 - i
        classes.append(tuple((i, j) for j in range(1, cut + 1)))
        classes.append(tuple((i, j) for j in range(cut + 1, n + 1)))
    classes += [((n, j),) for j in range(1, n + 1)]
    return OrderSpec("bipartite", n, tuple(classes), m=n)


# name -> (builder, largest dimension in which the family of size n
# provably has no realization)
FAMILIES = {
    "d4_linear": (_d4_linear, lambda n: 1),
    "block_linear": (_block_linear, lambda n: n - 3),
    "diameter_preorder": (_diameter_preorder, lambda n: n - 2),
    "bip_cyclic_linear": (_bip_cyclic_linear, lambda n: n - 2),
    "bip_affine_preorder": (_bip_affine_preorder, lambda n: n - 1),
}


def gallery(name: str, n: int) -> OrderSpec:
    """Emit a lower-bound family as a full order spec.

    The sources fix only some relations; unconstrained pairs are completed
    deterministically (lex-smallest compatible completion for the linear
    families, row-major chaining for the affine preorder)."""
    try:
        builder, _ = FAMILIES[name]
    except KeyError:
        raise UnknownName(
            f"unknown gallery family {name!r}; "
            f"choose from {', '.join(FAMILIES)}") from None
    spec = builder(n)
    spec.ranks  # validates
    return spec


def infeasible_dimension(name: str, n: int) -> int:
    """Largest dimension in which the family provably has no realization."""
    gallery(name, n)
    return FAMILIES[name][1](n)


def simplex_diameter_bound(n: int) -> float:
    """2*sqrt((n-1)/(2(n-2))): the forced distance between the two apexes
    of the reflected regular simplex; strictly above 1 for every n >= 3."""
    if n < 3:
        raise BadSize("simplex_diameter_bound needs n >= 3")
    return 2.0 * float(np.sqrt((n - 1) / (2.0 * (n - 2))))


# ---------------------------------------------------------------------------
# stress loss

class _StressTerms:
    """Precomputed index arrays for the loss terms of one spec in R^dim."""

    def __init__(self, spec: OrderSpec, dim: int):
        n = spec.n
        ranks = spec.ranks
        if spec.kind == "complete":
            self.n_points = n
            ii, jj = upper_pairs(n)
            xi = xj = np.zeros(0, dtype=int)
        else:
            m = spec.m
            self.n_points = n + m
            ii = np.repeat(np.arange(n), m)
            jj = n + np.tile(np.arange(m), n)
            # points of one collection may legally coincide, but only when
            # their relation rows agree; rows that differ force distinct
            # points in every realization, so only those pairs get the
            # distinctness floor
            R = ranks.reshape(n, m)
            pa, pb = _differing_rows(R)
            qa, qb = _differing_rows(R.T)
            xi = np.concatenate([pa, n + qa])
            xj = np.concatenate([pb, n + qb])
        # both ends of every difference: pairs, then distinctness terms
        self.ends = (np.concatenate([ii, xi]), np.concatenate([jj, xj]))
        # pairs grouped by class, lexicographic within a class
        by_class = np.argsort(ranks, kind="stable")
        same = ranks[by_class[1:]] == ranks[by_class[:-1]]
        self.eq_a = by_class[:-1][same]
        self.eq_b = by_class[1:][same]
        # the lexicographically smallest pair of each class
        first = by_class[np.concatenate(([True], ~same))]
        self.hi_a = first[:-1]
        self.hi_b = first[1:]
        self.n_pairs = ranks.size
        # scatter bins in the order the gradient terms accumulate: pairs of
        # the hinge and equality terms (each +, then -), and flat (point,
        # coordinate) of the pair and distinctness terms (each +, then -)
        self.g_at = np.concatenate([self.hi_a, self.hi_b,
                                    self.eq_a, self.eq_b])
        x_at = np.concatenate([ii, jj, xi, xj])
        self.x_at = (x_at[:, None] * dim + np.arange(dim)).ravel()


def _differing_rows(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row index pairs a < b, row-major, of the rows of R that differ."""
    return np.nonzero(np.triu((R[:, None, :] != R[None, :, :]).any(axis=2),
                              1))


def _stack(config: PointConfig) -> np.ndarray:
    if config.Q is None:
        return np.asarray(config.P, dtype=float)
    return np.vstack([config.P, config.Q])


def _loss_only(terms: _StressTerms, X: np.ndarray, margin: float,
               floor: float):
    """Loss at a trial point X, with the terms that _loss_grad reuses
    once the step to X is accepted."""
    # rows [:n_pairs] are the pairs, the rest the distinctness terms; the
    # sums are np.add.reduce, which ndarray.sum and .mean wrap
    k = terms.n_pairs
    D = X[terms.ends[0]] - X[terms.ends[1]]
    S = np.add.reduce(D * D, axis=1)
    mu = np.add.reduce(S[:k]) / k
    sh = S / mu
    hinge = np.maximum(0.0, margin + sh[terms.hi_a] - sh[terms.hi_b])
    eq = sh[terms.eq_a] - sh[terms.eq_b]
    low = np.maximum(0.0, floor - sh)
    low2 = low * low
    loss = float(np.add.reduce(hinge * hinge) + np.add.reduce(eq * eq)
                 + np.add.reduce(low2[:k]) + np.add.reduce(low2[k:]))
    return loss, (D, mu, sh, hinge, eq, low)


def _loss_grad(terms: _StressTerms, X: np.ndarray, margin: float,
               floor: float, trial=None) -> tuple[float, np.ndarray]:
    """Loss and gradient at X; trial, if given, is _loss_only at X."""
    loss, (D, mu, sh, hinge, eq, low) = (
        _loss_only(terms, X, margin, floor) if trial is None else trial)
    k = terms.n_pairs
    # each bincount adds its weights bin by bin in input order, the same
    # additions as one np.add.at per term in that order (with no terms it
    # returns integer zeros, hence no in-place update)
    g = np.bincount(terms.g_at,
                    2.0 * np.concatenate([hinge, -hinge, eq, -eq]), k)
    g = g - 2.0 * low[:k]
    gx = -2.0 * low[k:]
    # normalization: every sh_p = s_p / mu depends on all s_q through mu
    mu_term = (np.add.reduce(g * sh[:k])
               + np.add.reduce(gx * sh[k:])) / k
    gs = (g - mu_term) / mu
    contrib = (2.0 * gs)[:, None] * D[:k]
    contrib_x = (2.0 * gx / mu)[:, None] * D[k:]
    w = np.concatenate([contrib, -contrib, contrib_x, -contrib_x])
    grad = np.bincount(terms.x_at, w.ravel(), X.size)
    return loss, grad.reshape(X.shape)


def stress_loss(spec: OrderSpec, config: PointConfig, margin: float = MARGIN,
                floor: float = FLOOR) -> tuple[float, np.ndarray]:
    """Order-violation stress of a configuration, with exact gradient.

    Squared pair distances are normalized to mean one. Terms: a squared
    hinge max(0, margin + s_a - s_b) for the lexicographically smallest
    representatives a, b of each consecutive class step; a squared
    difference for each lexicographically adjacent pair inside a class;
    and a squared shortfall max(0, floor - s) for every normalized squared
    distance the order constrains to be positive (the whole pair set, plus
    the bipartite within-collection distances between points whose relation
    rows differ; points with identical rows may legally coincide and are
    exempt). The floor keeps the search away from point collapses that
    satisfy the order constraints only degenerately; it restricts the
    probe to configurations whose constrained distances stay comparable
    to the mean.
    The gradient is analytic, including the normalization coupling, and is
    laid out like P (complete) or P stacked over Q (bipartite).
    """
    spec.ranks  # validates
    verifier.check_shape(config, spec)
    X = _stack(config)
    return _loss_grad(_StressTerms(spec, X.shape[1]), X, margin, floor)


# ---------------------------------------------------------------------------
# falsifier

@dataclass(frozen=True)
class FalsifierConfig:
    dim: int
    restarts: int = 100
    iters: int = 5000
    margin: float = MARGIN
    floor: float = FLOOR
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise BadSize("dim must be >= 1")
        if self.restarts < 1 or self.iters < 1:
            raise BadSize("restarts and iters must be >= 1")
        if self.margin <= 0:
            raise BadSize("margin must be positive")
        if self.floor < 0:
            raise BadSize("floor must be nonnegative")


@dataclass(frozen=True)
class FalsifierReport:
    feasible: bool
    best_loss: float
    best_config: PointConfig
    per_restart_losses: tuple[float, ...]
    restarts: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "restarts", len(self.per_restart_losses))


def _descend(terms: _StressTerms, X: np.ndarray, iters: int, margin: float,
             floor: float) -> tuple[float, np.ndarray]:
    """Gradient descent with backtracking: from STEP_INIT, halve until the
    Armijo decrease with constant ARMIJO_C.

    Stops early below STOP_LOSS, or once progress stalls: relative decrease
    at most STALL_REL for STALL_ITERS consecutive steps, or no acceptable
    step above MIN_STEP.
    """
    f, g = _loss_grad(terms, X, margin, floor)
    stall = 0
    for _ in range(iters):
        if f < STOP_LOSS:
            break
        gnorm2 = float((g * g).sum())
        if gnorm2 == 0.0:
            break
        step = STEP_INIT
        accepted = False
        while step >= MIN_STEP:
            Xn = X - step * g
            trial = _loss_only(terms, Xn, margin, floor)
            if trial[0] <= f - ARMIJO_C * step * gnorm2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        X = Xn
        f_prev = f
        f, g = _loss_grad(terms, X, margin, floor, trial)
        if f_prev - f <= STALL_REL * max(f, 1e-300):
            stall += 1
            if stall >= STALL_ITERS:
                break
        else:
            stall = 0
    return f, X


def _split_config(spec: OrderSpec, X: np.ndarray, dim: int) -> PointConfig:
    if spec.kind == "complete":
        return PointConfig(dim=dim, P=X.copy())
    return PointConfig(dim=dim, P=X[: spec.n].copy(), Q=X[spec.n:].copy())


def falsify(spec: OrderSpec, cfg: FalsifierConfig) -> FalsifierReport:
    """Search for a realization of spec in R^dim by restarted descent.

    feasible is true iff some restart drives the loss below FEASIBLE_LOSS
    and the verifier confirms the resulting configuration induces exactly
    the spec's classes (tolerances VERIFY_TOL, the residual scale that a
    just-accepted loss permits). Deterministic for a fixed seed: restart r
    draws its start from default_rng([seed, r]).
    """
    terms = _StressTerms(spec, cfg.dim)  # reads spec.ranks, which validates
    losses = []
    best_loss = float("inf")
    best_X = None
    witness_X = None
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        X0 = rng.standard_normal((terms.n_points, cfg.dim))
        f, X = _descend(terms, X0, cfg.iters, cfg.margin, cfg.floor)
        losses.append(f)
        if f < best_loss:
            best_loss = f
            best_X = X
        if f < FEASIBLE_LOSS and witness_X is None:
            candidate = _split_config(spec, X, cfg.dim)
            report = verifier.verify(candidate, spec, tol_abs=VERIFY_TOL,
                                     tol_rel=VERIFY_TOL)
            if report.matched:
                witness_X = X
    feasible = witness_X is not None
    final_X = witness_X if feasible else best_X
    return FalsifierReport(feasible=feasible, best_loss=best_loss,
                           best_config=_split_config(spec, final_X, cfg.dim),
                           per_restart_losses=tuple(losses))
