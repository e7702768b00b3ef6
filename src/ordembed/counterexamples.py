"""Lower-bound order families and a numerical feasibility falsifier.

The gallery reproduces the order families whose realizations provably need
one more dimension than the falsifier is given. The falsifier then attacks
a (spec, dim) instance by stress minimization over point coordinates with
random restarts: squared distances are scale-normalized to mean one, strict
class steps are hinge constraints with a margin, within-class ties are
equality constraints, and every point pair must clear a distinctness floor
so the search stays away from configurations with merged points (the
impossibility arguments all assume the relevant points distinct). A
"refuted" verdict is evidence under the given budget, never a proof.
"""
from __future__ import annotations

import math
import os
import pickle
import reprlib
import signal
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import orders, verifier
from .errors import BadSize, NonFiniteEntry, UnknownName
from .orders import OrderSpec
from .schoenberg import (MAX_PAIRS, PointConfig, _is_index_type,
                         _is_real, check_pair_count, pair_index)

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
# largest margin or floor: its squares in the loss leave 1e154 to overflow
SHIFT_MAX = float(np.finfo(float).max) ** 0.25


# ---------------------------------------------------------------------------
# gallery

def _d4_linear(n: int) -> OrderSpec:
    """The source relations (1,2) < (1,3), (2,4) < (3,4) and every other
    pair < (1,4), in one chain."""
    chain = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (1, 4)]
    return OrderSpec("complete", 4, tuple((p,) for p in chain))


def _block_linear(n: int) -> OrderSpec:
    low = [(i, j) for i in range(1, n - 2) for j in (n - 2, n - 1, n)]
    mid = [(n - 2, n - 1), (n - 2, n), (n - 1, n)]
    chain = low + mid + orders.complete_pairs(n - 3)
    return OrderSpec("complete", n, tuple((p,) for p in chain))


def _diameter_preorder(n: int) -> OrderSpec:
    rest = tuple(p for p in orders.complete_pairs(n) if p != (n - 1, n))
    return OrderSpec("complete", n, (((n - 1, n),), rest))


def _bip_cyclic_linear(n: int) -> OrderSpec:
    """The source relations (j, j) < (j+1, j) < ... < (n, j) < (1, j) < ...
    < (j-1, j) down each column j, in one chain: rows 1..n-1 up to the
    diagonal, then each column's (n, j), (1, j), ..., (j-1, j)."""
    chain = [(i, j) for i in range(1, n) for j in range(1, i + 1)]
    chain += [(i, j) for j in range(1, n + 1) for i in (n, *range(1, j))]
    return OrderSpec("bipartite", n, tuple((p,) for p in chain), m=n)


def _bip_affine_preorder(n: int) -> OrderSpec:
    classes = [tuple((1, j) for j in range(1, n + 1)),
               tuple((2, j) for j in range(1, n + 1))]
    for i in range(3, n):
        cut = n + 2 - i
        classes.append(tuple((i, j) for j in range(1, cut + 1)))
        classes.append(tuple((i, j) for j in range(cut + 1, n + 1)))
    classes += [((n, j),) for j in range(1, n + 1)]
    return OrderSpec("bipartite", n, tuple(classes), m=n)


# the most points a complete or a bipartite family has within MAX_PAIRS
_COMPLETE = range((1 + math.isqrt(1 + 8 * MAX_PAIRS)) // 2 + 1)
_BIPARTITE = range(math.isqrt(MAX_PAIRS) + 1)

# name -> (builder, admissible n, largest dimension in which the family of
# size n provably has no realization)
FAMILIES = {
    "d4_linear": (_d4_linear, range(4, 5), lambda n: 1),
    "block_linear": (_block_linear, _COMPLETE[4:], lambda n: n - 3),
    "diameter_preorder": (_diameter_preorder, _COMPLETE[3:], lambda n: n - 2),
    "bip_cyclic_linear": (_bip_cyclic_linear, _BIPARTITE[3:],
                          lambda n: n - 2),
    "bip_affine_preorder": (_bip_affine_preorder, _BIPARTITE[3:],
                            lambda n: n - 1),
}


def _family(name: str, n: int):
    """The FAMILIES entry of name if n is admissible (the range's top keeps
    the pair count within MAX_PAIRS), else UnknownName or BadSize."""
    try:
        family = FAMILIES[name]
    except (KeyError, TypeError):  # TypeError: a name that is not hashable
        raise UnknownName(
            f"unknown gallery family {name!r}; "
            f"choose from {', '.join(FAMILIES)}") from None
    sizes = family[1]
    if not (_is_index_type(type(n)) and n in sizes):
        raise BadSize(f"{name} is fixed at n = {sizes[0]}" if len(sizes) == 1
                      else f"{name} needs {sizes[0]} <= n <= {sizes[-1]}")
    return family


def gallery(name: str, n: int) -> OrderSpec:
    """Emit a lower-bound family as a full order spec.

    The sources fix only some relations; each builder lists one fixed
    order that keeps them (the chain its docstring states for d4_linear
    and bip_cyclic_linear, row-major chaining for the affine preorder)."""
    return _family(name, n)[0](n)


def infeasible_dimension(name: str, n: int) -> int:
    """Largest dimension in which the family provably has no realization;
    the spec is not built."""
    return _family(name, n)[2](n)


def simplex_diameter_bound(n: int) -> float:
    """2*sqrt((n-1)/(2(n-2))): the forced distance between the two apexes
    of the reflected regular simplex; strictly above 1 for every n >= 3."""
    if not (_is_index_type(type(n)) and _is_real(n) and n >= 3):
        raise BadSize("simplex_diameter_bound needs an integer n >= 3 within "
                      "float range")
    return 2.0 * float(np.sqrt((n - 1) / (2.0 * (n - 2))))


# ---------------------------------------------------------------------------
# stress loss

# the zero that np.maximum clamps against, as an array so that no call
# converts a Python float
_ZERO = np.zeros(())


class _StressTerms:
    """Index arrays and constants for the loss terms of one spec in R^dim.

    The loss terms form one vector t = [eq | hinge | low]: t = (sh[first] +
    shift) - sh[second] over the normalized squared distances sh, with
    hinge and low clamped at zero. Each entry rounds as its plain formula
    does: sh_a + margin is margin + sh_a, and sh_a + 0.0 is sh_a since sh
    is never -0.0.
    """

    def __init__(self, spec: OrderSpec, dim: int, margin: float,
                 floor: float):
        n, m = spec.n, spec.m
        ranks = spec.ranks
        ii, jj = pair_index(n, m)
        if spec.kind == "complete":
            self.n_points = n
            xi = xj = np.zeros(0, dtype=int)
        else:
            self.n_points = n + m
            jj = n + jj
            # points of one collection may legally coincide, but only when
            # their relation rows agree; rows that differ force distinct
            # points in every realization, so only those pairs get the
            # distinctness floor
            R = ranks.reshape(n, m)
            pa, pb = _differing_rows(R)
            qa, qb = _differing_rows(R.T)
            xi = np.concatenate([pa, n + qa])
            xj = np.concatenate([pb, n + qb])
        k = ranks.size
        diffs = k + xi.size
        # the coordinate scatter below holds 2 * diffs * dim entries
        check_pair_count(diffs * dim)
        # both ends of every difference: pairs, distinctness terms, then
        # point 0 to itself, whose squared distance is the exact zero that
        # the low terms take as their first operand
        zero = np.zeros(1, dtype=int)
        self.ends = np.concatenate([ii, xi, zero, jj, xj, zero])
        self.n_pairs = k
        self.n_diffs = diffs
        # pairs grouped by class, lexicographic within a class; eq joins
        # neighbours in a class, hinge the smallest pairs of adjacent classes
        by_class = orders.by_class(ranks)
        same = ranks[by_class[1:]] == ranks[by_class[:-1]]
        eq_a = by_class[:-1][same]
        eq_b = by_class[1:][same]
        first = by_class[np.concatenate(([True], ~same))]
        hi_a = first[:-1]
        hi_b = first[1:]
        e, h = eq_a.size, hi_a.size
        self.first = np.concatenate([eq_a, hi_a, np.full(diffs, diffs)])
        self.second = np.concatenate([eq_b, hi_b, np.arange(diffs)])
        self.shift = np.concatenate([np.zeros(e), np.full(h, float(margin)),
                                     np.full(diffs, float(floor))])
        self.n_eq = e
        # the loss adds the sums of the hinge, eq, pair low and distinctness
        # low terms, in that order; an empty part, whose sum 0.0 leaves the
        # loss unchanged, is skipped
        self.parts = tuple(slice(a, b) for a, b in (
            (e, e + h), (0, e), (e + h, e + h + k),
            (e + h + k, e + h + diffs)) if b > a)
        # scatter of the loss gradient in sh, in the order the terms
        # accumulate: hinge (+, then -), eq (+, then -), low; each weight is
        # a term times its factor (x * -2.0 is exactly -(2.0 * x))
        self.g_at = np.concatenate([hi_a, hi_b, eq_a, eq_b,
                                    np.arange(diffs)])
        self.w_at = np.concatenate([e + np.arange(h), e + np.arange(h),
                                    np.arange(e), np.arange(e),
                                    e + h + np.arange(diffs)])
        self.w_factor = np.repeat([2.0, -2.0, 2.0, -2.0, -2.0],
                                  [h, h, e, e, diffs])
        # scatter of the coordinate gradient: the rows of every difference
        # (pairs +, pairs -, distinctness +, distinctness -), flat (point,
        # coordinate) bins
        self.rows = np.concatenate([np.arange(k), np.arange(k),
                                    np.arange(k, diffs), np.arange(k, diffs)])
        self.row_sign = np.repeat([1.0, -1.0, 1.0, -1.0],
                                  [k, k, diffs - k, diffs - k])[:, None]
        x_at = np.concatenate([ii, jj, xi, xj])
        self.x_at = (x_at[:, None] * dim + np.arange(dim)).ravel()


def _differing_rows(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row index pairs a < b, row-major, of the rows of R that differ.
    Equal rows share a label and only labels are compared pairwise, so
    memory grows with the square of the row count alone."""
    label = np.unique(R, axis=0, return_inverse=True)[1].ravel()
    return np.nonzero(np.triu(label[:, None] != label[None, :], 1))


def _loss_only(terms: _StressTerms, X: np.ndarray):
    """Loss at a trial point X, with the terms that _loss_grad reuses
    once the step to X is accepted."""
    # rows [:n_pairs] of D are the pairs, then the distinctness terms and
    # the zero row; the sums are np.add.reduce, which ndarray.sum wraps
    k = terms.n_pairs
    E = X.take(terms.ends, 0)
    half = terms.n_diffs + 1
    D = E[:half] - E[half:]
    S = np.add.reduce(D * D, axis=1)
    mu = np.add.reduce(S[:k]) / k
    sh = S / mu
    t = (sh.take(terms.first) + terms.shift) - sh.take(terms.second)
    clamped = t[terms.n_eq:]
    np.maximum(_ZERO, clamped, out=clamped)
    t2 = t * t
    loss = 0.0
    for part in terms.parts:
        loss += float(np.add.reduce(t2[part]))
    return loss, (D, mu, sh, t)


def _loss_grad(terms: _StressTerms, X: np.ndarray,
               trial=None) -> tuple[float, np.ndarray]:
    """Loss and gradient at X; trial, if given, is _loss_only at X."""
    loss, (D, mu, sh, t) = _loss_only(terms, X) if trial is None else trial
    k = terms.n_pairs
    diffs = terms.n_diffs
    # gradient in sh: bincount adds its weights bin by bin in input order,
    # the same additions as one np.add.at per term in that order; the low
    # term comes last, so a pair's bin ends as (its sum) - 2 low. A
    # distinctness bin is 0.0 - 2 low, which differs from -2 low only in
    # the sign of a zero; the coordinate gradient's bins start at +0.0, so
    # no bin of it can tell
    G = np.bincount(terms.g_at, t.take(terms.w_at) * terms.w_factor, diffs)
    # normalization: every sh_p = s_p / mu depends on all s_q through mu
    P = G * sh[:diffs]
    mu_term = float(np.add.reduce(P[:k]))
    if diffs > k:
        mu_term += float(np.add.reduce(P[k:]))
    mu_term /= k
    # in place: 2 (G_p - mu_term) / mu for the pairs, 2 G_x / mu for the
    # distinctness terms
    G_p, G_x = G[:k], G[k:]
    np.subtract(G_p, mu_term, out=G_p)
    np.multiply(G_x, 2.0, out=G_x)
    np.divide(G, mu, out=G)
    np.multiply(G_p, 2.0, out=G_p)
    w = (G[:, None] * D[:diffs]).take(terms.rows, 0) * terms.row_sign
    grad = np.bincount(terms.x_at, w.ravel(), X.size)
    return loss, grad.reshape(X.shape)


def check_margin_and_floor(margin: float, floor: float) -> None:
    """BadSize unless 0 < margin <= SHIFT_MAX and 0 <= floor <= SHIFT_MAX."""
    if not (_is_real(margin) and 0 < margin < math.inf):
        raise BadSize("margin must be a positive number within float range, "
                      f"got {reprlib.repr(margin)}")
    if not (_is_real(floor) and 0 <= floor < math.inf):
        raise BadSize("floor must be nonnegative and within float range, "
                      f"got {reprlib.repr(floor)}")
    if max(float(margin), float(floor)) > SHIFT_MAX:  # float32 overflows
        raise BadSize(f"margin and floor must be at most {SHIFT_MAX:.3g}")


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
    laid out like P (complete) or P stacked over Q (bipartite). Non-finite
    coordinates, and a loss or gradient that is not finite (coincident
    points, squares that overflow), raise NonFiniteEntry; a margin or floor
    that FalsifierConfig refuses raises its BadSize.
    """
    check_margin_and_floor(margin, floor)
    verifier.check_shape(config, spec)
    X = config.rows()
    if not np.isfinite(X).all():
        raise NonFiniteEntry("point config has non-finite coordinates")
    terms = _StressTerms(spec, X.shape[1], margin, floor)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        loss, grad = _loss_grad(terms, X)
    if not (math.isfinite(loss) and np.isfinite(grad).all()):
        raise NonFiniteEntry("stress loss or gradient is not finite")
    return loss, grad


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
        if not all(_is_index_type(type(v)) for v in (
                self.dim, self.restarts, self.iters, self.seed)):
            raise BadSize("dim, restarts, iters and seed must be integers")
        if self.dim < 1:
            raise BadSize("dim must be >= 1")
        if self.restarts < 1 or self.iters < 1:
            raise BadSize("restarts and iters must be >= 1")
        check_margin_and_floor(self.margin, self.floor)
        if self.seed < 0:
            raise BadSize("seed must be >= 0")


class RestartStop(NamedTuple):
    """How one descent restart ended, after how many accepted steps.

    reason: converged (loss below STOP_LOSS), stall (STALL_ITERS steps in
    a row of relative decrease at most STALL_REL), no_step (no Armijo step
    above MIN_STEP), zero_gradient, or cap (the iteration budget ran out).
    """
    reason: str
    iters: int


@dataclass(frozen=True)
class FalsifierReport:
    """verdict: feasible (a verified witness was found); undecided (some
    restart hit the cap, or ended below FEASIBLE_LOSS without verifying);
    refuted otherwise. The per-restart fields hold the restarts that ran:
    every one when no witness verifies, else up to the first that does."""
    verdict: str
    best_loss: float
    best_config: PointConfig
    per_restart_losses: tuple[float, ...]
    per_restart_stops: tuple[RestartStop, ...]

    @property
    def feasible(self) -> bool:
        return self.verdict == "feasible"

    @property
    def restarts(self) -> int:
        return len(self.per_restart_losses)


def _descend(terms: _StressTerms, X: np.ndarray,
             iters: int) -> tuple[float, np.ndarray, RestartStop]:
    """Gradient descent with backtracking: from STEP_INIT, halve until the
    Armijo decrease with constant ARMIJO_C.

    Runs at most iters accepted steps and says how it stopped (see
    RestartStop).
    """
    f, g = _loss_grad(terms, X)
    stall = 0
    for it in range(iters):
        if f < STOP_LOSS:
            return f, X, RestartStop("converged", it)
        gnorm2 = float(np.add.reduce(g * g, axis=None))
        if gnorm2 == 0.0:
            return f, X, RestartStop("zero_gradient", it)
        step = STEP_INIT
        while True:
            Xn = X - step * g
            trial = _loss_only(terms, Xn)
            if trial[0] <= f - ARMIJO_C * step * gnorm2:
                break
            step *= 0.5
            if step < MIN_STEP:
                return f, X, RestartStop("no_step", it)
        X = Xn
        f_prev = f
        f, g = _loss_grad(terms, X, trial)
        if f_prev - f <= STALL_REL * max(f, 1e-300):
            stall += 1
            if stall >= STALL_ITERS:
                return f, X, RestartStop("stall", it + 1)
        else:
            stall = 0
    return f, X, RestartStop("converged" if f < STOP_LOSS else "cap", iters)


def _fork(descend, restarts: range):
    """Fork a child that pickles descend(r) for each r in restarts, in
    order, to a pipe and exits; return its pid and the pipe's read end,
    or None if the fork fails."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return None
    if pid == 0:
        try:
            with os.fdopen(wfd, "wb") as out:
                for r in restarts:
                    pickle.dump(descend(r), out)
                    out.flush()
        finally:
            os._exit(0)
    os.close(wfd)
    return pid, os.fdopen(rfd, "rb")


def falsify(spec: OrderSpec, cfg: FalsifierConfig) -> FalsifierReport:
    """Search for a realization of spec in R^dim by restarted descent.

    A restart's witness counts once its loss is below FEASIBLE_LOSS and
    the verifier confirms the configuration induces exactly the spec's
    classes (tolerances VERIFY_TOL, the residual scale that a
    just-accepted loss permits). The search stops at the first witness,
    since no later restart can change that verdict. Deterministic for a
    fixed seed: restart r draws its start from default_rng([seed, r]).

    The restarts run on W workers, one per CPU this process may use (so
    taskset limits them) and at most one per restart: worker w runs the
    restarts r = w mod W, worker 0 here and each other one in a forked
    child that only descends and pickles (f, X, stop) to its pipe. Results
    are taken and verified here in restart order, so the report is the
    serial search's bit for bit for any W. This process runs the restarts
    of a worker that failed to fork or died before reporting, and kills
    and reaps every child before it returns or raises.
    """
    terms = _StressTerms(spec, cfg.dim, cfg.margin, cfg.floor)

    def descend(r: int) -> tuple[float, np.ndarray, RestartStop]:
        rng = np.random.default_rng([cfg.seed, r])
        X0 = rng.standard_normal((terms.n_points, cfg.dim))
        return _descend(terms, X0, cfg.iters)

    # every platform with sched_getaffinity has fork
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else 1)
    workers = min(cpus, cfg.restarts)
    pids = []
    pipes = {}
    losses = []
    stops = []
    best_loss = float("inf")
    best_X = None
    try:
        for w in range(1, workers):
            child = _fork(descend, range(w, cfg.restarts, workers))
            if child is None:
                break
            pids.append(child[0])
            pipes[w] = child[1]
        for r in range(cfg.restarts):
            result = None
            if r % workers in pipes:
                try:
                    result = pickle.load(pipes[r % workers])
                except (EOFError, pickle.UnpicklingError):
                    # the worker died: its restarts from r on run here
                    pipes.pop(r % workers).close()
            f, X, stop = result or descend(r)
            losses.append(f)
            stops.append(stop)
            if f < best_loss:
                best_loss = f
                best_X = X
            if f < FEASIBLE_LOSS and verifier.verify(
                    PointConfig.from_rows(X, spec.n, spec.kind), spec,
                    tol_abs=VERIFY_TOL, tol_rel=VERIFY_TOL).matched:
                verdict, final_X = "feasible", X
                break
        else:
            undecided = any(s.reason == "cap" or f < FEASIBLE_LOSS
                            for f, s in zip(losses, stops))
            verdict = "undecided" if undecided else "refuted"
            final_X = best_X
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes.values():
            pipe.close()
    best_config = PointConfig.from_rows(final_X, spec.n, spec.kind)
    return FalsifierReport(verdict=verdict, best_loss=best_loss,
                           best_config=best_config,
                           per_restart_losses=tuple(losses),
                           per_restart_stops=tuple(stops))
