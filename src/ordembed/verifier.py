"""Recover the order induced by a configuration and compare to a spec.

Distances are sorted and split into classes wherever an adjacent gap
exceeds tol_abs + tol_rel * (max distance); single-linkage, deterministic,
and exact whenever the realization's gaps dominate the tolerances. The
induced order is an OrderSpec in canonical form, built from its rank
vector by orders.from_ranks.
"""
from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import BadSize, NonFiniteEntry, ShapeMismatch
from .orders import OrderSpec, Pair, _pairs_at, from_ranks
from .schoenberg import PointConfig, _is_real, pair_distances

TOL_ABS = 1e-9
TOL_REL = 1e-9


@dataclass(frozen=True)
class VerifyReport:
    verdict: str
    witness: tuple[Pair, Pair] | None
    margin: float
    distinctness: float

    @property
    def matched(self) -> bool:
        return self.verdict == "match"


def check_tolerances(tol_abs: float, tol_rel: float) -> None:
    """Raise BadSize unless both tolerances are nonnegative and finite: a
    negative one splits ties, a NaN or infinite one merges every class."""
    for name, tol in (("tol_abs", tol_abs), ("tol_rel", tol_rel)):
        if not (_is_real(tol) and 0 <= tol < math.inf):
            raise BadSize(f"{name} must be nonnegative and within float "
                          f"range, got {reprlib.repr(tol)}")


def _largest(vals: np.ndarray) -> float:
    """The largest of the pair distances vals; NonFiniteEntry if one is
    not finite (finite coordinates far apart overflow in the squares)."""
    top = float(vals.max())
    if not math.isfinite(top):
        raise NonFiniteEntry("pair distances are not finite")
    return top


def _induce(vals: np.ndarray, threshold: float) -> tuple[np.ndarray, float]:
    """The induced rank of every pair distance in vals, and the least step
    between classes (inf for one class): the distances sorted and split
    at every step above threshold. Ties sit together in any sort, 0 apart
    and never cut, so their order changes no rank and no step."""
    order = np.argsort(vals)
    steps = np.diff(vals[order])
    cut = steps > threshold
    ranks = np.empty(vals.size, dtype=np.int64)
    ranks[order] = np.concatenate(([1], 1 + np.cumsum(cut)))
    return ranks, float(steps[cut].min(initial=np.inf))


def induced_preorder(config: PointConfig, tol_abs: float = TOL_ABS,
                     tol_rel: float = TOL_REL) -> OrderSpec:
    """The canonical spec of the order that config's pair distances
    induce; its separation(pair_distances(config)) is the least gap and
    the greatest spread. A distance that is not finite raises
    NonFiniteEntry."""
    check_tolerances(tol_abs, tol_rel)
    vals = pair_distances(config)
    if vals.size == 0:
        raise ShapeMismatch("a configuration of fewer than two points "
                            "induces no order")
    ranks, _ = _induce(vals, tol_abs + tol_rel * _largest(vals))
    return from_ranks(ranks, len(config.P),
                      None if config.Q is None else len(config.Q))


def check_shape(config: PointConfig, spec: OrderSpec) -> None:
    """Raise ShapeMismatch unless config holds exactly the points that
    spec's pairs index: n in P for a complete spec, n in P and m in Q for
    a bipartite one."""
    want = [spec.n] if spec.m is None else [spec.n, spec.m]
    got = [len(A) for A in (config.P, config.Q) if A is not None]
    if got != want:
        raise ShapeMismatch(f"spec has {want} points, config has {got}")


def _first_disagreement(spec: OrderSpec, got: np.ndarray
                        ) -> tuple[Pair, Pair]:
    """Lexicographically first pair of pairs (a, b), a before b in pair
    order, that spec (ranks want) and configuration (ranks got) order
    differently: sign(want[b] - want[a]) != sign(got[b] - got[a]).

    From each spec class's least and greatest induced rank, a pair has such
    a partner iff its class holds two induced ranks, an earlier class
    reaches its induced rank (prefix max) or a later one does (suffix min).
    The relation is symmetric, so the first marked pair a* has a partner
    after it (one before it would be marked earlier): a* opens the witness
    and one sign compare finds b. O(N + K) for N pairs and K classes."""
    want = spec.ranks
    lo, hi = spec.extremes(got)
    before = np.concatenate(([-np.inf], np.maximum.accumulate(hi)[:-1]))
    after = np.concatenate((np.minimum.accumulate(lo[::-1])[::-1][1:],
                            [np.inf]))
    cls = want - 1
    marked = (lo != hi)[cls] | (before[cls] >= got) | (after[cls] <= got)
    if not marked.any():
        raise AssertionError("mismatch verdict without a disagreeing pair")
    a = int(marked.argmax())
    differ = (np.sign(want[a + 1:] - want[a])
              != np.sign(got[a + 1:] - got[a]))
    pairs = _pairs_at(spec.n, spec.m,
                      np.array([a, a + 1 + int(differ.argmax())]))
    return tuple(map(tuple, pairs.tolist()))


def verify(config: PointConfig, spec: OrderSpec, tol_abs: float = TOL_ABS,
           tol_rel: float = TOL_REL) -> VerifyReport:
    """Match iff the induced classes equal the spec classes as set sequences;
    unsorted if each spec class spreads at most the threshold and ends more
    than it below the next, since the sorted split then cuts there. A
    distance that is not finite raises NonFiniteEntry."""
    check_shape(config, spec)
    check_tolerances(tol_abs, tol_rel)
    vals = pair_distances(config)
    threshold = tol_abs + tol_rel * _largest(vals)
    margin, spread = spec.separation(vals)
    # complete: the least distance over all pairs of P; bipartite: the
    # least P-to-Q distance (each collection may repeat points internally)
    distinctness = float(vals.min())
    witness = None
    if not (margin > threshold and spread <= threshold):
        got, margin = _induce(vals, threshold)
        if not np.array_equal(got, spec.ranks):
            witness = _first_disagreement(spec, got)
    return VerifyReport(verdict="match" if witness is None else "mismatch",
                        witness=witness, margin=margin,
                        distinctness=distinctness)
