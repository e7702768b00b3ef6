"""Recover the order induced by a configuration and compare to a spec.

Distances are sorted and split into classes wherever an adjacent gap
exceeds tol_abs + tol_rel * (max distance); single-linkage, deterministic,
and exact whenever the realization's gaps dominate the tolerances.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch
from .orders import OrderSpec, bipartite_pairs, complete_pairs
from .schoenberg import PointConfig, json_float, pair_distances

TOL_ABS = 1e-9
TOL_REL = 1e-9

Pair = tuple[int, int]


@dataclass(frozen=True)
class InducedOrder:
    classes: tuple[tuple[Pair, ...], ...]
    gaps: tuple[float, ...]
    spread: float
    # class rank and distance of every pair, in lexicographic pair order
    ranks: np.ndarray = field(repr=False, compare=False)
    distances: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class VerifyReport:
    verdict: str
    witness: tuple[Pair, Pair] | None
    margin: float
    distinctness: float

    @property
    def matched(self) -> bool:
        return self.verdict == "match"


def induced_preorder(config: PointConfig, tol_abs: float = TOL_ABS,
                     tol_rel: float = TOL_REL) -> InducedOrder:
    """Classes of the induced order, ascending, with gap/spread diagnostics."""
    vals = pair_distances(config)
    if vals.size == 0:
        raise ShapeMismatch("a configuration of fewer than two points "
                            "induces no order")
    if config.Q is None:
        pairs = complete_pairs(len(config.P))
    else:
        pairs = bipartite_pairs(len(config.P), len(config.Q))
    threshold = tol_abs + tol_rel * float(vals.max())
    # a stable sort breaks distance ties by lexicographic pair order
    order = np.argsort(vals, kind="stable")
    ascending = vals[order]
    steps = np.diff(ascending)
    cut = steps > threshold
    ranks = np.empty(vals.size, dtype=np.int64)
    ranks[order] = np.concatenate(([1], 1 + np.cumsum(cut)))
    starts = np.flatnonzero(np.concatenate(([True], cut)))
    ends = np.append(starts[1:], vals.size)
    ranked = [pairs[k] for k in order.tolist()]
    classes = tuple(tuple(ranked[a:b])
                    for a, b in zip(starts.tolist(), ends.tolist()))
    return InducedOrder(
        classes=classes, gaps=tuple(steps[cut].tolist()),
        spread=float((ascending[ends - 1] - ascending[starts]).max()),
        ranks=ranks, distances=vals)


def check_shape(config: PointConfig, spec: OrderSpec) -> None:
    """Raise ShapeMismatch unless config holds exactly the points that
    spec's pairs index."""
    if spec.kind == "complete":
        if config.Q is not None:
            raise ShapeMismatch("complete spec but bipartite config")
        if len(config.P) != spec.n:
            raise ShapeMismatch(
                f"spec has n={spec.n}, config has {len(config.P)} points")
    else:
        if config.Q is None:
            raise ShapeMismatch("bipartite spec but complete config")
        if len(config.P) != spec.n or len(config.Q) != spec.m:
            raise ShapeMismatch(
                f"spec is {spec.n}x{spec.m}, config is "
                f"{len(config.P)}x{len(config.Q)}")


def _first_disagreement(spec: OrderSpec, induced: InducedOrder
                        ) -> tuple[Pair, Pair]:
    """Lexicographically first pair of pairs whose relative order differs."""
    want, got = spec.ranks, induced.ranks
    pairs = spec.pair_set()
    for a in range(want.size):
        differ = (np.sign(want[a + 1:] - want[a])
                  != np.sign(got[a + 1:] - got[a]))
        if differ.any():
            return pairs[a], pairs[a + 1 + int(differ.argmax())]
    raise AssertionError("mismatch verdict without a disagreeing pair")


def verify(config: PointConfig, spec: OrderSpec, tol_abs: float = TOL_ABS,
           tol_rel: float = TOL_REL) -> VerifyReport:
    """Match iff the induced classes equal the spec classes as set sequences."""
    check_shape(config, spec)
    induced = induced_preorder(config, tol_abs, tol_rel)
    margin = min(induced.gaps) if induced.gaps else float("inf")
    # complete: the least distance over all pairs of P; bipartite: the
    # least P-to-Q distance (each collection may repeat points internally)
    distinctness = float(induced.distances.min())
    witness = None
    if not np.array_equal(induced.ranks, spec.ranks):
        witness = _first_disagreement(spec, induced)
    return VerifyReport(verdict="match" if witness is None else "mismatch",
                        witness=witness, margin=margin,
                        distinctness=distinctness)


def report_to_json(report: VerifyReport) -> str:
    out = {
        "verdict": report.verdict,
        "margin": json_float(report.margin),
        "distinctness": json_float(report.distinctness),
        "witness": (None if report.witness is None
                    else [list(report.witness[0]), list(report.witness[1])]),
    }
    return json.dumps(out)
