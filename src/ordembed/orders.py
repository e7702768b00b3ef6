"""Total preorders and linear orders on pair sets.

An order spec is a partition of the complete pair set D_n = {(i,j) : i<j}
or the bipartite pair set B_{n,m} = [n] x [m] into equivalence classes,
listed ascending: pairs in an earlier class get strictly smaller distances
than pairs in a later class. All indices are 1-based.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import (DuplicatePair, EmptyClass, IndexOutOfRange, MissingPair,
                     SpecError)

Pair = tuple[int, int]


def complete_pairs(n: int) -> list[Pair]:
    """All pairs (i,j) with 1 <= i < j <= n, lexicographic."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def bipartite_pairs(n: int, m: int) -> list[Pair]:
    """All pairs (i,j) with i in [n], j in [m], lexicographic."""
    return [(i, j) for i in range(1, n + 1) for j in range(1, m + 1)]


@dataclass(frozen=True)
class OrderSpec:
    """A total preorder on D_n (kind 'complete') or B_{n,m} ('bipartite').

    classes[k] holds the pairs of rank k+1; rank 1 means smallest distance.
    """

    kind: str
    n: int
    classes: tuple[tuple[Pair, ...], ...]
    m: int | None = None

    def __post_init__(self):
        norm = []
        for cls in self.classes:
            cur = []
            for p in cls:
                i, j = int(p[0]), int(p[1])
                if self.kind == "complete" and i > j:
                    i, j = j, i
                cur.append((i, j))
            norm.append(tuple(cur))
        object.__setattr__(self, "classes", tuple(norm))

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def pair_set(self) -> list[Pair]:
        if self.kind == "complete":
            return complete_pairs(self.n)
        return bipartite_pairs(self.n, self.m)

    @cached_property
    def ranks(self) -> np.ndarray:
        """Rank of every pair of pair_set(), in that (lexicographic) order.

        Built once per spec, after validate(self) passes: a spec that
        validate rejects raises the same SpecError here, on every read.
        Each class rank is written at the pair's lexicographic index,
        (i-1)(2n-i)/2 + (j-i-1) for a complete pair and (i-1)m + (j-1)
        for a bipartite one; validation bounds every index first."""
        validate(self)
        n = self.n
        ij = np.fromiter(chain.from_iterable(chain.from_iterable(
            self.classes)), dtype=np.int64).reshape(-1, 2)
        i, j = ij[:, 0], ij[:, 1]
        if self.kind == "complete":
            at = (i - 1) * (2 * n - i) // 2 + (j - i - 1)
        else:
            at = (i - 1) * self.m + (j - 1)
        ranks = np.empty(len(ij), dtype=np.int64)
        ranks[at] = np.repeat(np.arange(1, self.num_classes + 1),
                              [len(cls) for cls in self.classes])
        return ranks

    def is_linear(self) -> bool:
        return all(len(cls) == 1 for cls in self.classes)


def validate(spec: OrderSpec) -> None:
    """Check the partition invariants; raise a SpecError naming the first
    offending pair on failure. Ranges are checked arithmetically and pairs
    are counted, so the pair universe is never built; naming a missing pair
    scans it in order up to the first gap, past at most the pairs the spec
    lists. Validation costs time in the size of the spec, not of n.

    Reading spec.ranks runs this once per spec object, so the library
    reads ranks rather than calling it."""
    if spec.kind not in ("complete", "bipartite"):
        raise SpecError(f"unknown kind {spec.kind!r}")
    n, m = spec.n, spec.m
    complete = spec.kind == "complete"
    if complete:
        if n < 2:
            raise IndexOutOfRange(f"complete spec needs n >= 2, got {n}")
        total = n * (n - 1) // 2
    else:
        if m is None:
            raise SpecError("bipartite spec needs m")
        if n < 1 or m < 1:
            raise IndexOutOfRange("bipartite spec needs n, m >= 1")
        total = n * m
    seen = set()
    for cls in spec.classes:
        if not cls:
            raise EmptyClass("empty class in spec")
        for p in cls:
            i, j = p
            if not (1 <= i < j <= n if complete
                    else 1 <= i <= n and 1 <= j <= m):
                raise IndexOutOfRange(f"pair {p} out of range")
            if p in seen:
                raise DuplicatePair(f"pair {p} occurs twice")
            seen.add(p)
    if len(seen) < total:
        if complete:
            universe = ((i, j) for i in range(1, n + 1)
                        for j in range(i + 1, n + 1))
        else:
            universe = ((i, j) for i in range(1, n + 1)
                        for j in range(1, m + 1))
        missing = next(p for p in universe if p not in seen)
        raise MissingPair(f"pair {missing} not covered")


def canonical(spec: OrderSpec) -> OrderSpec:
    """Same preorder with the pairs inside each class sorted lexicographically."""
    return OrderSpec(spec.kind, spec.n,
                     tuple(tuple(sorted(cls)) for cls in spec.classes),
                     m=spec.m)


def to_json_dict(spec: OrderSpec) -> dict:
    out = {"kind": spec.kind, "n": spec.n}
    if spec.kind == "bipartite":
        out["m"] = spec.m
    out["classes"] = [[list(p) for p in cls] for cls in spec.classes]
    return out


def to_json(spec: OrderSpec) -> str:
    return json.dumps(to_json_dict(spec))


def _int(value, what: str) -> int:
    # bools, floats and strings are refused rather than coerced
    if type(value) is not int:
        raise SpecError(f"{what} must be an integer, got {value!r}")
    return value


def from_json_dict(data: dict) -> OrderSpec:
    try:
        kind = data["kind"]
        n = _int(data["n"], "n")
        raw = data["classes"]
    except (KeyError, TypeError) as exc:
        raise SpecError(f"malformed spec: {exc}") from exc
    m = None
    if kind == "bipartite":
        if "m" not in data:
            raise SpecError("bipartite spec needs m")
        m = _int(data["m"], "m")
    if not isinstance(raw, (list, tuple)):
        raise SpecError(f"classes must be a list, got {raw!r}")
    classes = []
    for cls in raw:
        if not isinstance(cls, (list, tuple)):
            raise SpecError(f"a class must be a list, got {cls!r}")
        cur = []
        for p in cls:
            if not (isinstance(p, (list, tuple)) and len(p) == 2
                    and type(p[0]) is int and type(p[1]) is int):
                raise SpecError(f"malformed pair {p!r}")
            cur.append((p[0], p[1]))
        classes.append(tuple(cur))
    spec = OrderSpec(kind, n, tuple(classes), m=m)
    spec.ranks  # validates, and caches the ranks for every later reader
    return spec


def from_json(text: str) -> OrderSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON: {exc}") from exc
    return from_json_dict(data)


def load(path: str) -> OrderSpec:
    with open(path, encoding="utf-8") as fh:
        return from_json(fh.read())


def save(spec: OrderSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(spec))
        fh.write("\n")
