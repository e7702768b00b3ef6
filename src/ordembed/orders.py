"""Total preorders and linear orders on pair sets.

An order spec is a partition of the complete pair set D_n = {(i,j) : i<j}
or the bipartite pair set B_{n,m} = [n] x [m] into equivalence classes,
listed ascending: pairs in an earlier class get strictly smaller distances
than pairs in a later class. All indices are 1-based.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .errors import (BadSize, DuplicatePair, EmptyClass, IndexOutOfRange,
                     MissingPair, SpecError)
from .schoenberg import (MAX_PAIRS, _is_index_type, check_pair_count,
                         pair_index, read_text, write_text)

Pair = tuple[int, int]


def complete_pairs(n: int) -> list[Pair]:
    """All pairs (i,j) with 1 <= i < j <= n, lexicographic."""
    return _listed(n)


def bipartite_pairs(n: int, m: int) -> list[Pair]:
    """All pairs (i,j) with i in [n], j in [m], lexicographic."""
    return _listed(n, m)


def _listed(*sizes: int) -> list[Pair]:
    """The pairs of D_n (sizes n) or B_{n,m} (sizes n, m) as tuples;
    BadSize unless the sizes are integers up to MAX_PAIRS (see pair_index)."""
    if not all(_is_index_type(type(x)) and x <= MAX_PAIRS for x in sizes):
        raise BadSize(f"sizes must be integers up to {MAX_PAIRS}: {sizes}")
    rows, cols = pair_index(*(max(x, 0) for x in sizes))
    return list(zip((rows + 1).tolist(), (cols + 1).tolist()))


@dataclass(frozen=True, init=False, eq=False)
class OrderSpec:
    """A total preorder on D_n (kind 'complete') or B_{n,m} ('bipartite'),
    checked by validate when built: the listed (i, j) pairs, class by class,
    as one int64 array, the class sizes and ranks, the rank of every pair of
    pair_set() in that order. A complete pair (j, i) is stored as (i, j);
    classes is built on first read. == compares kind, n, m, classes."""

    kind: str
    n: int
    m: int | None = None

    def __init__(self, kind: str, n: int, classes, m: int | None = None):
        if not isinstance(classes, (list, tuple)):
            raise SpecError(f"classes must be a list, got {classes!r}")
        flat = []
        for c in classes:
            if not isinstance(c, (list, tuple)):
                raise SpecError(f"a class must be a list, got {c!r}")
            for p in c:  # two plain ints, the common case, are tested first
                if not (isinstance(p, (list, tuple)) and len(p) == 2 and (
                        type(p[0]) is int is type(p[1])
                        or all(map(_is_index_type, map(type, p))))):
                    raise SpecError(f"malformed pair {p!r}")
                flat += p
        sizes = list(map(len, classes))
        vars(self).update(vars(_new(kind, n, m, flat, sizes)))

    @cached_property
    def classes(self) -> tuple[tuple[Pair, ...], ...]:
        """classes[k] holds the pairs of rank k+1; rank 1 means smallest
        distance."""
        it = map(tuple, self._ij.tolist())
        return tuple(tuple(islice(it, k)) for k in self._sizes.tolist())

    def __eq__(self, other):
        return (isinstance(other, OrderSpec) and (self.kind, self.n, self.m)
                == (other.kind, other.n, other.m)
                and np.array_equal(self._sizes, other._sizes)
                and np.array_equal(self._ij, other._ij))

    def __hash__(self):
        return hash((self.kind, self.n, self.m, self._sizes.tobytes()))

    @property
    def num_classes(self) -> int:
        return len(self._sizes)

    def pair_set(self) -> list[Pair]:
        return (complete_pairs(self.n) if self.m is None
                else bipartite_pairs(self.n, self.m))

    @cached_property
    def _lex(self) -> np.ndarray:
        """Position of every listed pair in pair_set(), for in-range pairs."""
        i, j = self._ij[:, 0], self._ij[:, 1]
        if self.kind == "complete":
            return (i - 1) * (2 * self.n - i) // 2 + (j - i - 1)
        return (i - 1) * self.m + (j - 1)

    def extremes(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Least and greatest of values (one per pair, in pair_set() order)
        within each class, as two float arrays indexed by rank - 1: one
        min and one max reduceat over the class runs of values gathered
        into listed order, exact since min and max only pick elements."""
        listed, starts = values[self._lex], self._starts
        return (np.minimum.reduceat(listed, starts).astype(float, copy=False),
                np.maximum.reduceat(listed, starts).astype(float, copy=False))

    def separation(self, values: np.ndarray) -> tuple[float, float]:
        """Least gap lo[c+1] - hi[c] and greatest spread hi[c] - lo[c]."""
        lo, hi = self.extremes(values)
        return (float((lo[1:] - hi[:-1]).min(initial=np.inf)),
                float((hi - lo).max()))

    def is_linear(self) -> bool:
        return bool((self._sizes == 1).all())


def _new(kind: str, n: int, m: int | None, flat, sizes,
         ranks: np.ndarray | None = None) -> OrderSpec:
    """The spec of checked indices flat (i1, j1, i2, ... or (N, 2) array),
    validated unless its rank vector ranks is given."""
    try:
        ij = np.array(flat, dtype=np.int64).reshape(-1, 2)
    except OverflowError:  # an index past int64, held as a Python int
        ij = np.array(list(map(int, flat)), dtype=object).reshape(-1, 2)
    swap = (ij[:, 0] > ij[:, 1]) & (isinstance(kind, str)
                                    and kind == "complete")
    ij[swap] = ij[swap][:, ::-1]
    spec = OrderSpec.__new__(OrderSpec)
    sizes = np.array(sizes, dtype=np.int64)
    vars(spec).update(kind=kind, n=n, m=m, _ij=ij, _sizes=sizes,
                      _starts=np.cumsum(sizes) - sizes)
    if ranks is None:
        validate(spec)
        ranks = np.empty(len(ij), dtype=np.int64)
        ranks[spec._lex] = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    vars(spec)["ranks"] = ranks
    return spec


def validate(spec: OrderSpec) -> None:
    """Check the partition invariants; raise a SpecError naming the first
    offence a class-by-class, pair-by-pair scan meets (an empty class, a
    pair out of range, a pair listed twice), else the lexicographically
    first pair no class lists. Each check is an array operation on the
    spec's (i, j) array: a range mask; a bincount of the lexicographic
    pair indices when as many pairs are listed as the pair set holds; on
    failure, a stable sort by (i, j) that puts each repeat after its first
    occurrence and shows the first gap. The pair set is never built, so
    validation costs time in the size of the spec, not of n. A partition
    of more than MAX_PAIRS pairs is refused last (BadSize)."""
    if not (isinstance(spec.kind, str)
            and spec.kind in ("complete", "bipartite")):
        raise SpecError(f"unknown kind {spec.kind!r}")
    n, m = spec.n, spec.m
    if not (_is_index_type(type(n))
            and (m is None or _is_index_type(type(m)))):
        raise SpecError(f"n and m must be integers, got {n!r} and {m!r}")
    complete = spec.kind == "complete"
    if complete:
        if m is not None:
            raise SpecError(f"complete spec takes no m, got {m!r}")
        if n < 2:
            raise IndexOutOfRange(f"complete spec needs n >= 2, got {n}")
        total = n * (n - 1) // 2
    else:
        if m is None:
            raise SpecError("bipartite spec needs m")
        if n < 1 or m < 1:
            raise IndexOutOfRange("bipartite spec needs n, m >= 1")
        total = n * m
    # an index beyond int64 (an object array) saturates, which keeps it out
    # of range of every n and m below 2**63 - 1
    ij = spec._ij if spec._ij.dtype != object else spec._ij.clip(
        -2 ** 63, 2 ** 63 - 1).astype(np.int64)
    i, j, sizes = ij[:, 0], ij[:, 1], spec._sizes
    if complete:
        inside = (1 <= i) & (i < j) & (j <= n)
    else:
        inside = (1 <= i) & (i <= n) & (1 <= j) & (j <= m)
    count = len(i)
    if (count == total and sizes.all() and inside.all()
            and (np.bincount(spec._lex, minlength=total) == 1).all()):
        check_pair_count(total)
        return
    outside = np.flatnonzero(~inside)
    stop = int(outside[0]) if outside.size else count
    order = np.lexsort((j[:stop], i[:stop]))
    si, sj = i[order], j[order]
    again = (si[1:] == si[:-1]) & (sj[1:] == sj[:-1])
    first = min(stop, int(order[1:][again].min()) if again.any() else stop)
    empty = spec._starts[sizes == 0]
    if empty.size and empty[0] <= first:
        raise EmptyClass("empty class in spec")
    if first < count:
        p = tuple(spec._ij[first].tolist())
        if first == stop:
            raise IndexOutOfRange(f"pair {p} out of range")
        raise DuplicatePair(f"pair {p} occurs twice")
    # in range and distinct, so too few: up to the first gap, pair k of
    # the set is the successor of sorted listed pair k-1
    last = sj == (n if complete else m)
    want_i = np.concatenate(([1], np.where(last, si + 1, si)))
    want_j = np.concatenate(([2 if complete else 1],
                             np.where(last, si + 2 if complete else 1,
                                      sj + 1)))
    gap = (si != want_i[:-1]) | (sj != want_j[:-1])
    k = int(gap.argmax()) if gap.any() else count
    raise MissingPair(f"pair {(int(want_i[k]), int(want_j[k]))} not covered")


def canonical(spec: OrderSpec) -> OrderSpec:
    """Same preorder with the pairs inside each class sorted lexicographically."""
    return from_ranks(spec.ranks, spec.n, spec.m)


def from_ranks(ranks: np.ndarray, n: int, m: int | None = None) -> OrderSpec:
    """The canonical spec of rank vector ranks on D_n (m None) or B_{n,m}:
    a stable sort of ranks lists each class's pairs lexicographically, and
    np.bincount gives the sizes (IndexOutOfRange for a shape validate
    refuses, SpecError unless each pair has a rank of at least 1,
    EmptyClass if a rank up to the greatest is not taken)."""
    count = n * (n - 1) // 2 if m is None else n * m
    if (n < 2 if m is None else min(n, m) < 1):
        raise IndexOutOfRange(
            f"complete spec needs n >= 2, got {n}" if m is None
            else "bipartite spec needs n, m >= 1")
    if len(ranks) != count or ranks.min(initial=1) < 1:
        raise SpecError(f"ranks must be {count} integers >= 1")
    sizes = np.bincount(ranks)[1:]
    if not sizes.all():
        raise EmptyClass("empty class in spec")
    pairs = _pairs_at(n, m, np.argsort(ranks, kind="stable"))
    return _new("complete" if m is None else "bipartite", n, m, pairs,
                sizes, ranks)


def _pairs_at(n: int, m: int | None, index: np.ndarray) -> np.ndarray:
    """The 1-based (i, j) rows of the pairs at the given lexicographic
    positions of the complete (m None) or bipartite pair set."""
    rows, cols = pair_index(n, m)
    return np.column_stack((rows[index], cols[index])) + 1


def to_json(spec: OrderSpec) -> str:
    """The spec as json.dumps writes its dict, with the classes written by
    one % format over the (i, j) array: each class is its pairs'
    "[%d, %d]" joined by ", ", and the classes are joined by "], ["
    between "[[" and "]]"."""
    head = {"kind": spec.kind, "n": spec.n}
    if spec.kind == "bipartite":
        head["m"] = spec.m
    sizes = spec._sizes.tolist()
    each = {k: ", ".join(["[%d, %d]"] * k) for k in set(sizes)}
    classes = "[[" + "], [".join(map(each.__getitem__, sizes)) + "]]"
    return (json.dumps(head)[:-1] + ', "classes": '
            + classes % tuple(spec._ij.ravel().tolist()) + "}")


def from_json_dict(data: dict) -> OrderSpec:
    """The spec of a spec dict; validate checks kind, n and m."""
    try:
        kind, n, classes = data["kind"], data["n"], data["classes"]
    except (KeyError, TypeError) as exc:
        raise SpecError(f"malformed spec: {exc}") from exc
    return OrderSpec(kind, n, classes, data.get("m"))


# The canonical spec text: what to_json writes, and json.dumps of a spec
# dict with kind, n, m (bipartite only) and classes in that order. Every
# class is nonempty and every index is 0 or up to 18 digits without a
# leading zero, so it fits an int64. Only ASCII matches. The pair repeat
# is possessive: a plain one keeps a backtracking frame per pair, about
# 300 bytes each, 350 MB at MAX_PAIRS.
_INDEX = r"(?:0|[1-9][0-9]{0,17})"
_CANONICAL = re.compile(
    rf'\{{"kind": "(?:complete", "n": ({_INDEX})|bipartite", "n": ({_INDEX}), '
    rf'"m": ({_INDEX})), "classes": (\[\[\[{_INDEX}, {_INDEX}'
    rf'(?:(?:\], \[|\]\], \[\[){_INDEX}, {_INDEX})*+\]\]\])\}}[ \t\n\r]*')
_NOT_BRACKET = bytes(range(256)).translate(None, b"[]")


def _scan_canonical(text: str) -> OrderSpec | None:
    """The spec of a canonical text, else None. The indices are one
    np.fromstring over the classes without their brackets. With only the
    brackets left, each class is "[" + "[]" * size + "]", so inside the
    outer "[[[" and "]]]" the classes are runs "][" * (size - 1) joined by
    "]][[". json.loads and from_json_dict would build the same
    spec from the same text."""
    hit = _CANONICAL.fullmatch(text)
    if hit is None:
        return None
    n_complete, n_bipartite, m, classes = hit.groups()
    classes = classes.encode()
    flat = np.fromstring(classes.translate(None, b"[]"), dtype=np.int64,
                         sep=",")
    runs = classes.translate(None, _NOT_BRACKET)[3:-3].split(b"]][[")
    sizes = np.fromiter(map(len, runs), np.int64, len(runs)) // 2 + 1
    if m is None:
        return _new("complete", int(n_complete), None, flat, sizes)
    return _new("bipartite", int(n_bipartite), int(m), flat, sizes)


def from_json(text: str) -> OrderSpec:
    """The spec of a JSON spec text. Canonical text (see
    _CANONICAL) is read without building Python lists; any other text
    goes through json.loads and from_json_dict, which raise every error,
    so both read the same spec and refuse with the same message."""
    try:
        return _scan_canonical(text) or from_json_dict(json.loads(text))
    except (ValueError, RecursionError) as exc:
        # ValueError: JSONDecodeError, or an integer literal beyond
        # Python's digit limit
        raise SpecError(f"invalid JSON: {exc}") from exc


def load(path: str) -> OrderSpec:
    return from_json(read_text(path, "spec", SpecError))


def save(spec: OrderSpec, path: str) -> None:
    write_text(path, to_json(spec), "\n")
