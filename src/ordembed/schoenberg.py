"""Distance matrices, Gram transforms, and coordinate factorization.

The central fact: target distances m_ij admit points in R^d iff the matrix
g_ij = (m_bi^2 + m_bj^2 - m_ij^2) / 2 over indices i, j different from a
base b is positive semidefinite of rank at most d. The base point sits at
the origin and the factorization of G supplies the remaining coordinates.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (BadIndex, BadSize, DimTooSmall, NonFiniteEntry, NotPSD,
                     ShapeMismatch)


def _as_real(A, name: str) -> np.ndarray:
    """A as a float array; ShapeMismatch if it is ragged or holds other
    than real numbers (a string, None, an object, a complex number)."""
    try:
        A = np.asarray(A)
    except ValueError as exc:
        raise ShapeMismatch(f"{name} is ragged: {exc}") from None
    if A.dtype.kind not in "biuf":
        raise ShapeMismatch(
            f"{name} must hold real numbers, got dtype {A.dtype}")
    return A.astype(float, copy=False)


def _square(A, name: str) -> np.ndarray:
    """A as a square float matrix: ShapeMismatch unless it is one (see
    _as_real), NonFiniteEntry if an entry is not finite."""
    M = _as_real(A, name)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ShapeMismatch(f"{name} must be square, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise NonFiniteEntry(f"{name} has non-finite entries")
    return M


def check_distance_matrix(D: np.ndarray) -> np.ndarray:
    D = _square(D, "distance matrix")
    if (D < 0).any():
        raise ShapeMismatch("distance matrix has negative entries")
    if np.abs(np.diag(D)).max(initial=0.0) != 0.0:
        raise ShapeMismatch("distance matrix diagonal must be zero")
    if not np.array_equal(D, D.T):
        raise ShapeMismatch("distance matrix must be symmetric")
    return D


@dataclass(frozen=True)
class GramMatrix:
    """Schoenberg transform of a distance matrix relative to a base point.

    matrix is (n-1)x(n-1) over the indices != base in ascending order, a
    float array checked by _square; base is 1-based, in [1..n] (BadIndex)."""

    matrix: np.ndarray
    base: int

    def __post_init__(self):
        M = _square(self.matrix, "matrix")
        if not (_is_index_type(type(self.base))
                and 1 <= self.base <= len(M) + 1):
            raise BadIndex(f"base {self.base!r} outside [1..{len(M) + 1}]")
        object.__setattr__(self, "matrix", M)


def _is_index_type(t: type) -> bool:
    # int or a numpy integer: bool, float and str are refused, not coerced
    return t is int or issubclass(t, np.integer)


def _is_real(x) -> bool:
    # a float, a numpy float or an integer within float range; numbers.Real
    # would take bool and cost 20 times this check on a float
    t = type(x)
    return t is float or issubclass(t, np.floating) or (
        _is_index_type(t) and -sys.float_info.max <= x <= sys.float_info.max)


@dataclass(frozen=True)
class PointConfig:
    """One or two coordinate collections in a common ambient dimension,
    held as float arrays. ShapeMismatch unless dim is an integer and P and
    Q (if given) hold real numbers (not ragged), 2-D with dim columns."""

    dim: int
    P: np.ndarray
    Q: np.ndarray | None = None

    def __post_init__(self):
        if not _is_index_type(type(self.dim)):
            raise ShapeMismatch(f"dim must be an integer, got {self.dim!r}")
        for name in ("P",) if self.Q is None else ("P", "Q"):
            A = _as_real(getattr(self, name), name)
            if A.ndim != 2 or A.shape[1] != self.dim:
                raise ShapeMismatch(
                    f"{name} must be rows of length dim={self.dim}")
            object.__setattr__(self, name, A)

    def rows(self) -> np.ndarray:
        """The points as one array: P, or P stacked over Q."""
        return self.P if self.Q is None else np.vstack([self.P, self.Q])

    @classmethod
    def from_rows(cls, rows: np.ndarray, n: int, kind: str) -> PointConfig:
        """Inverse of rows(): P is rows[:n], Q is rows[n:] if bipartite."""
        Q = rows[n:] if kind == "bipartite" else None
        return cls(dim=rows.shape[1], P=rows[:n], Q=Q)


def gram_from_distances(D: np.ndarray, base: int) -> GramMatrix:
    """g_ij = (m_bi^2 + m_bj^2 - m_ij^2) / 2 over indices != base (1-based);
    NonFiniteEntry if the squares overflow."""
    D = check_distance_matrix(D)
    n = D.shape[0]
    if not (_is_index_type(type(base)) and 1 <= base <= n):
        raise BadIndex(f"base {base!r} outside [1..{n}]")
    others = [i for i in range(n) if i != base - 1]
    with np.errstate(over="ignore", invalid="ignore"):
        db2 = D[base - 1, others] ** 2
        G = 0.5 * (db2[:, None] + db2[None, :]
                   - D[np.ix_(others, others)] ** 2)
    return GramMatrix(matrix=G, base=base)


def min_eigenvalue(G) -> float:
    M = G.matrix if isinstance(G, GramMatrix) else _square(G, "matrix")
    return float(np.linalg.eigvalsh(M)[0]) if M.size else math.inf


def factor_points(G: GramMatrix, dim: int) -> PointConfig:
    """Factor G into n points in R^dim with the base point at the origin.

    Eigenvalues below -tol_psd raise NotPSD; tiny negatives are clamped.
    Positive eigenvalues beyond position dim (above tol_psd) raise
    DimTooSmall. Rows are ordered so row i-1 is point i (1-based). dim is
    a nonnegative integer, P within MAX_PAIRS (BadSize).
    """
    if not (_is_index_type(type(dim)) and dim >= 0):
        raise BadSize(f"dim must be a nonnegative integer, got {dim!r}")
    check_pair_count((len(G.matrix) + 1) * dim)
    w, V = np.linalg.eigh(G.matrix)
    scale = max(1.0, float(np.abs(w).max())) if w.size else 1.0
    tol_psd = 1e-10 * scale
    if w.size and w[0] < -tol_psd:
        raise NotPSD(f"min eigenvalue {w[0]:.3e} below -{tol_psd:.3e}")
    w = np.clip(w, 0.0, None)
    order = np.argsort(-w, kind="stable")
    w, V = w[order], V[:, order]
    k = min(dim, w.size)
    if w.size > k and w[k] > tol_psd:
        raise DimTooSmall(
            f"rank exceeds dim={dim}: eigenvalue {w[k]:.3e} at position {k}")
    rows = np.zeros((len(w), dim))
    rows[:, :k] = V[:, :k] * np.sqrt(w[:k])
    return PointConfig(dim=dim, P=np.insert(rows, G.base - 1, 0.0, axis=0))


# element count of the largest temporary of the direct difference
CHUNK = 1 << 16
# pair count x dim up to which pair_distances takes the direct difference:
# 14.7 us against the matrix product's 16.6 at complete n = 20 and 19.8
# against 19.2 at n = 24 (one BLAS thread, 2-core Xeon)
GRAM_MIN = 1 << 12
# relative bound on a kept Gram-form distance: verifier.TOL_REL / 100
DELTA = 1e-11
# most pairs a configuration or a realized spec may have (n = 1549): a
# random linear order's margin is 7 times the verifier threshold at n = 1500,
# but a far-first one's (README) is 2 times at n = 1000 and under 1 past it
MAX_PAIRS = 1_200_000


def check_pair_count(count: int) -> None:
    """Raise BadSize for more than MAX_PAIRS pairs; callers check before
    they allocate anything per pair."""
    if count > MAX_PAIRS:
        raise BadSize(f"{count} pairs exceed the cap of {MAX_PAIRS}")


def pair_index(n: int, m: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """0-based (i, j) of every pair of D_n (m None) or B_{n,m}, in the
    lexicographic order of OrderSpec.pair_set() and every per-pair vector.
    The pair count is checked before anything is allocated. Shapes of at
    most CHUNK pairs are cached, because np.triu_indices costs more than
    the small realizations that ask for it; larger ones are built on each
    call, so the cache holds at most 64 x CHUNK pairs (64 MB). The arrays
    are read-only."""
    count = n * (n - 1) // 2 if m is None else n * m
    check_pair_count(count)
    return (_pair_index if count <= CHUNK else _pair_index.__wrapped__)(n, m)


def pair_position(n: int, i, j, m: int | None = None):
    """pair_index's inverse: the position of the 0-based pair (i, j), i < j
    on D_n (m None), in that order. Integer arrays keep their dtype."""
    return i * (2 * n - 1 - i) // 2 + (j - i - 1) if m is None else i * m + j


@lru_cache(maxsize=64)
def _pair_index(n: int, m: int | None) -> tuple[np.ndarray, np.ndarray]:
    i, j = np.triu_indices(n, 1) if m is None else np.divmod(
        np.arange(n * m), m)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _direct_squares(P, Q, rows, cols) -> np.ndarray:
    """|P[rows[k]] - Q[cols[k]]|^2, bit for bit the broadcast's, in pieces
    whose one temporary holds at most CHUNK elements (one pair's past it)."""
    out = np.empty(len(rows))
    step = max(1, CHUNK // max(1, P.shape[1]))
    for a in range(0, len(rows), step):
        diff = P.take(rows[a:a + step], 0) - Q.take(cols[a:a + step], 0)
        diff *= diff
        np.add.reduce(diff, axis=1, out=out[a:a + step])
    return out


def pair_distances(config: PointConfig) -> np.ndarray:
    """Distance of every pair, in the lexicographic pair order of
    OrderSpec.pair_set(): the upper triangle of a complete config row by
    row, or the P-to-Q rectangle of a bipartite one; BadSize past MAX_PAIRS.

    Up to GRAM_MIN pair coordinates, the direct difference: bit for bit the
    broadcast. Beyond, the Gram form d^2_ij = s_i + s_j - 2<p_i, p_j> of
    points centred at P[0], s_i = |p_i|^2, from one matrix product, whose
    error is about 2(dim + 1)u(s_i + s_j), u the unit roundoff. A value
    finite and at least kappa = 2(dim + 2)u / DELTA times s_i + s_j is kept,
    within relative DELTA of the direct difference, which recomputes the
    rest; so a distance is finite iff the direct one is. Both branches run
    in one errstate: a distance that overflows is inf, without a warning."""
    P = config.P
    Q = P if config.Q is None else config.Q
    rows, cols = pair_index(len(P), None if config.Q is None else len(Q))
    with np.errstate(over="ignore", invalid="ignore"):
        if len(rows) * P.shape[1] <= GRAM_MIN:
            return np.sqrt(_direct_squares(P, Q, rows, cols))
        Pc = P - P[0]
        Qc = Pc if config.Q is None else Q - P[0]
        s, t = (np.einsum("ij,ij->i", A, A) for A in (Pc, Qc))
        G = Pc @ Qc.T
        scale = s[rows] + t[cols]
        vals = scale - 2 * (G[rows, cols] if config.Q is None else G.ravel())
        scale *= (P.shape[1] + 2) * np.finfo(float).eps / DELTA
        redo = np.flatnonzero(~((scale <= vals) & (vals < np.inf)))
        vals[redo] = _direct_squares(P, Q, rows[redo], cols[redo])
        return np.sqrt(vals, out=vals)


def distances_of(config: PointConfig) -> np.ndarray:
    """pair_distances laid out as a matrix, for callers that want one: the
    symmetric n x n matrix of a complete config, the n x m rectangle of
    P-to-Q distances of a bipartite one."""
    n = len(config.P)
    if config.Q is not None:
        return pair_distances(config).reshape(n, len(config.Q))
    D = np.zeros((n, n))
    D[pair_index(n, None)] = pair_distances(config)
    return D + D.T


def format_rows(A, before: str, after: str, sep: str) -> str:
    """The rows of the float array A, each its numbers comma-separated
    between before and after, joined by sep. One "%.17g" format over all
    of A: 17 significant digits parse back to the exact binary values. The
    program's one float formatter, for points files and CSV alike; a
    non-finite value, which JSON cannot hold, is NonFiniteEntry."""
    if not np.isfinite(A).all():
        raise NonFiniteEntry("point config has non-finite coordinates")
    row = before + ",".join(["%.17g"] * A.shape[1]) + after
    return sep.join([row] * A.shape[0]) % tuple(A.ravel().tolist())


def report_json(fields: dict) -> str:
    """The one writer of JSON lines, reports and error lines alike, with a
    non-finite float, also in a list or tuple, as null: JSON has no
    Infinity (say, for the margin of an order with one class)."""
    def plain(v):
        if isinstance(v, float):
            return float(v) if math.isfinite(v) else None
        if isinstance(v, (list, tuple)):
            return list(map(plain, v))
        return v
    return json.dumps({k: plain(v) for k, v in fields.items()})


def config_to_json(config: PointConfig) -> str:
    """Serialize with 17 significant digits so parsing reproduces the
    exact binary values."""
    def rows(A):
        return "[" + format_rows(A, "[", "]", ",") + "]"

    out = f'{{"dim":{config.dim},"P":{rows(config.P)}'
    if config.Q is not None:
        out += f',"Q":{rows(config.Q)}'
    return out + "}"


def config_from_json(text: str) -> PointConfig:
    """Inverse of config_to_json. Integers are read as floats, so the
    "-0" written for -0.0 keeps its sign and an integer too large for a
    float becomes infinity (rejected as non-finite). dim must be an
    integral number; booleans, strings and fractions are refused, as is
    a "Q" of null."""
    try:
        data = json.loads(text, parse_int=float)
        dim, P, Q = data["dim"], data["P"], data.get("Q")
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ShapeMismatch(f"malformed point config: {exc}") from exc
    if not (isinstance(dim, float) and dim.is_integer()):
        raise ShapeMismatch(f"dim must be an integer, got {dim!r}")
    if Q is None and "Q" in data:
        raise ShapeMismatch(f"Q must be rows of length dim={int(dim)}")
    config = PointConfig(dim=int(dim), P=P, Q=Q)
    if not np.isfinite(config.rows()).all():
        raise NonFiniteEntry("point config has non-finite coordinates")
    return config


def read_text(path: str, what: str, error: type) -> str:
    """The program's one file reader: the UTF-8 text at path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def write_text(path: str, *parts: str) -> None:
    """The program's one file writer: parts, all built before the file is
    opened, so a part that cannot be built leaves no file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(parts)


def load_config(path: str) -> PointConfig:
    return config_from_json(read_text(path, "points", ShapeMismatch))


def save_config(config: PointConfig, path: str) -> None:
    write_text(path, config_to_json(config), "\n")
