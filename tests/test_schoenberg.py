import gc
import math
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from ordembed import schoenberg, verifier
from ordembed.errors import (BadIndex, BadSize, DimTooSmall, NonFiniteEntry,
                             NotPSD, ShapeMismatch)
from ordembed.orders import bipartite_pairs, complete_pairs
from ordembed.schoenberg import (GramMatrix, PointConfig, config_from_json,
                                 config_to_json, distances_of, factor_points,
                                 gram_from_distances, min_eigenvalue,
                                 pair_index)


def _gram(M, base=None):
    M = np.asarray(M, dtype=float)
    n = M.shape[0] + 1
    return GramMatrix(matrix=M, base=n if base is None else base)


def test_gram_unit_triangle():
    D = np.ones((3, 3)) - np.eye(3)
    G = gram_from_distances(D, base=3)
    assert np.array_equal(G.matrix, [[1.0, 0.5], [0.5, 1.0]])


def test_gram_collinear_points():
    # points 0, 1, 3 on a line, base = the point at 0
    D = np.array([[0.0, 1, 3], [1, 0, 2], [3, 2, 0]])
    G = gram_from_distances(D, base=1)
    assert np.array_equal(G.matrix, [[1.0, 3.0], [3.0, 9.0]])


def test_gram_all_equal_distances_vs_i_plus_j():
    # at distance 1+k*0 for every pair the transform equals (I+J)/2, so
    # doubling it gives the matrix with diagonal 2 and off-diagonal 1
    for n in range(2, 9):
        D = np.ones((n, n)) - np.eye(n)
        G = gram_from_distances(D, base=n)
        expect = np.eye(n - 1) + np.ones((n - 1, n - 1))
        assert np.array_equal(2.0 * G.matrix, expect)


def test_gram_symmetry_random():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        P = rng.standard_normal((n, int(rng.integers(1, 6))))
        D = distances_of(PointConfig(dim=P.shape[1], P=P))
        for base in (1, n):
            G = gram_from_distances(D, base=base).matrix
            assert np.allclose(G, G.T, atol=0)
            assert np.allclose(np.diag(G), D[base - 1][
                [i for i in range(n) if i != base - 1]] ** 2)


def test_gram_bad_base():
    D = np.zeros((3, 3))
    with pytest.raises(BadIndex):
        gram_from_distances(D, base=0)
    with pytest.raises(BadIndex):
        gram_from_distances(D, base=4)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gram_whose_squares_overflow_raises_without_warning():
    D = np.array([[0.0, 1e200], [1e200, 0.0]])
    with pytest.raises(NonFiniteEntry):
        gram_from_distances(D, base=1)
    # and squares that overflow on both sides of a difference: inf - inf
    D = np.array([[0.0, 1e200, 1.0], [1e200, 0.0, 1e200], [1.0, 1e200, 0.0]])
    with pytest.raises(NonFiniteEntry):
        gram_from_distances(D, base=1)


def test_distance_matrix_validation():
    with pytest.raises(ShapeMismatch):
        schoenberg.check_distance_matrix(np.zeros((2, 3)))
    with pytest.raises(ShapeMismatch):
        schoenberg.check_distance_matrix(np.array([[0.0, 1], [2, 0]]))
    with pytest.raises(ShapeMismatch):
        schoenberg.check_distance_matrix(np.array([[0.0, -1], [-1, 0]]))
    with pytest.raises(ShapeMismatch):
        schoenberg.check_distance_matrix(np.array([[1.0, 1], [1, 0]]))
    with pytest.raises(NonFiniteEntry):
        schoenberg.check_distance_matrix(
            np.array([[0.0, np.nan], [np.nan, 0]]))


def test_min_eigenvalue_2x2():
    assert abs(min_eigenvalue(_gram([[2.0, 1], [1, 2]])) - 1.0) < 1e-12
    assert abs(min_eigenvalue(_gram([[1.0, 3], [3, 9]]))) < 1e-12


def test_min_eigenvalue_i_plus_j_size5():
    M = np.eye(5) + np.ones((5, 5))
    assert abs(min_eigenvalue(_gram(M)) - 1.0) < 1e-12


def test_min_eigenvalue_of_empty_gram_is_inf():
    assert min_eigenvalue(_gram(np.zeros((0, 0)))) == float("inf")


def test_min_eigenvalue_rejects_a_matrix_that_is_not_square():
    for M in (np.ones((2, 3)), np.ones(3), np.ones((2, 2, 2))):
        with pytest.raises(ShapeMismatch, match="must be square"):
            min_eigenvalue(M)


def test_min_eigenvalue_rejects_nan():
    with pytest.raises(NonFiniteEntry):
        min_eigenvalue(_gram([[np.nan, 0], [0, 1]]))


def _char_poly_min_root(M):
    # independent oracle: smallest root of det(M - t I) in closed form
    # (quadratic formula; trigonometric cubic for the symmetric 3x3 case)
    M = np.asarray(M, dtype=float)
    if M.shape[0] == 2:
        a, b, c = M[0, 0], M[0, 1], M[1, 1]
        mean = (a + c) / 2.0
        rad = np.sqrt(((a - c) / 2.0) ** 2 + b * b)
        return mean - rad
    q = np.trace(M) / 3.0
    B = M - q * np.eye(3)
    p = np.sqrt((B * B).sum() / 6.0)
    if p == 0.0:
        return q
    r = np.linalg.det(B / p) / 2.0
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    return q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)


def test_min_eigenvalue_vs_characteristic_polynomial():
    named = [np.array([[2.0, 1], [1, 2]]), np.array([[1.0, 3], [3, 9]]),
             np.eye(3) + np.ones((3, 3))]
    rng = np.random.default_rng(11)
    cases = list(named)
    for _ in range(50):
        for size in (2, 3):
            A = rng.standard_normal((size, size))
            cases.append(A + A.T)
    for M in cases:
        assert abs(min_eigenvalue(_gram(M)) - _char_poly_min_root(M)) < 1e-9


def test_is_positive_definite():
    assert min_eigenvalue(_gram([[2.0, 1], [1, 2]])) > 1e-9
    assert not min_eigenvalue(_gram([[1.0, 3], [3, 9]])) > 1e-9
    assert not min_eigenvalue(_gram([[0.0, 0], [0, 0]])) > 0.0


def test_factor_unit_triangle():
    G = _gram([[1.0, 0.5], [0.5, 1.0]])
    config = factor_points(G, dim=2)
    assert config.P.shape == (3, 2)
    assert np.allclose(config.P[2], 0.0)
    D = distances_of(config)
    off = D[~np.eye(3, dtype=bool)]
    assert np.abs(off - 1.0).max() < 1e-9


def test_factor_collinear_dim1():
    config = factor_points(_gram([[1.0, 3], [3, 9]]), dim=1)
    D = distances_of(config)
    got = sorted(D[np.triu_indices(3, 1)])
    assert np.allclose(got, [1.0, 2.0, 3.0], atol=1e-9)


def test_factor_half_i_plus_j_gives_unit_tetrahedron():
    G = _gram(0.5 * (np.eye(3) + np.ones((3, 3))))
    config = factor_points(G, dim=3)
    D = distances_of(config)
    off = D[~np.eye(4, dtype=bool)]
    assert np.abs(off - 1.0).max() < 1e-9
    # the doubled matrix scales every distance by sqrt(2)
    config2 = factor_points(_gram(np.eye(3) + np.ones((3, 3))), dim=3)
    D2 = distances_of(config2)
    assert np.abs(D2[~np.eye(4, dtype=bool)] - np.sqrt(2.0)).max() < 1e-9


def test_factor_inner_products_match_gram():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 7))
        P = rng.standard_normal((n, d))
        D = distances_of(PointConfig(dim=d, P=P))
        G = gram_from_distances(D, base=n)
        config = factor_points(G, dim=max(d, n - 1))
        X = np.delete(config.P, n - 1, axis=0)
        assert np.abs(X @ X.T - G.matrix).max() < 1e-8


def test_factor_not_psd():
    with pytest.raises(NotPSD):
        factor_points(_gram([[1.0, 2], [2, 1]]), dim=2)


def test_factor_dim_too_small():
    with pytest.raises(DimTooSmall):
        factor_points(_gram(np.eye(3)), dim=2)


def test_factor_clamps_tiny_negative():
    M = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-13]])
    config = factor_points(_gram(M), dim=2)
    assert np.isfinite(config.P).all()


@pytest.mark.parametrize("matrix, base, error, message", [
    (np.eye(2), 4, BadIndex, "base 4 outside [1..3]"),
    (np.eye(2), 0, BadIndex, "base 0 outside [1..3]"),
    (np.eye(2), 1.0, BadIndex, "base 1.0 outside [1..3]"),
    ("x", 99, ShapeMismatch, "matrix must hold real numbers, got dtype <U1"),
    (np.ones((2, 3)), 1, ShapeMismatch,
     "matrix must be square, got shape (2, 3)"),
    ([[1.0, math.inf], [math.inf, 1.0]], 1, NonFiniteEntry,
     "matrix has non-finite entries"),
])
def test_gram_matrix_is_checked_when_built(matrix, base, error, message):
    with pytest.raises(error) as err:
        GramMatrix(matrix=matrix, base=base)
    assert str(err.value) == message


def test_gram_matrix_holds_a_float_array_that_is_not_checked_again(
        monkeypatch):
    G = GramMatrix(matrix=[[2, 1], [1, 2]], base=np.int64(3))
    assert G.matrix.dtype == np.float64
    monkeypatch.setattr(schoenberg, "_square", None)
    assert min_eigenvalue(G) == pytest.approx(1.0)
    assert factor_points(G, 2).P.shape == (3, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: gram_from_distances([["a"]], 1),
     "distance matrix must hold real numbers, got dtype <U1"),
    (lambda: gram_from_distances([[0.0, 1.0], [1.0]], 1),
     "distance matrix is ragged"),
    (lambda: gram_from_distances(np.zeros((2, 2), dtype=complex), 1),
     "distance matrix must hold real numbers, got dtype complex128"),
    (lambda: min_eigenvalue("x"), "matrix must hold real numbers"),
    (lambda: min_eigenvalue(np.eye(2) * 1j),
     "matrix must hold real numbers, got dtype complex128"),
    (lambda: min_eigenvalue(GramMatrix(matrix=[[None]], base=1)),
     "matrix must hold real numbers, got dtype object"),
    (lambda: factor_points(GramMatrix(matrix="x", base=1), 1),
     "matrix must hold real numbers"),
    (lambda: factor_points(GramMatrix(matrix=np.ones(2), base=1), 1),
     "matrix must be square, got shape (2,)"),
])
def test_matrices_that_are_not_real_square_arrays_are_refused(call,
                                                              message):
    # one intake for every matrix: ragged, non-numeric and complex input
    # is a ShapeMismatch, never numpy's ValueError or a ComplexWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}"):
            call()


def test_distances_of_collinear():
    P = np.array([[0.0, 0], [1, 0], [3, 0]])
    D = distances_of(PointConfig(dim=2, P=P))
    assert np.array_equal(D, [[0.0, 1, 3], [1, 0, 2], [3, 2, 0]])


def test_distances_of_bipartite_345():
    config = PointConfig(dim=2, P=np.array([[0.0, 0]]),
                         Q=np.array([[3.0, 4]]))
    assert np.array_equal(distances_of(config), [[5.0]])


def test_round_trip_spot_checks():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(2, 11))
        d = int(rng.integers(1, 10))
        P = rng.standard_normal((n, d))
        config = PointConfig(dim=d, P=P)
        D = distances_of(config)
        mean = D[np.triu_indices(n, 1)].mean() if n > 1 else 1.0
        D = D / mean
        G = gram_from_distances(D, base=n)
        back = distances_of(factor_points(G, dim=d))
        assert np.abs(back - D).max() < 1e-8


def test_config_json_round_trip_exact():
    rng = np.random.default_rng(23)
    P = rng.standard_normal((4, 3))
    Q = rng.standard_normal((2, 3))
    config = PointConfig(dim=3, P=P, Q=Q)
    back = config_from_json(config_to_json(config))
    assert np.array_equal(back.P, P)
    assert np.array_equal(back.Q, Q)
    assert config_to_json(back) == config_to_json(config)


def test_config_json_complete_omits_q():
    config = PointConfig(dim=1, P=np.array([[0.0], [1.0]]))
    text = config_to_json(config)
    assert '"Q"' not in text
    assert config_from_json(text).Q is None


def test_config_json_rejects_bad_shapes():
    with pytest.raises(ShapeMismatch):
        config_from_json('{"dim":2,"P":[[1.0]]}')
    with pytest.raises(ShapeMismatch):
        config_from_json('{"dim":1,"P":"zap"}')
    with pytest.raises(ShapeMismatch, match="Q must be rows of length dim=2"):
        config_from_json('{"dim":2,"P":[[0,0]],"Q":[[1,2,3]]}')
    with pytest.raises(NonFiniteEntry):
        config_from_json('{"dim":1,"P":[[Infinity]]}')


def test_point_config_checks_its_shapes():
    # P and Q (if given) must be 2-D with dim columns, checked when the
    # config is built: P one column wide under a two-column Q used to get
    # a verdict for P broadcast across Q's columns, and a 1-D P an
    # IndexError in verify
    wide = np.zeros((3, 2))
    bad = [dict(dim=2, P=np.zeros((3, 1)), Q=wide),
           dict(dim=2, P=np.zeros(3)),
           dict(dim=2, P=np.zeros((3, 2, 1))),
           dict(dim=1, P=wide),
           dict(dim=2, P=wide, Q=np.zeros(3)),
           dict(dim=2, P=wide, Q=np.zeros((3, 3))),
           dict(dim=3, P=[[0.0, 1.0]])]
    for fields in bad:
        with pytest.raises(ShapeMismatch, match="must be rows of length"):
            PointConfig(**fields)
    assert PointConfig(dim=2, P=wide, Q=wide).Q is wide
    assert PointConfig(dim=0, P=np.zeros((4, 0))).dim == 0
    # shapes only: 8 TB of zero-strided rows are checked at once
    huge = np.broadcast_to(0.0, (10 ** 6, 10 ** 6))
    assert PointConfig(dim=10 ** 6, P=huge).P is huge


_WIDE = np.zeros((3, 2))


@pytest.mark.parametrize("make", [
    lambda: PointConfig(dim=True, P=np.zeros((3, 1))),
    lambda: PointConfig(dim=2.0, P=_WIDE),
    lambda: PointConfig(dim=1, P=[[1.0], [1.0, 2.0]]),
    lambda: PointConfig(dim=1, P="zap"),
    lambda: PointConfig(dim=1, P=[["1"], ["2"]]),
    lambda: PointConfig(dim=1, P=np.array([[1j], [2.0]])),
    lambda: PointConfig(dim=2, P=_WIDE, Q=[[0.0, None]]),
    lambda: PointConfig(dim=2, P=np.zeros(2)),
    lambda: PointConfig(dim=2, P=np.zeros((3, 2, 1))),
    lambda: PointConfig(dim=2, P=_WIDE, Q=np.zeros((3, 3))),
    lambda: config_from_json('{"dim":2,"P":[[0,0],[1,1]],"Q":null}'),
    lambda: config_from_json('{"dim":1,"P":[[0],[1,2]]}'),
    lambda: config_from_json('{"dim":1,"P":[["0"],[1]]}'),
], ids=["dim-bool", "dim-float", "ragged", "string", "strings", "complex",
        "object", "1-D", "3-D", "Q-width", "json-Q-null", "json-ragged",
        "json-string"])
def test_point_config_intake_refuses(make):
    # PointConfig is the one intake of coordinates, so each of these must
    # end here: a bool dim would be written as "dim":True, a complex P
    # would lose its imaginary part, a ragged one raise numpy's ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ShapeMismatch):
            make()


@pytest.mark.parametrize("fields", [
    dict(dim=2, P=np.array([[0.1, -0.0], [5e-324, 1e308]])),
    dict(dim=np.int64(2), P=[[1, 2], [3, 4]], Q=[[True, False]]),
    dict(dim=1, P=np.arange(3, dtype=np.float32)[:, None]),
    dict(dim=3, P=np.zeros((2, 3), dtype=np.int8), Q=np.ones((4, 3))),
    dict(dim=0, P=np.zeros((4, 0))),
], ids=["float", "lists", "float32", "int8", "dim-0"])
def test_accepted_point_configs_round_trip_bit_for_bit(fields):
    config = PointConfig(**fields)
    assert type(config.dim) is not bool
    for A in (config.P, config.Q):
        assert A is None or (A.dtype == np.float64 and A.ndim == 2)
    back = config_from_json(config_to_json(config))
    assert back.dim == config.dim and (back.Q is None) == (config.Q is None)
    for A, B in ((back.P, config.P), (back.Q, config.Q)):
        assert A is None or A.tobytes() == B.tobytes()
    assert config_to_json(back) == config_to_json(config)


def test_save_load_config(tmp_path):
    path = str(tmp_path / "points.json")
    config = PointConfig(dim=2, P=np.array([[0.25, -1.5], [3.125, 0.0]]))
    schoenberg.save_config(config, path)
    back = schoenberg.load_config(path)
    assert np.array_equal(back.P, config.P)


def test_save_config_refuses_non_finite_coordinates(tmp_path):
    # JSON cannot hold them and load_config refuses them: no file is written
    path = tmp_path / "points.json"
    config = PointConfig(dim=1, P=np.array([[np.nan], [0.0]]))
    with pytest.raises(NonFiniteEntry,
                       match="^point config has non-finite coordinates$"):
        schoenberg.save_config(config, str(path))
    assert not path.exists()


def _naive_distances(P, Q=None):
    # the n x n x d broadcast: the direct difference of every pair
    Q = P if Q is None else Q
    diff = P[:, None, :] - Q[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


def _gram_form(n, m, d):
    pairs = n * (n - 1) // 2 if m is None else n * m
    return pairs * d > schoenberg.GRAM_MIN


def _assert_within_delta(P, Q=None):
    # distances_of and the broadcast, after checking the relative bound
    got = distances_of(PointConfig(dim=P.shape[1], P=P, Q=Q))
    want = _naive_distances(P, Q)
    assert np.all(np.abs(got - want) <= schoenberg.DELTA * want)
    return got, want


def test_distances_of_matches_broadcast_below_gram_min():
    rng = np.random.default_rng(40)
    tried = 0
    while tried < 60:
        n, m = (int(k) for k in rng.integers(1, 40, size=2))
        d = int(rng.integers(1, 70))
        P, Q = rng.standard_normal((n, d)), rng.standard_normal((m, d))
        if not _gram_form(n, None, d):
            assert np.array_equal(distances_of(PointConfig(dim=d, P=P)),
                                  _naive_distances(P))
            tried += 1
        if not _gram_form(n, m, d):
            assert np.array_equal(distances_of(PointConfig(dim=d, P=P, Q=Q)),
                                  _naive_distances(P, Q))
    # on the crossover: 1 pair of dim 4096 and 8 x 8 pairs of dim 64
    P = rng.standard_normal((2, schoenberg.GRAM_MIN))
    assert np.array_equal(distances_of(PointConfig(P.shape[1], P)),
                          _naive_distances(P))
    P, Q = rng.standard_normal((8, 64)), rng.standard_normal((8, 64))
    assert np.array_equal(distances_of(PointConfig(64, P, Q)),
                          _naive_distances(P, Q))


def test_distances_of_gram_form_within_delta():
    # DELTA leaves the verifier's relative tolerance a factor 100
    assert schoenberg.DELTA <= verifier.TOL_REL / 100
    rng = np.random.default_rng(44)
    tried = 0
    while tried < 60:
        n, m = (int(k) for k in rng.integers(2, 60, size=2))
        d = int(rng.integers(1, 120))
        shift = rng.choice([0.0, 1e6])
        P = rng.standard_normal((n, d)) + shift
        Q = rng.standard_normal((m, d)) + shift
        if _gram_form(n, None, d):
            _assert_within_delta(P)
            tried += 1
        if _gram_form(n, m, d):
            _assert_within_delta(P, Q)
    # just past the crossover, and pair counts that end just before, on
    # and after the direct difference's chunk boundaries (64 pairs here)
    _assert_within_delta(rng.standard_normal((2, schoenberg.GRAM_MIN + 1)))
    _assert_within_delta(*rng.standard_normal((2, 8, 65)))
    d = schoenberg.CHUNK // 64
    for n in (11, 12, 17, 40, 70):
        _assert_within_delta(rng.standard_normal((n, d)) + 1e6)
    for n, m in ((7, 9), (8, 8), (13, 5), (3, 43), (5, 64), (2, 130)):
        _assert_within_delta(rng.standard_normal((n, d)),
                             rng.standard_normal((m, d)))


def test_distances_of_fallback_is_the_direct_difference():
    # all but the first point sit in a cluster of spread 1 at 1e6 from it:
    # only the pairs with the first point keep their Gram-form value, and
    # the others, whose Gram form cancels, come from the direct difference
    # in pieces of 64 pairs; (n - 1) * m pairs end before, on and after
    # those pieces' boundaries
    d = schoenberg.CHUNK // 64
    rng = np.random.default_rng(45)
    far = np.zeros(d)
    far[0] = 1e6
    for n, m in ((2, 63), (2, 64), (2, 65), (3, 64), (5, 40)):
        P = rng.standard_normal((n, d)) + far
        P[0] = 0.0
        got, want = _assert_within_delta(P, rng.standard_normal((m, d)) + far)
        assert np.array_equal(got[1:], want[1:])
    for n in (12, 13, 17, 18, 40):
        P = rng.standard_normal((n, d)) + far
        P[0] = 0.0
        got, want = _assert_within_delta(P)
        assert np.array_equal(got[1:, 1:], want[1:, 1:])


def _two_far_clusters(rng):
    # 300 points of dim 298: the first at the origin, the others in two
    # clusters of spread 1 at 1e6 from it and from each other, so that the
    # pairs within a cluster, about half of all, cancel in the Gram form
    P = rng.standard_normal((300, 298))
    P[0] = 0.0
    P[1:150, 0] += 1e6
    P[150:, 1] += 1e6
    return P


def test_distances_of_half_fallback_is_exact_in_bounded_memory():
    P = _two_far_clusters(np.random.default_rng(46))
    config = PointConfig(dim=298, P=P)
    tracemalloc.start()
    try:
        D = distances_of(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    want = _naive_distances(P)
    assert np.array_equal(D[1:150, 1:150], want[1:150, 1:150])
    assert np.array_equal(D[150:, 150:], want[150:, 150:])
    assert np.all(np.abs(D - want) <= schoenberg.DELTA * want)


def _overflow_cases(rng):
    # configs on both sides of the crossover at coordinates 1e150 to 1e155,
    # whose squared distances overflow at some scales and not at others;
    # some points close to each other but far from the first, whose
    # squared norms overflow while their distances do not; and coordinates
    # near 1e308, whose differences from the first point overflow
    for n, d in ((4, 3), (12, 8), (40, 30), (90, 5)):
        for scale in (1e150, 1e152, 1e153, 1e154, 1e155):
            yield rng.standard_normal((n, d)) * scale
        P = rng.standard_normal((n, d))
        P[1:, 0] += 1e155
        yield P
        P = rng.standard_normal((n, d))
        P[1:] *= 1e-3
        P[1:, 0] += 1e308
        P[0, 0] = -1e308
        yield P


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_distances_of_is_finite_where_the_direct_difference_is():
    # only the oracle may warn: distances_of overflows quietly
    rng = np.random.default_rng(47)
    for P in _overflow_cases(rng):
        for Q in (None, P[::-1] * 0.75):
            got = distances_of(PointConfig(dim=P.shape[1], P=P, Q=Q))
            with np.errstate(over="ignore"):
                want = _naive_distances(P, Q)
            assert np.array_equal(np.isfinite(got), np.isfinite(want))
            got, want = got[np.isfinite(want)], want[np.isfinite(want)]
            assert np.all(np.abs(got - want) <= schoenberg.DELTA * want)


def test_distances_of_tiny_shapes():
    rng = np.random.default_rng(41)
    for P in (np.zeros((1, 3)), rng.standard_normal((2, 1)),
              rng.standard_normal((2, 4)), rng.standard_normal((6, 1))):
        D = distances_of(PointConfig(dim=P.shape[1], P=P))
        assert np.array_equal(D, _naive_distances(P))
    P, Q = rng.standard_normal((5, 2)), rng.standard_normal((1, 2))
    D = distances_of(PointConfig(dim=2, P=P, Q=Q))
    assert D.shape == (5, 1)
    assert np.array_equal(D, _naive_distances(P, Q))


def test_distances_of_close_points():
    P = np.array([[0.1, 0.2, 0.3], [0.1 + 1e-12, 0.2, 0.3]])
    D = distances_of(PointConfig(dim=3, P=P))
    assert np.array_equal(D, _naive_distances(P))
    assert D[0, 1] == D[1, 0] == pytest.approx(1e-12, rel=1e-3)
    # among 60 points the pair cancels in the Gram form and falls back
    assert _gram_form(60, None, 3)
    Z = np.random.default_rng(49).standard_normal((60, 3))
    Z[[5, 6]] = P
    D, want = _assert_within_delta(Z)
    assert D[5, 6] == want[5, 6] == _naive_distances(P)[0, 1]


def test_distances_of_memory_is_bounded():
    # the n x n x d broadcast peaks near 430 MB here
    P = np.random.default_rng(43).standard_normal((300, 298))
    config = PointConfig(dim=298, P=P)
    tracemalloc.start()
    try:
        distances_of(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_format_rows_bytes_match_per_value_format():
    A = np.array([[5e-324, -5e-324, 2.2250738585072014e-308 / 3],
                  [0.0, -0.0, 1e308],
                  [-1e308, 3.0, -7.0],
                  [2.0 ** 53, 0.1, -1.0 / 3.0]])
    want = [",".join(format(float(x), ".17g") for x in row) for row in A]
    assert schoenberg.format_rows(A, "", "\n", "") == "".join(
        row + "\n" for row in want)
    config = PointConfig(dim=3, P=A[:2], Q=A[2:])
    text = config_to_json(config)
    assert text == ('{"dim":3,"P":[[' + "],[".join(want[:2]) + ']],"Q":[['
                    + "],[".join(want[2:]) + "]]}")
    back = config_from_json(text)
    assert np.array_equal(back.P, A[:2]) and np.array_equal(back.Q, A[2:])
    # -0.0 is written "-0" and read back with its sign
    assert np.array_equal(np.signbit(back.P), np.signbit(A[:2]))


def test_pair_index_matches_the_reference_pair_lists():
    def one_based(ij):
        return list(zip((ij[0] + 1).tolist(), (ij[1] + 1).tolist()))

    for n in range(1, 7):
        assert one_based(pair_index(n)) == complete_pairs(n)
        for m in range(1, 6):
            assert one_based(pair_index(n, m)) == bipartite_pairs(n, m)
    for ij in (pair_index(5), pair_index(4, 3)):
        for a in ij:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1


def test_pair_index_refuses_past_the_cap_before_allocating():
    cap = schoenberg.MAX_PAIRS
    # the fewest points whose pairs exceed the cap
    n = (1 + math.isqrt(1 + 8 * cap)) // 2 + 1
    assert (n - 1) * (n - 2) // 2 <= cap < n * (n - 1) // 2
    tracemalloc.start()
    try:
        for args in ((n,), (1, cap + 1), (cap + 1, 1)):
            with pytest.raises(BadSize, match="exceed the cap"):
                pair_index(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_pair_index_caches_only_shapes_of_at_most_chunk_pairs():
    # above CHUNK pairs each call builds its own arrays and none is kept,
    # which bounds the cache at 64 shapes of CHUNK pairs
    chunk = schoenberg.CHUNK
    n = (1 + math.isqrt(1 + 8 * chunk)) // 2
    assert n * (n - 1) // 2 <= chunk < (n + 1) * n // 2
    for small, large in (((n,), (n + 1,)), ((1, chunk), (1, chunk + 1)),
                         ((chunk, 1), (chunk + 1, 1))):
        kept = weakref.ref(pair_index(*small)[0])
        gone = weakref.ref(pair_index(*large)[0])
        gc.collect()
        assert kept() is pair_index(*small)[0]
        assert gone() is None
        again = pair_index(*large)
        assert not again[0].flags.writeable
        assert again[0].size == again[1].size > chunk
