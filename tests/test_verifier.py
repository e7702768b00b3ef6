import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (count_calls, random_bipartite_preorder,
                      random_linear_order, random_preorder, rank)
from ordembed import cli, orders, schoenberg, verifier
from ordembed.constructions import realize, realize_preorder_complete
from ordembed.errors import (BadSize, IndexOutOfRange, NonFiniteEntry,
                             ShapeMismatch)
from ordembed.orders import OrderSpec, bipartite_pairs, complete_pairs
from ordembed.schoenberg import PointConfig, pair_distances
from ordembed.verifier import _first_disagreement, induced_preorder, verify


def _line(*xs):
    return PointConfig(dim=1, P=np.array([[float(x)] for x in xs]))


def _gaps_and_spread(induced, config):
    # every gap lo[c+1] - hi[c] between induced classes, and the greatest
    # spread hi[c] - lo[c] within one
    lo, hi = induced.extremes(pair_distances(config))
    return tuple((lo[1:] - hi[:-1]).tolist()), float((hi - lo).max())


def test_verify_of_a_spec_with_no_pairs_is_a_typed_error():
    # a spec with no pairs is refused when built, so verify never reduces
    # an empty distance vector
    with pytest.raises(IndexOutOfRange,
                       match=r"^complete spec needs n >= 2, got 1$"):
        OrderSpec("complete", 1, [])
    with pytest.raises(IndexOutOfRange,
                       match=r"^bipartite spec needs n, m >= 1$"):
        OrderSpec("bipartite", 0, [], m=0)


def test_induced_collinear_singletons():
    config = _line(0, 1, 3)
    induced = induced_preorder(config)
    assert induced.classes == (((1, 2),), ((2, 3),), ((1, 3),))
    assert _gaps_and_spread(induced, config) == ((1.0, 1.0), 0.0)


def test_induced_unit_tetrahedron():
    spec = OrderSpec("complete", 4, (tuple(complete_pairs(4)),))
    report = realize_preorder_complete(spec)
    induced = induced_preorder(report.config)
    assert len(induced.classes) == 1
    assert frozenset(induced.classes[0]) == frozenset(complete_pairs(4))


def test_induced_preorder4_realization(preorder4_spec):
    config = realize_preorder_complete(preorder4_spec).config
    induced = induced_preorder(config)
    got = [frozenset(c) for c in induced.classes]
    assert got == [frozenset(c) for c in preorder4_spec.classes]


def test_induced_merges_within_tolerance():
    # distances 1, 1.4, 2.4 with tol_abs 0.5: first two merge, margin is
    # measured from the class maximum, not its minimum
    config = _line(0, 1, 2.4)
    induced = induced_preorder(config, tol_abs=0.5, tol_rel=0.0)
    assert len(induced.classes) == 2
    gaps, spread = _gaps_and_spread(induced, config)
    assert gaps == (pytest.approx(1.0),)
    assert spread == pytest.approx(0.4)


@pytest.mark.parametrize("tolerances", [
    (-1e-12, 0.0), (0.0, -1e-12), (float("nan"), 0.0), (0.0, float("inf"))])
def test_induced_refuses_negative_or_non_finite_tolerances(tolerances):
    with pytest.raises(BadSize, match="^tol_(abs|rel) must be nonnegative "
                       "and within float range, got "):
        induced_preorder(_line(0, 1, 3), *tolerances)
    assert induced_preorder(_line(0, 1, 3), 0.0, 0.0).classes == (
        ((1, 2),), ((2, 3),), ((1, 3),))


def test_verify_preorder4_match(preorder4_spec):
    config = realize_preorder_complete(preorder4_spec).config
    report = verify(config, preorder4_spec)
    assert report.matched
    assert report.witness is None
    assert report.margin > 0
    assert report.distinctness > 0


def test_verify_tetrahedron_vs_preorder4_mismatch(preorder4_spec):
    single = OrderSpec("complete", 4, (tuple(complete_pairs(4)),))
    config = realize_preorder_complete(single).config
    report = verify(config, preorder4_spec)
    assert report.verdict == "mismatch"
    a, b = report.witness
    assert rank(preorder4_spec, a) != rank(preorder4_spec, b)
    induced = induced_preorder(config)
    assert len(induced.classes) == 1


def test_verify_shape_mismatches(preorder4_spec, bip32_spec):
    complete3 = PointConfig(dim=2, P=np.zeros((3, 2)))
    with pytest.raises(ShapeMismatch):
        verify(complete3, preorder4_spec)
    bip = PointConfig(dim=2, P=np.zeros((3, 2)), Q=np.ones((2, 2)))
    with pytest.raises(ShapeMismatch):
        verify(bip, preorder4_spec)
    with pytest.raises(ShapeMismatch):
        verify(complete3, bip32_spec)
    wrong_m = PointConfig(dim=2, P=np.zeros((3, 2)), Q=np.ones((3, 2)))
    with pytest.raises(ShapeMismatch):
        verify(wrong_m, bip32_spec)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_overflowing_large_config_raises_without_warning():
    # both branches of the distance kernel, the direct difference up to
    # schoenberg.GRAM_MIN and the Gram form past it, run under errstate,
    # so distances that overflow raise NonFiniteEntry and warn nothing; a
    # few points close together keep finite distances among themselves
    rng = np.random.default_rng(50)
    spec = random_preorder(rng, 40)
    P = rng.standard_normal((40, 39)) * 1e160
    P[1:4] = P[5] + np.eye(3, 39)
    config = PointConfig(dim=39, P=P)
    assert 780 * 39 > schoenberg.GRAM_MIN
    with pytest.raises(NonFiniteEntry):
        verify(config, spec)
    with pytest.raises(NonFiniteEntry):
        induced_preorder(config)
    vals = pair_distances(config)
    assert np.isfinite(vals).any() and not np.isfinite(vals).all()
    # small shapes take the direct difference: inf where its square is
    for x in ([1e308, -1e308], [1e200, -1e200, 0.0]):
        config = PointConfig(dim=1, P=np.array(x)[:, None])
        with pytest.raises(NonFiniteEntry):
            verify(config, random_preorder(rng, len(x)))
        with pytest.raises(NonFiniteEntry):
            induced_preorder(config)
        with np.errstate(over="ignore"):
            want = np.sqrt(np.subtract.outer(x, x) ** 2)
        assert np.array_equal(schoenberg.distances_of(config), want)


def test_distinctness_bipartite_ignores_internal_repeats():
    P = np.zeros((2, 2))
    Q = np.array([[3.0, 4.0], [3.0, 4.0]])
    config = PointConfig(dim=2, P=P, Q=Q)
    spec = OrderSpec("bipartite", 2,
                     (((1, 1), (1, 2), (2, 1), (2, 2)),), m=2)
    report = verify(config, spec)
    assert report.matched
    assert report.distinctness == pytest.approx(5.0)


def test_isometry_invariance():
    rng = np.random.default_rng(30)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        d = int(rng.integers(2, 5))
        P = rng.standard_normal((n, d))
        base = induced_preorder(PointConfig(dim=d, P=P)).classes
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        moved = P @ Q.T + rng.standard_normal(d)
        assert induced_preorder(PointConfig(dim=d, P=moved)).classes == base


@pytest.mark.parametrize("make", [
    lambda rng: random_preorder(rng, 40),
    lambda rng: random_linear_order(rng, 60),
    lambda rng: random_bipartite_preorder(rng, 30, 30)],
    ids=["preorder", "linear", "bipartite"])
def test_realized_configs_survive_motion_and_scaling(make, tmp_path, capsys):
    # realized configurations are where the margin sits closest to the
    # verifier threshold: moved by a random orthogonal map and translation,
    # scaled by 10^-3 or 10^3 and checked with tol_abs scaled alike, they
    # must still match, and induce must print the same canonical spec
    rng = np.random.default_rng(41)
    spec = make(rng)
    config = realize(spec).config
    want = orders.to_json(orders.canonical(spec)) + "\n"
    d = config.dim
    for scale in (1e-3, 1e3):
        R, _ = np.linalg.qr(rng.standard_normal((d, d)))
        shift = rng.standard_normal(d)

        def move(X):
            return None if X is None else scale * (X @ R + shift)

        moved = PointConfig(dim=d, P=move(config.P), Q=move(config.Q))
        tol = verifier.TOL_ABS * scale
        assert verify(moved, spec, tol_abs=tol).matched
        path = tmp_path / "moved.json"
        schoenberg.save_config(moved, str(path))
        assert cli.main(["induce", str(path), "--tol-abs", repr(tol)]) == 0
        assert capsys.readouterr().out == want


def test_scale_covariance():
    rng = np.random.default_rng(32)
    P = rng.standard_normal((5, 3))
    base = induced_preorder(PointConfig(dim=3, P=P), tol_abs=1e-9).classes
    for lam in (0.1, 7.0):
        scaled = induced_preorder(PointConfig(dim=3, P=lam * P),
                                  tol_abs=1e-9 * lam)
        assert scaled.classes == base


def test_partition_stable_across_tolerances(preorder4_spec):
    report = realize_preorder_complete(preorder4_spec)
    eps = report.epsilon
    base = None
    for tol in (1e-12, 1e-11, 1e-10, 1e-9, eps / 20, eps / 10):
        induced = induced_preorder(report.config, tol_abs=tol, tol_rel=tol)
        if base is None:
            base = induced.classes
        assert induced.classes == base


def test_self_consistency_on_random_configs():
    rng = np.random.default_rng(33)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(1, 5))
        P = rng.standard_normal((n, d))
        config = PointConfig(dim=d, P=P)
        induced = induced_preorder(config)
        spec = OrderSpec("complete", n, induced.classes)
        assert verify(config, spec).matched


def test_self_consistency_on_realizations():
    rng = np.random.default_rng(34)
    for _ in range(10):
        spec = random_preorder(rng, int(rng.integers(3, 8)))
        config = realize(spec).config
        assert verify(config, spec).matched


def test_report_json_shapes(preorder4_spec):
    config = realize_preorder_complete(preorder4_spec).config
    data = json.loads(cli._verify_json(verify(config, preorder4_spec)))
    assert data["verdict"] == "match"
    assert data["witness"] is None
    assert data["margin"] > 0
    single = OrderSpec("complete", 4, (tuple(complete_pairs(4)),))
    tetra = realize_preorder_complete(single).config
    mis = json.loads(cli._verify_json(verify(tetra, preorder4_spec)))
    assert mis["verdict"] == "mismatch"
    assert isinstance(mis["witness"], list) and len(mis["witness"]) == 2
    # a single induced class has no inter-class gap to report
    one = json.loads(cli._verify_json(verify(tetra, single)))
    assert one["margin"] is None


def test_witness_is_lex_first_disagreement(preorder4_spec):
    single = OrderSpec("complete", 4, (tuple(complete_pairs(4)),))
    tetra = realize_preorder_complete(single).config
    report = verify(tetra, preorder4_spec)
    assert report.witness == ((1, 2), (1, 3))


def test_verify_and_induce_read_distances_once(monkeypatch, preorder4_spec,
                                               bip32_spec):
    calls = count_calls(monkeypatch, schoenberg.pair_distances)
    single = OrderSpec("complete", 4, (tuple(complete_pairs(4)),))
    for spec, config in (
            (preorder4_spec, realize_preorder_complete(preorder4_spec).config),
            (preorder4_spec, realize_preorder_complete(single).config),
            (bip32_spec, realize(bip32_spec).config)):
        del calls[:]
        verify(config, spec)
        assert len(calls) == 1
        del calls[:]
        induced_preorder(config)
        assert len(calls) == 1


def test_distinctness_is_the_least_pair_distance(bip32_spec):
    config = realize(bip32_spec).config
    assert (verify(config, bip32_spec).distinctness
            == pair_distances(config).min())


@pytest.mark.parametrize("m", [None, 4])
@pytest.mark.parametrize("grid", [False, True])
def test_induced_preorder_is_what_induce_prints(m, grid, tmp_path, capsys):
    # the induced order is a spec: the one induce prints, and matched by
    # the configuration that induces it; P rounded to a grid ties distances
    rng = np.random.default_rng(54)
    P = rng.standard_normal((7, 2))
    P = P.round() if grid else P
    Q = None if m is None else rng.standard_normal((m, 2))
    config = PointConfig(dim=2, P=P, Q=Q)
    path = tmp_path / "points.json"
    schoenberg.save_config(config, str(path))
    assert cli.main(["induce", str(path)]) == 0
    induced = induced_preorder(config)
    assert induced == orders.from_json(capsys.readouterr().out)
    assert verify(config, induced).matched


def _quadratic_witness(spec, got):
    # reference: for each pair in order, the first later pair whose
    # relative order differs
    want = spec.ranks
    pairs = spec.pair_set()
    for a in range(want.size):
        differ = (np.sign(want[a + 1:] - want[a])
                  != np.sign(got[a + 1:] - got[a]))
        if differ.any():
            return pairs[a], pairs[a + 1 + int(differ.argmax())]
    return None


def _partition(pairs, order, shape, cuts):
    if shape == "one":
        cuts = [False] * len(pairs)
    elif shape == "linear":
        cuts = [True] * len(pairs)
    classes = []
    for k, cut in zip(order, cuts):
        if cut or not classes:
            classes.append([])
        classes[-1].append(pairs[k])
    return tuple(map(tuple, classes))


@st.composite
def _spec_pairs(draw):
    """A spec and a second order on the same pairs: an unrelated random
    order, the spec with its first and last classes swapped, or with two
    adjacent classes swapped."""
    if draw(st.booleans()):
        kind, n, m = "complete", draw(st.integers(2, 8)), None
        pairs = complete_pairs(n)
    else:
        kind, n, m = "bipartite", draw(st.integers(1, 6)), draw(
            st.integers(1, 6))
        pairs = bipartite_pairs(n, m)
    count = len(pairs)
    shapes = st.sampled_from(["random", "one", "linear"])
    cuts = st.lists(st.booleans(), min_size=count, max_size=count)
    order = st.permutations(range(count))
    spec = OrderSpec(kind, n, _partition(pairs, draw(order), draw(shapes),
                                         draw(cuts)), m=m)
    how = draw(st.sampled_from(["random", "first_last", "adjacent"]))
    classes = list(spec.classes)
    if how == "random" or len(classes) < 2:
        other = _partition(pairs, draw(order), draw(shapes), draw(cuts))
    elif how == "first_last":
        classes[0], classes[-1] = classes[-1], classes[0]
        other = tuple(classes)
    else:
        k = draw(st.integers(0, len(classes) - 2))
        classes[k], classes[k + 1] = classes[k + 1], classes[k]
        other = tuple(classes)
    return spec, OrderSpec(kind, n, other, m=m)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_spec_pairs())
def test_witness_matches_quadratic_search(specs):
    spec, other = specs
    want = _quadratic_witness(spec, other.ranks)
    if want is None:
        assert np.array_equal(spec.ranks, other.ranks)
        return
    got = _first_disagreement(spec, other.ranks)
    assert got == want
    assert all(type(v) is int for pair in got for v in pair)


def test_deep_witness_at_n200_matches_quadratic_search():
    # swapping two rank-adjacent singleton classes leaves one disagreeing
    # pair of pairs; choose the swap whose witness sits deepest in the
    # pair order
    rng = np.random.default_rng(50)
    config = PointConfig(dim=3, P=rng.standard_normal((200, 3)))
    classes = list(induced_preorder(config).classes)
    assert all(len(c) == 1 for c in classes)
    lex = {p: k for k, p in enumerate(complete_pairs(200))}
    depth = [min(lex[classes[k][0]], lex[classes[k + 1][0]])
             for k in range(len(classes) - 1)]
    k = int(np.argmax(depth))
    assert depth[k] > 19000
    classes[k], classes[k + 1] = classes[k + 1], classes[k]
    spec = OrderSpec("complete", 200, tuple(classes))
    report = verify(config, spec)
    assert report.verdict == "mismatch"
    assert report.witness == _quadratic_witness(
        spec, induced_preorder(config).ranks)


def _classes_by_scan(config, tol_abs=verifier.TOL_ABS,
                     tol_rel=verifier.TOL_REL):
    # reference: pairs listed by a stable distance sort, split at every
    # gap above the threshold
    vals = pair_distances(config)
    pairs = (complete_pairs(len(config.P)) if config.Q is None
             else bipartite_pairs(len(config.P), len(config.Q)))
    order = np.argsort(vals, kind="stable")
    threshold = tol_abs + tol_rel * vals.max()
    classes = [[pairs[order[0]]]]
    for prev, k in zip(order[:-1], order[1:]):
        if vals[k] - vals[prev] > threshold:
            classes.append([])
        classes[-1].append(pairs[k])
    return tuple(map(tuple, classes))


def test_induced_classes_match_scan_with_ties():
    rng = np.random.default_rng(51)
    for _ in range(40):
        n, m, d = (int(v) for v in rng.integers(1, 9, size=3))
        P = rng.integers(-2, 3, size=(n + 1, d)).astype(float)
        Q = rng.integers(-2, 3, size=(m, d)).astype(float)
        for config in (PointConfig(dim=d, P=P),
                       PointConfig(dim=d, P=P, Q=Q)):
            induced = induced_preorder(config)
            assert induced.classes == _classes_by_scan(config)
            assert all(type(v) is int for cls in induced.classes
                       for p in cls for v in p)


def test_induced_order_equality_reads_classes():
    rng = np.random.default_rng(52)
    P = rng.standard_normal((6, 3))
    a = induced_preorder(PointConfig(dim=3, P=P))
    b = induced_preorder(PointConfig(dim=3, P=P.copy()))
    assert a == b
    assert a != induced_preorder(PointConfig(dim=3, P=P[::-1].copy()))
    assert a != a.classes


def _verify_by_sort(config, spec, tol_abs=verifier.TOL_ABS,
                    tol_rel=verifier.TOL_REL):
    # reference: verify as a whole induced order compared rank by rank,
    # with no certificate; verdict, witness, margin and distinctness as
    # verify reports them
    induced = induced_preorder(config, tol_abs, tol_rel)
    vals = pair_distances(config)
    margin, _ = induced.separation(vals)
    witness = None
    if not np.array_equal(induced.ranks, spec.ranks):
        witness = _first_disagreement(spec, induced.ranks)
    return ("match" if witness is None else "mismatch", witness,
            repr(margin), repr(float(vals.min())))


def _reported(report):
    return (report.verdict, report.witness, repr(report.margin),
            repr(report.distinctness))


@st.composite
def _verify_cases(draw):
    """A complete or bipartite spec of one class, a linear order or drawn
    classes, a configuration realizing it, jittered, rounded so that
    distances tie or (bipartite) with Q reversed, and one of three
    tolerances; or random points, the spec they induce under a coarse
    threshold that chains some classes wider than itself, and that
    threshold."""
    tolerances = draw(st.sampled_from([
        (verifier.TOL_ABS, verifier.TOL_REL), (1e-6, 0.0), (0.0, 1e-3)]))
    if draw(st.booleans()):
        kind, n, m = "complete", draw(st.integers(2, 7)), None
        pairs = complete_pairs(n)
    else:
        kind, n, m = "bipartite", draw(st.integers(1, 5)), draw(
            st.integers(1, 5))
        pairs = bipartite_pairs(n, m)
    count = len(pairs)
    spec = OrderSpec(kind, n, _partition(
        pairs, draw(st.permutations(range(count))),
        draw(st.sampled_from(["random", "one", "linear"])),
        draw(st.lists(st.booleans(), min_size=count, max_size=count))), m=m)
    how = draw(st.sampled_from(["realized", "jittered", "rounded",
                                "reversed", "induced"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if how == "induced":
        n = draw(st.integers(4, 8))
        m = None if m is None else draw(st.integers(2, 5))
        d, tolerances = draw(st.integers(1, 3)), (0.0, 0.2)
        config = PointConfig(dim=d, P=rng.standard_normal((n, d)),
                             Q=None if m is None
                             else rng.standard_normal((m, d)))
        spec = orders.from_ranks(
            induced_preorder(config, *tolerances).ranks, n, m)
        return config, spec, tolerances
    config = realize(spec).config
    P, Q = config.P, config.Q
    if how == "jittered":
        scale = 10.0 ** -draw(st.integers(2, 12))
        P = P + scale * rng.standard_normal(P.shape)
        Q = None if Q is None else Q + scale * rng.standard_normal(Q.shape)
    elif how == "rounded":
        decimals = draw(st.integers(0, 6))
        P, Q = P.round(decimals), None if Q is None else Q.round(decimals)
    elif how == "reversed" and Q is not None:
        Q = Q[::-1].copy()
    return PointConfig(dim=config.dim, P=P, Q=Q), spec, tolerances


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_verify_cases())
def test_verify_matches_sorting_reference(case):
    config, spec, tolerances = case
    assert _reported(verify(config, spec, *tolerances)) == _verify_by_sort(
        config, spec, *tolerances)


# points on a line, a spec and tolerances (tol_abs, tol_rel = 0) at the
# certificate's edges
_EDGES = {
    # distances 1, 2, 3 with threshold 1: each gap equals the threshold,
    # so the sort merges all three and the linear spec is not matched
    "gap_at_threshold": ((0.0, 1.0, 3.0), ((((1, 2),), ((2, 3),),
                                            ((1, 3),))), 1.0, "mismatch"),
    # class {1, 1.5} spreads exactly the threshold 0.5 and ends 1.0 below
    # distance 2.5: the certificate holds
    "spread_at_threshold": ((0.0, 1.0, 2.5), (((1, 2), (2, 3)),
                                              ((1, 3),)), 0.5, "match"),
    # class {1, 1.4, 1.8} spreads 0.8 over the threshold 0.5, but its steps
    # of 0.4 merge it in the sort: the certificate fails and the sort
    # still matches
    "chained_class": ((0.0, 1.0, 2.4, 4.2), (((1, 2), (2, 3), (3, 4)),
                                             ((1, 3),), ((2, 4),),
                                             ((1, 4),)), 0.5, "match"),
}


@pytest.mark.parametrize("edge", list(_EDGES))
def test_verify_at_certificate_edges(edge):
    xs, classes, tol, verdict = _EDGES[edge]
    config = _line(*xs)
    spec = OrderSpec("complete", len(xs), classes)
    report = verify(config, spec, tol, 0.0)
    assert report.verdict == verdict
    assert _reported(report) == _verify_by_sort(config, spec, tol, 0.0)


def test_matching_verify_does_not_sort(monkeypatch, preorder4_spec,
                                       bip32_spec):
    # a match certified by class extremes reads the distances once and
    # never sorts them; a mismatch, or a match the certificate cannot
    # show, sorts them once
    distances = count_calls(monkeypatch, schoenberg.pair_distances)
    sorts, real = [], np.argsort

    def argsort(*args, **kwargs):
        sorts.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", argsort)
    single = OrderSpec("complete", 4, (tuple(complete_pairs(4)),))
    xs, classes, tol, _ = _EDGES["chained_class"]
    for spec, config, tolerances, want in (
            (preorder4_spec, realize_preorder_complete(preorder4_spec).config,
             (), 0),
            (bip32_spec, realize(bip32_spec).config, (), 0),
            (preorder4_spec, realize_preorder_complete(single).config, (), 1),
            (OrderSpec("complete", 4, classes), _line(*xs), (tol, 0.0), 1)):
        del distances[:], sorts[:]
        verify(config, spec, *tolerances)
        assert (len(distances), len(sorts)) == (1, want)
