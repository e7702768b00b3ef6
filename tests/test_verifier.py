import json

import numpy as np
import pytest

from conftest import count_calls, random_preorder, rank
from ordembed import schoenberg, verifier
from ordembed.constructions import realize, realize_preorder_complete
from ordembed.errors import ShapeMismatch
from ordembed.orders import OrderSpec, complete_pairs
from ordembed.schoenberg import PointConfig, pair_distances
from ordembed.verifier import induced_preorder, report_to_json, verify


def _line(*xs):
    return PointConfig(dim=1, P=np.array([[float(x)] for x in xs]))


def test_induced_collinear_singletons():
    induced = induced_preorder(_line(0, 1, 3))
    assert induced.classes == (((1, 2),), ((2, 3),), ((1, 3),))
    assert induced.gaps == (1.0, 1.0)
    assert induced.spread == 0.0


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
    induced = induced_preorder(_line(0, 1, 2.4), tol_abs=0.5, tol_rel=0.0)
    assert len(induced.classes) == 2
    assert induced.gaps == (pytest.approx(1.0),)
    assert induced.spread == pytest.approx(0.4)


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
    data = json.loads(report_to_json(verify(config, preorder4_spec)))
    assert data["verdict"] == "match"
    assert data["witness"] is None
    assert data["margin"] > 0
    single = OrderSpec("complete", 4, (tuple(complete_pairs(4)),))
    tetra = realize_preorder_complete(single).config
    mis = json.loads(report_to_json(verify(tetra, preorder4_spec)))
    assert mis["verdict"] == "mismatch"
    assert isinstance(mis["witness"], list) and len(mis["witness"]) == 2
    # a single induced class has no inter-class gap to report
    one = json.loads(report_to_json(verify(tetra, single)))
    assert one["margin"] is None


def test_witness_is_lex_first_disagreement(preorder4_spec):
    single = OrderSpec("complete", 4, (tuple(complete_pairs(4)),))
    tetra = realize_preorder_complete(single).config
    report = verify(tetra, preorder4_spec)
    assert report.witness == ((1, 2), (1, 3))


def test_verify_and_induce_read_distances_once(monkeypatch, preorder4_spec,
                                               bip32_spec):
    calls = count_calls(monkeypatch, schoenberg.distances_of)
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


def test_induced_distances_are_the_pair_distances(bip32_spec):
    config = realize(bip32_spec).config
    induced = induced_preorder(config)
    assert np.array_equal(induced.distances, pair_distances(config))
    assert verify(config, bip32_spec).distinctness == induced.distances.min()
