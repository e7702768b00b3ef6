import json

import numpy as np
import pytest

from conftest import random_linear_order, random_preorder
from ordembed import orders
from ordembed.errors import (DuplicatePair, EmptyClass, IndexOutOfRange,
                             MissingPair, NotComplete, NotLinear, SpecError,
                             UnknownPair)
from ordembed.orders import OrderSpec


def test_complete_pairs_small():
    assert orders.complete_pairs(3) == [(1, 2), (1, 3), (2, 3)]
    assert len(orders.complete_pairs(6)) == 15


def test_bipartite_pairs_small():
    assert orders.bipartite_pairs(2, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert len(orders.bipartite_pairs(3, 5)) == 15


def test_validate_accepts_complete_partition():
    spec = OrderSpec("complete", 3, (((1, 2),), ((1, 3),), ((2, 3),)))
    orders.validate(spec)


def test_validate_missing_pair():
    spec = OrderSpec("complete", 3, (((1, 2),), ((1, 3),)))
    with pytest.raises(MissingPair) as err:
        orders.validate(spec)
    assert "(2, 3)" in str(err.value)


def test_validate_duplicate_pair():
    spec = OrderSpec("complete", 4, (
        ((1, 2),), ((1, 2),), ((1, 3), (1, 4), (2, 3), (2, 4), (3, 4))))
    with pytest.raises(DuplicatePair) as err:
        orders.validate(spec)
    assert "(1, 2)" in str(err.value)


def test_validate_empty_class():
    spec = OrderSpec("complete", 3, (((1, 2), (1, 3), (2, 3)), ()))
    with pytest.raises(EmptyClass):
        orders.validate(spec)


def test_validate_index_out_of_range():
    spec = OrderSpec("complete", 3, (((1, 2),), ((1, 3),), ((2, 4),)))
    with pytest.raises(IndexOutOfRange):
        orders.validate(spec)


def test_validate_bipartite_indices():
    spec = OrderSpec("bipartite", 2, (((1, 1), (1, 2), (2, 1), (2, 2)),), m=2)
    orders.validate(spec)
    bad = OrderSpec("bipartite", 2, (((1, 1), (1, 3), (2, 1), (2, 2)),), m=2)
    with pytest.raises(IndexOutOfRange):
        orders.validate(bad)


def test_pair_normalization_reversed_complete():
    spec = OrderSpec("complete", 3, (((2, 1),), ((3, 1),), ((3, 2),)))
    orders.validate(spec)
    assert spec.classes[0] == ((1, 2),)
    assert spec.rank_of((3, 1)) == 2


def test_rank_of_preorder4(preorder4_spec):
    assert preorder4_spec.rank_of((1, 3)) == 2
    assert preorder4_spec.rank_of((1, 2)) == 1
    assert preorder4_spec.rank_of((1, 4)) == 4


def test_rank_of_single_class():
    spec = OrderSpec("complete", 4, (tuple(orders.complete_pairs(4)),))
    for p in orders.complete_pairs(4):
        assert spec.rank_of(p) == 1


def test_rank_of_bip32_bipartite(bip32_spec):
    assert bip32_spec.rank_of((1, 2)) == 3
    assert bip32_spec.rank_of((2, 1)) == 1
    assert bip32_spec.rank_of((3, 2)) == 2


def test_rank_of_unknown_pair(preorder4_spec):
    with pytest.raises(UnknownPair):
        preorder4_spec.rank_of((1, 5))


def test_rank_constant_on_classes_increasing_across():
    rng = np.random.default_rng(7)
    for n in range(3, 9):
        spec = random_preorder(rng, n)
        for k, cls in enumerate(spec.classes, start=1):
            for p in cls:
                assert spec.rank_of(p) == k


def test_is_linear(preorder4_spec):
    assert not preorder4_spec.is_linear()
    lin = OrderSpec("complete", 3, (((1, 2),), ((1, 3),), ((2, 3),)))
    assert lin.is_linear()
    single = OrderSpec("complete", 4, (tuple(orders.complete_pairs(4)),))
    assert not single.is_linear()


def test_relabel_min_to_last_already_last():
    rng = np.random.default_rng(0)
    hits = 0
    for _ in range(60):
        spec = random_linear_order(rng, 5)
        if spec.classes[0][0] != (4, 5):
            continue
        hits += 1
        relabeled, sigma = orders.relabel_min_to_last(spec)
        assert sigma == {i: i for i in range(1, 6)}
        assert relabeled == spec
    assert hits >= 1


def test_relabel_min_to_last_n4():
    spec = OrderSpec("complete", 4, (
        ((1, 2),), ((1, 3),), ((1, 4),), ((2, 3),), ((2, 4),), ((3, 4),)))
    relabeled, sigma = orders.relabel_min_to_last(spec)
    assert sigma[1] == 3 and sigma[2] == 4
    assert relabeled.classes[0] == ((3, 4),)


def test_relabel_min_2_4_at_n5():
    pairs = orders.complete_pairs(5)
    rest = [p for p in pairs if p != (2, 4)]
    spec = OrderSpec("complete", 5,
                     (((2, 4),),) + tuple((p,) for p in rest))
    relabeled, sigma = orders.relabel_min_to_last(spec)
    assert sigma[2] == 4 and sigma[4] == 5
    assert sigma[1] == 1 and sigma[3] == 2 and sigma[5] == 3
    assert relabeled.classes[0] == ((4, 5),)


def _order_type(spec):
    out = {}
    for k, cls in enumerate(spec.classes, start=1):
        for p in cls:
            out[p] = k
    return out


def test_relabel_preserves_order_type_brute_force():
    # oracle: apply sigma to every pair by hand, re-sort by original rank,
    # and compare rank relations pairwise
    rng = np.random.default_rng(21)
    for n in range(3, 8):
        for _ in range(25):
            spec = random_linear_order(rng, n)
            relabeled, sigma = orders.relabel_min_to_last(spec)
            before = _order_type(spec)
            after = _order_type(relabeled)
            for a in before:
                sa = tuple(sorted((sigma[a[0]], sigma[a[1]])))
                for b in before:
                    sb = tuple(sorted((sigma[b[0]], sigma[b[1]])))
                    assert (before[a] < before[b]) == (after[sa] < after[sb])
            assert relabeled.classes[0] == ((n - 1, n),)
            assert sorted(sigma.values()) == list(range(1, n + 1))


def test_relabel_rejects_preorder(preorder4_spec):
    with pytest.raises(NotLinear):
        orders.relabel_min_to_last(preorder4_spec)


def test_relabel_rejects_bipartite(bip32_spec):
    with pytest.raises(NotComplete):
        orders.relabel_min_to_last(bip32_spec)


def test_json_round_trip_complete(preorder4_spec):
    text = orders.to_json(preorder4_spec)
    back = orders.from_json(text)
    assert back == preorder4_spec
    data = json.loads(text)
    assert data["classes"][1] == [[2, 3], [1, 3]]


def test_json_round_trip_bipartite(bip32_spec):
    back = orders.from_json(orders.to_json(bip32_spec))
    assert back == bip32_spec
    assert back.m == 2


def test_json_interface_document():
    text = ('{"kind":"complete","n":4,"classes":'
            '[[[1,2]],[[2,3],[1,3]],[[3,4],[2,4]],[[1,4]]]}')
    spec = orders.from_json(text)
    assert spec.n == 4
    assert spec.rank_of((2, 4)) == 3


def test_from_json_rejects_garbage():
    with pytest.raises(SpecError):
        orders.from_json("not json at all")
    with pytest.raises(SpecError):
        orders.from_json('{"kind":"bipartite","n":2,"classes":[]}')
    with pytest.raises(SpecError):
        orders.from_json('{"kind":"complete","n":3,"classes":[[[1,2],[1]]]}')


def test_canonical_sorts_within_classes():
    spec = OrderSpec("complete", 3, (((2, 3), (1, 2), (1, 3)),))
    canon = orders.canonical(spec)
    assert canon.classes == (((1, 2), (1, 3), (2, 3)),)


def test_save_load_round_trip(tmp_path, bip32_spec):
    path = str(tmp_path / "spec.json")
    orders.save(bip32_spec, path)
    assert orders.load(path) == bip32_spec


def test_validate_random_specs_partition_property():
    # remove any one pair or duplicate any one pair: validate must reject
    rng = np.random.default_rng(99)
    for n in range(3, 9):
        spec = random_preorder(rng, n)
        orders.validate(spec)
        classes = [list(c) for c in spec.classes]
        victim = classes[0][0]
        broken = [list(c) for c in classes]
        broken[0] = broken[0][1:]
        if not broken[0]:
            broken = broken[1:]
        with pytest.raises((MissingPair, EmptyClass)):
            orders.validate(OrderSpec(
                "complete", n, tuple(tuple(c) for c in broken)))
        dup = [list(c) for c in classes]
        dup[-1] = dup[-1] + [victim]
        with pytest.raises(DuplicatePair):
            orders.validate(OrderSpec(
                "complete", n, tuple(tuple(c) for c in dup)))


def test_validate_names_first_missing_bipartite_pair():
    spec = OrderSpec("bipartite", 2, (((1, 1), (1, 2), (2, 2)),), m=2)
    with pytest.raises(MissingPair, match=r"^pair \(2, 1\) not covered$"):
        orders.validate(spec)
