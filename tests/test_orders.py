import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (random_bipartite_linear, random_bipartite_preorder,
                      random_linear_order, random_preorder, rank)
from ordembed import cli, constructions, orders, schoenberg, verifier
from ordembed.errors import (BadSize, DuplicatePair, EmptyClass,
                             IndexOutOfRange, MissingPair, SpecError)
from ordembed.orders import OrderSpec


def test_complete_pairs_small():
    assert orders.complete_pairs(3) == [(1, 2), (1, 3), (2, 3)]
    assert len(orders.complete_pairs(6)) == 15
    assert orders.complete_pairs(np.int64(3)) == [(1, 2), (1, 3), (2, 3)]
    assert orders.complete_pairs(1) == orders.complete_pairs(-3) == []


def test_bipartite_pairs_small():
    assert orders.bipartite_pairs(2, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert len(orders.bipartite_pairs(3, 5)) == 15
    assert orders.bipartite_pairs(2, -1) == orders.bipartite_pairs(0, 3) == []


def test_a_kind_that_is_not_a_string_is_an_unknown_kind():
    with pytest.raises(SpecError, match=r"^unknown kind array"):
        OrderSpec(np.zeros(3), 3, [[(1, 2), (1, 3), (2, 3)]])


def test_validate_accepts_complete_partition():
    spec = OrderSpec("complete", 3, (((1, 2),), ((1, 3),), ((2, 3),)))
    orders.validate(spec)


def _refuse_classes(monkeypatch):
    # validate names a bad pair from the (i, j) array: building classes
    # while a spec is checked fails the test
    def built(spec):
        raise AssertionError("classes built")
    monkeypatch.setattr(OrderSpec, "classes", property(built))


def test_validate_missing_pair():
    with pytest.raises(MissingPair, match=r"^pair \(2, 3\) not covered$"):
        OrderSpec("complete", 3, (((1, 2),), ((1, 3),)))


def test_validate_duplicate_pair(monkeypatch):
    _refuse_classes(monkeypatch)
    with pytest.raises(DuplicatePair, match=r"^pair \(1, 2\) occurs twice$"):
        OrderSpec("complete", 4, (
            ((1, 2),), ((1, 2),), ((1, 3), (1, 4), (2, 3), (2, 4), (3, 4))))


def test_validate_refuses_non_integer_sizes():
    pairs = [[(1, 2), (1, 3), (2, 3)]]
    for n in ("3", 3.0, True, None):
        with pytest.raises(SpecError, match="n and m must be integers"):
            OrderSpec("complete", n, pairs)
    for m in ("1", 1.0, False):
        with pytest.raises(SpecError, match="n and m must be integers"):
            OrderSpec("bipartite", 1, [[(1, 1)]], m=m)
    assert OrderSpec("complete", np.int64(3), pairs).ranks.tolist() == [1] * 3


def test_validate_empty_class():
    with pytest.raises(EmptyClass, match="^empty class in spec$"):
        OrderSpec("complete", 3, (((1, 2), (1, 3), (2, 3)), ()))


def test_validate_index_out_of_range(monkeypatch):
    _refuse_classes(monkeypatch)
    with pytest.raises(IndexOutOfRange,
                       match=r"^pair \(2, 4\) out of range$"):
        OrderSpec("complete", 3, (((1, 2),), ((1, 3),), ((2, 4),)))


@pytest.mark.parametrize("n, m", [(0, 2), (2, 0)])
def test_validate_bipartite_needs_both_sides(n, m):
    with pytest.raises(IndexOutOfRange,
                       match=r"^bipartite spec needs n, m >= 1$"):
        OrderSpec("bipartite", n, (), m=m)


def test_hash_agrees_with_equality():
    # a spec read from its canonical text and the same spec built from
    # lists are one set element
    for spec in (OrderSpec("complete", 3, (((1, 2),), ((1, 3), (2, 3)))),
                 OrderSpec("bipartite", 2, (((2, 1), (1, 1)), ((1, 2),),
                                            ((2, 2),)), m=2)):
        read = orders.from_json(orders.to_json(spec))
        assert read == spec
        assert len({read, spec}) == 1


def test_validate_bipartite_indices():
    spec = OrderSpec("bipartite", 2, (((1, 1), (1, 2), (2, 1), (2, 2)),), m=2)
    orders.validate(spec)
    with pytest.raises(IndexOutOfRange,
                       match=r"^pair \(1, 3\) out of range$"):
        OrderSpec("bipartite", 2, (((1, 1), (1, 3), (2, 1), (2, 2)),), m=2)


def test_pair_normalization_reversed_complete():
    spec = OrderSpec("complete", 3, (((2, 1),), ((3, 1),), ((3, 2),)))
    orders.validate(spec)
    assert spec.classes[0] == ((1, 2),)
    assert rank(spec, (3, 1)) == 2


def test_rank_of_preorder4(preorder4_spec):
    assert rank(preorder4_spec, (1, 3)) == 2
    assert rank(preorder4_spec, (1, 2)) == 1
    assert rank(preorder4_spec, (1, 4)) == 4


def test_rank_of_single_class():
    spec = OrderSpec("complete", 4, (tuple(orders.complete_pairs(4)),))
    for p in orders.complete_pairs(4):
        assert rank(spec, p) == 1


def test_rank_of_bip32_bipartite(bip32_spec):
    assert rank(bip32_spec, (1, 2)) == 3
    assert rank(bip32_spec, (2, 1)) == 1
    assert rank(bip32_spec, (3, 2)) == 2


def test_rank_of_unknown_pair():
    # a pair outside the pair set has no rank: the spec is refused when built
    with pytest.raises(IndexOutOfRange, match=r"^pair \(1, 5\) out of range$"):
        OrderSpec("complete", 4, (tuple(orders.complete_pairs(4)), ((1, 5),)))


def test_rank_constant_on_classes_increasing_across():
    rng = np.random.default_rng(7)
    for n in range(3, 9):
        spec = random_preorder(rng, n)
        for k, cls in enumerate(spec.classes, start=1):
            for p in cls:
                assert rank(spec, p) == k


def test_is_linear(preorder4_spec):
    assert not preorder4_spec.is_linear()
    lin = OrderSpec("complete", 3, (((1, 2),), ((1, 3),), ((2, 3),)))
    assert lin.is_linear()
    single = OrderSpec("complete", 4, (tuple(orders.complete_pairs(4)),))
    assert not single.is_linear()


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
    assert rank(spec, (2, 4)) == 3


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
            OrderSpec("complete", n, tuple(tuple(c) for c in broken))
        dup = [list(c) for c in classes]
        dup[-1] = dup[-1] + [victim]
        with pytest.raises(DuplicatePair):
            OrderSpec("complete", n, tuple(tuple(c) for c in dup))


def test_validate_names_first_missing_bipartite_pair():
    with pytest.raises(MissingPair, match=r"^pair \(2, 1\) not covered$"):
        OrderSpec("bipartite", 2, (((1, 1), (1, 2), (2, 2)),), m=2)


@st.composite
def _raw_partitions(draw):
    """(kind, n, m, classes) of a valid partition before normalization:
    a random pair order, random class cuts, and complete pairs flipped to
    (j, i) at random."""
    if draw(st.booleans()):
        kind, n, m = "complete", draw(st.integers(2, 9)), None
        pairs = orders.complete_pairs(n)
    else:
        kind, n, m = "bipartite", draw(st.integers(1, 6)), draw(
            st.integers(1, 6))
        pairs = orders.bipartite_pairs(n, m)
    order = draw(st.permutations(pairs))
    cuts = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs),
                          max_size=len(pairs)))
    classes = []
    for p, cut, flip in zip(order, cuts, flips):
        if cut or not classes:
            classes.append([])
        classes[-1].append(p[::-1] if kind == "complete" and flip else p)
    return kind, n, m, classes


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_raw_partitions())
def test_ranks_match_dict_oracle(raw):
    kind, n, m, classes = raw
    spec = OrderSpec(kind, n, tuple(map(tuple, classes)), m=m)
    oracle = {}
    for k, cls in enumerate(classes, start=1):
        for i, j in cls:
            oracle[(min(i, j), max(i, j)) if kind == "complete"
                   else (i, j)] = k
    want = [oracle[p] for p in spec.pair_set()]
    assert spec.ranks.dtype == np.int64
    assert spec.ranks.tolist() == want


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_raw_partitions())
def test_json_and_canonical_match_sorted_oracle(raw):
    kind, n, m, classes = raw
    norm = [[tuple(sorted(p)) if kind == "complete" else tuple(p)
             for p in cls] for cls in classes]
    head = {"kind": kind, "n": n, **({} if m is None else {"m": m})}

    def text(classes):
        return json.dumps(dict(head, classes=[[list(p) for p in cls]
                                              for cls in classes]))

    ordered = [sorted(cls) for cls in norm]
    as_lists = OrderSpec(kind, n, classes, m=m)
    as_tuples = OrderSpec(kind, n, tuple(tuple(map(tuple, cls))
                                         for cls in classes), m=m)
    assert as_lists == as_tuples
    for spec in (as_lists, as_tuples):
        assert orders.to_json(spec) == text(norm)
        assert orders.from_json(orders.to_json(spec)) == spec
        canon = orders.canonical(spec)
        assert orders.to_json(canon) == text(ordered)
        assert canon.classes == tuple(map(tuple, ordered))
        assert (canon == spec) == (ordered == norm)
        assert orders.from_ranks(spec.ranks, n, m) == canon


def _scatter_extremes(spec, values):
    """The former OrderSpec.extremes, kept as its oracle: one unbuffered
    minimum and maximum scatter per pair into its class."""
    at = spec.ranks - 1
    lo = np.full(spec.num_classes, np.inf)
    hi = np.full(spec.num_classes, -np.inf)
    np.minimum.at(lo, at, values)
    np.maximum.at(hi, at, values)
    return lo, hi


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_raw_partitions(), st.sampled_from(["drawn", "one class", "linear"]),
       st.sampled_from(["int ranks", "float distances"]),
       st.integers(0, 2 ** 32 - 1))
def test_extremes_match_the_scatter_oracle(raw, shape, values, seed):
    kind, n, m, classes = raw
    pairs = [p for cls in classes for p in cls]
    classes = {"drawn": classes, "one class": [pairs],
               "linear": [[p] for p in pairs]}[shape]
    spec = OrderSpec(kind, n, classes, m=m)
    rng = np.random.default_rng(seed)
    if values == "int ranks":
        vals = rng.integers(1, len(pairs) + 1, len(pairs))
    else:
        # lattice points: repeated and tied distances, zeros included
        P = rng.integers(-2, 3, (n, 2)).astype(float)
        Q = None if m is None else rng.integers(-2, 3, (m, 2)).astype(float)
        vals = schoenberg.pair_distances(schoenberg.PointConfig(2, P, Q))
    got, want = spec.extremes(vals), _scatter_extremes(spec, vals)
    for g, w in zip(got, want):
        assert g.dtype == np.float64
        assert np.array_equal(g, w)


# (kind, n, m, classes): a bipartite spec, which the partition strategy
# above never draws
_RAW_WRITER_CASES = [
    ("bipartite", 2, 3, [[(1, 1), (2, 3)], [(2, 1), (1, 2), (1, 3)],
                         [(2, 2)]]),
]


@pytest.mark.parametrize("raw", _RAW_WRITER_CASES)
def test_to_json_matches_json_dumps_on_raw_specs(raw):
    kind, n, m, classes = raw
    norm = [[sorted(p) if kind == "complete" else list(p) for p in cls]
            for cls in classes]
    head = {"kind": kind, "n": n, **({} if m is None else {"m": m})}
    spec = OrderSpec(kind, n, classes, m=m)
    assert orders.to_json(spec) == json.dumps(dict(head, classes=norm))


# (kind, n, m, classes, error, message): raw specs with empty classes, no
# classes or indices beyond int64, refused when they are built
_RAW_REFUSED_CASES = [
    ("complete", 3, None, [[], [(1, 2)], [], [], [(1, 3), (2, 3)], []],
     EmptyClass, "empty class in spec"),
    ("complete", 3, None, [[(1, 2)], [], [(3, 1), (2, 3)]],
     EmptyClass, "empty class in spec"),
    ("complete", 3, None, [[], []], EmptyClass, "empty class in spec"),
    ("complete", 3, None, [[]], EmptyClass, "empty class in spec"),
    ("complete", 3, None, [], MissingPair, "pair (1, 2) not covered"),
    ("complete", 4, None, [[(2 ** 70, 1)], [(3, -2 ** 64), (1, 2)], []],
     IndexOutOfRange, "pair (1, 1180591620717411303424) out of range"),
    ("bipartite", 2, 2, [[(2, 2 ** 63)], [], [(1, 1), (1, 2)], [(2, 1)]],
     IndexOutOfRange, "pair (2, 9223372036854775808) out of range"),
]


@pytest.mark.parametrize("raw", _RAW_REFUSED_CASES)
def test_raw_specs_outside_the_writer_are_refused_when_built(raw):
    kind, n, m, classes, error, message = raw
    with pytest.raises(SpecError) as err:
        OrderSpec(kind, n, classes, m=m)
    assert type(err.value) is error
    assert str(err.value) == message


@pytest.mark.parametrize("make", [
    lambda rng: random_preorder(rng, 7),
    lambda rng: random_linear_order(rng, 7),
    lambda rng: random_bipartite_preorder(rng, 3, 4)],
    ids=["preorder", "linear", "bipartite"])
def test_realize_and_verify_never_build_class_tuples(make):
    spec = orders.from_json(orders.to_json(make(np.random.default_rng(3))))
    report = constructions.realize(spec)
    assert verifier.verify(report.config, spec).matched
    assert "classes" not in vars(spec)


# (spec text, error type, message): the first offence of a class-by-class,
# pair-by-pair scan, named as that scan names it
_FROM_JSON_ERRORS = [
    ('{"kind":"complete","n":3,"classes":[[[1,2],[1,4]],[],[[1,3],[2,3]]]}',
     IndexOutOfRange, "pair (1, 4) out of range"),
    ('{"kind":"complete","n":3,"classes":[[[1,2]],[],[[1,4]],[[1,3],[2,3]]]}',
     EmptyClass, "empty class in spec"),
    ('{"kind":"complete","n":3,"classes":[[[1,2]],[[1,3],[1,2]],[[2,5]],'
     '[[2,3]]]}', DuplicatePair, "pair (1, 2) occurs twice"),
    ('{"kind":"complete","n":4,"classes":[[[2,1],[3,1]],[[1,2]],'
     '[[1,4],[2,3],[2,4],[3,4]]]}', DuplicatePair, "pair (1, 2) occurs twice"),
    ('{"kind":"complete","n":4,"classes":[[[1,2],[5,3]]]}',
     IndexOutOfRange, "pair (3, 5) out of range"),
    ('{"kind":"complete","n":3,"classes":[[[1,2],[2,2]],[]]}',
     IndexOutOfRange, "pair (2, 2) out of range"),
    ('{"kind":"complete","n":4,"classes":[[[1,2],[1,3],[1,4],[2,3],[2,4],'
     '[3,4]],[[4,3]]]}', DuplicatePair, "pair (3, 4) occurs twice"),
    ('{"kind":"complete","n":3,"classes":[[[1,2],[1,9223372036854775808]]]}',
     IndexOutOfRange, "pair (1, 9223372036854775808) out of range"),
    ('{"kind":"complete","n":3,"classes":[[[true,2]]]}',
     SpecError, "malformed pair [True, 2]"),
    ('{"kind":"complete","n":3,"classes":[[[1,2.0]]]}',
     SpecError, "malformed pair [1, 2.0]"),
    ('{"kind":"complete","n":3,"classes":[[[1,"2"]]]}',
     SpecError, "malformed pair [1, '2']"),
    ('{"kind":"complete","n":3,"classes":[[[1,2],[1,2,3]]]}',
     SpecError, "malformed pair [1, 2, 3]"),
    ('{"kind":"complete","n":3,"classes":[[[1,2]],5,[[1,2.5]]]}',
     SpecError, "a class must be a list, got 5"),
    ('{"kind":"complete","n":3,"classes":[[[1,2]],[[1,2.5]],5]}',
     SpecError, "malformed pair [1, 2.5]"),
    ('{"kind":"bipartite","n":2,"m":3,"classes":[[[1,1],[1,2],[1,3],[2,3]]]}',
     MissingPair, "pair (2, 1) not covered"),
    ('{"kind":"complete","n":3,"classes":[]}',
     MissingPair, "pair (1, 2) not covered"),
    ('{"kind":"complete","n":3,"m":7,"classes":[[[1,2],[1,3],[2,3]]]}',
     SpecError, "complete spec takes no m, got 7"),
]


@pytest.mark.parametrize("text, error, message", _FROM_JSON_ERRORS)
def test_from_json_names_the_first_offence(text, error, message):
    with pytest.raises(SpecError) as err:
        orders.from_json(text)
    assert type(err.value) is error
    assert str(err.value) == message


@pytest.mark.parametrize("text, error, message", _FROM_JSON_ERRORS)
def test_from_json_names_the_first_offence_in_canonical_spacing(
        text, error, message):
    # json.dumps spacing: the canonical scan reads the all-integer texts
    with pytest.raises(SpecError) as err:
        orders.from_json(json.dumps(json.loads(text)))
    assert type(err.value) is error
    assert str(err.value) == message


# (classes, error, message): what the constructor refuses, named as given;
# the checks are those of from_json
_CONSTRUCTOR_ERRORS = [
    ([[(1, 2.7)], [(1, 3)], [(2, 3)]], SpecError, "malformed pair (1, 2.7)"),
    ([[(True, 2)], [(1, 3)], [(2, 3)]], SpecError,
     "malformed pair (True, 2)"),
    ([[(1, "2")], [(1, 3)], [(2, 3)]], SpecError, "malformed pair (1, '2')"),
    ([[[1, 2]], [[1, 3, 2]], [[2, 3]]], SpecError,
     "malformed pair [1, 3, 2]"),
    ([[(1, 2)], 5, [(1, 3), (2, 3)]], SpecError,
     "a class must be a list, got 5"),
    ([[(1, 2), (1, 3.5)], 5, [(2, 3)]], SpecError,
     "malformed pair (1, 3.5)"),
    ([[(1, 2)], 5, [(1, 3), (2, 3.5)]], SpecError,
     "a class must be a list, got 5"),
    ([[(1, 2)], [(1, np.uint64(2 ** 63 + 5))], [(2, 3)]], IndexOutOfRange,
     "pair (1, 9223372036854775813) out of range"),
]


@pytest.mark.parametrize("classes, error, message", _CONSTRUCTOR_ERRORS,
                         ids=["float", "bool", "str", "three", "class",
                              "pair-before-class", "class-before-pair",
                              "uint64-past-int64"])
def test_constructor_names_the_first_offence(classes, error, message):
    with pytest.raises(SpecError) as err:
        OrderSpec("complete", 3, classes)
    assert type(err.value) is error
    assert str(err.value) == message


def test_a_partition_past_the_pair_cap_is_refused_when_built(monkeypatch):
    # the cap is the last check of validate: a partition of 6 pairs is
    # refused under a cap of 5, on every path that builds a spec, while
    # an invalid spec still names its first offence
    pairs = orders.complete_pairs(4)
    canonical = orders.to_json(OrderSpec("complete", 4, [pairs]))
    compact = json.dumps(json.loads(canonical), separators=(",", ":"))
    monkeypatch.setattr(schoenberg, "MAX_PAIRS", 5)
    for build in (lambda: OrderSpec("complete", 4, [pairs]),
                  lambda: orders.from_json(canonical),
                  lambda: orders.from_json(compact)):
        with pytest.raises(BadSize, match="^6 pairs exceed the cap of 5$"):
            build()
    with pytest.raises(MissingPair, match=r"^pair \(1, 3\) not covered$"):
        OrderSpec("complete", 4, [pairs[:1]])


@pytest.mark.parametrize("ranks, error, message", [
    ([1, 3, 3], EmptyClass, "empty class in spec"),
    ([2, 2, 2], EmptyClass, "empty class in spec"),
    ([1, 2], SpecError, "ranks must be 3 integers >= 1"),
    ([1, 2, 2, 1], SpecError, "ranks must be 3 integers >= 1"),
    ([0, 1, 1], SpecError, "ranks must be 3 integers >= 1"),
    ([1, -1, 2], SpecError, "ranks must be 3 integers >= 1"),
])
def test_from_ranks_refuses_a_vector_that_is_not_a_partition(ranks, error,
                                                             message):
    with pytest.raises(SpecError) as err:
        orders.from_ranks(np.array(ranks), 3)
    assert type(err.value) is error
    assert str(err.value) == message


@pytest.mark.parametrize("ranks, n, m, message", [
    ([], 1, None, "complete spec needs n >= 2, got 1"),
    ([], 0, 3, "bipartite spec needs n, m >= 1"),
    ([1], -1, -1, "bipartite spec needs n, m >= 1"),
    ([1], -1, None, "complete spec needs n >= 2, got -1"),
])
def test_from_ranks_refuses_a_shape_validate_refuses(ranks, n, m, message):
    # each shape's pair count matches its vector, so only the shape check
    # stands between it and a spec with no classes, or numpy's IndexError
    with pytest.raises(IndexOutOfRange) as err:
        orders.from_ranks(np.array(ranks, dtype=np.int64), n, m)
    assert str(err.value) == message
    with pytest.raises(IndexOutOfRange) as err:
        OrderSpec("complete" if m is None else "bipartite", n, [], m)
    assert str(err.value) == message


def test_from_json_dict_takes_tuple_pairs():
    spec = orders.from_json_dict(
        {"kind": "complete", "n": 3, "classes": ([(1, 2), (1, 3)], ((3, 2),))})
    assert spec.classes == (((1, 2), (1, 3)), ((2, 3),))
    with pytest.raises(SpecError, match=r"^malformed pair \(2, 1\.0\)$"):
        orders.from_json_dict(
            {"kind": "complete", "n": 2, "classes": [[(2, 1.0)]]})


def test_spec_indices_become_python_ints():
    spec = OrderSpec("complete", 3, ([(np.int64(2), np.int64(1))],
                                     [(1, 3), (3, 2)]))
    assert spec.classes == (((1, 2),), ((1, 3), (2, 3)))
    assert all(type(v) is int for cls in spec.classes for p in cls for v in p)
    assert spec.ranks.tolist() == [1, 2, 2]


def _general(text: str) -> OrderSpec:
    """from_json with the canonical scan off: json.loads, then
    from_json_dict."""
    with mock.patch.object(orders, "_scan_canonical", lambda text: None):
        return orders.from_json(text)


def _spec_dict(spec: OrderSpec, flip: bool) -> dict:
    """spec as a JSON-ready dict; flip writes every other complete pair
    of a class as (j, i)."""
    flip = flip and spec.kind == "complete"
    classes = [[list(p[::-1] if flip and k % 2 else p)
                for k, p in enumerate(cls)] for cls in spec.classes]
    return {"kind": spec.kind, "n": spec.n,
            **({} if spec.m is None else {"m": spec.m}), "classes": classes}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.sampled_from([
    lambda rng, n, m: random_preorder(rng, n),
    lambda rng, n, m: random_linear_order(rng, n),
    lambda rng, n, m: random_bipartite_preorder(rng, n - 1, m),
    lambda rng, n, m: random_bipartite_linear(rng, n - 1, m)]),
    st.integers(2, 14), st.integers(1, 14), st.integers(0, 2 ** 32 - 1),
    st.booleans())
def test_canonical_scan_reads_what_the_general_path_reads(make, n, m, seed,
                                                          flip):
    spec = make(np.random.default_rng(seed), n, m)
    data = _spec_dict(spec, flip)
    texts = {"to_json": orders.to_json(spec),
             "json.dumps": json.dumps(data) + "\n",
             "compact": json.dumps(data, separators=(",", ":")) + "\n"}
    for form, text in texts.items():
        assert (orders._scan_canonical(text) is None) == (form == "compact")
        got, want = orders.from_json(text), _general(text)
        assert got == want == spec
        for a, b in ((got._ij, want._ij), (got._sizes, want._sizes)):
            assert a.dtype == b.dtype == np.int64
            assert np.array_equal(a, b)


_BASE = '{"kind": "complete", "n": 3, "classes": [[[1, 2]], [[1, 3], [2, 3]]]}'
# (id, text): the canonical text of a 3-point preorder, changed
_MUTATED = [
    ("reversed", _BASE.replace("[1, 3], [2, 3]", "[3, 1], [3, 2]")),
    ("out-of-range", _BASE.replace("[2, 3]", "[2, 4]")),
    ("zero", _BASE.replace("[1, 2]", "[0, 2]")),
    ("duplicate", _BASE.replace("[2, 3]", "[1, 2]")),
    ("missing", _BASE.replace(", [2, 3]", "")),
    ("empty-class", _BASE.replace("]], [[", "]], [], [[")),
    ("no-classes", _BASE.replace("[[[1, 2]], [[1, 3], [2, 3]]]", "[]")),
    ("leading-zero", _BASE.replace("[1, 2]", "[01, 2]")),
    ("leading-zero-n", _BASE.replace('"n": 3', '"n": 03')),
    ("negative", _BASE.replace("[1, 2]", "[-1, 2]")),
    ("negative-n", _BASE.replace('"n": 3', '"n": -3')),
    ("18-digits", _BASE.replace("[2, 3]", "[2, 999999999999999999]")),
    ("19-digits", _BASE.replace("[2, 3]", "[2, 1000000000000000000]")),
    ("huge-n", _BASE.replace('"n": 3', '"n": 999999999999999999')),
    ("complete-m", _BASE.replace('"n": 3', '"n": 3, "m": 3')),
    ("bipartite-no-m", _BASE.replace("complete", "bipartite")),
    ("bipartite", _BASE.replace('complete", "n": 3',
                                'bipartite", "n": 2, "m": 3')),
    ("duplicate-key", _BASE.replace('"n": 3', '"n": 2, "n": 3')),
    ("key-order", '{"n": 3, "kind": "complete", "classes": '
                  '[[[1, 2]], [[1, 3], [2, 3]]]}'),
    ("unicode-digit", _BASE.replace("[2, 3]", "[2, \u0663]")),
    ("unicode-space", _BASE.replace("[2, 3]", "[2,\u00a03]")),
    ("unicode-trailing-space", _BASE + "\u2028"),
    ("form-feed", _BASE + "\f"),
    ("trailing-space", _BASE + " \t\r\n\n"),
    ("leading-space", " " + _BASE),
    ("trailing-data", _BASE + "{}"),
    ("unclosed", _BASE[:-2]),
    ("three-indices", _BASE.replace("[1, 2]", "[1, 2, 3]")),
    ("float", _BASE.replace("[1, 2]", "[1.0, 2]")),
    ("escaped-key", _BASE.replace('"kind"', '"\\u006bind"')),
    ("huge-literal", _BASE.replace("[2, 3]", "[2, 3" + "0" * 5000 + "]")),
]


@pytest.mark.parametrize("text", [t for _, t in _MUTATED],
                         ids=[name for name, _ in _MUTATED])
def test_changed_texts_read_or_fail_alike_on_both_paths(text):
    def outcome(read):
        try:
            spec = read(text)
        except SpecError as exc:
            return type(exc), str(exc)
        return spec, spec._ij.dtype

    assert outcome(orders.from_json) == outcome(_general)


def test_written_spec_files_load_without_json_loads(tmp_path, capsys,
                                                    monkeypatch):
    spec = random_bipartite_preorder(np.random.default_rng(5), 3, 4)
    saved, gallery = str(tmp_path / "saved.json"), str(tmp_path / "g.json")
    points, induced = tmp_path / "points.json", tmp_path / "induced.json"
    compact = tmp_path / "compact.json"
    orders.save(spec, saved)
    assert cli.main(["gallery", "diameter_preorder", "5", gallery]) == 0
    assert cli.main(["realize", saved, str(points)]) == 0
    capsys.readouterr()
    assert cli.main(["induce", str(points)]) == 0
    induced.write_text(capsys.readouterr().out)
    compact.write_text(json.dumps(json.loads(orders.to_json(spec)),
                                  separators=(",", ":")))
    calls = []
    loads = json.loads
    monkeypatch.setattr(orders.json, "loads",
                        lambda *a, **k: calls.append(a) or loads(*a, **k))
    for path in (saved, gallery, str(induced)):
        orders.load(path)
    assert calls == []
    assert orders.load(str(compact)) == spec
    assert len(calls) == 1
