import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (count_calls, one_spec_per_realizer,
                      random_bipartite_linear, random_bipartite_preorder,
                      random_linear_order, random_preorder, rank)
from ordembed import (constructions, counterexamples, orders, schoenberg,
                      verifier)
from ordembed.constructions import (EpsilonSearch, _gathered_target,
                                    _simplex_factor,
                                    _simplex_least_eigenvalues,
                                    _stack_factor, _unit_simplex_factor,
                                    align_isometry, choose_epsilon,
                                    default_search, perturbed_distances,
                                    place_apexes, realize,
                                    realize_linear_complete,
                                    realize_preorder_bipartite,
                                    realize_preorder_complete)
from ordembed.errors import (BadSize, DistanceMismatch, DuplicatePair,
                             EmptyClass, EpsilonExhausted, IndexOutOfRange,
                             MissingPair, NonFiniteEntry, NotLinear, NotPSD,
                             ShapeMismatch, SpecError)
from ordembed.orders import OrderSpec, complete_pairs
from ordembed.schoenberg import (distances_of, factor_points,
                                 gram_from_distances, min_eigenvalue)


def test_epsilon_search_validation():
    with pytest.raises(BadSize):
        EpsilonSearch(initial=0.0)
    with pytest.raises(BadSize):
        EpsilonSearch(initial=float("nan"))
    with pytest.raises(BadSize, match="^initial must be a positive number "
                       "within float range, got inf$"):
        EpsilonSearch(initial=float("inf"))
    with pytest.raises(BadSize):
        EpsilonSearch(initial=1.0, shrink_factor=1.0)
    with pytest.raises(BadSize):
        EpsilonSearch(initial=1.0, max_steps=0)


class _NoReshape(np.ndarray):
    def reshape(self, *args, **kwargs):
        pytest.fail("a rank vector was reshaped for a refused eta")


@pytest.mark.parametrize("eta", [0.0, -1.0, float("nan"), float("inf")])
def test_realizers_reject_nonpositive_eta(eta, monkeypatch):
    # before a complete realizer builds its gather plan, and before the
    # bipartite realizer reshapes its rank vector
    def no_plan(*args):
        pytest.fail("a gather plan was built for a refused eta")

    monkeypatch.setattr(constructions, "_gathered_target", no_plan)
    for spec in one_spec_per_realizer(9):
        vars(spec)["ranks"] = spec.ranks.view(_NoReshape)
        with pytest.raises(BadSize, match="^eta must be a positive number "
                           "within float range, got "):
            realize(spec, eta=eta)


def test_perturbed_distances_refuses_nan_and_inf(preorder4_spec):
    for eps in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(BadSize, match="^eps must be a real number within "
                           "float range, got "):
            perturbed_distances(preorder4_spec, eps)


def test_a_float32_shrink_factor_leaves_the_search_in_float64():
    # a Python float times a float32 is a float32 (NEP 50)
    spec = random_linear_order(np.random.default_rng(3), 8)
    shrink = np.float32(0.3)
    want = realize(spec, search=EpsilonSearch(0.5, float(shrink)))
    got = realize(spec, search=EpsilonSearch(0.5, shrink))
    assert want.epsilon < 0.5 * 0.3  # more than one step
    assert type(got.epsilon) is float and got.epsilon == want.epsilon
    assert got.min_eigenvalues == want.min_eigenvalues


def _far_first(n: int) -> OrderSpec:
    """The linear order on D_n that ranks pairs by decreasing j - i, ties
    broken by a shuffle seeded 0: its accepted eps falls about as n^-3."""
    rng = np.random.default_rng(0)
    i, j = schoenberg.pair_index(n)
    ranks = np.empty(len(i), dtype=np.int64)
    ranks[np.lexsort((rng.random(len(i)), -(j - i)))] = np.arange(
        1, len(i) + 1)
    return orders.from_ranks(ranks, n)


def test_far_first_orders_realize_inside_the_margin_envelope():
    # README's margin envelope: margin over the verifier's threshold is
    # 5.4 at n = 600 and 1.95 at n = 1000, below 1 at n = 1500
    for n in (600, 1000):
        spec = _far_first(n)
        report = realize(spec)
        assert report.config.dim == n - 2
        check = verifier.verify(report.config, spec)
        assert check.matched
        threshold = verifier.TOL_ABS + verifier.TOL_REL * float(
            schoenberg.pair_distances(report.config).max())
        assert check.margin >= 1.5 * threshold


def test_unplaceable_step_is_rejected(monkeypatch):
    # a step whose apexes cannot be placed is one more rejected step, for
    # every realizer: the search moves on to the next eps
    for spec in one_spec_per_realizer(9):
        plain = realize(spec)
        refused = []

        def refuse_first(*factor):
            if not refused:
                refused.append(True)
                raise NotPSD("refused")
            return place_apexes(*factor)

        with monkeypatch.context() as m:
            m.setattr(constructions, "place_apexes", refuse_first)
            report = realize(spec)
        assert refused
        assert report.epsilon < plain.epsilon
        assert verifier.verify(report.config, spec).matched


def test_choose_epsilon_sequence():
    search = EpsilonSearch(initial=1.0, shrink_factor=0.5, max_steps=60)
    assert choose_epsilon(search, lambda e: e < 0.3) == 0.25
    assert choose_epsilon(search, lambda e: True) == 1.0


def test_choose_epsilon_exhausts():
    search = EpsilonSearch(initial=1.0, shrink_factor=0.5, max_steps=5)
    with pytest.raises(EpsilonExhausted):
        choose_epsilon(search, lambda e: False)


def test_choose_epsilon_pd_predicate_matches_manual_walk():
    # oracle: walk the deterministic sequence by hand with min_eigenvalue
    # and check choose_epsilon lands on the first accepted value
    rng = np.random.default_rng(41)
    spec = random_linear_order(rng, 5)
    assert spec.num_classes == 10
    eta = 1e-6

    def pd_at(eps):
        D = perturbed_distances(spec, eps)
        return min_eigenvalue(gram_from_distances(D, base=5)) > eta

    search = default_search(spec)
    expected = None
    eps = search.initial
    for _ in range(search.max_steps):
        if pd_at(eps):
            expected = eps
            break
        eps *= search.shrink_factor
    assert expected is not None
    assert choose_epsilon(search, pd_at) == expected


def test_default_search_initial():
    rng = np.random.default_rng(2)
    spec = random_preorder(rng, 6)
    assert default_search(spec).initial == 1.0 / (2 * spec.num_classes)


def test_perturbed_single_class():
    spec = OrderSpec("complete", 4, (tuple(complete_pairs(4)),))
    D = perturbed_distances(spec, 0.1)
    off = D[~np.eye(4, dtype=bool)]
    assert np.all(off == 1.1)
    assert np.all(np.diag(D) == 0.0)


def test_perturbed_preorder4_values(preorder4_spec):
    D = perturbed_distances(preorder4_spec, 0.01)
    assert D[0, 1] == 1.01
    assert D[0, 2] == 1.02 and D[1, 2] == 1.02
    assert D[1, 3] == 1.03 and D[2, 3] == 1.03
    assert D[0, 3] == 1.04
    assert np.array_equal(D, D.T)


def test_perturbed_range_at_default_eps():
    rng = np.random.default_rng(8)
    for n in (3, 5, 8):
        spec = random_preorder(rng, n)
        eps = 1.0 / (2 * spec.num_classes)
        D = perturbed_distances(spec, eps)
        off = D[~np.eye(n, dtype=bool)]
        assert off.min() >= 1.0 and off.max() <= 1.5


def test_perturbed_monotone_and_bitwise_equal_within_rank():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        spec = random_preorder(rng, n)
        eps = float(rng.uniform(1e-4, 0.2))
        D = perturbed_distances(spec, eps)
        for a in spec.pair_set():
            for b in spec.pair_set():
                da = D[a[0] - 1, a[1] - 1]
                db = D[b[0] - 1, b[1] - 1]
                ra, rb = rank(spec, a), rank(spec, b)
                if ra < rb:
                    assert da < db
                elif ra == rb:
                    assert da == db


def test_realize_preorder_single_class_tetrahedron():
    spec = OrderSpec("complete", 4, (tuple(complete_pairs(4)),))
    report = realize_preorder_complete(spec)
    assert report.config.dim == 3
    D = distances_of(report.config)
    off = D[~np.eye(4, dtype=bool)]
    assert np.abs(off - (1.0 + report.epsilon)).max() < 1e-9


def test_realize_preorder_preorder4(preorder4_spec):
    report = realize_preorder_complete(preorder4_spec)
    assert report.config.dim == 3
    check = verifier.verify(report.config, preorder4_spec)
    assert check.matched
    induced = verifier.induced_preorder(report.config)
    got = [frozenset(c) for c in induced.classes]
    assert got == [frozenset(c) for c in preorder4_spec.classes]
    assert report.margin > 0


def test_realize_preorder_diameter5():
    spec = counterexamples.gallery("diameter_preorder", 5)
    report = realize_preorder_complete(spec)
    assert report.config.dim == 4
    assert verifier.verify(report.config, spec).matched


def test_realize_preorder_margin_batch():
    rng = np.random.default_rng(12)
    for n in range(3, 9):
        for _ in range(25):
            spec = random_preorder(rng, n)
            report = realize_preorder_complete(spec)
            assert report.config.dim == n - 1
            assert report.config.P.shape == (n, n - 1)
            check = verifier.verify(report.config, spec)
            assert check.matched
            assert report.margin >= report.epsilon / 2
            assert min(report.min_eigenvalues) > 0


def test_realize_linear_all_orders_on_d3():
    pairs = complete_pairs(3)
    for perm in itertools.permutations(pairs):
        spec = OrderSpec("complete", 3, tuple((p,) for p in perm))
        report = realize_linear_complete(spec)
        assert report.config.dim == 1
        assert verifier.verify(report.config, spec).matched


def test_realize_linear_named_d4_chain():
    chain = [(3, 4), (1, 2), (1, 3), (2, 3), (2, 4), (1, 4)]
    spec = OrderSpec("complete", 4, tuple((p,) for p in chain))
    report = realize_linear_complete(spec)
    assert report.config.dim == 2
    assert verifier.verify(report.config, spec).matched
    D = distances_of(report.config)
    dmin = D[2, 3]
    assert 0.0 < dmin < 1.0
    # every non-minimal pair sits at its prescribed value 1 + k*eps
    for k, (i, j) in enumerate(chain[1:], start=2):
        assert abs(D[i - 1, j - 1] - (1 + k * report.epsilon)) < 1e-9


def test_realize_linear_d4_gallery_in_plane():
    # the order forbidden on a line embeds one dimension up
    spec = counterexamples.gallery("d4_linear", 4)
    report = realize_linear_complete(spec)
    assert report.config.dim == 2
    assert verifier.verify(report.config, spec).matched


def test_realize_linear_batch():
    rng = np.random.default_rng(13)
    for n in range(3, 9):
        for _ in range(15):
            spec = random_linear_order(rng, n)
            report = realize_linear_complete(spec)
            assert report.config.dim == n - 2
            check = verifier.verify(report.config, spec)
            assert check.matched
            D = distances_of(report.config)
            iu = np.triu_indices(n, 1)
            assert D[iu].min() > 0
            a = spec.classes[0][0]
            dmin = D[a[0] - 1, a[1] - 1]
            assert 0.0 < dmin < 1.0
            others = [D[i - 1, j - 1] for (i, j) in spec.pair_set()
                      if (i, j) != a]
            assert min(others) > 1.0


def test_realize_linear_rejects_small_n():
    spec = OrderSpec("complete", 2, (((1, 2),),))
    with pytest.raises(ShapeMismatch):
        realize_linear_complete(spec)


def test_realize_linear_rejects_preorder(preorder4_spec):
    with pytest.raises(NotLinear):
        realize_linear_complete(preorder4_spec)


def test_realizers_reject_the_other_kind(preorder4_spec, bip32_spec):
    for realizer in (realize_linear_complete, realize_preorder_complete):
        with pytest.raises(ShapeMismatch, match="needs a complete spec"):
            realizer(bip32_spec)
    with pytest.raises(ShapeMismatch, match="needs bipartite spec"):
        realize_preorder_bipartite(preorder4_spec)


def test_realize_bipartite_bip32(bip32_spec):
    report = realize_preorder_bipartite(bip32_spec)
    assert report.config.dim == 2
    assert report.config.P.shape == (3, 2)
    assert report.config.Q.shape == (2, 2)
    assert verifier.verify(report.config, bip32_spec).matched


def test_realize_bipartite_single_class_b22():
    spec = OrderSpec("bipartite", 2,
                     (((1, 1), (1, 2), (2, 1), (2, 2)),), m=2)
    report = realize_preorder_bipartite(spec)
    D = distances_of(report.config)
    assert np.abs(D - D[0, 0]).max() < 1e-9


def test_realize_bipartite_b11():
    spec = OrderSpec("bipartite", 1, (((1, 1),),), m=1)
    report = realize_preorder_bipartite(spec)
    D = distances_of(report.config)
    assert D.shape == (1, 1)
    assert D[0, 0] > 0


def test_realize_bipartite_cyclic3():
    spec = counterexamples.gallery("bip_cyclic_linear", 3)
    report = realize_preorder_bipartite(spec)
    assert report.config.dim == 3
    assert verifier.verify(report.config, spec).matched


def test_realize_bipartite_transpose_path():
    rng = np.random.default_rng(31)
    spec = random_bipartite_preorder(rng, 4, 2)
    report = realize_preorder_bipartite(spec)
    assert report.config.dim == 2
    assert report.config.P.shape == (4, 2)
    assert report.config.Q.shape == (2, 2)
    assert verifier.verify(report.config, spec).matched


def test_realize_bipartite_batch():
    rng = np.random.default_rng(14)
    for n in range(2, 7):
        for m in range(2, 7):
            for _ in range(8):
                spec = random_bipartite_preorder(rng, n, m)
                report = realize_preorder_bipartite(spec)
                assert report.config.dim == min(n, m)
                assert verifier.verify(report.config, spec).matched
                assert distances_of(report.config).min() >= 1.0


def test_realize_bipartite_linear_delegates():
    rng = np.random.default_rng(15)
    spec = random_bipartite_linear(rng, 2, 3)
    report = realize_preorder_bipartite(spec)
    assert report.config.dim == 2
    assert verifier.verify(report.config, spec).matched


def test_realize_dispatch():
    rng = np.random.default_rng(16)
    lin = random_linear_order(rng, 5)
    assert realize(lin).config.dim == 3
    pre = OrderSpec("complete", 5, (tuple(complete_pairs(5)),))
    assert realize(pre).config.dim == 4
    bip = random_bipartite_preorder(rng, 3, 4)
    assert realize(bip).config.dim == 3
    two = OrderSpec("complete", 2, (((1, 2),),))
    assert realize(two).config.dim == 1


def test_align_identity():
    S = np.array([[0.0, 0], [1, 0], [0, 1]])
    R, t = align_isometry(S, S)
    assert np.abs(R - np.eye(2)).max() < 1e-12
    assert np.abs(t).max() < 1e-12


def test_align_rotation_90():
    S = np.array([[0.0, 0], [1, 0], [0, 1], [2, 1]])
    rot = np.array([[0.0, -1], [1, 0]])
    T = S @ rot.T
    R, t = align_isometry(S, T)
    assert np.abs(R - rot).max() < 1e-9
    mapped = S @ R.T + t
    assert np.abs(mapped - T).max() < 1e-9


def test_align_random_isometries_orthogonal():
    rng = np.random.default_rng(18)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(1, 6))
        S = rng.standard_normal((n, d))
        A = rng.standard_normal((d, d))
        Q, _ = np.linalg.qr(A)
        T = S @ Q.T + rng.standard_normal(d)
        R, t = align_isometry(S, T)
        assert np.abs(R.T @ R - np.eye(d)).max() < 1e-12
        mapped = S @ R.T + t
        assert np.abs(mapped - T).max() < 1e-8


def test_align_rejects_incongruent():
    S = np.array([[0.0, 0], [1, 0]])
    T = np.array([[0.0, 0], [2, 0]])
    with pytest.raises(DistanceMismatch):
        align_isometry(S, T)


def test_align_shared_points_of_linear_construction():
    # factor the same n-2 points of a linear construction twice, relative
    # to either endpoint of the minimal pair, and check they align to
    # within 1e-8
    rng = np.random.default_rng(19)
    spec = random_linear_order(rng, 5)
    n = 5
    i1, j1 = spec.classes[0][0]
    perm = [k for k in range(n) if k not in (i1 - 1, j1 - 1)]
    perm += [i1 - 1, j1 - 1]
    eps = realize_linear_complete(spec).epsilon
    D = perturbed_distances(spec, eps)[np.ix_(perm, perm)]
    idx_g = [i for i in range(1, n + 1) if i != n]
    idx_h = [i for i in range(1, n + 1) if i != n - 1]
    sub_g = D[np.ix_([i - 1 for i in idx_g], [i - 1 for i in idx_g])]
    sub_h = D[np.ix_([i - 1 for i in idx_h], [i - 1 for i in idx_h])]
    G = gram_from_distances(sub_g, base=n - 1)
    H = gram_from_distances(sub_h, base=n - 1)
    pg = factor_points(G, dim=n - 2).P[: n - 2]
    ph = factor_points(H, dim=n - 2).P[: n - 2]
    R, t = align_isometry(pg, ph)
    assert np.abs(pg @ R.T + t - ph).max() < 1e-8


@pytest.mark.parametrize("args, m, error, message", [
    (("complete", 3, (((1, 2),), ((1, 3),))), None,
     MissingPair, "pair (2, 3) not covered"),
    (("complete", 3, (((1, 2),), ((1, 3),), ((2, 3),), ((1, 2),))), None,
     DuplicatePair, "pair (1, 2) occurs twice"),
    (("complete", 3, (((1, 2), (1, 3), (2, 3)), ())), None,
     EmptyClass, "empty class in spec"),
    (("complete", 3, (((1, 2),), ((1, 3),), ((2, 4),))), None,
     IndexOutOfRange, "pair (2, 4) out of range"),
    (("complete", 1, (((1, 2),),)), None,
     IndexOutOfRange, "complete spec needs n >= 2, got 1"),
    (("bipartite", 2, (((1, 1), (1, 2), (2, 1)),)), 2,
     MissingPair, "pair (2, 2) not covered"),
    (("bipartite", 2, (((1, 1), (1, 2), (2, 1), (2, 2)),)), None,
     SpecError, "bipartite spec needs m"),
    (("ring", 3, (((1, 2), (1, 3), (2, 3)),)), None,
     SpecError, "unknown kind 'ring'"),
    (("complete", 3, (((1, 2), (1, 3), (2, 3)),)), 7,
     SpecError, "complete spec takes no m, got 7"),
], ids=["missing", "duplicate", "empty-class", "out-of-range", "n-one",
        "bip-missing", "bip-no-m", "unknown-kind", "complete-with-m"])
def test_realize_rejects_what_validate_rejects(args, m, error, message):
    # a spec that validate rejects is refused when built, so no realizer
    # is ever handed one
    with pytest.raises(SpecError) as err:
        OrderSpec(*args, m=m)
    assert type(err.value) is error
    assert str(err.value) == message


def _relabeled(spec, perm):
    """spec with point perm[k] + 1 renamed k + 1."""
    new = {old + 1: k + 1 for k, old in enumerate(perm)}
    return OrderSpec("complete", spec.n, tuple(
        tuple((new[a], new[b]) for a, b in cls) for cls in spec.classes))


def test_linear_realizer_commutes_with_relabeling():
    # renaming the points so the minimal pair is (n-1, n), the others in
    # their order, gives the same realization with its rows permuted
    rng = np.random.default_rng(21)
    for n in range(3, 8):
        for _ in range(10):
            spec = random_linear_order(rng, n)
            i1, j1 = spec.classes[0][0]
            perm = [k for k in range(n) if k not in (i1 - 1, j1 - 1)]
            perm += [i1 - 1, j1 - 1]
            rel = _relabeled(spec, perm)
            assert rel.classes[0] == ((n - 1, n),)
            got, want = realize_linear_complete(spec), realize(rel)
            assert np.array_equal(got.config.P[perm], want.config.P)
            assert got.epsilon == want.epsilon
            assert got.min_eigenvalues == want.min_eigenvalues


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(3, 7).flatmap(
    lambda n: st.permutations(complete_pairs(n))))
def test_linear_realize_with_minimal_pair_anywhere(chain):
    n = max(j for _, j in chain)
    spec = OrderSpec("complete", n, tuple((p,) for p in chain))
    report = realize(spec)
    assert report.config.dim == n - 2
    assert verifier.verify(report.config, spec).matched
    i, j = chain[0]
    assert 0.0 < distances_of(report.config)[i - 1, j - 1] < 1.0


def _transposed(spec):
    return OrderSpec("bipartite", spec.m, tuple(
        tuple((j, i) for i, j in cls) for cls in spec.classes), m=spec.n)


def test_bipartite_tall_spec_is_its_transpose_swapped():
    rng = np.random.default_rng(32)
    for n, m in ((2, 1), (4, 2), (5, 3), (6, 5)):
        spec = random_bipartite_preorder(rng, n, m)
        tall, wide = realize(spec), realize(_transposed(spec))
        assert np.array_equal(tall.config.P, wide.config.Q)
        assert np.array_equal(tall.config.Q, wide.config.P)
        assert tall.epsilon == wide.epsilon
        assert tall.margin == wide.margin
        assert tall.min_eigenvalues == wide.min_eigenvalues


def test_bipartite_realizer_builds_no_per_apex_gram(monkeypatch):
    # no realizer re-checks a Gram it built itself, eigen-factors a Gram
    # into points or aligns two factorizations: each step forms its apex
    # Grams in pieces and one Cholesky factor of them, whole or in closed
    # form, is the configuration
    grams = count_calls(monkeypatch, schoenberg.gram_from_distances)
    eigens = count_calls(monkeypatch, schoenberg.min_eigenvalue)
    factors = count_calls(monkeypatch, schoenberg.factor_points)
    aligns = count_calls(monkeypatch, align_isometry)
    rng = np.random.default_rng(33)
    for n, m in ((3, 3), (2, 5), (5, 2), (1, 4), (4, 1)):
        report = realize(random_bipartite_preorder(rng, n, m))
        assert len(report.min_eigenvalues) == max(n, m)
    for n in (2, 3, 6):
        report = realize_preorder_complete(random_preorder(rng, n))
        assert len(report.min_eigenvalues) == 1
    for n in (3, 4, 7):
        report = realize_linear_complete(random_linear_order(rng, n))
        assert len(report.min_eigenvalues) == 2
    assert not grams and not eigens and not factors and not aligns


def test_validate_runs_once_per_spec_object(monkeypatch):
    calls = count_calls(monkeypatch, orders.validate)
    rng = np.random.default_rng(34)
    for spec in (random_linear_order(rng, 5), random_preorder(rng, 5),
                 random_bipartite_preorder(rng, 2, 4),
                 random_bipartite_preorder(rng, 4, 2)):
        del calls[:]
        parsed = orders.from_json(orders.to_json(spec))
        config = realize(parsed).config
        assert verifier.verify(config, parsed).matched
        assert len(calls) == 1


def _eigen_bound(gram: np.ndarray) -> float:
    """4*k*u*|G|, of the order of a dense eigen-solve's own error on a
    least eigenvalue of the k x k Gram G (u the unit roundoff, |G| the
    largest absolute row sum); the simplex reduction and the dense solve
    agree within it."""
    u = np.finfo(float).eps / 2
    return 4 * len(gram) * u * np.abs(gram).sum(axis=1).max()


def test_bipartite_grams_match_per_apex_reference():
    # reference: each apex's distance matrix through gram_from_distances,
    # as the realizer did one apex at a time; the least eigenvalues agree
    # within the order of an eigen-solve's error (the realizer takes them
    # from a 3 x 3 reduction), and the base rows are the simplex Gram's
    # Cholesky factor with a zero last column, then the origin, within a
    # few units of rounding (the realizer writes the factor in closed form)
    rng = np.random.default_rng(35)
    for n, m in ((1, 3), (3, 1), (2, 5), (4, 4), (6, 3), (9, 12)):
        spec = random_bipartite_preorder(rng, n, m)
        report = realize_preorder_bipartite(spec)
        R = spec.ranks.reshape(n, m)
        if m < n:
            R = R.T
        k, eps = R.shape[0], report.epsilon
        D = np.full((k + 1, k + 1), 1.0 + eps)
        np.fill_diagonal(D, 0.0)
        simplex = gram_from_distances(D[:k, :k], k)
        for col, got in zip(R.T, report.min_eigenvalues, strict=True):
            D[k, :k] = D[:k, k] = 1.0 + col * eps
            gram = gram_from_distances(D, k)
            want = min_eigenvalue(gram)
            assert abs(got - want) <= _eigen_bound(gram.matrix)
        P = report.config.P if m >= n else report.config.Q
        want = np.zeros((k, k))
        want[:k - 1, :k - 1] = np.linalg.cholesky(simplex.matrix)
        assert np.abs(P - want).max() <= 4 * np.finfo(float).eps
        assert not np.triu(P, 1).any() and not P[-1].any()


def _dense_apex_stack(base: np.ndarray, apexes: np.ndarray) -> np.ndarray:
    """The (m, k, k) stack of apex Grams from a k x k base and m x k apex
    target distances, built from the distances as the complete realizers
    built it before their per-shape plan: apex j's Gram relative to the
    last base point, apex last, in gram_from_distances' float operations."""
    b2, a2 = base * base, apexes * apexes
    db2 = b2[-1, :-1]
    G = np.empty((len(a2),) + b2.shape)
    G[:, :-1, :-1] = 0.5 * (db2[:, None] + db2[None, :] - b2[:-1, :-1])
    G[:, :-1, -1] = G[:, -1, :-1] = 0.5 * (db2 + a2[:, -1:] - a2[:, :-1])
    G[:, -1, -1] = 0.5 * (a2[:, -1] + a2[:, -1])
    return G


def test_whole_gram_factor_places_every_apex_at_its_targets_on_one_side():
    # random points in R^k: the first k are the base, the rest apexes; the
    # placement from the factor of the whole apex Grams must reproduce
    # every prescribed distance, lay the base out lower triangular (its
    # last coordinates and last point zero) and put each apex at a
    # positive height
    rng = np.random.default_rng(36)
    for k in (1, 2, 3, 6, 10):
        for m in (1, 2, 4):
            X = rng.standard_normal((k + m, k)) * 3.0
            D = distances_of(schoenberg.PointConfig(dim=k, P=X))
            Y, _ = _stack_factor(_dense_apex_stack(D[:k, :k], D[k:, :k]))
            assert Y.shape == (k + m, k)
            assert not Y[:k, -1].any() and not Y[k - 1].any()
            assert not np.triu(Y[:k], 1).any()
            assert (Y[k:, -1] > 0).all()
            got = distances_of(schoenberg.PointConfig(dim=k, P=Y))
            scale = float(D.max())
            assert np.abs(got[:k] - D[:k]).max() <= 1e-12 * scale
            assert np.abs(got[k:, :k] - D[k:, :k]).max() <= 1e-12 * scale
    # a stack with one Gram that is positive semidefinite but singular
    # does not factor, even when the other does
    singular = np.array([[[4.0, 2.0], [2.0, 1.0]], [[4.0, 0.0], [0.0, 1.0]]])
    with pytest.raises(NotPSD):
        _stack_factor(singular)
    with pytest.raises(NotPSD):
        _stack_factor(singular[::-1])


def test_closed_form_simplex_factor_matches_cholesky_and_solve():
    # the corner (c/2)(I + J) of size p: the closed-form factor against
    # np.linalg.cholesky, the prefix-mean forward substitution against
    # np.linalg.solve on that factor, and the heights against the Schur
    # complements tip - |Y|^2 they give; the one-class edge c/2 and random
    # edges near it, at two simplex sides
    rng = np.random.default_rng(48)
    u = np.finfo(float).eps
    for p in (1, 2, 5, 99, 599):
        for c in (1.0, 1.7):
            corner = 0.5 * c * (np.eye(p) + 1.0)
            edge = 0.5 * c * (1.0 + 0.1 * rng.random((6, p)))
            edge[0] = 0.5 * c
            tip = c * (1.0 + 0.1 * rng.random(6))
            X, lam = _simplex_factor(c, edge, tip)
            L, Y, h = X[:p, :p], X[p + 1:, :p], X[p + 1:, p]
            assert np.array_equal(
                lam, _simplex_least_eigenvalues(c, edge, tip))
            L_ref = np.linalg.cholesky(corner)
            Y_ref = np.linalg.solve(L_ref, edge.T).T
            s_ref = tip - (Y_ref * Y_ref).sum(axis=1)
            assert np.abs(L - L_ref).max() <= 4 * u
            assert np.abs(Y - Y_ref).max() <= 64 * u
            assert np.abs(h * h - s_ref).max() <= 4096 * u * c
            assert (h > 0).all()
    # at p = 0 (a one-point base) the height is the tip's root, and a
    # complement at or below zero raises NotPSD
    X, _ = _simplex_factor(1.0, np.empty((2, 0)), np.array([4.0, 9.0]))
    assert X.shape == (3, 1) and X[:, 0].tolist() == [0, 2, 3]
    with pytest.raises(NotPSD):
        _simplex_factor(2.0, np.full((2, 3), 2.0), np.array([9.0, 1.0]))
    # the cached unit factor is read-only
    assert not _unit_simplex_factor(5).flags.writeable


def test_stack_factor_is_each_grams_own_factor_bit_for_bit():
    # the Grams of a stack share their leading block, so the factor of the
    # last one carries the first's leading block: the placement's pieces
    # are those of each Gram factored alone, bit for bit
    rng = np.random.default_rng(51)
    for k in (1, 2, 3, 7, 64, 65, 300):
        for m in (1, 2, 3):
            X = rng.standard_normal((k + m, k))
            D = distances_of(schoenberg.PointConfig(dim=k, P=X))
            G = _dense_apex_stack(D[:k, :k], D[k:, :k])
            placed, lam = _stack_factor(G)
            L, Y, h = placed[:k - 1, :k - 1], placed[k:, :-1], placed[k:, -1]
            alone = [np.linalg.cholesky(g) for g in G]
            assert np.array_equal(lam, np.linalg.eigvalsh(G)[:, 0])
            assert np.array_equal(L, alone[0][:-1, :-1])
            assert np.array_equal(Y, [f[-1, :-1] for f in alone])
            assert np.array_equal(h, [f[-1, -1] for f in alone])


def _dense_target(spec, eps):
    """The complete realizers' stack at eps as they built it before their
    per-shape plan: the whole target matrix in point order, then the
    dense builder."""
    n = spec.n
    if spec.is_linear() and n >= 3:
        pair = [i - 1 for i in spec._ij[0].tolist()]
        order = [k for k in range(n) if k not in pair] + pair
        M = perturbed_distances(spec, eps)[np.ix_(order, order[:-2])]
        return _dense_apex_stack(M[:-2], M[-2:])
    order = [*range(n - 2), n - 1, n - 2]
    M = perturbed_distances(spec, eps)[np.ix_(order, order)]
    return _dense_apex_stack(M[:-1, :-1], M[-1:, :-1])


def test_planned_apex_stack_is_the_dense_one_bit_for_bit():
    # the stack gathered with the shape's plan is, byte for byte, the one
    # built from the whole target matrix, NaN and inf included, for
    # preorders and linear orders at n = 3..40, also at eps whose squares
    # overflow; a realize that starts at such an eps raises NonFiniteEntry
    # exactly where the dense stack is not finite
    rng = np.random.default_rng(52)
    kinds = set()
    for n in range(3, 41):
        for gen in (random_preorder, random_linear_order):
            spec = gen(rng, n)
            pair = (tuple(i - 1 for i in spec._ij[0].tolist())
                    if spec.is_linear() else None)
            target, _ = _gathered_target(spec, pair)
            top = spec.num_classes
            for eps in (0.45, 1.0 / (2 * top), 1e-3, 3e-7, 1e130,
                        1e154 / top, 2e154 / top, 1e300):
                with np.errstate(over="ignore", invalid="ignore"):
                    want = _dense_target(spec, eps)
                    got, = target(eps)
                assert got.tobytes() == want.tobytes()
                finite = bool(np.isfinite(want).all())
                kinds.add(finite)
                if not finite:
                    with pytest.raises(NonFiniteEntry):
                        realize(spec, search=EpsilonSearch(initial=eps,
                                                           max_steps=1))
    assert kinds == {True, False}


def test_cached_apex_plans_are_read_only_and_large_ones_not_cached():
    # plans whose k x k block has at most CHUNK entries are cached, one per
    # (n, minimal pair), and read-only; larger ones are built anew on each
    # realize, with 4-byte indices that give the same positions
    rng = np.random.default_rng(54)
    cache = constructions._apex_plan
    for n, linear, cached in ((8, False, True), (8, True, True),
                              (257, False, True), (258, True, True),
                              (258, False, False), (259, True, False)):
        spec = (random_linear_order if linear else random_preorder)(rng, n)
        pair = tuple(i - 1 for i in spec._ij[0].tolist()) if linear else None
        held = cache.cache_info().currsize
        rows = _gathered_target(spec, pair)[1]
        assert (rows is _gathered_target(spec, pair)[1]) == cached
        assert not rows.flags.writeable
        if not cached:
            assert cache.cache_info().currsize == held
            plan = cache.__wrapped__(n, pair, np.int32)
            want = cache.__wrapped__(n, pair, np.intp)
            assert all(x.dtype == np.int32 for x in plan[1:])
            assert all(np.array_equal(x, y) for x, y in zip(plan, want))
    assert cache.cache_info().maxsize >= 83 + 6  # roundtrip shapes, n 3..8


def test_perturbed_distances_refuses_bipartite_specs():
    # wide and tall bipartite specs alike: a typed error, not numpy's
    # IndexError or a matrix with a nonzero diagonal
    rng = np.random.default_rng(53)
    for n, m in ((3, 2), (2, 3), (1, 4), (4, 1), (3, 3)):
        spec = random_bipartite_preorder(rng, n, m)
        with pytest.raises(ShapeMismatch, match="complete spec"):
            perturbed_distances(spec, 0.1)


def test_unfactored_step_is_not_eigen_solved(monkeypatch):
    # a step whose factor raises NotPSD is rejected before any eigen-solve,
    # for the stack and the simplex factor alike; the search accepts the
    # next step, whose Grams factor, and eigen-solves that step once
    rng = np.random.default_rng(49)
    preorder, order = random_preorder(rng, 4), [0, 1, 3, 2]
    wide = OrderSpec("bipartite", 2, (((1, 1), (2, 1), (1, 2)), ((2, 2),),
                                      ((1, 3), (2, 3))), m=3)

    def stack(eps):
        M = perturbed_distances(preorder, eps)[np.ix_(order, order)]
        return _dense_apex_stack(M[:-1, :-1], M[-1:, :-1]),

    def simplex(eps):
        return _simplex_pieces(wide.ranks.reshape(2, 3), eps)[0]

    calls = []
    monkeypatch.setattr(constructions.np.linalg, "eigvalsh", _counted(
        calls, np.linalg.eigvalsh))
    for spec, pieces, rows, factor, bad in (
            (preorder, stack, order, _stack_factor, (-np.eye(3)[None],)),
            (wide, simplex, None, _simplex_factor,
             (1.0, np.full((3, 1), 0.5), np.full(3, -1.0)))):
        del calls[:]
        seen = []

        def target(eps):
            seen.append(len(calls))
            return bad if eps == 0.2 else pieces(eps)

        report = constructions._realize_apexes(
            spec, constructions.ETA, EpsilonSearch(initial=0.2),
            lambda: (target, rows), factor)
        assert report.epsilon == 0.1 and seen == [0, 0] and len(calls) == 1
        assert verifier.verify(report.config, spec).matched


def test_preorder_grams_match_whole_matrix_reference():
    # reference: the whole target matrix through gram_from_distances with
    # base n, as the realizer did before apex placement
    rng = np.random.default_rng(37)
    for n in (2, 3, 4, 6, 9, 15):
        for _ in range(5):
            spec = random_preorder(rng, n)
            report = realize_preorder_complete(spec)
            M = perturbed_distances(spec, report.epsilon)
            want = min_eigenvalue(gram_from_distances(M, n))
            assert report.min_eigenvalues == (want,)
            assert verifier.verify(report.config, spec).matched


def test_linear_grams_match_per_apex_reference():
    # reference: each endpoint of the minimal pair with the other n-2
    # points, through gram_from_distances with the last of those as base
    rng = np.random.default_rng(38)
    for n in (3, 4, 5, 8, 12):
        for _ in range(5):
            spec = random_linear_order(rng, n)
            report = realize_linear_complete(spec)
            i1, j1 = spec.classes[0][0]
            others = [k for k in range(n) if k not in (i1 - 1, j1 - 1)]
            M = perturbed_distances(spec, report.epsilon)
            want = tuple(
                min_eigenvalue(gram_from_distances(
                    M[np.ix_(others + [apex], others + [apex])], n - 2))
                for apex in (i1 - 1, j1 - 1))
            assert report.min_eigenvalues == want


def _whole_grams(spec, eps):
    """The apex Grams at eps of the realizer that realize picks for spec,
    each built whole with gram_from_distances, the apex last."""
    if spec.kind == "bipartite":
        R = spec.ranks.reshape(spec.n, spec.m)
        R = R.T if spec.m < spec.n else R
        k = len(R)
        D = np.full((k + 1, k + 1), 1.0 + eps)
        np.fill_diagonal(D, 0.0)
        grams = []
        for col in R.T:
            D[k, :k] = D[:k, k] = 1.0 + col * eps
            grams.append(gram_from_distances(D, k))
        return grams
    M = perturbed_distances(spec, eps)
    if spec.is_linear() and spec.n >= 3:
        n = spec.n
        i1, j1 = spec.classes[0][0]
        others = [k for k in range(n) if k not in (i1 - 1, j1 - 1)]
        return [gram_from_distances(M[np.ix_(others + [a], others + [a])],
                                    n - 2) for a in (i1 - 1, j1 - 1)]
    return [gram_from_distances(M, spec.n)]


def _eigvalsh_search(spec, search, eta=constructions.ETA):
    """Reference epsilon search with nothing screened: every step's apex
    Grams are eigen-solved, and the first step whose least eigenvalues all
    clear eta, whose Grams place and, for a linear order, whose placed
    minimal pair lies at a distance in (0, 1) is accepted. Returns the
    accepted eps, the least eigenvalues there and the steps rejected."""
    linear = spec.kind == "complete" and spec.is_linear() and spec.n >= 3
    eps = search.initial
    for rejected in range(search.max_steps):
        grams = _whole_grams(spec, eps)
        eigs = tuple(min_eigenvalue(g) for g in grams)
        if min(eigs) > eta:
            try:
                X, _ = _stack_factor(np.array([g.matrix for g in grams]))
            except NotPSD:
                X = None
            if X is not None and (not linear or 0.0 < float(
                    np.linalg.norm(X[-2] - X[-1])) < 1.0):
                return eps, eigs, rejected
        eps *= search.shrink_factor
    raise EpsilonExhausted("reference search exhausted")


def test_screened_search_matches_eigvalsh_reference():
    # the realizers reject a step whose Cholesky factor fails before
    # eigen-solving it; the accepted eps and its least eigenvalues must be
    # those of a search that eigen-solves every step, also where several
    # steps are rejected
    rng = np.random.default_rng(39)
    specs = [random_preorder(rng, n) for n in (3, 5, 8, 20, 60)]
    specs += [random_linear_order(rng, n) for n in (3, 5, 8, 20, 60)]
    specs += [random_bipartite_preorder(rng, n, m)
              for n, m in ((1, 4), (3, 2), (5, 5), (12, 9), (30, 25))]
    most = {}
    for spec in specs:
        for search in (default_search(spec), EpsilonSearch(initial=0.45),
                       EpsilonSearch(initial=0.3, shrink_factor=0.8)):
            eta = constructions.ETA
            for _ in range(2):
                report = realize(spec, eta=eta, search=search)
                eps, eigs, rejected = _eigvalsh_search(spec, search, eta)
                assert report.epsilon == eps
                if spec.kind == "bipartite":
                    # the realizer's 3 x 3 reduction: within the order of
                    # the dense solve's own error, not bit for bit
                    bounds = [_eigen_bound(g.matrix)
                              for g in _whole_grams(spec, eps)]
                    assert all(abs(a - b) <= t for a, b, t in zip(
                        report.min_eigenvalues, eigs, bounds, strict=True))
                else:
                    assert report.min_eigenvalues == eigs
                # again with the accepted step's least eigenvalue just
                # above eta, where a screen stricter than eta would show
                eta = 0.9 * min(eigs)
            kind = ("linear" if spec.kind == "complete" and spec.is_linear()
                    else spec.kind)
            most[kind] = max(most.get(kind, 0), rejected)
    assert min(most.values()) >= 2, most


def _factors(factor, *pieces) -> bool:
    """Whether factor(*pieces) gives a factor rather than raising NotPSD."""
    try:
        factor(*pieces)
    except NotPSD:
        return False
    return True


def test_screen_rejects_only_what_the_eigenvalues_reject():
    # the whole-Gram factor of each apex Gram shifted by s (G_j - s*I)
    # exists exactly when its least eigenvalue clears s, and the stack of
    # all of them factors exactly when every one does. On every draw a
    # shift 1e-3 below the worst apex's least eigenvalue passes and one
    # 1e-3 above it is rejected; per apex, shifts between the apexes'
    # least eigenvalues split them as the eigenvalues do
    rng = np.random.default_rng(40)
    for k, m in ((1, 1), (1, 4), (2, 1), (4, 3), (7, 12), (30, 5)):
        for _ in range(4):
            X = rng.standard_normal((k + m, k))
            D = distances_of(schoenberg.PointConfig(dim=k, P=X))
            base = D[:k, :k] * (1.0 + 0.2 * rng.random((k, k)))
            base = np.triu(base, 1) + np.triu(base, 1).T
            apexes = D[k:, :k] * (1.0 + 0.2 * rng.random((m, k)))
            G = _dense_apex_stack(base, apexes)
            lam = np.linalg.eigvalsh(G)[:, 0]
            shifts = [lam.min() - 1e-3, lam.min() + 1e-3,
                      *(lam[1:] + lam[:-1]) / 2]
            for shift in shifts:
                shifted = G - shift * np.eye(k)
                each = [_factors(_stack_factor, g[None]) for g in shifted]
                assert each == (lam > shift).tolist()
                assert _factors(_stack_factor, shifted) == all(each)


def test_simplex_screen_rejects_only_what_the_eigenvalues_reject():
    # over a regular simplex the closed-form factor places apex j exactly
    # when its dense least eigenvalue is positive: at eps from 1/(2K) up,
    # where Grams stop being positive definite, away from rounding
    rng = np.random.default_rng(50)
    both = set()
    for n, m in ((1, 3), (2, 4), (4, 4), (6, 9), (12, 20)):
        R = random_bipartite_preorder(rng, n, m).ranks.reshape(n, m)
        for eps in np.geomspace(0.5 / R.max(), 2.0, 12):
            pieces, G = _simplex_pieces(R, eps)
            lam = np.linalg.eigvalsh(G)[:, 0]
            for j in np.flatnonzero(np.abs(lam) > 1e-9):
                placed = _factors(_simplex_factor, pieces[0],
                                  pieces[1][j:j + 1], pieces[2][j:j + 1])
                assert placed == (lam[j] > 0)
                both.add(placed)
    assert both == {True, False}


def _probe_search(monkeypatch, name: str) -> tuple[list, list]:
    """Record every call of np.linalg.<name> and every probed eps step."""
    calls, steps = [], []
    monkeypatch.setattr(constructions.np.linalg, name, _counted(
        calls, getattr(np.linalg, name)))
    choose = constructions.choose_epsilon

    def probing(search, test):
        return choose(search, _counted(steps, test))

    monkeypatch.setattr(constructions, "choose_epsilon", probing)
    return calls, steps


def _searches_that_reject(seed: int):
    """A spec for each realizer; searched from eps = 0.45, each rejects
    several steps."""
    rng = np.random.default_rng(seed)
    return (random_preorder(rng, 12), random_linear_order(rng, 12),
            random_bipartite_preorder(rng, 12, 9),
            random_bipartite_preorder(rng, 5, 7))


def test_search_eigen_solves_only_the_step_it_accepts(monkeypatch):
    # a step whose apex Grams are not positive definite fails its Cholesky
    # factor and is not eigen-solved, so a search whose rejected steps are
    # all of that kind eigen-solves once: at the step it accepts, in one
    # batch for Grams this small
    eigen, steps = _probe_search(monkeypatch, "eigvalsh")
    for spec in _searches_that_reject(41):
        del eigen[:], steps[:]
        realize(spec, search=EpsilonSearch(initial=0.45))
        assert len(steps) >= 3
        assert len(eigen) == 1


def test_least_eigenvalues_of_complete_apexes_match_each_solved_alone():
    # the complete realizers have one or two apexes, whose Grams the dense
    # builder makes bit for bit as gram_from_distances does, and whose least
    # eigenvalues one eigvalsh call on the stack gives bit for bit as each
    # Gram solved alone
    rng = np.random.default_rng(44)
    for k in (1, 2, 5, 40, 101):
        for m in (1, 2):
            X = rng.standard_normal((k + m, k))
            D = distances_of(schoenberg.PointConfig(dim=k, P=X))
            G = _dense_apex_stack(D[:k, :k], D[k:, :k])
            for j in range(m):
                keep = [*range(k), k + j]
                want = gram_from_distances(D[np.ix_(keep, keep)], k).matrix
                assert np.array_equal(G[j], want)
            alone = [np.linalg.eigvalsh(g)[0] for g in G]
            assert np.linalg.eigvalsh(G)[:, 0].tolist() == alone


def _simplex_pieces(R: np.ndarray, eps: float):
    """The bipartite realizer's pieces (c, edge, tip) at eps for the k x m
    rank matrix R (a regular simplex of side 1 + eps under m apexes), and
    the stack of the apex Grams they border."""
    base = np.full((len(R),) * 2, 1.0 + eps)
    np.fill_diagonal(base, 0.0)
    G = _dense_apex_stack(base, 1.0 + R.T * eps)
    c = (1.0 + eps) * (1.0 + eps)
    return (c, G[:, -1, :-1].copy(), G[:, -1, -1]), G


def test_simplex_reduction_matches_the_dense_solve():
    # every bipartite shape up to 8 x 8, wide and tall, at several eps:
    # the 3 x 3 reduction (2 x 2 over a two-point base, the tip over one)
    # matches the dense eigen-solve of each apex Gram within the order of
    # its error, and decides lam > eta as it does, at the realizer's eta
    # and at each eta halfway between two apexes' least eigenvalues; the
    # default search then accepts the reference search's eps
    rng = np.random.default_rng(45)
    for n, m in itertools.product(range(1, 9), repeat=2):
        spec = random_bipartite_preorder(rng, n, m)
        R = spec.ranks.reshape(n, m)
        R = R.T if m < n else R
        for eps in (0.1, 0.01, 1e-4, default_search(spec).initial):
            pieces, G = _simplex_pieces(R, eps)
            got = _simplex_least_eigenvalues(*pieces)
            want = np.linalg.eigvalsh(G)[:, 0]
            for j in range(len(got)):
                assert abs(got[j] - want[j]) <= _eigen_bound(G[j])
            levels = np.unique(want)
            gaps = np.diff(levels) > 1e-12
            halfway = (levels[:-1][gaps] + levels[1:][gaps]) / 2
            for eta in (constructions.ETA, *halfway):
                assert np.array_equal(got > eta, want > eta)
        report = realize(spec)
        assert report.epsilon == _eigvalsh_search(spec, default_search(
            spec))[0]


def test_simplex_reduction_does_not_overflow_where_the_gram_does_not():
    # a simplex of side 1e150 with apex edges that differ by about 1e298:
    # |w|^2 would overflow unscaled, the Gram's entries do not, and the
    # reduction still matches the dense solve in relative terms. A one-
    # class spec is a regular simplex, positive definite at any eps; at
    # eps = 9e153 its Gram entries are finite but c*k/2 is not for k >= 5,
    # and it still realizes, with least eigenvalue c/2
    rng = np.random.default_rng(46)
    for k in (1, 2, 3, 7):
        X = rng.standard_normal((k + 4, k)) * 1e150
        D = distances_of(schoenberg.PointConfig(dim=k, P=X))
        base = np.full((k, k), 1e150)
        np.fill_diagonal(base, 0.0)
        G = _dense_apex_stack(base, D[k:, :k])
        assert np.isfinite(G).all()
        got = _simplex_least_eigenvalues(1e150 * 1e150, G[:, -1, :-1].copy(),
                                         G[:, -1, -1])
        want = np.linalg.eigvalsh(G)[:, 0]
        for j in range(len(got)):
            assert abs(got[j] - want[j]) <= _eigen_bound(G[j])
    for n, m in ((5, 6), (7, 4), (9, 9)):
        spec = OrderSpec("bipartite", n, (tuple(orders.bipartite_pairs(
            n, m)),), m=m)
        report = realize(spec, search=EpsilonSearch(initial=9e153,
                                                    max_steps=1))
        half = (1.0 + 9e153) ** 2 / 2
        assert np.allclose(report.min_eigenvalues, half, rtol=1e-14)


def test_a_least_eigenvalue_at_rounding_residue_is_rejected():
    # On B_{2,2} with ranks [[1, 2], [1, 3]], apex Q2 and the base P1, P2
    # tend to a degenerate triangle of sides eps, 2 eps and 3 eps, so at
    # eps = 1e130 its Gram is singular to rounding: its least eigenvalue,
    # about 1.5e-17 s, is residue, which eta alone let through
    search = EpsilonSearch(initial=1e130, max_steps=1)
    residue = OrderSpec("bipartite", 2, (((1, 1), (2, 1)), ((1, 2),),
                                         ((2, 2),)), m=2)
    with pytest.raises(EpsilonExhausted):
        realize(residue, search=search)
    # one class, and two classes whose apexes are each equidistant from
    # the base: the Grams stay well conditioned at any eps, and realize
    one = OrderSpec("bipartite", 2, (tuple(orders.bipartite_pairs(2, 3)),),
                    m=3)
    equal_rows = OrderSpec("bipartite", 2, (((1, 1), (2, 1)),
                                            ((1, 2), (2, 2))), m=2)
    for spec in (one, equal_rows):
        report = realize(spec, search=search)
        s = (1.0 + spec.num_classes * 1e130) ** 2
        assert min(report.min_eigenvalues) > 0.1 * s
        assert verifier.verify(report.config, spec).matched


def test_bipartite_realize_eigen_solves_no_matrix_past_3x3(monkeypatch):
    # the O(k) reduction: whatever the base's size, a bipartite realize
    # eigen-solves only 3 x 3 (or, over a base of at most two points,
    # smaller) matrices, once per search
    eigen, _ = _probe_search(monkeypatch, "eigvalsh")
    rng = np.random.default_rng(47)
    for n, m in ((1, 4), (2, 6), (5, 7), (12, 9), (30, 25), (3, 40)):
        del eigen[:]
        realize(random_bipartite_preorder(rng, n, m),
                search=EpsilonSearch(initial=0.45))
        assert len(eigen) == 1
        assert eigen[0][0].shape == (max(n, m),) + (min(3, n, m),) * 2


def test_search_factors_each_step_once(monkeypatch):
    # each probed step factors its apex Grams one at a time, a linear
    # order's second only once its first has factored, and no step calls a
    # LAPACK solve: a preorder makes one Cholesky call per step, a linear
    # order one or two, the bipartite realizer's closed form none
    factors, steps = _probe_search(monkeypatch, "cholesky")
    solves = []
    monkeypatch.setattr(constructions.np.linalg, "solve",
                        _counted(solves, np.linalg.solve))
    both = set()
    for spec in _searches_that_reject(41):
        del factors[:], steps[:]
        realize(spec, search=EpsilonSearch(initial=0.45))
        assert len(steps) >= 3
        assert all(g.ndim == 2 for g, in factors)
        if spec.kind == "bipartite":
            assert not factors
        elif not spec.is_linear():
            assert len(factors) == len(steps)
        else:
            calls = iter(factors)
            for _ in steps:
                first, = next(calls)
                second = np.linalg.eigvalsh(first)[0] > 0
                if second:
                    next(calls)
                both.add(second)
            assert next(calls, None) is None
    assert both == {True, False}
    assert not solves


def test_step_within_eta_of_singular_is_rejected(monkeypatch):
    # at a step whose apex Grams are positive definite, a least eigenvalue
    # in (0, eta] rejects the step, after the factor passed and the step
    # was eigen-solved; just below it the same step is accepted
    eigen, _ = _probe_search(monkeypatch, "eigvalsh")
    for spec in one_spec_per_realizer(43):
        report = realize(spec)
        least = min(report.min_eigenvalues)
        assert least > constructions.ETA
        at = EpsilonSearch(initial=report.epsilon, max_steps=1)
        for eta in (least, 1.5 * least):
            del eigen[:]
            with pytest.raises(EpsilonExhausted):
                realize(spec, eta=eta, search=at)
            assert len(eigen) == 1
        again = realize(spec, eta=0.99 * least, search=at)
        assert again.epsilon == report.epsilon
        assert again.min_eigenvalues == report.min_eigenvalues


def _counted(record: list, fn):
    def counted(*args):
        record.append(args)
        return fn(*args)
    return counted


def test_realize_reads_its_margin_only_when_asked(monkeypatch):
    # realize computes no distances; margin is computed once, on first
    # read, and equals bit for bit the least class gap verify reports on
    # the match
    calls = count_calls(monkeypatch, constructions._realized_margin)
    rng = np.random.default_rng(42)
    specs = [random_preorder(rng, n) for n in (2, 5, 9)]
    specs += [random_linear_order(rng, n) for n in (3, 6, 10)]
    specs += [random_bipartite_preorder(rng, n, m)
              for n, m in ((1, 1), (3, 5), (6, 2))]
    specs += [OrderSpec("complete", 4, (tuple(complete_pairs(4)),)),
              OrderSpec("bipartite", 2, ((tuple(
                  orders.bipartite_pairs(2, 3))),), m=3)]
    for spec in specs:
        del calls[:]
        report = realize(spec)
        assert not calls
        check = verifier.verify(report.config, spec)
        assert check.matched
        for _ in range(2):
            assert report.margin.hex() == check.margin.hex()
        assert len(calls) == 1


def _parity_corpus():
    """Criteria 1-3's seeded specs (with their realizers), seeded 1x1 to
    6x6 bipartite preorders and three large bipartite preorders."""
    rng = np.random.default_rng(1001)
    for n in range(3, 9):
        for _ in range(200):
            yield realize_preorder_complete, random_preorder(rng, n)
    rng = np.random.default_rng(1002)
    for n in range(3, 9):
        for _ in range(200):
            yield realize, random_linear_order(rng, n)
    rng = np.random.default_rng(1003)
    for n, m in itertools.product(range(2, 7), repeat=2):
        for _ in range(200):
            yield realize, random_bipartite_preorder(rng, n, m)
    rng = np.random.default_rng(2601)
    for n, m in itertools.product(range(1, 7), repeat=2):
        for _ in range(10):
            yield realize, random_bipartite_preorder(rng, n, m)
    rng = np.random.default_rng(2602)
    for n, m in ((100, 100), (60, 300), (300, 60)):
        yield realize, random_bipartite_preorder(rng, n, m)


# SHA-256 of the corpus' decisions: a change to how an epsilon step is
# factored must leave it unchanged
PARITY_DIGEST = ("cbf686012d48c9452f3aef24b19f745c"
                 "64b05dd5b47de967570f91f648bf12ba")


def test_epsilon_decisions_match_the_pinned_digest():
    # the accepted eps, every least eigenvalue and the dimension of each
    # corpus realize, bit for bit, as float.hex
    digest = hashlib.sha256()
    for realizer, spec in _parity_corpus():
        report = realizer(spec)
        digest.update(" ".join([
            report.epsilon.hex(), *map(float.hex, report.min_eigenvalues),
            str(report.config.dim)]).encode() + b"\n")
    assert digest.hexdigest() == PARITY_DIGEST
