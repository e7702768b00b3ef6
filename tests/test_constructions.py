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
from ordembed.constructions import (EpsilonSearch, _apex_grams,
                                    _bordered_cholesky, _least_eigenvalues,
                                    _simplex_least_eigenvalues,
                                    align_isometry, choose_epsilon,
                                    default_search, perturbed_distances,
                                    place_apexes, realize,
                                    realize_linear_complete,
                                    realize_preorder_bipartite,
                                    realize_preorder_complete)
from ordembed.errors import (BadSize, DistanceMismatch, EpsilonExhausted,
                             NotLinear, NotPSD, ShapeMismatch, SpecError)
from ordembed.orders import OrderSpec, complete_pairs
from ordembed.schoenberg import (distances_of, factor_points,
                                 gram_from_distances, min_eigenvalue)


def test_epsilon_search_validation():
    with pytest.raises(BadSize):
        EpsilonSearch(initial=0.0)
    with pytest.raises(BadSize):
        EpsilonSearch(initial=float("nan"))
    with pytest.raises(BadSize):
        EpsilonSearch(initial=1.0, shrink_factor=1.0)
    with pytest.raises(BadSize):
        EpsilonSearch(initial=1.0, max_steps=0)


@pytest.mark.parametrize("eta", [0.0, -1.0, float("nan")])
def test_realizers_reject_nonpositive_eta(eta):
    for spec in one_spec_per_realizer(9):
        with pytest.raises(BadSize, match="eta must be positive"):
            realize(spec, eta=eta)


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


@pytest.mark.parametrize("spec", [
    OrderSpec("complete", 3, (((1, 2),), ((1, 3),))),
    OrderSpec("complete", 3, (((1, 2),), ((1, 3),), ((2, 3),), ((1, 2),))),
    OrderSpec("complete", 3, (((1, 2), (1, 3), (2, 3)), ())),
    OrderSpec("complete", 3, (((1, 2),), ((1, 3),), ((2, 4),))),
    OrderSpec("complete", 1, (((1, 2),),)),
    OrderSpec("bipartite", 2, (((1, 1), (1, 2), (2, 1)),), m=2),
    OrderSpec("bipartite", 2, (((1, 1), (1, 2), (2, 1), (2, 2)),)),
    OrderSpec("ring", 3, (((1, 2), (1, 3), (2, 3)),)),
    OrderSpec("complete", 3, (((1, 2), (1, 3), (2, 3)),), m=7),
], ids=["missing", "duplicate", "empty-class", "out-of-range", "n-one",
        "bip-missing", "bip-no-m", "unknown-kind", "complete-with-m"])
def test_realize_rejects_what_validate_rejects(spec):
    with pytest.raises(SpecError) as want:
        orders.validate(spec)
    with pytest.raises(SpecError) as got:
        realize(spec)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    with pytest.raises(SpecError) as read:
        spec.ranks
    assert type(read.value) is type(want.value)
    assert str(read.value) == str(want.value)


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
    # into points or aligns two factorizations: _apex_grams forms the
    # Grams and one Cholesky factor of them is the configuration
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


def _apex_gram(corner, edge, tip, j: int) -> np.ndarray:
    """Apex j's whole Gram from the pieces _apex_grams returns."""
    return np.block([[corner, edge[j][:, None]], [edge[j][None, :], tip[j]]])


def test_bipartite_grams_match_per_apex_reference():
    # reference: each apex's distance matrix through gram_from_distances,
    # as the realizer did one apex at a time; the least eigenvalues agree
    # within the order of an eigen-solve's error (the realizer takes them
    # from a 3 x 3 reduction), and the base rows are bit for bit the
    # simplex Gram's Cholesky factor with a zero last column, then the
    # origin
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
        assert np.array_equal(P, want)


def test_place_apexes_meets_every_target_on_one_side():
    # random points in R^k: the first k are the base, the rest apexes; the
    # placement must reproduce every prescribed distance, lay the base out
    # lower triangular (its last coordinates and last point zero) and put
    # each apex at a nonnegative height
    rng = np.random.default_rng(36)
    for k in (1, 2, 3, 6, 10):
        for m in (1, 4):
            X = rng.standard_normal((k + m, k)) * 3.0
            D = distances_of(schoenberg.PointConfig(dim=k, P=X))
            grams = _apex_grams(D[:k, :k], D[k:, :k])
            assert (_least_eigenvalues(*grams) > 0).all()
            Y = place_apexes(*_bordered_cholesky(*grams))
            assert Y.shape == (k + m, k)
            assert not Y[:k, -1].any() and not Y[k - 1].any()
            assert not np.triu(Y[:k], 1).any()
            assert (Y[k:, -1] >= 0).all()
            got = distances_of(schoenberg.PointConfig(dim=k, P=Y))
            scale = float(D.max())
            assert np.abs(got[:k] - D[:k]).max() <= 1e-12 * scale
            assert np.abs(got[k:, :k] - D[k:, :k]).max() <= 1e-12 * scale
    # a corner that is positive semidefinite but singular does not factor,
    # and an apex with a zero complement has no positive height
    with pytest.raises(NotPSD):
        _bordered_cholesky(np.array([[4.0, 2.0], [2.0, 1.0]]),
                           np.ones((1, 2)), np.full(1, 9.0))
    factor = _bordered_cholesky(np.eye(2), np.ones((2, 2)),
                                np.array([3.0, 2.0]))
    assert np.array_equal(factor[2], [1.0, 0.0])
    with pytest.raises(NotPSD):
        place_apexes(*factor)


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
            G = np.array([g.matrix for g in grams])
            try:
                X = place_apexes(*_bordered_cholesky(
                    G[0, :-1, :-1], G[:, -1, :-1], G[:, -1, -1]))
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


def test_screen_rejects_only_what_the_eigenvalues_reject():
    # the bordered Cholesky of the pieces shifted by s (corner - s*I, edge,
    # tip - s) is the factor of the apex Grams minus s*I. On every draw it
    # passes a shift 1e-3 below the worst apex's least eigenvalue and
    # rejects one 1e-3 above it. Where the corner factors at the shift,
    # apex j's Schur complement is positive exactly when its least
    # eigenvalue clears the shift; a shift at or past the corner's least
    # eigenvalue fails at the corner's factor, which the step takes as a
    # rejection (by interlacing, some apex's eigenvalue is at or below the
    # shift too). k = 1 has an empty corner, which always factors
    def shifted(grams, shift):
        corner, edge, tip = grams
        return _bordered_cholesky(corner - shift * np.eye(len(corner)),
                                  edge, tip - shift)

    rng = np.random.default_rng(40)
    for k, m in ((1, 1), (1, 4), (2, 1), (4, 3), (7, 12), (30, 5)):
        for _ in range(4):
            X = rng.standard_normal((k + m, k))
            D = distances_of(schoenberg.PointConfig(dim=k, P=X))
            base = D[:k, :k] * (1.0 + 0.2 * rng.random((k, k)))
            base = np.triu(base, 1) + np.triu(base, 1).T
            apexes = D[k:, :k] * (1.0 + 0.2 * rng.random((m, k)))
            grams = _apex_grams(base, apexes)
            lam = _least_eigenvalues(*grams)
            corner_least = (np.linalg.eigvalsh(grams[0])[0] if k > 1
                            else np.inf)
            for shift in (lam.min() - 1e-3, lam.min() + 1e-3):
                if shift >= corner_least:
                    with pytest.raises(NotPSD):
                        shifted(grams, shift)
                else:
                    s = shifted(grams, shift)[2]
                    assert np.array_equal(s > 0, lam > shift)
            assert (shifted(grams, lam.min() - 1e-3)[2] > 0).all()
            if k > 1:
                with pytest.raises(NotPSD):
                    shifted(grams, corner_least + 1e-3)


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


def test_least_eigenvalues_of_complete_apexes_match_each_solved_alone(
        monkeypatch):
    # the complete realizers have one or two apexes, whose Grams take one
    # eigvalsh call as one stack; each least eigenvalue is bitwise that of
    # its Gram solved alone
    rng = np.random.default_rng(44)
    eigen, _ = _probe_search(monkeypatch, "eigvalsh")
    for k in (1, 2, 5, 40, 101):
        for m in (1, 2):
            X = rng.standard_normal((k + m, k))
            D = distances_of(schoenberg.PointConfig(dim=k, P=X))
            corner, edge, tip = _apex_grams(D[:k, :k], D[k:, :k])
            alone = [np.linalg.eigvalsh(_apex_gram(corner, edge, tip, j))[0]
                     for j in range(m)]
            del eigen[:]
            assert _least_eigenvalues(corner, edge, tip).tolist() == alone
            assert len(eigen) == 1


def _simplex_grams(R: np.ndarray, eps: float):
    """The bipartite realizer's apex Gram pieces at eps for the k x m rank
    matrix R (a regular simplex of side 1 + eps under m apexes)."""
    base = np.full((len(R),) * 2, 1.0 + eps)
    np.fill_diagonal(base, 0.0)
    return _apex_grams(base, 1.0 + R.T * eps)


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
            grams = _simplex_grams(R, eps)
            got, want = (_simplex_least_eigenvalues(*grams),
                         _least_eigenvalues(*grams))
            for j in range(len(got)):
                bound = _eigen_bound(_apex_gram(*grams, j))
                assert abs(got[j] - want[j]) <= bound
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
        grams = _apex_grams(base, D[k:, :k])
        assert np.isfinite(grams[1]).all() and np.isfinite(grams[2]).all()
        got, want = (_simplex_least_eigenvalues(*grams),
                     _least_eigenvalues(*grams))
        for j in range(len(got)):
            bound = _eigen_bound(_apex_gram(*grams, j))
            assert abs(got[j] - want[j]) <= bound
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
    # one Cholesky factor per probed step, accepted or not: the factor that
    # decides whether the apex Grams are positive definite also places the
    # points
    factors, steps = _probe_search(monkeypatch, "cholesky")
    for spec in _searches_that_reject(41):
        del factors[:], steps[:]
        realize(spec, search=EpsilonSearch(initial=0.45))
        assert len(steps) >= 3
        assert len(factors) == len(steps)


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
